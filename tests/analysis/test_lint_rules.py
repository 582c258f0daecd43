"""rcast-lint rule self-tests: each rule against a known-bad fixture.

Every fixture asserts the rule id, the exact line, and that the inline /
file-level suppression mechanism silences the finding.
"""

import ast
import textwrap

import pytest

from repro.analysis.lint import lint_source
from repro.analysis.lint.diagnostics import Severity, SuppressionIndex


def lint(source, rel="mac/fixture.py", rules=None):
    """Lint a dedented snippet as though it lived at ``rel``."""
    return lint_source(textwrap.dedent(source), path=rel, rel=rel,
                       rules=rules)


def rule_ids(diagnostics):
    return [d.rule for d in diagnostics]


# ----------------------------------------------------------------------
# R001 — rng-discipline
# ----------------------------------------------------------------------


class TestR001:
    def test_global_random_call(self):
        diags = lint(
            """\
            import random

            def jitter():
                return random.uniform(0.0, 0.1)
            """
        )
        assert rule_ids(diags) == ["R001"]
        assert diags[0].line == 4
        assert diags[0].name == "rng-discipline"
        assert diags[0].severity is Severity.ERROR

    def test_random_constructor_via_alias(self):
        diags = lint(
            """\
            import random as _random

            rng = _random.Random(42)
            """
        )
        # The literal seed also trips R007 (not derived from derive_seed).
        assert rule_ids(diags) == ["R001", "R007"]
        assert diags[0].line == 3

    def test_from_random_import(self):
        diags = lint("from random import randint\n")
        assert rule_ids(diags) == ["R001"]
        assert diags[0].line == 1

    def test_numpy_random(self):
        diags = lint(
            """\
            import numpy as np

            def draw():
                return np.random.default_rng(1).random()
            """
        )
        assert "R001" in rule_ids(diags)
        assert diags[0].line == 4

    def test_annotation_use_is_allowed(self):
        diags = lint(
            """\
            import random

            def seeded(rng: random.Random) -> float:
                return rng.random()
            """
        )
        assert diags == []

    def test_allowed_in_rng_module(self):
        # R007 still applies (the seed parameter has no call sites proving
        # provenance), but R001's location allowlist is what is under test.
        source = """\
            import random

            def make(seed):
                return random.Random(seed)
            """
        assert "R001" not in rule_ids(lint(source, rel="sim/rng.py"))
        assert "R001" in rule_ids(lint(source, rel="sim/engine.py"))

    def test_inline_suppression(self):
        diags = lint(
            """\
            import random

            def jitter():
                return random.uniform(0.0, 0.1)  # rcast-lint: disable=R001 -- fixture
            """
        )
        assert diags == []

    def test_file_level_suppression(self):
        diags = lint(
            """\
            # rcast-lint: disable-file=R001 -- calibration script
            import random

            def a():
                return random.random()

            def b():
                return random.random()
            """
        )
        assert diags == []

    def test_suppressing_other_rule_does_not_silence(self):
        diags = lint(
            """\
            import random

            def jitter():
                return random.uniform(0.0, 0.1)  # rcast-lint: disable=R002
            """
        )
        # The R002 pragma silences nothing here, so it is itself reported
        # as a stale suppression alongside the undamped R001 finding.
        assert rule_ids(diags) == ["R000", "R001"]


# ----------------------------------------------------------------------
# R002 — wall-clock
# ----------------------------------------------------------------------


class TestR002:
    def test_time_time(self):
        diags = lint(
            """\
            import time

            def stamp():
                return time.time()
            """
        )
        assert rule_ids(diags) == ["R002"]
        assert diags[0].line == 4
        assert diags[0].name == "wall-clock"

    def test_perf_counter_is_allowed(self):
        diags = lint(
            """\
            import time

            def elapsed(start: float) -> float:
                return time.perf_counter() - start
            """
        )
        assert diags == []

    def test_datetime_now(self):
        diags = lint(
            """\
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )
        assert rule_ids(diags) == ["R002"]

    def test_datetime_class_import(self):
        diags = lint(
            """\
            from datetime import datetime

            def stamp():
                return datetime.utcnow()
            """
        )
        assert rule_ids(diags) == ["R002"]
        assert diags[0].line == 4

    def test_from_time_import_time(self):
        diags = lint("from time import time\n")
        assert rule_ids(diags) == ["R002"]
        assert diags[0].line == 1

    def test_cli_is_allowlisted(self):
        source = """\
            import time

            def stamp():
                return time.time()
            """
        assert lint(source, rel="cli.py") == []

    def test_suppression(self):
        diags = lint(
            """\
            import time

            def stamp():
                return time.time()  # rcast-lint: disable=R002 -- log stamp
            """
        )
        assert diags == []


# ----------------------------------------------------------------------
# R003 — unordered-iteration
# ----------------------------------------------------------------------


class TestR003:
    def test_for_over_set_literal(self):
        diags = lint(
            """\
            def fire(sim):
                for node in {3, 1, 2}:
                    sim.schedule(0.0, print, node)
            """
        )
        assert rule_ids(diags) == ["R003"]
        assert diags[0].line == 2
        assert diags[0].name == "unordered-iteration"

    def test_for_over_set_variable(self):
        diags = lint(
            """\
            def fire(sim, nodes):
                pending = set(nodes)
                for node in pending:
                    sim.schedule(0.0, print, node)
            """
        )
        assert rule_ids(diags) == ["R003"]
        assert diags[0].line == 3

    def test_sorted_sanitizes(self):
        diags = lint(
            """\
            def fire(sim, nodes):
                pending = set(nodes)
                for node in sorted(pending):
                    sim.schedule(0.0, print, node)
            """
        )
        assert diags == []

    def test_list_does_not_sanitize(self):
        diags = lint(
            """\
            def fire(sim, nodes):
                pending = set(nodes)
                for node in list(pending):
                    sim.schedule(0.0, print, node)
            """
        )
        assert rule_ids(diags) == ["R003"]

    def test_annotated_attribute(self):
        diags = lint(
            """\
            from typing import Set

            class Mac:
                def __init__(self):
                    self._pending: Set[int] = set()

                def flush(self):
                    return [n for n in self._pending]
            """
        )
        assert rule_ids(diags) == ["R003"]
        assert diags[0].line == 8

    def test_attribute_on_other_object(self):
        diags = lint(
            """\
            def finish(tx):
                tx.audible = set()
                for node in tx.audible:
                    print(node)
            """
        )
        assert rule_ids(diags) == ["R003"]

    def test_set_comprehension_output_is_exempt(self):
        diags = lint(
            """\
            def project(coords):
                coords = set(coords)
                return {c + 1 for c in coords}
            """
        )
        assert diags == []

    def test_sorted_genexp_is_exempt(self):
        diags = lint(
            """\
            def project(coords):
                coords = set(coords)
                return sorted(c + 1 for c in coords)
            """
        )
        assert diags == []

    def test_set_annotated_parameter(self):
        diags = lint(
            """\
            from typing import Set

            def fire(sim, pending: Set[int]):
                for node in pending:
                    sim.schedule(0.0, print, node)
            """
        )
        assert rule_ids(diags) == ["R003"]

    def test_out_of_scope_path_not_checked(self):
        source = """\
            def report(reasons):
                for r in set(reasons):
                    print(r)
            """
        assert lint(source, rel="metrics/report.py") == []
        assert rule_ids(lint(source, rel="mac/psm.py")) == ["R003"]

    def test_suppression(self):
        diags = lint(
            """\
            def fire(sim, nodes):
                pending = set(nodes)
                for node in pending:  # rcast-lint: disable=R003 -- commutative
                    sim.schedule(0.0, print, node)
            """
        )
        assert diags == []


# ----------------------------------------------------------------------
# R004 — mutable-default
# ----------------------------------------------------------------------


class TestR004:
    def test_list_default(self):
        diags = lint("def f(acc=[]):\n    return acc\n")
        assert rule_ids(diags) == ["R004"]
        assert diags[0].line == 1
        assert diags[0].name == "mutable-default"

    def test_dict_and_set_defaults(self):
        diags = lint("def f(a={}, b=set()):\n    return a, b\n")
        assert rule_ids(diags) == ["R004", "R004"]

    def test_keyword_only_default(self):
        diags = lint("def f(*, acc=[]):\n    return acc\n")
        assert rule_ids(diags) == ["R004"]

    def test_none_default_is_fine(self):
        assert lint("def f(acc=None):\n    return acc or []\n") == []

    def test_tuple_default_is_fine(self):
        assert lint("def f(acc=()):\n    return acc\n") == []

    def test_suppression(self):
        diags = lint(
            "def f(acc=[]):  # rcast-lint: disable=R004 -- read-only sentinel\n"
            "    return acc\n"
        )
        assert diags == []


# ----------------------------------------------------------------------
# R005 — handler-purity
# ----------------------------------------------------------------------


class TestR005:
    def test_handler_reads_wall_clock(self):
        diags = lint(
            """\
            import time

            class Mac:
                def _on_receive(self, frame, sender):
                    self.last_seen = time.time()
            """,
            rules=["R005"],
        )
        assert rule_ids(diags) == ["R005"]
        assert diags[0].line == 5
        assert diags[0].name == "handler-purity"

    def test_handler_draws_global_random(self):
        diags = lint(
            """\
            import random

            class Mac:
                def _handle_beacon(self, frame):
                    return random.random() < 0.5
            """,
            rules=["R005"],
        )
        assert rule_ids(diags) == ["R005"]

    def test_scheduled_callback_is_a_handler(self):
        diags = lint(
            """\
            import time

            class Mac:
                def start(self, sim):
                    sim.schedule(1.0, self.tick)

                def tick(self):
                    self.last = time.time()
            """,
            rules=["R005"],
        )
        assert rule_ids(diags) == ["R005"]
        assert diags[0].line == 8

    def test_handler_mutating_module_global(self):
        diags = lint(
            """\
            PENDING = []

            class Mac:
                def _on_receive(self, frame, sender):
                    PENDING.append(frame)
            """,
            rules=["R005"],
        )
        assert rule_ids(diags) == ["R005"]

    def test_handler_global_statement(self):
        diags = lint(
            """\
            COUNT = 0

            class Mac:
                def _on_receive(self, frame, sender):
                    global COUNT
                    COUNT += 1
            """,
            rules=["R005"],
        )
        assert rule_ids(diags) == ["R005"]
        assert diags[0].line == 5

    def test_pure_handler_is_clean(self):
        diags = lint(
            """\
            class Mac:
                def _on_receive(self, frame, sender):
                    self.received += 1
                    self.sim.schedule(0.1, self._on_ack, frame)

                def _on_ack(self, frame):
                    self.acked += 1
            """,
            rules=["R005"],
        )
        assert diags == []

    def test_injected_rng_is_fine(self):
        diags = lint(
            """\
            class Mac:
                def _on_beacon(self, frame):
                    return self._rng.random() < 0.5
            """,
            rules=["R005"],
        )
        assert diags == []


# ----------------------------------------------------------------------
# R006 — poll-loop
# ----------------------------------------------------------------------


class TestR006:
    def test_direct_self_reschedule_under_busy_guard(self):
        diags = lint(
            """\
            class Mac:
                def _attempt(self):
                    if self.channel.is_busy(self.node_id):
                        self.sim.schedule(self._backoff(), self._attempt)
                        return
                    self.channel.transmit(self.node_id, self.frame)
            """,
            rules=["R006"],
        )
        assert rule_ids(diags) == ["R006"]
        assert diags[0].line == 4
        assert diags[0].name == "poll-loop"

    def test_aliased_callback_does_not_hide_the_loop(self):
        """The ``self._attempt_cb = self._attempt`` hot-loop idiom."""
        diags = lint(
            """\
            class Mac:
                def __init__(self):
                    self._attempt_cb = self._attempt

                def _attempt(self):
                    if self._is_busy(self.node_id):
                        self.sim.schedule_at(self.t_next, self._attempt_cb)
                        return
            """,
            rules=["R006"],
        )
        assert rule_ids(diags) == ["R006"]
        assert diags[0].line == 7

    def test_module_level_poll_loop(self):
        diags = lint(
            """\
            def poll(sim, channel, node):
                if channel.is_busy(node):
                    sim.schedule(0.001, poll, sim, channel, node)
            """,
            rules=["R006"],
        )
        assert rule_ids(diags) == ["R006"]

    def test_wait_for_idle_is_clean(self):
        diags = lint(
            """\
            class Mac:
                def _attempt(self):
                    if self._is_busy(self.node_id):
                        self.channel.wait_for_idle(self.node_id, self._wake)
                        return
                    self.channel.transmit(self.node_id, self.frame)

                def _wake(self):
                    self.sim.schedule_at(self.t_next, self._attempt)
            """,
            rules=["R006"],
        )
        assert diags == []

    def test_rescheduling_a_different_callback_is_clean(self):
        diags = lint(
            """\
            class Mac:
                def _attempt(self):
                    if self._is_busy(self.node_id):
                        self.sim.schedule(0.001, self._deferred_done)
                        return

                def _deferred_done(self):
                    self.on_done()
            """,
            rules=["R006"],
        )
        assert diags == []

    def test_self_reschedule_without_busy_guard_is_clean(self):
        """Periodic timers legitimately re-schedule themselves."""
        diags = lint(
            """\
            class Mac:
                def _beacon(self):
                    self.emit()
                    self.sim.schedule(self.interval, self._beacon)
            """,
            rules=["R006"],
        )
        assert diags == []

    def test_out_of_scope_path_not_checked(self):
        source = """\
            class Poller:
                def _tick(self):
                    if self.is_busy():
                        self.sim.schedule(1.0, self._tick)
            """
        assert lint(source, rel="metrics/report.py", rules=["R006"]) == []
        assert rule_ids(lint(source, rel="mac/psm.py",
                             rules=["R006"])) == ["R006"]

    def test_suppression(self):
        diags = lint(
            """\
            class Mac:
                def _attempt(self):
                    if self._is_busy(self.node_id):
                        self.sim.schedule(0.001, self._attempt)  # rcast-lint: disable=R006 -- bounded
                        return
            """,
            rules=["R006"],
        )
        assert diags == []


# ----------------------------------------------------------------------
# R007 — rng-provenance
# ----------------------------------------------------------------------


class TestR007:
    def test_literal_seed_flagged(self):
        diags = lint(
            """\
            import random

            rng = random.Random(42)
            """,
            rules=["R007"],
        )
        assert rule_ids(diags) == ["R007"]
        assert diags[0].line == 3
        assert diags[0].name == "rng-provenance"
        assert "derive_seed" in diags[0].message

    def test_unseeded_constructor_flagged(self):
        diags = lint(
            """\
            import random

            rng = random.Random()
            """,
            rules=["R007"],
        )
        assert rule_ids(diags) == ["R007"]
        assert "OS entropy" in diags[0].message

    def test_system_random_always_flagged(self):
        diags = lint(
            """\
            import random

            rng = random.SystemRandom(1)
            """,
            rules=["R007"],
        )
        assert rule_ids(diags) == ["R007"]
        assert "SystemRandom" in diags[0].message

    def test_numpy_default_rng_literal_seed(self):
        diags = lint(
            """\
            import numpy as np

            gen = np.random.default_rng(7)
            """,
            rules=["R007"],
        )
        assert rule_ids(diags) == ["R007"]

    def test_derive_seed_direct_is_clean(self):
        diags = lint(
            """\
            import random

            from repro.sim.rng import derive_seed

            rng = random.Random(derive_seed(1, "mobility"))
            """,
            rules=["R007"],
        )
        assert diags == []

    def test_provenance_through_local_assignment(self):
        diags = lint(
            """\
            import random

            from repro.sim.rng import derive_seed

            def make(root):
                seed = derive_seed(root, "mac")
                return random.Random(seed)
            """,
            rules=["R007"],
        )
        assert diags == []

    def test_provenance_through_arithmetic(self):
        diags = lint(
            """\
            import random

            from repro.sim.rng import derive_seed

            def make(root, i):
                return random.Random(derive_seed(root, "mac") + i)
            """,
            rules=["R007"],
        )
        assert diags == []

    def test_provenance_through_seed_returning_helper(self):
        """The derived-seed-factory fixpoint follows helper functions."""
        diags = lint(
            """\
            import random

            from repro.sim.rng import derive_seed

            def child_seed(root, name):
                return derive_seed(root, "child:" + name)

            def make(root):
                return random.Random(child_seed(root, "mac"))
            """,
            rules=["R007"],
        )
        assert diags == []

    def test_parameter_with_no_call_sites_flagged(self):
        """A seed parameter nothing in the project calls is unprovable."""
        diags = lint(
            """\
            import random

            def make(seed):
                return random.Random(seed)
            """,
            rules=["R007"],
        )
        assert rule_ids(diags) == ["R007"]
        assert "call sites" in diags[0].message

    def test_parameter_proved_by_same_module_call_site(self):
        diags = lint(
            """\
            import random

            from repro.sim.rng import derive_seed

            def make(seed):
                return random.Random(seed)

            def build(root):
                return make(derive_seed(root, "mac"))
            """,
            rules=["R007"],
        )
        assert diags == []

    def test_parameter_with_underived_call_site_flagged(self):
        diags = lint(
            """\
            import random

            from repro.sim.rng import derive_seed

            def make(seed):
                return random.Random(seed)

            def good(root):
                return make(derive_seed(root, "mac"))

            def bad():
                return make(1234)
            """,
            rules=["R007"],
        )
        assert rule_ids(diags) == ["R007"]
        assert diags[0].line == 6

    def test_binding_reuse_under_two_names(self):
        diags = lint(
            """\
            def setup(rngs):
                rng = rngs.stream("mac")
                use(rng)
                rng = rngs.stream("phy")
                return rng
            """,
            rules=["R007"],
        )
        assert rule_ids(diags) == ["R007"]
        assert diags[0].line == 4
        assert "'phy'" in diags[0].message and "'mac'" in diags[0].message

    def test_binding_reassigned_same_name_is_clean(self):
        diags = lint(
            """\
            def setup(rngs):
                rng = rngs.stream("mac")
                use(rng)
                rng = rngs.stream("mac")
                return rng
            """,
            rules=["R007"],
        )
        assert diags == []

    def test_suppression(self):
        diags = lint(
            """\
            import random

            rng = random.Random(42)  # rcast-lint: disable=R007 -- fixture
            """,
            rules=["R007"],
        )
        assert diags == []


# ----------------------------------------------------------------------
# R008 — unstable-tie-break
# ----------------------------------------------------------------------


class TestR008:
    def test_tuple_without_tie_break(self):
        diags = lint(
            """\
            import heapq

            def push(heap, t, frame):
                heapq.heappush(heap, (t, frame))
            """,
            rules=["R008"],
        )
        assert rule_ids(diags) == ["R008"]
        assert diags[0].line == 4
        assert diags[0].name == "unstable-tie-break"

    def test_seq_attribute_is_a_tie_break(self):
        diags = lint(
            """\
            import heapq

            def push(heap, event):
                heapq.heappush(heap, (event.time, event.seq, event))
            """,
            rules=["R008"],
        )
        assert diags == []

    def test_next_counter_is_a_tie_break(self):
        diags = lint(
            """\
            import heapq
            import itertools

            _count = itertools.count()

            def push(heap, t, frame):
                heapq.heappush(heap, (t, next(_count), frame))
            """,
            rules=["R008"],
        )
        assert diags == []

    def test_heapreplace_and_alias_import(self):
        diags = lint(
            """\
            from heapq import heapreplace

            def replace(heap, t, frame):
                heapreplace(heap, (t, frame))
            """,
            rules=["R008"],
        )
        assert rule_ids(diags) == ["R008"]

    def test_unrelated_heappush_method_ignored(self):
        diags = lint(
            """\
            def push(queue, t, frame):
                queue.heappush(queue, (t, frame))
            """,
            rules=["R008"],
        )
        assert diags == []

    def test_opaque_item_ignored(self):
        diags = lint(
            """\
            import heapq

            def push(heap, event):
                heapq.heappush(heap, event)
            """,
            rules=["R008"],
        )
        assert diags == []

    def test_suppression(self):
        diags = lint(
            """\
            import heapq

            def push(heap, t, frame):
                heapq.heappush(heap, (t, frame))  # rcast-lint: disable=R008 -- fixture
            """,
            rules=["R008"],
        )
        assert diags == []


# ----------------------------------------------------------------------
# R009 — unordered-reduction
# ----------------------------------------------------------------------


class TestR009:
    def test_sum_over_set_variable(self):
        diags = lint(
            """\
            def total(samples):
                acc = set(samples)
                return sum(acc)
            """,
            rules=["R009"],
        )
        assert rule_ids(diags) == ["R009"]
        assert diags[0].line == 3
        assert diags[0].name == "unordered-reduction"

    def test_sum_genexp_over_set(self):
        diags = lint(
            """\
            def total(samples):
                acc = set(samples)
                return sum(s * 2.0 for s in acc)
            """,
            rules=["R009"],
        )
        assert rule_ids(diags) == ["R009"]

    def test_counting_reduction_is_exempt(self):
        diags = lint(
            """\
            def count(samples):
                acc = set(samples)
                return sum(1 for s in acc if s > 0)
            """,
            rules=["R009"],
        )
        assert diags == []

    def test_sorted_sanitizes(self):
        diags = lint(
            """\
            def total(samples):
                acc = set(samples)
                return sum(sorted(acc))
            """,
            rules=["R009"],
        )
        assert diags == []

    def test_dict_values_view(self):
        diags = lint(
            """\
            def total(by_node):
                return sum(by_node.values())
            """,
            rules=["R009"],
        )
        assert rule_ids(diags) == ["R009"]

    def test_math_fsum_under_alias(self):
        diags = lint(
            """\
            import math as m

            def total(samples):
                acc = set(samples)
                return m.fsum(acc)
            """,
            rules=["R009"],
        )
        assert rule_ids(diags) == ["R009"]

    def test_numpy_sum_over_list_is_clean(self):
        diags = lint(
            """\
            import numpy as np

            def total(samples):
                return np.sum([s for s in samples])
            """,
            rules=["R009"],
        )
        assert diags == []

    def test_augmented_loop_accumulation(self):
        diags = lint(
            """\
            def total(samples):
                acc = set(samples)
                out = 0.0
                for s in acc:
                    out += s
                return out
            """,
            rules=["R009"],
        )
        assert rule_ids(diags) == ["R009"]
        assert diags[0].line == 4

    def test_counting_loop_is_exempt(self):
        diags = lint(
            """\
            def count(samples):
                acc = set(samples)
                out = 0
                for s in acc:
                    out += 1
                return out
            """,
            rules=["R009"],
        )
        assert diags == []

    def test_suppression(self):
        diags = lint(
            """\
            def total(by_node):
                return sum(by_node.values())  # rcast-lint: disable=R009 -- int counters
            """,
            rules=["R009"],
        )
        assert diags == []


# ----------------------------------------------------------------------
# R010 — event-typestate
# ----------------------------------------------------------------------


class TestR010:
    def test_direct_event_construction(self):
        diags = lint(
            """\
            from repro.sim.events import Event

            def forge(cb):
                return Event(0.0, cb)
            """,
            rules=["R010"],
        )
        assert rule_ids(diags) == ["R010"]
        assert diags[0].line == 4
        assert diags[0].name == "event-typestate"
        assert "sequence" in diags[0].message

    def test_threading_event_is_ignored(self):
        diags = lint(
            """\
            from threading import Event

            def make():
                return Event()
            """,
            rules=["R010"],
        )
        assert diags == []

    def test_fire_outside_seam(self):
        diags = lint(
            """\
            def flush(event):
                event.fire()
            """,
            rules=["R010"],
        )
        assert rule_ids(diags) == ["R010"]
        assert "fire-interceptor" in diags[0].message

    def test_fire_inside_engine_seam_is_allowed(self):
        diags = lint(
            """\
            def intercept(event):
                event.fire()
            """,
            rules=["R010"],
            rel="sim/engine.py",
        )
        assert diags == []

    def test_double_cancel(self):
        diags = lint(
            """\
            def stop(sim, cb):
                timer = sim.schedule(1.0, cb)
                timer.cancel()
                timer.cancel()
            """,
            rules=["R010"],
        )
        assert rule_ids(diags) == ["R010"]
        assert diags[0].line == 4
        assert "twice" in diags[0].message

    def test_cancel_in_disjoint_branches_is_clean(self):
        diags = lint(
            """\
            def stop(sim, cb, early):
                timer = sim.schedule(1.0, cb)
                if early:
                    timer.cancel()
                else:
                    timer.cancel()
            """,
            rules=["R010"],
        )
        assert diags == []

    def test_cancel_after_unknown_merge_is_clean(self):
        diags = lint(
            """\
            def stop(sim, cb, early):
                timer = sim.schedule(1.0, cb)
                if early:
                    timer.cancel()
                timer.cancel()
            """,
            rules=["R010"],
        )
        assert diags == []

    def test_self_attribute_timer_double_cancel(self):
        diags = lint(
            """\
            class Mac:
                def stop(self):
                    self._timer = self.sim.schedule(1.0, self._tick)
                    self._timer.cancel()
                    self._timer.cancel()
            """,
            rules=["R010"],
        )
        assert rule_ids(diags) == ["R010"]

    def test_suppression(self):
        diags = lint(
            """\
            def flush(event):
                event.fire()  # rcast-lint: disable=R010 -- fixture seam
            """,
            rules=["R010"],
        )
        assert diags == []


# ----------------------------------------------------------------------
# R011 — unbounded-observer-append
# ----------------------------------------------------------------------


LEAKY_SINK = """\
class LeakySink:
    def __init__(self):
        self._records = []

    def emit(self, time, category, node, event, **fields):
        self._records.append((time, category, node, event))
"""


class TestR011:
    def test_list_append_in_emit(self):
        diags = lint(LEAKY_SINK, rules=["R011"])
        assert rule_ids(diags) == ["R011"]
        assert diags[0].line == 6
        assert diags[0].name == "unbounded-observer-append"
        assert "unbounded list" in diags[0].message

    def test_dict_insert_in_observe(self):
        diags = lint(
            """\
            class LeakyObserver:
                def __init__(self):
                    self._by_uid = {}

                def observe(self, network):
                    self._by_uid[network.sim.now] = network.metrics
            """,
            rules=["R011"],
        )
        assert rule_ids(diags) == ["R011"]
        assert diags[0].line == 6
        assert "unbounded dict" in diags[0].message

    def test_unbounded_deque_counts_as_list(self):
        diags = lint(
            """\
            from collections import deque

            class LeakySink:
                def __init__(self):
                    self._records = deque()

                def emit(self, time, category, node, event, **fields):
                    self._records.append(event)
            """,
            rules=["R011"],
        )
        assert rule_ids(diags) == ["R011"]

    def test_bounded_deque_is_clean(self):
        diags = lint(
            """\
            from collections import deque

            class RingSink:
                def __init__(self, capacity):
                    self._records = deque(maxlen=capacity)

                def emit(self, time, category, node, event, **fields):
                    self._records.append(event)
            """,
            rules=["R011"],
        )
        assert diags == []

    def test_counter_augassign_is_clean(self):
        diags = lint(
            """\
            class CategoryCounter:
                def __init__(self):
                    self._counts = {}

                def emit(self, time, category, node, event, **fields):
                    self._counts[category] = self._counts.get(category, 0) + 1
            """,
            rules=["R011"],
        )
        # Plain assignment still flags; the exemption is for `+=` only.
        assert rule_ids(diags) == ["R011"]
        diags = lint(
            """\
            class CategoryCounter:
                def __init__(self):
                    self._counts = {}

                def observe(self, network):
                    self._counts["ticks"] += 1
            """,
            rules=["R011"],
        )
        assert diags == []

    def test_bound_managing_helper_exempts(self):
        diags = lint(
            """\
            class DecimatingRecorder:
                def __init__(self):
                    self._samples = []

                def observe(self, network):
                    self._samples.append(network.sim.now)
                    if len(self._samples) > 1024:
                        self._decimate()

                def _decimate(self):
                    self._samples = self._samples[::2]
            """,
            rules=["R011"],
        )
        assert diags == []

    def test_cold_path_append_is_clean(self):
        diags = lint(
            """\
            class Report:
                def __init__(self):
                    self._rows = []

                def finalize(self):
                    self._rows.append("summary")
            """,
            rules=["R011"],
        )
        assert diags == []

    def test_tracelog_allowlisted(self):
        diags = lint(LEAKY_SINK, rel="sim/trace.py", rules=["R011"])
        assert diags == []

    def test_suppression(self):
        diags = lint(
            """\
            class AuditSink:
                def __init__(self):
                    self._records = []

                def emit(self, time, category, node, event, **fields):
                    self._records.append(event)  # rcast-lint: disable=R011 -- audit buffer, test-only
            """,
            rules=["R011"],
        )
        assert diags == []


# ----------------------------------------------------------------------
# R012 — per-event-global-scan
# ----------------------------------------------------------------------


SCANNING_HANDLER = """\
class Mac:
    def _on_beacon(self):
        for peer in self._peers.values():
            peer.note_beacon(self.node_id)
"""


class TestR012:
    def test_on_handler_iterating_peers(self):
        diags = lint(SCANNING_HANDLER, rules=["R012"])
        assert rule_ids(diags) == ["R012"]
        assert diags[0].line == 3
        assert diags[0].name == "per-event-global-scan"
        assert "self._peers" in diags[0].message

    def test_scheduled_callback_sorted_scan(self):
        diags = lint(
            """\
            class Channel:
                def start(self):
                    self.sim.schedule(0.1, self._finish, None)

                def _finish(self, tx):
                    for node in sorted(self.radios):
                        self.wake(node)
            """,
            rules=["R012"],
        )
        assert rule_ids(diags) == ["R012"]
        assert diags[0].line == 6
        assert "sorted()" in diags[0].message

    def test_wait_for_idle_callback_comprehension(self):
        diags = lint(
            """\
            class Dcf:
                def _arm(self):
                    self.channel.wait_for_idle(self.node_id, self._woken)

                def _woken(self):
                    return [m for m in self.all_macs.values() if m.awake]
            """,
            rules=["R012"],
        )
        assert rule_ids(diags) == ["R012"]
        assert "all_macs" in diags[0].message

    def test_cold_path_scan_is_clean(self):
        # Not a handler, never registered as a callback: setup code may
        # iterate everyone.
        diags = lint(
            """\
            class Network:
                def start(self):
                    for node in self.nodes:
                        node.start()
            """,
            rules=["R012"],
        )
        assert diags == []

    def test_scoped_containers_are_clean(self):
        diags = lint(
            """\
            class Channel:
                def _on_positions_refreshed(self):
                    for node_id, audible in self._waiter_txs.items():
                        audible.clear()
            """,
            rules=["R012"],
        )
        assert diags == []

    def test_membership_probe_is_clean(self):
        # Lookups and membership probes are O(1) — only iteration flags.
        diags = lint(
            """\
            class Mac:
                def _on_receive(self, frame, sender):
                    if sender in self._peers:
                        self._peers[sender].touch()
            """,
            rules=["R012"],
        )
        assert diags == []

    def test_epoch_module_allowlisted(self):
        diags = lint(SCANNING_HANDLER, rel="mac/epoch.py", rules=["R012"])
        assert diags == []

    def test_outside_sim_paths_is_clean(self):
        diags = lint(SCANNING_HANDLER, rel="obs/spans.py", rules=["R012"])
        assert diags == []

    def test_suppression(self):
        diags = lint(
            """\
            class Mac:
                def _on_beacon(self):
                    for peer in self._peers.values():  # rcast-lint: disable=R012 -- bench fixture
                        peer.note_beacon(self.node_id)
            """,
            rules=["R012"],
        )
        assert diags == []

    def test_receive_fanout_scanning_every_mac(self):
        # A fan-out runs once per transmission: installed through the
        # channel's set_fanout hook, it must not walk every MAC.
        diags = lint(
            """\
            class Group:
                def __init__(self, channel):
                    self.macs = {}
                    channel.set_fanout(self.deliver)

                def deliver(self, frame, sender, order):
                    for mac in self.macs.values():
                        mac.hear(sender)
            """,
            rules=["R012"],
        )
        assert rule_ids(diags) == ["R012"]
        assert diags[0].line == 7
        assert "self.macs" in diags[0].message

    def test_module_level_announce_scanning_peers(self):
        # A module-level grouped ATIM delivery, re-entered by a deferred
        # event, has no self: any owner's all-nodes container counts.
        diags = lint(
            """\
            def _announce(mac, announcement):
                for peer in mac._peers.values():
                    peer.absorb(announcement)


            class Mac:
                def _announce_body(self, announcement):
                    self.sim.schedule(0.01, _announce, self, announcement)
            """,
            rules=["R012"],
        )
        assert rule_ids(diags) == ["R012"]
        assert diags[0].line == 2
        assert "mac._peers" in diags[0].message

    def test_shipped_fanouts_are_scanned_and_clean(self):
        from pathlib import Path

        from repro.analysis.lint.rules import PerEventGlobalScan

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        for rel, fanouts in (("phy/channel.py", {"_deliver_each"}),
                             ("mac/base.py", {"deliver"}),
                             ("mac/psm.py", {"deliver", "announce"})):
            source = (src / rel).read_text()
            scanned = {fn.name for fn in
                       PerEventGlobalScan.callbacks(ast.parse(source))}
            assert fanouts <= scanned, rel
            assert lint_source(source, path=rel, rel=rel,
                               rules=["R012"]) == []


# ----------------------------------------------------------------------
# R000 — unused-suppression (runner-emitted)
# ----------------------------------------------------------------------


class TestR000:
    def test_stale_inline_pragma_is_reported(self):
        diags = lint(
            "x = 1  # rcast-lint: disable=R001 -- nothing here\n"
        )
        assert rule_ids(diags) == ["R000"]
        assert diags[0].line == 1
        assert diags[0].name == "unused-suppression"
        assert diags[0].severity is Severity.WARNING
        assert "R001" in diags[0].message

    def test_stale_file_wide_pragma_is_reported(self):
        diags = lint(
            """\
            # rcast-lint: disable-file=R004 -- legacy
            x = 1
            """
        )
        assert rule_ids(diags) == ["R000"]
        assert diags[0].line == 1

    def test_used_pragma_is_not_reported(self):
        diags = lint(
            """\
            import random

            def jitter():
                return random.uniform(0.0, 0.1)  # rcast-lint: disable=R001 -- fixture
            """
        )
        assert diags == []

    def test_pragma_for_inactive_rule_is_not_reported(self):
        """A pragma for a rule not scoped to this path is not 'stale'."""
        diags = lint(
            "def report(reasons):\n"
            "    for r in set(reasons):  # rcast-lint: disable=R003 -- out of scope\n"
            "        print(r)\n",
            rel="metrics/report.py",
        )
        assert diags == []

    def test_disable_all_is_never_reported(self):
        diags = lint(
            """\
            # rcast-lint: disable-file=all -- generated fixture
            x = 1
            """
        )
        assert diags == []


# ----------------------------------------------------------------------
# Suppression mapping on multi-line statements
# ----------------------------------------------------------------------


class TestMultiLineSuppression:
    def test_pragma_on_continuation_line(self):
        """A trailing pragma anywhere in a multi-line statement counts."""
        diags = lint(
            """\
            import random

            x = random.uniform(
                0.0, 0.1)  # rcast-lint: disable=R001 -- fixture
            """
        )
        assert diags == []

    def test_pragma_on_first_line_covers_continuation(self):
        diags = lint(
            """\
            import random

            x = random.uniform(  # rcast-lint: disable=R001 -- fixture
                0.0, 0.1)
            """
        )
        assert diags == []

    def test_pragma_on_decorator_line_covers_def(self):
        """R004 reports on the ``def`` line; the decorator line suppresses."""
        diags = lint(
            """\
            import functools

            @functools.lru_cache  # rcast-lint: disable=R004 -- fixture
            def f(acc=[]):
                return acc
            """
        )
        assert diags == []

    def test_pragma_does_not_leak_into_body(self):
        """The extent of a compound statement stops before its body."""
        diags = lint(
            """\
            import random

            def f(  # rcast-lint: disable=R004 -- header only
                acc=[],
            ):
                return random.random()
            """
        )
        assert rule_ids(diags) == ["R001"]

    def test_pragma_on_unrelated_following_line_does_not_apply(self):
        diags = lint(
            """\
            import random

            x = random.random()
            y = 1  # rcast-lint: disable=R001 -- wrong line
            """
        )
        # Sorted by line: the undamped R001 (line 3) precedes the stale
        # pragma report (line 4).
        assert rule_ids(diags) == ["R001", "R000"]


# ----------------------------------------------------------------------
# Cross-cutting behaviour
# ----------------------------------------------------------------------


class TestInfrastructure:
    def test_syntax_error_is_reported_not_raised(self):
        diags = lint_source("def broken(:\n", path="x.py")
        assert len(diags) == 1
        assert diags[0].rule == "E001"

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source("x = 1\n", rules=["R999"])

    def test_findings_sorted_by_location(self):
        diags = lint(
            """\
            import random

            def b():
                return random.random()

            def a(acc=[]):
                return random.random()
            """
        )
        assert [(d.line, d.rule) for d in diags] == [
            (4, "R001"), (6, "R004"), (7, "R001"),
        ]

    def test_disable_all(self):
        diags = lint(
            """\
            # rcast-lint: disable-file=all -- generated fixture
            import random

            def f(acc=[]):
                return random.random()
            """
        )
        assert diags == []

    def test_suppression_index_parsing(self):
        index = SuppressionIndex(
            "x = 1  # rcast-lint: disable=R001,R003\n"
            "# rcast-lint: disable-file=R005\n"
        )
        assert index.is_suppressed("R001", 1)
        assert index.is_suppressed("R003", 1)
        assert not index.is_suppressed("R004", 1)
        assert index.is_suppressed("R005", 99)
        assert index.file_wide == frozenset({"R005"})
