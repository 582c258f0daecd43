"""Every definition and every stored attribute under ``src/repro`` is used
outside the tests.

A definition whose name no code in ``src/``, ``perfbench/``,
``benchmarks/`` or ``examples/`` references is an API only the tests
exercise: it costs reading and upkeep while no run reaches it.  The scan
reads code, not prose: a reference is an ``ast.Name`` id, an
``ast.Attribute`` attr, an imported name or an identifier-shaped string
(``getattr(obj, "name")``); words in comments and docstrings do not count.
A definition's own ``def``/``class`` line is not a reference, so
definitions of the same name do not count for each other and an override
family (a base method and its subclass overrides) nothing calls is caught
too.  ``__init__.py`` re-exports, ``__all__`` and ``__slots__`` entries do
not count.  Dunders and ``ast.NodeVisitor`` ``visit_*`` methods are called
by the runtime and are skipped.

State gets the same rule: every ``self.<name>`` a class under
``src/repro`` stores must be *read* somewhere in the scanned trees, by an
attribute load of that name or an identifier-shaped string naming it.
``x.n += 1`` is a store, not a read, so a counter that is only ever
incremented is caught.  The scan is by name: a stored attribute that
shares its name with one some other object's reader loads (``failures``,
``data_originated``) escapes it.

The module-level names of ``repro/constants.py`` must each be referenced
in the scanned trees outside ``constants.py`` itself, so a constant
nothing reads (or one a rename left behind) is caught.
"""

import ast
import re
from collections import Counter
from functools import cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CONSTANTS = SRC / "constants.py"
SCANNED = ("src", "perfbench", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Definitions kept without a non-test user, each with its reason.
ALLOWED = {
    "time_in": "EnergyMeter: energy-identity tests check the time partition",
    "sleep_time": "EnergyMeter: energy-identity tests check the time partition",
    "clopper_pearson": "reference statistic for the statistical validation",
    "chi_square_critical": "reference statistic for the statistical validation",
    "chi_square_uniform_stat": "reference statistic for the statistical "
                               "validation",
    "encode_frame_control": "Fig. 4 ATIM codec: the pair of "
                            "decode_frame_control",
    "decode_frame_control": "Fig. 4 ATIM codec: the header-bit claim, "
                            "executable",
    "overhearing_level": "Fig. 4 ATIM codec: FrameControl's overhearing bits",
    "received_power": "derives the 250 m / 550 m disks from ns-2's "
                      "thresholds",
    "range_for_threshold": "derives the 250 m / 550 m disks from ns-2's "
                           "thresholds",
    "write_record": "re-records benchmarks/verdicts.json by hand, as "
                    "benchmarks/bench_verdicts.py says",
    "can_receive": "Radio: the per-node semantics the channel's radio-state "
                   "mirror must equal",
    "is_transmitting": "Radio: the per-node semantics the channel's "
                       "radio-state mirror must equal",
    "lint_source": "the lint API's one-string entry point, which the rule "
                   "tests lint their snippets through",
    "TraceLog": "the in-memory sink the golden corpus records with",
    "filter": "TraceLog: selects the golden corpus's records by category",
}

#: Stored attributes kept without a non-test reader, each with its reason.
ALLOWED_STATE = {
    "PsmMac.missed_announcements": "no record or callback shows an ATIM "
                                   "lost between disjoint windows; the "
                                   "clock-jitter tests count it",
}


class Scan(NamedTuple):
    """What the scanned trees define, store and reference."""

    #: code references per name (outside ``constants.py``)
    references: Counter
    #: attribute loads and identifier-shaped strings per name
    reads: Counter
    #: ``(path, line, name)`` of every ``def``/``class`` under src/repro
    definitions: list
    #: ``(path, line, "Class.attr")`` of every ``self.attr`` store there
    stores: list
    #: module-level names ``constants.py`` assigns
    constants: list


def _declares(node, names):
    """True for an assignment to one of ``names`` (``__all__ = ...``)."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id in names for t in node.targets)


def _code_nodes(tree, is_init):
    """Every node of ``tree`` except ``__all__``/``__slots__`` declarations
    and, in ``__init__.py``, top-level re-exports."""
    stack = [node for node in tree.body if not (
        is_init and isinstance(node, (ast.Import, ast.ImportFrom)))]
    while stack:
        node = stack.pop()
        if _declares(node, ("__all__", "__slots__")):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _self_stores(cls):
    """``(line, attr)`` of each ``self.attr`` store in ``cls``'s own body
    (a nested class's stores are its own)."""
    stack = list(cls.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            yield node.lineno, node.attr
        stack.extend(ast.iter_child_nodes(node))


@cache
def scan():
    """One pass over the scanned trees; see :class:`Scan`."""
    result = Scan(Counter(), Counter(), [], [], [])
    for root in SCANNED:
        for path in sorted((ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if path == CONSTANTS:
                result.constants.extend(
                    target.id for node in tree.body
                    if isinstance(node, ast.Assign)
                    for target in node.targets
                    if isinstance(target, ast.Name))
                continue
            for node in _code_nodes(tree, path.name == "__init__.py"):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        result.references[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        result.references[node.attr] += 1
                        result.reads[node.attr] += 1
                elif isinstance(node, ast.alias):
                    result.references[node.name.rpartition(".")[2]] += 1
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and IDENTIFIER.match(node.value)):
                    result.references[node.value] += 1
                    result.reads[node.value] += 1
            if not path.is_relative_to(SRC):
                continue
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    result.definitions.append((path, node.lineno, node.name))
                if isinstance(node, ast.ClassDef):
                    result.stores.extend(
                        (path, line, f"{node.name}.{attr}")
                        for line, attr in _self_stores(node))
    return result


def _skipped(name):
    return name.startswith("__") and name.endswith("__") \
        or name.startswith("visit_")


def _unread(found):
    """Stored ``Class.attr`` pairs nothing reads -> their first store."""
    out = {}
    for path, line, pair in sorted(found.stores):
        if found.reads[pair.partition(".")[2]] == 0:
            out.setdefault(pair, (path, line))
    return out


def test_every_definition_is_used_outside_tests():
    found = scan()
    unused = [
        f"{path.relative_to(ROOT)}:{lineno} {name}"
        for path, lineno, name in found.definitions
        if found.references[name] == 0 and name not in ALLOWED
        and not _skipped(name)
    ]
    assert not unused, ("definitions no code outside tests/ references "
                        "(delete them, or allowlist one with a reason):\n"
                        + "\n".join(unused))


def test_allowlist_holds_only_unused_definitions():
    """A stale entry would silently exempt whatever reuses the name."""
    found = scan()
    defined = {name for _, _, name in found.definitions}
    stale = sorted(name for name in ALLOWED
                   if name not in defined or found.references[name] > 0)
    assert not stale


def test_every_stored_attribute_is_read_outside_tests():
    unread = [f"{path.relative_to(ROOT)}:{line} {pair}"
              for pair, (path, line) in _unread(scan()).items()
              if pair not in ALLOWED_STATE]
    assert not unread, ("attributes stored on self that nothing outside "
                        "tests/ reads (delete them, or allowlist one with a "
                        "reason):\n" + "\n".join(unread))


def test_state_allowlist_holds_only_unread_attributes():
    stale = sorted(set(ALLOWED_STATE) - set(_unread(scan())))
    assert not stale


def test_every_constant_is_read_outside_constants_py():
    found = scan()
    assert found.constants
    unread = [name for name in found.constants
              if found.references[name] == 0 and not _skipped(name)]
    assert not unread, ("constants nothing outside constants.py and tests/ "
                        "reads (delete them):\n" + "\n".join(unread))
