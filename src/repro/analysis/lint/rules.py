"""The rcast-lint rule set.

Simulator-specific determinism/protocol invariants, each with a stable id.
Rules yield ``(line, col, message)`` findings; the runner attaches file
paths, applies path scoping and inline suppressions, and renders output.

R001–R006 are per-file rules (one AST at a time).  R007–R010 are *project*
rules: they subclass :class:`ProjectRule` and additionally receive the
cross-module :class:`~repro.analysis.lint.project.ProjectIndex`, so they
can follow a seed across function and module boundaries.  ``R000`` is not
a rule class — the runner itself emits it for suppression pragmas that
silenced nothing.

=====  =========================  ==================================================
id     name                       invariant
=====  =========================  ==================================================
R000   unused-suppression         every ``# rcast-lint: disable=`` pragma must
                                  actually silence a finding (runner-emitted)
R001   rng-discipline             all randomness flows through named
                                  :class:`~repro.sim.rng.RngRegistry` streams;
                                  no global ``random`` / ``np.random`` draws
R002   wall-clock                 simulation code never reads the wall clock
                                  (virtual time only; ``perf_counter`` is fine)
R003   unordered-iteration        no iteration over ``set`` / ``frozenset``
                                  values in protocol code without ``sorted()``
R004   mutable-default            no mutable default arguments
R005   handler-purity             event handlers must not read the wall clock,
                                  draw global randomness, or mutate module
                                  globals
R006   poll-loop                  no self-rescheduling poll loops under a
                                  carrier-sense guard; subscribe to the
                                  channel's busy→idle wake instead
R007   rng-provenance             every ``random.Random`` / ``default_rng``
                                  seed must provably flow from ``derive_seed``
                                  (across call sites); no stream-name reuse
                                  between modules or rebinding under two names
R008   unstable-tie-break         heap insertions need a unique tie-break
                                  element so equal-(time, priority) events
                                  cannot compare by payload
R009   unordered-reduction        no float reductions (``sum``/``np.sum``/
                                  ``fsum``/accumulation loops) over ``set`` or
                                  dict-view iteration without ``sorted()``
R010   event-typestate            ``Event`` lifecycle: no construction or
                                  ``fire()`` outside the engine, no double
                                  cancel, no cancel/fire after fire, no
                                  ``.fired`` reads before scheduling
R011   unbounded-observer-append  observer/sink hot paths (``emit`` /
                                  ``observe``) must not grow an unbounded
                                  list or dict once per event; use a bounded
                                  buffer or fold online
R012   per-event-global-scan      per-event callbacks must not iterate
                                  all-nodes containers (``self._peers``,
                                  ``self.radios``, registry dicts): that
                                  makes every event O(N); scope the work to
                                  the event (busy sets, epoch groups) or
                                  batch it at the epoch boundary
=====  =========================  ==================================================
"""

from __future__ import annotations

import ast
import re
from typing import (Dict, Iterator, List, Optional, Sequence, Set, Tuple,
                    Type, Union)

from repro.analysis.lint.context import FileContext
from repro.analysis.lint.diagnostics import Severity
from repro.analysis.lint.project import (
    ModuleInfo,
    ProjectIndex,
    iter_stream_derivations,
    static_stream_key,
)

#: A raw finding: (line, col, message).
Finding = Tuple[int, int, str]

#: Directories (relative to the package root) that execute under virtual
#: time and feed the deterministic event loop.
SIM_PATHS: Tuple[str, ...] = (
    "sim/",
    "mac/",
    "phy/",
    "routing/",
    "core/",
    "traffic/",
    "mobility/",
    "experiments/",
    "network.py",
    "node.py",
)


class Rule:
    """Base class: id, human name, severity, and path scoping."""

    id: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    #: apply only to files under these relative paths (empty = everywhere)
    paths: Tuple[str, ...] = ()
    #: never apply to files under these relative paths
    allow: Tuple[str, ...] = ()

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def applies_to(self, rel: str) -> bool:
        """Whether this rule is in scope for the file at ``rel``."""
        if any(_path_matches(rel, pattern) for pattern in self.allow):
            return False
        if not self.paths:
            return True
        return any(_path_matches(rel, pattern) for pattern in self.paths)


class ProjectRule(Rule):
    """A rule that needs the cross-module :class:`ProjectIndex`.

    Project rules are dispatched once per module *with* the index; their
    plain :meth:`run` is a no-op so a caller that only has a single file
    context still gets a well-defined (empty) answer.
    """

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def run_project(self, ctx: FileContext, module: ModuleInfo,
                    project: ProjectIndex) -> Iterator[Finding]:
        """Yield findings for ``module``, with project-wide visibility."""
        raise NotImplementedError


def _path_matches(rel: str, pattern: str) -> bool:
    rel = rel.replace("\\", "/")
    if pattern.endswith("/"):
        return rel.startswith(pattern) or f"/{pattern}" in f"/{rel}"
    return rel == pattern or rel.endswith("/" + pattern)


# ----------------------------------------------------------------------
# R001 — rng-discipline
# ----------------------------------------------------------------------


class RngDiscipline(Rule):
    """All randomness must come from named ``RngRegistry`` streams.

    Direct draws on the global ``random`` module (or ``np.random``) are
    invisible to the registry: they couple unrelated subsystems to one
    shared sequence and break the bit-identical-per-seed guarantee the
    moment anyone adds a draw.  ``sim/rng.py`` itself is the only module
    allowed to construct generators.
    """

    id = "R001"
    name = "rng-discipline"
    allow = ("sim/rng.py",)

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.imports.from_random_imports:
            yield (
                node.lineno, node.col_offset,
                "import from the global `random` module; draw from a named "
                "RngRegistry stream (repro.sim.rng) instead",
            )
        for node in ctx.imports.from_numpy_random_imports:
            yield (
                node.lineno, node.col_offset,
                "import from `numpy.random`; use "
                "RngRegistry.numpy_stream(name) instead",
            )
        for call in ast.walk(ctx.tree):
            if not isinstance(call, ast.Call):
                continue
            described = ctx.global_random_call(call)
            if described is not None:
                yield (
                    call.lineno, call.col_offset,
                    f"direct call to `{described}`; all randomness must come "
                    "from a named RngRegistry stream (repro.sim.rng)",
                )


# ----------------------------------------------------------------------
# R002 — wall-clock
# ----------------------------------------------------------------------


class WallClock(Rule):
    """Simulation code runs on virtual time; the wall clock is forbidden.

    A ``time.time()`` in a protocol path silently couples results to host
    load and clock steps.  ``time.perf_counter()`` / ``time.monotonic()``
    are allowed for *reporting* elapsed wall time (they never feed back
    into simulated behaviour and are immune to clock adjustments).
    """

    id = "R002"
    name = "wall-clock"
    # The CLI reports elapsed wall time to humans and the live progress
    # monitors (repro.obs.live) rate-limit rendering and compute ev/s;
    # neither read feeds back into simulated behaviour, so both modules
    # are allowlisted (and use perf_counter anyway).
    allow = ("cli.py", "obs/live.py")

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        for node, bound_name in ctx.imports.from_time_wallclock:
            yield (
                node.lineno, node.col_offset,
                f"`from time import {bound_name}` imports a wall-clock "
                "reader; use simulator virtual time (sim.now) or "
                "time.perf_counter() for elapsed-time reporting",
            )
        for call in ast.walk(ctx.tree):
            if not isinstance(call, ast.Call):
                continue
            described = ctx.wall_clock_call(call)
            if described is not None:
                yield (
                    call.lineno, call.col_offset,
                    f"wall-clock read `{described}()`; simulation code must "
                    "use virtual time (sim.now); use time.perf_counter() "
                    "for elapsed-time reporting",
                )


# ----------------------------------------------------------------------
# R003 — unordered-iteration
# ----------------------------------------------------------------------

_SET_ANNOTATION = re.compile(
    r"^(?:typing\.)?(?:Set|FrozenSet|AbstractSet|MutableSet|set|frozenset)"
    r"(?:\[|$)"
)

#: ``sorted()`` restores a deterministic order; these merely materialize
#: the (hash-dependent) iteration order and do NOT sanitize it.
_TRANSPARENT_WRAPPERS = frozenset({"list", "tuple", "enumerate", "iter"})

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _annotation_is_set(annotation: ast.expr) -> bool:
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return _SET_ANNOTATION.match(text.strip()) is not None


class UnorderedIteration(Rule):
    """Iterating a ``set`` leaks hash order into the event schedule.

    Any ``for x in some_set`` in protocol/MAC/handler code makes event
    ordering (and therefore RNG consumption) depend on hash seeds and
    insertion history, which breaks the workers=1 vs workers=N
    bit-identical guarantee.  Wrap the iterable in ``sorted(...)``;
    ``list(...)``/``tuple(...)`` only materialize the unstable order.

    Set *comprehensions* over sets are exempt: their result is itself
    unordered, so the traversal order cannot leak (side-effectful
    comprehension predicates are pathological enough to be out of scope).
    """

    id = "R003"
    name = "unordered-iteration"
    paths = SIM_PATHS

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        set_attrs = _set_typed_attrs(ctx.tree)
        module_sets = _set_typed_locals(ctx.tree.body, set_attrs)
        yield from self._scan(ctx.tree.body, module_sets, set_attrs)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = module_sets | _set_typed_locals(node.body, set_attrs)
                for arg, annotation in _annotated_args(node):
                    if _annotation_is_set(annotation):
                        local.add(arg)
                yield from self._scan(node.body, local, set_attrs)

    def _scan(self, body: Sequence[ast.stmt], set_names: Set[str],
              set_attrs: Set[str]) -> Iterator[Finding]:
        exempt: Set[int] = set()
        for node in _walk_scope(body):
            # A comprehension fed straight into an order-erasing sink
            # (sorted/set/frozenset) cannot leak traversal order.  Parents
            # are yielded before children, so the exemption lands first.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("sorted", "set", "frozenset")
                and node.args
            ):
                exempt.add(id(node.args[0]))
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                if id(node) in exempt:
                    continue
                iters.extend(gen.iter for gen in node.generators)
            for expr in iters:
                finding = _check_iterable(expr, set_names, set_attrs)
                if finding is not None:
                    yield finding


def _walk_scope(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function scopes.

    Each function is scanned exactly once, with its own local-name table;
    descending from the enclosing scope would double-report its loops.
    """
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested scope: scanned separately with its own names
        stack.extend(ast.iter_child_nodes(node))


def _annotated_args(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[Tuple[str, ast.expr]]:
    args = node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.annotation is not None:
            yield arg.arg, arg.annotation


def _set_typed_attrs(tree: ast.Module) -> Set[str]:
    """Attribute names assigned set values anywhere in the file.

    Tracked by attribute *name* regardless of receiver, so
    ``self._seen = set()`` and ``tx.audible = set(...)`` both mark their
    attribute; a later ``for x in tx.audible`` is then in scope.
    """
    attrs: Set[str] = set()
    for node in ast.walk(tree):
        target: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if _is_set_expr(node.value, set(), attrs):
                target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            if _annotation_is_set(node.annotation):
                target = node.target
        if isinstance(target, ast.Attribute):
            attrs.add(target.attr)
    return attrs


def _set_typed_locals(body: Sequence[ast.stmt],
                      set_attrs: Set[str]) -> Set[str]:
    names: Set[str] = set()
    for node in _walk_scope(body):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and _is_set_expr(node.value, names, set_attrs)
            ):
                names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and _annotation_is_set(node.annotation)
            ):
                names.add(node.target.id)
    return names


def _is_set_expr(node: ast.expr, set_names: Set[str],
                 set_attrs: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr in set_attrs
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return (
            _is_set_expr(node.left, set_names, set_attrs)
            or _is_set_expr(node.right, set_names, set_attrs)
        )
    return False


def _check_iterable(expr: ast.expr, set_names: Set[str],
                    set_attrs: Set[str]) -> Optional[Finding]:
    # sorted(...) sanitizes whatever is inside.
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "sorted"
    ):
        return None
    # list()/tuple()/enumerate()/iter() just materialize the unstable
    # order; look through them.
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in _TRANSPARENT_WRAPPERS
        and expr.args
    ):
        return _check_iterable(expr.args[0], set_names, set_attrs)
    if _is_set_expr(expr, set_names, set_attrs):
        try:
            rendered = ast.unparse(expr)
        except Exception:  # pragma: no cover - unparseable expr
            rendered = "<set>"
        return (
            expr.lineno, expr.col_offset,
            f"iteration over unordered set `{rendered}`; wrap in "
            "sorted(...) so event order cannot depend on hash order",
        )
    return None


# ----------------------------------------------------------------------
# R004 — mutable-default
# ----------------------------------------------------------------------

_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
     "Counter", "deque"}
)


class MutableDefault(Rule):
    """Mutable default arguments are shared across calls (and runs)."""

    id = "R004"
    name = "mutable-default"

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_literal(default):
                    yield (
                        default.lineno, default.col_offset,
                        f"mutable default argument in `{node.name}()`; "
                        "use None and create the value inside the function",
                    )


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_FACTORIES
    return False


# ----------------------------------------------------------------------
# R005 — handler-purity
# ----------------------------------------------------------------------

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {"append", "add", "update", "extend", "insert", "remove", "discard",
     "pop", "popitem", "clear", "setdefault", "sort", "reverse"}
)

_HANDLER_NAME = re.compile(r"^_?(on|handle)_|^_\w+_(timeout|timer)$")


class HandlerPurity(Rule):
    """Event handlers must be pure with respect to process state.

    A handler is any function registered on the engine
    (``sim.schedule(...)`` / ``sim.schedule_at(...)``), passed as an
    ``on_*=`` callback, or following the ``_on_*`` / ``_handle_*`` naming
    convention.  Handlers run inside the deterministic event loop: reading
    the wall clock, drawing from the global ``random`` module, or mutating
    module-level state makes replays diverge.
    """

    id = "R005"
    name = "handler-purity"
    paths = SIM_PATHS

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        handler_names = _registered_handler_names(ctx)
        seen: Set[int] = set()
        for name in sorted(handler_names):
            for func in ctx.functions.get(name, ()):
                if id(func) in seen:
                    continue
                seen.add(id(func))
                yield from self._check_handler(ctx, func)

    def _check_handler(
        self, ctx: FileContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                yield (
                    node.lineno, node.col_offset,
                    f"event handler `{func.name}` declares "
                    f"`global {', '.join(node.names)}`; handlers must not "
                    "mutate module globals",
                )
            if isinstance(node, ast.Call):
                wall = ctx.wall_clock_call(node)
                if wall is not None:
                    yield (
                        node.lineno, node.col_offset,
                        f"event handler `{func.name}` reads the wall clock "
                        f"via `{wall}()`; use the simulator's virtual time",
                    )
                rand = ctx.global_random_call(node)
                if rand is not None:
                    yield (
                        node.lineno, node.col_offset,
                        f"event handler `{func.name}` draws from the global "
                        f"random module via `{rand}()`; use an injected "
                        "RngRegistry stream",
                    )
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATOR_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ctx.module_level_names
                ):
                    yield (
                        node.lineno, node.col_offset,
                        f"event handler `{func.name}` mutates module-level "
                        f"`{node.func.value.id}` via "
                        f"`.{node.func.attr}()`; handlers must not mutate "
                        "module globals",
                    )
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in ctx.module_level_names
                    ):
                        yield (
                            target.lineno, target.col_offset,
                            f"event handler `{func.name}` writes into "
                            f"module-level `{target.value.id}`; handlers "
                            "must not mutate module globals",
                        )


def _registered_handler_names(ctx: FileContext) -> Set[str]:
    names: Set[str] = set()
    for name in ctx.functions:
        if _HANDLER_NAME.match(name):
            names.add(name)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("schedule", "schedule_at")
            and len(node.args) >= 2
        ):
            callback = node.args[1]
            name = _callback_name(callback)
            if name is not None:
                names.add(name)
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg.startswith("on_"):
                name = _callback_name(keyword.value)
                if name is not None:
                    names.add(name)
    return names


def _callback_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# ----------------------------------------------------------------------
# R006 — poll-loop
# ----------------------------------------------------------------------

#: Identifiers whose presence in a branch condition marks it as a
#: carrier-sense / medium-state check.
_BUSY_TOKEN = re.compile(r"busy|carrier", re.IGNORECASE)


class PollLoop(Rule):
    """No self-rescheduling poll loops under a carrier-sense guard.

    A callback that re-schedules *itself* from inside a branch testing
    channel busy state is a poll loop: while the medium stays busy it burns
    one heap event per backoff draw without advancing the simulation (the
    pre-wake-on-idle DCF spent ~1.27M such attempt events on 48k
    transmissions per bench run — a 26:1 overhead).  Register with
    ``Channel.wait_for_idle`` and replay the deferred draws at the wake
    instead.  Where a *bounded* self-reschedule is genuinely required —
    e.g. a deadline-expiry completion that must fire at the poll-model
    instant — suppress inline with the rationale.

    The check resolves ``self._foo_cb = self._foo``-style bound-method
    aliases (the hot-loop idiom in this codebase) so caching the callback
    does not hide the loop.
    """

    id = "R006"
    name = "poll-loop"
    paths = SIM_PATHS

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                aliases = _self_attr_aliases(node)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        yield from self._check(item, aliases)
        for item in ctx.tree.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check(item, {})

    def _check(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef,
        aliases: Dict[str, str],
    ) -> Iterator[Finding]:
        for branch in ast.walk(func):
            if not isinstance(branch, ast.If):
                continue
            if not _mentions_busy(branch.test):
                continue
            for stmt in branch.body:
                for call in ast.walk(stmt):
                    if not (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr in ("schedule", "schedule_at")
                        and len(call.args) >= 2
                    ):
                        continue
                    target = _callback_name(call.args[1])
                    if target is not None:
                        target = _resolve_alias(target, aliases)
                    if target == func.name:
                        yield (
                            call.lineno, call.col_offset,
                            f"`{func.name}` re-schedules itself while "
                            "carrier sense reports busy (a poll loop, one "
                            "event per backoff draw); subscribe via "
                            "Channel.wait_for_idle and replay the draws at "
                            "the wake",
                        )


def _mentions_busy(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and _BUSY_TOKEN.search(node.id):
            return True
        if isinstance(node, ast.Attribute) and _BUSY_TOKEN.search(node.attr):
            return True
    return False


def _self_attr_aliases(cls: ast.ClassDef) -> Dict[str, str]:
    """``self.X = self.Y`` assignments anywhere in the class body."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(cls):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            aliases[target.attr] = value.attr
    return aliases


def _resolve_alias(name: str, aliases: Dict[str, str]) -> str:
    for _ in range(len(aliases)):
        if name not in aliases:
            break
        name = aliases[name]
    return name


# ----------------------------------------------------------------------
# R007 — rng-provenance (project rule)
# ----------------------------------------------------------------------

#: Fully-qualified constructors whose first argument is an RNG seed.
_SEEDED_CONSTRUCTORS = frozenset({"random.Random", "numpy.random.default_rng"})


class RngProvenance(ProjectRule):
    """Every generator seed must provably flow from ``derive_seed``.

    R001 catches draws on the *global* random module, but a locally
    constructed ``random.Random(42)`` — or one seeded from a parameter
    whose callers pass wall-clock entropy — is invisible per-file.  This
    rule walks seed provenance through local assignments, arithmetic,
    seed-returning helper functions, and every project call site of the
    enclosing function: the construction is clean only when *all* paths
    reach ``derive_seed`` / ``RngRegistry``.

    It also audits the stream *namespace*: the same derivation name used
    in two modules means two subsystems silently share one sequence, and
    one binding assigned streams derived under two different names hides
    which subsystem owns the draws.  F-string names key on their static
    prefix (``f"mac:{node_id}"`` → ``mac:``) so per-node families count
    as one name.
    """

    id = "R007"
    name = "rng-provenance"

    def __init__(self) -> None:
        self._collision_cache: Dict[int, Dict[str, List[Tuple[str, int]]]] = {}

    def run_project(self, ctx: FileContext, module: ModuleInfo,
                    project: ProjectIndex) -> Iterator[Finding]:
        yield from self._check_constructions(module, project)
        yield from self._check_name_collisions(module, project)
        yield from self._check_binding_reuse(module)

    # -- generator constructions ---------------------------------------

    def _check_constructions(
        self, module: ModuleInfo, project: ProjectIndex,
    ) -> Iterator[Finding]:
        for simple in ("Random", "SystemRandom", "default_rng"):
            for site in project.callers_of(simple):
                if site.module is not module:
                    continue
                resolved = module.resolve(site.call.func)
                if resolved is None:
                    continue
                call = site.call
                if resolved == "random.SystemRandom":
                    yield (
                        call.lineno, call.col_offset,
                        "`random.SystemRandom` draws OS entropy and can "
                        "never be made deterministic; use a derive_seed-"
                        "seeded stream",
                    )
                    continue
                if resolved not in _SEEDED_CONSTRUCTORS:
                    continue
                if not call.args and not call.keywords:
                    yield (
                        call.lineno, call.col_offset,
                        f"`{resolved}()` without a seed draws from OS "
                        "entropy; seed it via derive_seed(root, name) or a "
                        "registry stream",
                    )
                    continue
                seed = call.args[0] if call.args else call.keywords[0].value
                if not project.is_derived_seed(seed, module, site.scope):
                    yield (
                        call.lineno, call.col_offset,
                        f"seed passed to `{resolved}(...)` does not provably "
                        "flow from derive_seed/RngRegistry (checked across "
                        "all call sites); derive it with "
                        "derive_seed(root, name)",
                    )

    # -- cross-module stream-name collisions ---------------------------

    def _collisions(
        self, project: ProjectIndex,
    ) -> Dict[str, List[Tuple[str, int]]]:
        cached = self._collision_cache.get(id(project))
        if cached is not None:
            return cached
        by_key: Dict[str, Dict[str, int]] = {}
        for mod in project.modules.values():
            for call, key in iter_stream_derivations(mod):
                lines = by_key.setdefault(key, {})
                if mod.rel not in lines or call.lineno < lines[mod.rel]:
                    lines[mod.rel] = call.lineno
        result = {
            key: sorted(lines.items())
            for key, lines in by_key.items() if len(lines) > 1
        }
        self._collision_cache[id(project)] = result
        return result

    def _check_name_collisions(
        self, module: ModuleInfo, project: ProjectIndex,
    ) -> Iterator[Finding]:
        # The module deriving the most distinct stream names is treated as
        # the namespace owner (the composition root); every *other* module
        # sharing one of its names is flagged.
        key_counts: Dict[str, int] = {}
        for mod in project.modules.values():
            key_counts[mod.rel] = len(
                {key for _c, key in iter_stream_derivations(mod)}
            )
        for key, users in sorted(self._collisions(project).items()):
            owner = max(users, key=lambda item: (key_counts[item[0]],
                                                 item[0]))[0]
            for rel, line in users:
                if rel == owner or rel != module.rel:
                    continue
                others = ", ".join(r for r, _l in users if r != rel)
                yield (
                    line, 0,
                    f"stream name {key!r} is also derived in {others}; two "
                    "subsystems sharing one derivation name draw from one "
                    "RNG sequence — pick a distinct name or suppress with "
                    "the sharing rationale",
                )

    # -- one binding, two derivation names -----------------------------

    def _check_binding_reuse(self, module: ModuleInfo) -> Iterator[Finding]:
        tree = module.ctx.tree
        scopes: List[Sequence[ast.stmt]] = [tree.body]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node.body)
        for body in scopes:
            seen: Dict[str, Tuple[str, int]] = {}
            # _walk_scope yields siblings in reverse; re-establish source
            # order — this check is a stateful scan over the assignments.
            assigns = sorted(
                (node for node in _walk_scope(body)
                 if isinstance(node, ast.Assign) and len(node.targets) == 1),
                key=lambda node: (node.lineno, node.col_offset),
            )
            for node in assigns:
                binding = _binding_key(node.targets[0])
                key = _derivation_key(node.value)
                if binding is None or key is None:
                    continue
                prior = seen.get(binding)
                if prior is not None and prior[0] != key:
                    yield (
                        node.lineno, node.col_offset,
                        f"binding `{binding}` is reassigned a stream derived "
                        f"under name {key!r} after holding one derived under "
                        f"{prior[0]!r} (line {prior[1]}); reuse under two "
                        "derivation names hides which subsystem owns the "
                        "draws",
                    )
                seen[binding] = (key, node.lineno)


def _binding_key(target: ast.expr) -> Optional[str]:
    if isinstance(target, ast.Name):
        return target.id
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return f"self.{target.attr}"
    return None


def _derivation_key(value: ast.expr) -> Optional[str]:
    """Static stream key when ``value`` is a stream-derivation call."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name_expr: Optional[ast.expr] = None
    if isinstance(func, ast.Attribute) and func.attr in ("stream",
                                                         "numpy_stream"):
        if value.args:
            name_expr = value.args[0]
    elif isinstance(func, ast.Name) and func.id in ("derived_stream",):
        if len(value.args) >= 2:
            name_expr = value.args[1]
    if name_expr is None:
        return None
    return static_stream_key(name_expr)


# ----------------------------------------------------------------------
# R008 — unstable-tie-break (project rule)
# ----------------------------------------------------------------------

#: heapq entry points whose pushed item carries the ordering key.
_HEAP_PUSHERS = frozenset({"heappush", "heapreplace", "heappushpop"})

#: Identifier suffixes that signal a unique, monotonic tie-break element.
_TIE_TOKEN = re.compile(
    r"(?:^|_)(seq|sequence|serial|uid|uuid|counter|count|key|tiebreak)$"
)


class UnstableTieBreak(ProjectRule):
    """Heap keys must carry a unique tie-break element.

    Two events pushed with equal ``(time, priority)`` and no sequence
    number fall through to comparing whatever comes next in the tuple —
    typically the payload object, whose identity ordering varies run to
    run.  The engine's own ``(event._key, event)`` push is safe because
    ``_key`` ends in a monotonic sequence number; this rule demands the
    same of every other heap insertion.  Import-aware: only calls that
    resolve to :mod:`heapq` are checked, so an unrelated ``heappush``
    method is ignored.
    """

    id = "R008"
    name = "unstable-tie-break"

    def run_project(self, ctx: FileContext, module: ModuleInfo,
                    project: ProjectIndex) -> Iterator[Finding]:
        for simple in sorted(_HEAP_PUSHERS):
            for site in project.callers_of(simple):
                if site.module is not module:
                    continue
                if module.resolve(site.call.func) != f"heapq.{simple}":
                    continue
                call = site.call
                if len(call.args) < 2:
                    continue
                item = call.args[1]
                if not isinstance(item, ast.Tuple):
                    continue  # opaque item: ordering is the object's own
                if not any(_is_tie_break(el) for el in item.elts):
                    yield (
                        item.lineno, item.col_offset,
                        f"heap key tuple in `{simple}` has no unique "
                        "tie-break element; equal-(time, priority) entries "
                        "compare by payload, which is unstable across runs "
                        "— append a monotonic sequence number",
                    )


def _is_tie_break(element: ast.expr) -> bool:
    if isinstance(element, ast.Call):
        func = element.func
        # next(counter) / next(self._seq) — the itertools.count idiom.
        if isinstance(func, ast.Name) and func.id == "next":
            return True
        if isinstance(func, ast.Attribute) and _TIE_TOKEN.search(func.attr):
            return True
        return False
    if isinstance(element, ast.Name):
        return _TIE_TOKEN.search(element.id) is not None
    if isinstance(element, ast.Attribute):
        return _TIE_TOKEN.search(element.attr) is not None
    return False


# ----------------------------------------------------------------------
# R009 — unordered-reduction (project rule)
# ----------------------------------------------------------------------

#: Qualified reducers whose result depends on operand order for floats.
_FLOAT_REDUCERS = frozenset({
    "numpy.sum", "numpy.prod", "numpy.mean", "math.fsum",
    "statistics.mean", "statistics.fmean", "statistics.stdev",
    "statistics.variance",
})

#: Dict-view methods that expose unordered-by-contract iteration.
_DICT_VIEWS = frozenset({"values", "keys", "items"})


class UnorderedReduction(ProjectRule):
    """Float reductions over unordered iteration are order-sensitive.

    Floating-point addition does not associate: ``sum`` over a ``set`` (or
    a dict view whose insertion order encodes execution history) can
    change in the last ulp when hash seeding or insertion order shifts,
    and an ulp is all it takes to flip a comparison downstream.  Wrap the
    iterable in ``sorted(...)``.  Pure *counting* reductions (``sum(1 for
    ...)`` / ``len`` elements / integer literals) are exempt — integer
    addition associates.  Import-aware via the project index: ``np.sum``
    and ``math.fsum`` are recognised under any alias.
    """

    id = "R009"
    name = "unordered-reduction"

    def run_project(self, ctx: FileContext, module: ModuleInfo,
                    project: ProjectIndex) -> Iterator[Finding]:
        set_attrs = _set_typed_attrs(ctx.tree)
        module_sets = _set_typed_locals(ctx.tree.body, set_attrs)
        yield from self._scan(module, ctx.tree.body, module_sets, set_attrs)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = module_sets | _set_typed_locals(node.body, set_attrs)
                for arg, annotation in _annotated_args(node):
                    if _annotation_is_set(annotation):
                        local.add(arg)
                yield from self._scan(module, node.body, local, set_attrs)

    def _scan(self, module: ModuleInfo, body: Sequence[ast.stmt],
              set_names: Set[str], set_attrs: Set[str]) -> Iterator[Finding]:
        for node in _walk_scope(body):
            if isinstance(node, ast.Call):
                yield from self._check_reducer(module, node, set_names,
                                               set_attrs)
            elif isinstance(node, ast.For):
                yield from self._check_loop(node, set_names, set_attrs)

    def _check_reducer(self, module: ModuleInfo, call: ast.Call,
                       set_names: Set[str],
                       set_attrs: Set[str]) -> Iterator[Finding]:
        func = call.func
        is_reducer = (
            isinstance(func, ast.Name) and func.id == "sum"
        ) or (module.resolve(func) in _FLOAT_REDUCERS)
        if not is_reducer or not call.args:
            return
        arg = call.args[0]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            if _is_counting_element(arg.elt):
                return
            for gen in arg.generators:
                if _is_unordered_iterable(gen.iter, set_names, set_attrs):
                    yield self._finding(gen.iter)
        elif _is_unordered_iterable(arg, set_names, set_attrs):
            yield self._finding(arg)

    def _check_loop(self, node: ast.For, set_names: Set[str],
                    set_attrs: Set[str]) -> Iterator[Finding]:
        if not _is_unordered_iterable(node.iter, set_names, set_attrs):
            return
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.AugAssign)
                    and isinstance(sub.op, (ast.Add, ast.Mult))
                    and not _is_counting_element(sub.value)
                ):
                    yield self._finding(node.iter)
                    return

    @staticmethod
    def _finding(expr: ast.expr) -> Finding:
        try:
            rendered = ast.unparse(expr)
        except Exception:  # pragma: no cover - unparseable expr
            rendered = "<iterable>"
        return (
            expr.lineno, expr.col_offset,
            f"float reduction over unordered `{rendered}`; float addition "
            "is order-sensitive — wrap the iterable in sorted(...) or "
            "reduce over a deterministically ordered sequence",
        )


def _is_counting_element(expr: ast.expr) -> bool:
    """Integer-only element: ``1``, ``len(...)`` — associative, exempt."""
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, int)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id == "len"
    return False


def _is_unordered_iterable(expr: ast.expr, set_names: Set[str],
                           set_attrs: Set[str]) -> bool:
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "sorted"
    ):
        return False
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in _TRANSPARENT_WRAPPERS
        and expr.args
    ):
        return _is_unordered_iterable(expr.args[0], set_names, set_attrs)
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _DICT_VIEWS
        and not expr.args
    ):
        return True
    return _is_set_expr(expr, set_names, set_attrs)


# ----------------------------------------------------------------------
# R010 — event-typestate (project rule)
# ----------------------------------------------------------------------

#: The engine-internal modules that legitimately own the Event lifecycle:
#: they alone construct events and call ``event.fire()`` (the package's
#: one fire interceptor, DSan, inlines the fire instead).
_EVENT_OWNERS = ("sim/engine.py", "sim/events.py")

_ST_CONSTRUCTED = "constructed"
_ST_SCHEDULED = "scheduled"
_ST_CANCELLED = "cancelled"
_ST_FIRED = "fired"
_ST_UNKNOWN = "unknown"


class EventTypestate(ProjectRule):
    """Static lifecycle checking for :class:`repro.sim.events.Event`.

    The engine's contract: events are born via ``sim.schedule(...)``,
    fired exactly once by the loop (or a fire-interceptor), and
    ``cancel()`` is an idempotent no-op after either.  Violations are
    either dead code (double cancel, cancel-after-fire) or determinism
    hazards (direct construction bypasses the registry sequence number;
    firing outside the loop reorders the schedule).  Import-aware: only
    names resolving to ``repro.sim.events.Event`` are treated as events,
    so ``threading.Event()`` is ignored.
    """

    id = "R010"
    name = "event-typestate"

    def run_project(self, ctx: FileContext, module: ModuleInfo,
                    project: ProjectIndex) -> Iterator[Finding]:
        rel = module.rel
        if not any(_path_matches(rel, owner) for owner in _EVENT_OWNERS):
            for site in project.callers_of("Event"):
                if site.module is not module:
                    continue
                if module.resolve(site.call.func) != "repro.sim.events.Event":
                    continue
                call = site.call
                yield (
                    call.lineno, call.col_offset,
                    "direct Event construction bypasses the engine's "
                    "monotonic sequence numbering; use sim.schedule / "
                    "sim.schedule_at",
                )
        if not any(_path_matches(rel, seam) for seam in _EVENT_OWNERS):
            for node in ast.walk(ctx.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "fire"
                    and not node.args and not node.keywords
                ):
                    yield (
                        node.lineno, node.col_offset,
                        "calling `.fire()` outside the engine / "
                        "fire-interceptor seam dispatches an event out of "
                        "schedule order",
                    )
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings: List[Finding] = []
                _interpret_typestate(node.body, {}, module, findings)
                yield from findings


def _event_state_of(value: ast.expr, module: ModuleInfo) -> Optional[str]:
    """Initial typestate when ``value`` is assigned, or None (untracked)."""
    if not isinstance(value, ast.Call):
        return None
    if module.resolve(value.func) == "repro.sim.events.Event":
        return _ST_CONSTRUCTED
    if (
        isinstance(value.func, ast.Attribute)
        and value.func.attr in ("schedule", "schedule_at")
    ):
        return _ST_SCHEDULED
    return None


def _interpret_typestate(
    body: Sequence[ast.stmt],
    state: Dict[str, str],
    module: ModuleInfo,
    findings: List[Finding],
) -> None:
    """Abstract interpretation of event lifecycles over one function body.

    Branches fork the state and merge to ``unknown`` on disagreement;
    loop bodies run once against a forked state (a transition that is a
    bug once is a bug in a loop too), then merge.
    """
    for stmt in body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            key = _binding_key(stmt.targets[0])
            if key is not None:
                new = _event_state_of(stmt.value, module)
                if new is not None:
                    state[key] = new
                else:
                    state.pop(key, None)
            _visit_typestate_exprs(stmt.value, state, module, findings)
        elif isinstance(stmt, ast.If):
            branch = dict(state)
            _interpret_typestate(stmt.body, branch, module, findings)
            other = dict(state)
            _interpret_typestate(stmt.orelse, other, module, findings)
            _merge_states(state, branch, other)
        elif isinstance(stmt, (ast.For, ast.While)):
            _visit_typestate_exprs(stmt, state, module, findings,
                                   skip_body=True)
            branch = dict(state)
            _interpret_typestate(stmt.body, branch, module, findings)
            _interpret_typestate(stmt.orelse, branch, module, findings)
            _merge_states(state, dict(state), branch)
        elif isinstance(stmt, ast.Try):
            branch = dict(state)
            _interpret_typestate(stmt.body, branch, module, findings)
            for handler in stmt.handlers:
                _interpret_typestate(handler.body, dict(state), module,
                                     findings)
            _interpret_typestate(stmt.orelse, branch, module, findings)
            _merge_states(state, dict(state), branch)
            _interpret_typestate(stmt.finalbody, state, module, findings)
        elif isinstance(stmt, ast.With):
            _interpret_typestate(stmt.body, state, module, findings)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            continue  # nested scope: interpreted on its own
        else:
            _visit_typestate_exprs(stmt, state, module, findings)


def _merge_states(state: Dict[str, str], left: Dict[str, str],
                  right: Dict[str, str]) -> None:
    state.clear()
    for key in set(left) | set(right):
        a, b = left.get(key), right.get(key)
        state[key] = a if a == b and a is not None else _ST_UNKNOWN


def _visit_typestate_exprs(
    node: ast.AST,
    state: Dict[str, str],
    module: ModuleInfo,
    findings: List[Finding],
    skip_body: bool = False,
) -> None:
    nodes = (
        [node] if not skip_body
        else [getattr(node, "iter", None) or getattr(node, "test", None)]
    )
    for root in nodes:
        if root is None:
            continue
        for sub in ast.walk(root):
            if isinstance(sub, ast.Call) and isinstance(sub.func,
                                                        ast.Attribute):
                key = _binding_key(sub.func.value)
                if key is None or key not in state:
                    continue
                current = state[key]
                if sub.func.attr == "cancel":
                    if current == _ST_CANCELLED:
                        findings.append((
                            sub.lineno, sub.col_offset,
                            f"`{key}.cancel()` called twice; the second "
                            "cancel is a dead no-op (cancel is idempotent) "
                            "— remove it or restructure the teardown",
                        ))
                    elif current == _ST_FIRED:
                        findings.append((
                            sub.lineno, sub.col_offset,
                            f"`{key}.cancel()` after the event fired is a "
                            "no-op; cancelling cannot un-fire an event",
                        ))
                    if current != _ST_UNKNOWN:
                        state[key] = _ST_CANCELLED
                elif sub.func.attr == "fire":
                    if current == _ST_FIRED:
                        findings.append((
                            sub.lineno, sub.col_offset,
                            f"`{key}.fire()` called twice; an event fires "
                            "exactly once",
                        ))
                    if current != _ST_UNKNOWN:
                        state[key] = _ST_FIRED
            elif isinstance(sub, ast.Attribute) and sub.attr == "fired":
                key = _binding_key(sub.value)
                if key is not None and state.get(key) == _ST_CONSTRUCTED:
                    findings.append((
                        sub.lineno, sub.col_offset,
                        f"`{key}.fired` read before the event was ever "
                        "scheduled; it is always False here",
                    ))


# ----------------------------------------------------------------------
# R011 — unbounded-observer-append
# ----------------------------------------------------------------------

#: Method names that run once per trace record / observation tick — the
#: observer hot path where per-event growth turns into O(events) memory.
_HOT_PATH_METHODS = frozenset({"emit", "observe"})

#: A call to a self-method matching this in the hot path signals the
#: container's growth is actively managed (rotation, decimation, ...).
_BOUND_KEEPERS = re.compile(
    r"rotate|decimate|compact|evict|trim|prune|advance_frontier"
)

#: list methods that add elements.
_LIST_GROWERS = frozenset({"append", "extend", "insert", "appendleft"})


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.X`` → ``"X"``; anything else → None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _unbounded_attrs(cls: ast.ClassDef) -> Tuple[Set[str], Set[str]]:
    """Self-attributes initialized as unbounded lists / dicts in ``cls``.

    Returns ``(list_like, dict_like)``.  A ``deque`` without a (non-None)
    ``maxlen`` grows exactly like a list and lands in the first set; a
    ``deque(maxlen=...)`` is bounded and exempt.
    """
    list_like: Set[str] = set()
    dict_like: Set[str] = set()
    for node in ast.walk(cls):
        value: Optional[ast.expr]
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        else:
            continue
        attr = _self_attr(target)
        if attr is None or value is None:
            continue
        if isinstance(value, ast.List) and not value.elts:
            list_like.add(attr)
        elif isinstance(value, ast.Dict) and not value.keys:
            dict_like.add(attr)
        elif isinstance(value, ast.Call):
            name = _call_name(value)
            if name == "list" and not value.args:
                list_like.add(attr)
            elif name in ("dict", "OrderedDict") and not value.args:
                dict_like.add(attr)
            elif name == "defaultdict":
                dict_like.add(attr)
            elif name == "deque":
                maxlen = next(
                    (kw.value for kw in value.keywords
                     if kw.arg == "maxlen"),
                    None,
                )
                if maxlen is None or (isinstance(maxlen, ast.Constant)
                                      and maxlen.value is None):
                    list_like.add(attr)
    return list_like, dict_like


def _manages_bounds(method: ast.FunctionDef) -> bool:
    """Whether the hot path calls a growth-managing helper on self."""
    for node in ast.walk(method):
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            if (_self_attr(node.func) is not None
                    and _BOUND_KEEPERS.search(node.func.attr)):
                return True
    return False


class UnboundedObserverAppend(Rule):
    """Observer/sink hot paths must not grow memory per event.

    ``emit()`` / ``observe()`` run once per trace record or observation
    tick; an ``append`` to a plain list (or a fresh dict insert) there
    makes the process footprint O(events) and defeats the fixed-memory
    telemetry contract.  Use a bounded buffer (``deque(maxlen=...)``, a
    preallocated array with decimation), stream to a sink, or fold
    online via :mod:`repro.obs.stream`.

    A hot path that calls a growth-managing helper on ``self`` (rotate /
    decimate / compact / evict / trim / prune / advance_frontier) is
    exempt: the container's size is actively bounded.  Counter-style
    ``self.d[k] += 1`` accumulation is also exempt — its keyspace is
    fixed by category, not by event count — only fresh per-event inserts
    (``self.d[k] = v`` under plain assignment) are flagged.
    """

    id = "R011"
    name = "unbounded-observer-append"
    # TraceLog is the sanctioned unbounded in-memory log: unit tests and
    # post-hoc analyses inspect its full record list, and long runs are
    # expected to hand build_network a bounded sink from repro.obs.sinks
    # instead.
    allow = ("sim/trace.py",)

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            list_like, dict_like = _unbounded_attrs(cls)
            if not list_like and not dict_like:
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                if method.name not in _HOT_PATH_METHODS:
                    continue
                if _manages_bounds(method):
                    continue
                yield from self._scan(method, list_like, dict_like)

    def _scan(self, method: ast.FunctionDef, list_like: Set[str],
              dict_like: Set[str]) -> Iterator[Finding]:
        for node in ast.walk(method):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _LIST_GROWERS):
                attr = _self_attr(node.func.value)
                if attr in list_like:
                    yield (
                        node.lineno, node.col_offset,
                        f"`self.{attr}.{node.func.attr}(...)` in "
                        f"`{method.name}()` grows an unbounded list once "
                        "per event; use a bounded buffer "
                        "(deque(maxlen=...), preallocated array with "
                        "decimation) or fold online (repro.obs.stream)",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    attr = _self_attr(target.value)
                    if attr in dict_like:
                        yield (
                            target.lineno, target.col_offset,
                            f"per-event insert into unbounded dict "
                            f"`self.{attr}` in `{method.name}()`; key "
                            "the store by a bounded category, evict old "
                            "entries, or fold online (repro.obs.stream)",
                        )


# ----------------------------------------------------------------------
# R012 — per-event-global-scan
# ----------------------------------------------------------------------

#: Self-attributes that hold one entry per network node.  Iterating one
#: inside a per-event callback makes every event O(N) — exactly the
#: structure the epoch batching and the counting channel wake removed.
_GLOBAL_CONTAINERS = re.compile(
    r"(^|_)(peers|radios|nodes|macs|registry|registries)$")

#: ``self.<method>`` (or, for a module-level function, its bare name)
#: passed as an argument to one of these registers it as a per-event
#: callback (engine dispatch / channel wake / per-node receive / the
#: channel's once-per-transmission receive fan-out), in addition to the
#: ``_on_*`` naming convention.
_CALLBACK_REGISTRARS = frozenset({"schedule", "schedule_at",
                                  "wait_for_idle", "attach", "set_fanout"})

#: Dict views: iterating ``self.X.values()`` is still iterating ``self.X``.
_VIEW_METHODS = frozenset({"values", "items", "keys"})

#: Builtins that consume a whole iterable in one call.
_SCAN_CONSUMERS = frozenset({"sorted", "list", "tuple", "set", "frozenset",
                             "min", "max", "sum", "any", "all"})


def _global_container_name(node: ast.expr,
                           any_owner: bool = False) -> Optional[str]:
    """``self.X`` / ``self.X.values()`` with all-nodes-looking ``X``.

    With ``any_owner`` (module-level functions, which have no ``self``)
    the owner may be any name: ``mac._peers``, ``group.macs``.
    """
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _VIEW_METHODS
            and not node.args and not node.keywords):
        node = node.func.value
    if not any_owner:
        name = _self_attr(node)
        if name is None:
            return None
        shown = f"self.{name}"
    elif (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)):
        name = node.attr
        shown = f"{node.value.id}.{name}"
    else:
        return None
    return shown if _GLOBAL_CONTAINERS.search(name) else None


_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _registered_names(tree: ast.AST, methods: bool) -> Set[str]:
    """Callables handed to a registrar anywhere under ``tree``.

    ``methods`` collects ``self.<method>`` arguments, otherwise bare names
    (module-level functions).
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CALLBACK_REGISTRARS):
            continue
        for arg in node.args:
            if methods:
                attr = _self_attr(arg)
                if attr is not None:
                    names.add(attr)
            elif isinstance(arg, ast.Name):
                names.add(arg.id)
    return names


class PerEventGlobalScan(Rule):
    """Per-event callbacks must not scan every node in the network.

    A callback that the engine (``schedule`` / ``schedule_at``), the
    channel wake (``wait_for_idle``) or the receive path (``attach``, and
    ``set_fanout``'s once-per-transmission fan-out) fires once per event
    — or that follows the ``_on_*`` handler naming convention — runs
    hundreds of thousands of times per run.  Iterating an all-nodes
    container there (``self._peers``, ``self.radios``, ``self.nodes``,
    registry dicts) makes the whole simulation O(events x N) and is how
    per-node epoch bookkeeping and the old every-waiter ``is_busy`` wake
    scan crept in.  Module-level functions are held to the same rule;
    having no ``self``, any ``<name>.<container>`` they iterate counts.
    Keep per-event work scoped to the event: incremental busy sets, the
    epoch group's member list, or an index keyed by the event's subject.
    Genuinely sanctioned batch points (one kernel event updating a whole
    group) belong in ``mac/epoch.py`` or behind an explicit suppression
    pragma with a justification.
    """

    id = "R012"
    name = "per-event-global-scan"
    paths = SIM_PATHS
    # The epoch scheduler IS the sanctioned batch point: its one kernel
    # event per group exists precisely to amortize the member loop.
    allow = ("mac/epoch.py",)

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in self.callbacks(ctx.tree):
            yield from self._scan(fn, any_owner=fn in ctx.tree.body)

    @staticmethod
    def callbacks(tree: ast.Module) -> List[_FunctionNode]:
        """The per-event callbacks this rule scans in one module: ``_on_*``
        and registered methods of every class, then ``_on_*`` and
        registered module-level functions."""
        def handlers(body: List[ast.stmt],
                     registered: Set[str]) -> List[_FunctionNode]:
            return [fn for fn in body
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (fn.name.startswith("_on_") or fn.name in registered)]

        found: List[_FunctionNode] = []
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                found += handlers(cls.body, _registered_names(cls, True))
        return found + handlers(tree.body, _registered_names(tree, False))

    def _scan(self, method: _FunctionNode,
              any_owner: bool = False) -> Iterator[Finding]:
        sites: List[Tuple[ast.expr, str]] = []
        for node in ast.walk(method):
            if isinstance(node, ast.For):
                sites.append((node.iter, "for-loop"))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    sites.append((gen.iter, "comprehension"))
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _SCAN_CONSUMERS):
                for arg in node.args:
                    sites.append((arg, f"{node.func.id}()"))
        for expr, how in sites:
            attr = _global_container_name(expr, any_owner)
            if attr is None:
                continue
            yield (
                expr.lineno, expr.col_offset,
                f"per-event callback `{method.name}()` iterates the "
                f"all-nodes container `{attr}` ({how}): every event "
                "becomes O(N).  Scope the work to the event (incremental "
                "busy sets, the epoch group's members, an index keyed by "
                "the event's subject) or batch it at the epoch boundary "
                "(mac/epoch.py)",
            )


#: All rules, in id order.  The runner instantiates from here.
ALL_RULES: Tuple[Type[Rule], ...] = (
    RngDiscipline,
    WallClock,
    UnorderedIteration,
    MutableDefault,
    HandlerPurity,
    PollLoop,
    RngProvenance,
    UnstableTieBreak,
    UnorderedReduction,
    EventTypestate,
    UnboundedObserverAppend,
    PerEventGlobalScan,
)

RULES_BY_ID: Dict[str, Type[Rule]] = {rule.id: rule for rule in ALL_RULES}


__all__ = [
    "ALL_RULES",
    "EventTypestate",
    "Finding",
    "HandlerPurity",
    "MutableDefault",
    "PerEventGlobalScan",
    "PollLoop",
    "ProjectRule",
    "Rule",
    "RULES_BY_ID",
    "RngDiscipline",
    "RngProvenance",
    "SIM_PATHS",
    "UnboundedObserverAppend",
    "UnorderedIteration",
    "UnorderedReduction",
    "UnstableTieBreak",
    "WallClock",
]
