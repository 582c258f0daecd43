"""Every defaulted constructor parameter under ``src/repro`` is set by a run.

A defaulted ``__init__`` parameter that no call in ``src/``, ``perfbench/``,
``benchmarks/`` or ``examples/`` passes is a knob only the tests turn: every
run uses its default, so it is a constant with a validator and a code path
attached.  Fold it into :mod:`repro.constants` instead.

Calls are matched to classes by name (``Foo(...)`` and ``mod.Foo(...)``).
A positional argument sets the parameter in its position; a keyword sets
its name.  A ``super().__init__(...)`` call counts for every base named in
the enclosing class statement.  A class that some scanned call builds with
``*args`` or ``**kwargs`` is skipped, since the scan cannot see what those
set.
"""

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "perfbench", "benchmarks", "examples")

#: Defaulted parameters kept without a non-test caller, each with its reason.
ALLOWED = {
    "RouteCache": (
        ("capacity", "primary_capacity"),
        "tests need small segments to reach eviction"),
    "TimelineRecorder": (
        ("capacity",),
        "tests/obs/test_metrics.py::TestTimelineRecorder::"
        "test_decimates_at_capacity decimates a 40-call run in a 16-slot "
        "buffer; the default 1024 slots need 1025 observer calls"),
    "LiveRunMonitor": (
        ("stream",),
        "test seam: capture the progress stream"),
    "LiveSweepMonitor": (
        ("stream",),
        "test seam: capture the progress stream"),
}


def _called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_super_init(call):
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _called_name(func.value.func) == "super")


@cache
def scan():
    """``(knobs, passed, opaque)`` over the scanned trees.

    ``knobs`` maps each class under ``src/repro`` with an explicit
    ``__init__`` to ``(location, positional names, defaulted names)``;
    ``passed`` maps a class name to the parameter names some call sets;
    ``opaque`` holds the classes some call builds with ``*``/``**``.
    """
    trees = {}
    for root in SCANNED:
        for path in sorted((ROOT / root).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))

    knobs = {}
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args
                    positional = [a.arg for a in args.posonlyargs + args.args][1:]
                    defaulted = positional[len(positional) - len(args.defaults):]
                    defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                        args.kw_defaults)
                                  if d is not None]
                    knobs[node.name] = (
                        f"{path.relative_to(ROOT)}:{item.lineno}",
                        positional, defaulted)

    passed = defaultdict(set)
    opaque = set()

    def record(cls, call):
        if cls not in knobs:
            return
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            opaque.add(cls)
            return
        positional = knobs[cls][1]
        passed[cls].update(positional[:len(call.args)])
        passed[cls].update(k.arg for k in call.keywords)

    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [_called_name(b) for b in node.bases]
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and _is_super_init(call):
                        for base in bases:
                            record(base, call)
            elif isinstance(node, ast.Call):
                record(_called_name(node.func), node)
    return knobs, passed, opaque


def test_every_defaulted_constructor_parameter_is_set_outside_tests():
    knobs, passed, opaque = scan()
    unset = []
    for cls, (where, _, defaulted) in sorted(knobs.items()):
        if cls in opaque:
            continue
        allowed = ALLOWED.get(cls, ((), ""))[0]
        names = [p for p in defaulted
                 if p not in passed[cls] and p not in allowed]
        if names:
            unset.append(f"{where} {cls}({', '.join(names)})")
    assert not unset, ("constructor parameters no run sets (fold each into "
                       "repro.constants, or allowlist it with a reason):\n"
                       + "\n".join(unset))


def test_allowlist_holds_only_unset_parameters():
    """A stale entry would silently exempt a knob a caller later drops."""
    knobs, passed, _ = scan()
    stale = sorted(
        f"{cls}.{param}" for cls, (params, _) in ALLOWED.items()
        for param in params
        if cls not in knobs or param not in knobs[cls][2]
        or param in passed[cls])
    assert not stale
