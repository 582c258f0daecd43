"""Every function and class under ``src/repro`` is used outside the tests.

A definition whose name appears nowhere in ``src/``, ``perfbench/``,
``benchmarks/`` or ``examples/`` except at its definitions is an API only
the tests exercise: it costs reading and upkeep while no run reaches it.
The scan is by name and by text, so any other mention (a call, an
attribute, a ``getattr`` string, a comment) keeps a definition alive.
Definitions of the same name do not count for each other, so an override
family (a base method and its subclass overrides) nothing calls is caught
too.  ``__init__.py`` re-exports and ``__all__`` entries do not count.
Dunders and ``ast.NodeVisitor`` ``visit_*`` methods are called by the
runtime and are skipped.
"""

import ast
import re
from collections import Counter
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "perfbench", "benchmarks", "examples")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions kept without a non-test user, each with its reason.
ALLOWED = {
    "time_in": "EnergyMeter: energy-identity tests check the time partition",
    "sleep_time": "EnergyMeter: energy-identity tests check the time partition",
    "clopper_pearson": "reference statistic for the statistical validation",
    "chi_square_critical": "reference statistic for the statistical validation",
    "chi_square_uniform_stat": "reference statistic for the statistical "
                               "validation",
    "decode_frame_control": "Fig. 4 ATIM codec: the header-bit claim, "
                            "executable",
    "overhearing_level": "Fig. 4 ATIM codec: FrameControl's overhearing bits",
    "received_power": "derives the 250 m / 550 m disks from ns-2's "
                      "thresholds",
    "range_for_threshold": "derives the 250 m / 550 m disks from ns-2's "
                           "thresholds",
}


def _uncounted_lines(tree, is_init):
    """Lines of ``__all__`` and, in ``__init__.py``, of re-exports."""
    for node in tree.body:
        exported = (isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
        reexport = is_init and isinstance(node, (ast.Import, ast.ImportFrom))
        if exported or reexport:
            yield from range(node.lineno, node.end_lineno + 1)


@cache
def scan():
    """``(mentions, definitions)`` over the scanned trees.

    ``mentions`` counts each identifier-shaped word; ``definitions`` lists
    ``(path, line, name)`` of every ``def``/``class`` under ``src/repro``.
    """
    mentions = Counter()
    definitions = []
    for root in SCANNED:
        for path in sorted((ROOT / root).rglob("*.py")):
            text = path.read_text()
            tree = ast.parse(text, filename=str(path))
            skip = set(_uncounted_lines(tree, path.name == "__init__.py"))
            for lineno, line in enumerate(text.splitlines(), 1):
                if lineno not in skip:
                    mentions.update(WORD.findall(line))
            if path.is_relative_to(SRC):
                definitions.extend(
                    (path, node.lineno, node.name) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef)))
    return mentions, definitions


def _skipped(name):
    return name.startswith("__") and name.endswith("__") \
        or name.startswith("visit_")


def _uses(mentions, definitions):
    """Mentions of each defined name other than its own definitions."""
    defined = Counter(name for _, _, name in definitions)
    return {name: mentions[name] - count for name, count in defined.items()}


def test_every_definition_is_used_outside_tests():
    mentions, definitions = scan()
    uses = _uses(mentions, definitions)
    unused = [
        f"{path.relative_to(ROOT)}:{lineno} {name}"
        for path, lineno, name in definitions
        if uses[name] <= 0 and name not in ALLOWED and not _skipped(name)
    ]
    assert not unused, ("definitions nothing outside tests/ uses (delete "
                        "them, or allowlist one with a reason):\n"
                        + "\n".join(unused))


def test_allowlist_holds_only_unused_definitions():
    """A stale entry would silently exempt whatever reuses the name."""
    uses = _uses(*scan())
    stale = sorted(name for name in ALLOWED if uses.get(name, 1) > 0)
    assert not stale
