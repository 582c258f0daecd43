"""Self time by layer, folded from a :mod:`cProfile` table.

``rcast-repro profile`` runs one simulation under
:class:`cProfile.Profile`; :func:`fold` turns the :mod:`pstats` table
into the seconds each layer of the package spent in its own code.  A
function's layer is the first component of its module under ``repro``
(``sim``, ``mobility``, ``phy``, ``mac``, ``core``, ``routing``,
``network``, ...).  Self time of code outside the package (builtins,
``heapq``, numpy) is charged to its callers' layers, split by the self
time the callers table records for each caller; a caller that is itself
outside the package passes its part on to its own callers, split by
cumulative time.  Every second of cProfile's total lands in exactly one
layer, so the layer totals add up to it.  Time that no package caller
explains (the profiler's own ``disable`` call) goes to ``other``.

cProfile measures wall time, so a profile differs from run to run, but it
never touches event order, virtual time or any RNG stream: a profiled
run's metrics equal an unprofiled run's.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

#: A :mod:`pstats` function key: ``(filename, first line, name)``.
Func = Tuple[str, int, str]

#: The ``repro`` package directory, with a trailing separator.
_PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "")

#: Layer of the time no function of the package called for.
OTHER = "other"

#: Callers-table columns: self and cumulative time of the calls a caller
#: made (each row is ``(nc, cc, tt, ct)``).
_SELF, _CUMULATIVE = 2, 3


def _package_path(filename: str) -> Optional[str]:
    """``filename`` relative to the ``repro`` package; None outside it
    (builtins are named ``~``)."""
    path = os.path.abspath(filename)
    if not (path.startswith(_PACKAGE) and path.endswith(".py")):
        return None
    return path[len(_PACKAGE):].replace(os.sep, "/")


def layer_of(filename: str) -> Optional[str]:
    """Layer of the code in ``filename``; None outside the package."""
    rel = _package_path(filename)
    return None if rel is None else rel.split("/")[0].removesuffix(".py")


def _name(func: Func) -> str:
    """``file:line(name)``, the file relative to the package inside it;
    a builtin's own name."""
    filename, line, name = func
    if filename == "~":
        return name
    return f"{_package_path(filename) or filename}:{line}({name})"


def fold(stats: Mapping[Func, Tuple[Any, ...]], top: int) -> Dict[str, Any]:
    """Self time per layer and the ``top`` functions by self time.

    ``stats`` is a :mod:`pstats` table (``cProfile.Profile.stats`` after
    ``create_stats()``, or ``pstats.Stats.stats``): each function maps
    to ``(cc, nc, tt, ct, callers)``, and ``callers`` maps each caller to
    the ``(nc, cc, tt, ct)`` of the calls it made.
    """
    mixes: Dict[Func, Dict[str, float]] = {}

    def split(func: Func, column: int,
              active: FrozenSet[Func]) -> Dict[str, float]:
        """Shares of ``func``'s time per layer, through its callers
        (weighted by ``column``; callers in ``active`` close a cycle)."""
        active = active | {func}
        weights = [(caller, row[column])
                   for caller, row in sorted(stats[func][4].items())
                   if caller not in active and row[column] > 0]
        total = math.fsum(weight for _, weight in weights)
        if not total > 0:
            return {OTHER: 1.0}
        shares: Dict[str, float] = {}
        for caller, weight in weights:
            for layer, share in mix(caller, active).items():
                shares[layer] = shares.get(layer, 0.0) + share * weight / total
        return shares

    def mix(func: Func, active: FrozenSet[Func]) -> Dict[str, float]:
        """Shares of ``func``'s cumulative time per layer."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func not in mixes:
            mixes[func] = split(func, _CUMULATIVE, active)
        return mixes[func]

    charged: Dict[str, float] = {}
    rows: List[Tuple[float, Func, int, str]] = []
    for func, (_, calls, self_s, _, _) in sorted(stats.items()):
        layer = layer_of(func[0])
        shares = ({layer: 1.0} if layer is not None
                  else split(func, _SELF, frozenset()))
        for name, share in shares.items():
            charged[name] = charged.get(name, 0.0) + self_s * share
        rows.append((self_s, func, calls, max(shares, key=shares.__getitem__)))
    profiled_s = math.fsum(row[0] for row in rows)
    rows.sort(key=lambda row: -row[0])
    return {
        "profiled_s": profiled_s,
        "layers": [
            {"layer": layer, "self_s": self_s,
             "share": self_s / profiled_s if profiled_s > 0 else 0.0}
            for layer, self_s in sorted(charged.items(),
                                        key=lambda kv: (-kv[1], kv[0]))
        ],
        "functions": [
            {"name": _name(func), "layer": layer, "calls": calls,
             "self_s": self_s}
            for self_s, func, calls, layer in rows[:top]
        ],
    }


def format_profile(report: Mapping[str, Any]) -> str:
    """Render :func:`fold`'s report as two fixed-width tables."""
    lines = [f"profiled time: {report['profiled_s']:.3f} s (cProfile)", "",
             f"{'layer':<12} {'self s':>9} {'share':>7}"]
    for row in report["layers"]:
        lines.append(f"{row['layer']:<12} {row['self_s']:>9.4f} "
                     f"{row['share'] * 100:>6.1f}%")
    lines += ["", f"{'function':<56} {'layer':<10} {'calls':>10} "
                  f"{'self s':>9}"]
    for row in report["functions"]:
        lines.append(f"{row['name']:<56} {row['layer']:<10} "
                     f"{row['calls']:>10,} {row['self_s']:>9.4f}")
    return "\n".join(lines)


__all__ = ["OTHER", "fold", "format_profile", "layer_of"]
