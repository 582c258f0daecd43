"""Shape verdicts: what "reproduced" means, as data.

Each experiment module states its shape claims as named predicates next to
the code that produces the numbers; each yields a :class:`Verdict` — the
claim, the measured value, the bound it is held to, and whether it holds.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Sequence

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge, "==": operator.eq,
}


@dataclass(frozen=True)
class Verdict:
    """One shape claim held to a bound: passes when ``measured op bound``."""

    name: str
    claim: str
    measured: float
    op: str
    bound: float
    passed: bool

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe record of the verdict."""
        return asdict(self)


def check(name: str, claim: str, measured: float, op: str,
          bound: float) -> Verdict:
    """Evaluate ``measured op bound`` into a named verdict."""
    return Verdict(name, claim, float(measured), op, float(bound),
                   bool(_OPS[op](measured, bound)))


def format_verdicts(verdicts: Sequence[Verdict]) -> str:
    """One ``[PASS]``/``[FAIL]`` line per verdict."""
    lines = ["shape verdicts:"]
    for v in verdicts:
        lines.append(f"  [{'PASS' if v.passed else 'FAIL'}] {v.name}: "
                     f"{v.measured:.6g} {v.op} {v.bound:.6g} ({v.claim})")
    return "\n".join(lines)


__all__ = ["Verdict", "check", "format_verdicts"]
