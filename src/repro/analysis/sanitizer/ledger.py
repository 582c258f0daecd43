"""Per-stream draw ledgers for the determinism sanitizer.

A :class:`StreamLedger` shadows the two primitive draw methods of one
``random.Random`` instance — ``random()`` and ``getrandbits()`` — with
counting wrappers.  Every public draw method (``uniform``, ``expovariate``,
``randrange``, ``sample``, ``gauss``, ...) funnels through those two
primitives, so wrapping them observes each underlying draw exactly once.

The wrappers are installed as *instance attributes*, which shadow the
class methods without replacing the object: every component that captured
a reference to the stream at build time sees the instrumented methods,
and the values returned are bit-for-bit what the bare stream would have
produced — a sanitized run stays byte-identical.

The ledger keeps a draw count and a rolling hash of the drawn values.
``hash(float)`` / ``hash(int)`` are deliberately used: unlike ``str``
hashing they are *not* salted per process, so the digest is comparable
across two processes — which is exactly what ``--sanitize-compare`` does.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

#: Initial rolling-hash state (any odd constant; shared so two runs that
#: draw identical sequences land on identical digests).
LEDGER_HASH_SEED = 0x9E3779B97F4A7C15

#: 64-bit mask keeping the rolling hash bounded.
_MASK64 = (1 << 64) - 1

#: Multiplier for the polynomial rolling hash (CPython's own string-hash
#: multiplier; any large odd constant works).
_MULT = 1000003


def mix_hash(state: int, value: object) -> int:
    """Fold one drawn value into a rolling 64-bit digest."""
    return ((state * _MULT) ^ (hash(value) & _MASK64)) & _MASK64


class StreamLedger:
    """Draw counter + rolling value hash for one scalar RNG stream."""

    __slots__ = ("name", "draws", "digest", "_rng")

    def __init__(self, name: str) -> None:
        self.name = name
        self.draws = 0
        self.digest = LEDGER_HASH_SEED
        self._rng: Optional[random.Random] = None

    def instrument(self, rng: random.Random) -> None:
        """Shadow ``rng.random`` / ``rng.getrandbits`` with counting wrappers.

        One ledger instruments one stream, once; re-instrumenting either
        side would double-count every draw, so both are usage errors.
        """
        if self._rng is not None:
            raise RuntimeError(f"ledger {self.name!r} already instrumented")
        if "random" in vars(rng) or "getrandbits" in vars(rng):
            raise RuntimeError(
                f"stream for ledger {self.name!r} is already instrumented"
            )
        self._rng = rng
        orig_random = rng.random
        orig_getrandbits = rng.getrandbits

        def counted_random() -> float:
            value = orig_random()
            self.draws += 1
            self.digest = ((self.digest * _MULT)
                           ^ (hash(value) & _MASK64)) & _MASK64
            return value

        def counted_getrandbits(k: int) -> int:
            value = orig_getrandbits(k)
            self.draws += 1
            self.digest = ((self.digest * _MULT)
                           ^ (hash(value) & _MASK64)) & _MASK64
            return value

        # Instance attributes shadow the class methods; object identity is
        # preserved, so references handed out at build time are covered.
        rng.random = counted_random  # type: ignore[method-assign]
        rng.getrandbits = counted_getrandbits  # type: ignore[method-assign]

    def restore(self) -> None:
        """Remove the wrappers, exposing the class methods again."""
        rng = self._rng
        if rng is None:
            return
        for attr in ("random", "getrandbits"):
            try:
                delattr(rng, attr)
            except AttributeError:  # pragma: no cover - already clean
                pass
        self._rng = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary: draw count and hex digest."""
        return {"draws": self.draws, "digest": f"{self.digest:016x}"}


__all__ = [
    "LEDGER_HASH_SEED",
    "StreamLedger",
    "mix_hash",
]
