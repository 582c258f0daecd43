"""Overhearing levels and policies.

Two decisions make up an overhearing scheme:

* the **sender side** picks an :class:`OverhearingLevel` for each packet it
  advertises (:class:`SenderPolicy` and its three concrete variants), and
* the **receiver side** resolves ``RANDOMIZED`` advertisements into a
  stay-awake/sleep choice (:class:`RandomizedOverhearing`).

The paper's Rcast instantiation (:class:`RcastPolicy`):

=========  ==================  =============================================
Packet     Level               Rationale (paper Section 3.3)
=========  ==================  =============================================
RREP       randomized          DSR floods many RREPs; unconditional
                               overhearing of all of them seeds stale routes
DATA       randomized          temporal/spatial locality: a missed route
                               will be carried again by the next data packet
RERR       unconditional       stale routes must be invalidated everywhere,
                               immediately
RREQ       broadcast           received by all awake nodes (optionally
                               randomized to fight broadcast storms)
=========  ==================  =============================================

Note on the receiver-side probability: the paper's prose says a node
overhears "with the probability P_R" of ``1/number-of-neighbors`` (five
neighbors -> 0.2); the sentence "if a randomly generated number is > P_R
then a node decides to overhear" inverts that and contradicts the worked
example, so we implement the example: *overhear with probability P_R*.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Dict

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import random

    from repro.mac.frames import Announcement


class OverhearingLevel(Enum):
    """Desired overhearing level advertised in an ATIM frame."""

    NONE = "none"
    RANDOMIZED = "randomized"
    UNCONDITIONAL = "unconditional"

    @property
    def rank(self) -> int:
        """Strength ordering: NONE < RANDOMIZED < UNCONDITIONAL.

        When one ATIM advertises several buffered packets (one ATIM per
        destination, per the 802.11 PSM), the strongest requested level
        wins.
        """
        return _LEVEL_RANKS[self]


_LEVEL_RANKS = {
    OverhearingLevel.NONE: 0,
    OverhearingLevel.RANDOMIZED: 1,
    OverhearingLevel.UNCONDITIONAL: 2,
}


class SenderPolicy:
    """Maps an outgoing packet to the overhearing level to advertise."""

    #: label used in reports
    name = "abstract"

    def level_for(self, packet: Any) -> OverhearingLevel:
        """Overhearing level to advertise for ``packet``."""
        raise NotImplementedError


class NoOverhearing(SenderPolicy):
    """Advertise NONE for everything: the naive PSM baseline."""

    name = "none"

    def level_for(self, packet: Any) -> OverhearingLevel:
        """Always NONE."""
        return OverhearingLevel.NONE


class UnconditionalOverhearing(SenderPolicy):
    """Advertise UNCONDITIONAL for everything: 'original' PSM + DSR.

    Every neighbor stays awake for every advertised packet, preserving
    DSR's promiscuous route gathering at full energy cost.
    """

    name = "unconditional"

    def level_for(self, packet: Any) -> OverhearingLevel:
        """Always UNCONDITIONAL."""
        return OverhearingLevel.UNCONDITIONAL


class RcastPolicy(SenderPolicy):
    """The paper's per-packet-type level assignment (table above)."""

    name = "rcast"

    #: kind -> level map; unknown kinds fall back to RANDOMIZED.
    LEVELS: Dict[str, OverhearingLevel] = {
        "data": OverhearingLevel.RANDOMIZED,
        "rrep": OverhearingLevel.RANDOMIZED,
        "rerr": OverhearingLevel.UNCONDITIONAL,
        "rreq": OverhearingLevel.UNCONDITIONAL,  # broadcast: all awake nodes
    }

    def level_for(self, packet: Any) -> OverhearingLevel:
        """Level for ``packet`` per the per-kind table."""
        kind = getattr(packet, "kind", None)
        if kind is None:
            raise ConfigurationError(f"packet {packet!r} has no 'kind'")
        return self.LEVELS.get(kind, OverhearingLevel.RANDOMIZED)


class RandomizedOverhearing:
    """Receiver-side probabilistic decision for RANDOMIZED advertisements.

    ``probability_fn(announcement) -> p`` supplies ``P_R``; the decision is a
    Bernoulli draw from the node's ``"rcast"`` random stream.  The default
    probability function is installed by :class:`repro.core.rcast.RcastManager`
    (``P_R = 1 / max(1, neighbors)``).
    """

    def __init__(self, rng: "random.Random",
                 probability_fn: "Callable[[Announcement], float]") -> None:
        self._rng = rng
        self._probability_fn = probability_fn
        self.decisions = 0
        self.overhears = 0

    def probability(self, announcement: "Announcement") -> float:
        """The P_R that would be used for this announcement, clamped to [0, 1]."""
        p = self._probability_fn(announcement)
        if p <= 0.0:
            return 0.0
        return p if p < 1.0 else 1.0

    def decide(self, announcement: "Announcement") -> bool:
        """True when the node should stay awake and overhear."""
        p = self._probability_fn(announcement)
        # probability()'s clamp, inline: NaN fails ``p < 1`` and maps to 1.
        if p <= 0.0:
            p = 0.0
        elif not p < 1.0:
            p = 1.0
        self.decisions += 1
        overhear = self._rng.random() < p
        if overhear:
            self.overhears += 1
        return overhear


__all__ = [
    "OverhearingLevel",
    "SenderPolicy",
    "NoOverhearing",
    "UnconditionalOverhearing",
    "RcastPolicy",
    "RandomizedOverhearing",
]
