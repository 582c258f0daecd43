"""Rcast decision factors (paper Section 3.2).

The paper identifies four inputs to the overhearing probability ``P_R`` and
evaluates the simplest one (number of neighbors).  We implement all four so
the ablation benchmark can measure their marginal value, composed as

    P_R = base(neighbors) * sender_recency * mobility * battery

where the base term is the paper's ``1 / max(1, n_neighbors)`` and each
optional factor contributes a multiplier in a bounded range:

* **Sender recency** — "overhear if the sender has not been heard for a
  while": boosts P_R (up to a cap) for senders silent longer than a horizon,
  and damps it for senders heard very recently (their route info is
  redundant).
* **Mobility** — high link-change rates mean overheard routes go stale fast,
  so overhear more conservatively: multiplier decays with the node's
  observed neighbor-churn rate.
* **Battery** — "less overhearing if remaining battery energy is low":
  multiplier equals the remaining-energy fraction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.mac.frames import Announcement


class NeighborCountProbability:
    """The paper's base term: ``P_R = 1 / max(1, number of neighbors)``."""

    name = "neighbors"

    def __init__(self, neighbor_count_fn: Callable[[], int]) -> None:
        self._neighbor_count_fn = neighbor_count_fn

    def __call__(self, announcement: "Announcement") -> float:
        return 1.0 / max(1, self._neighbor_count_fn())


class SenderRecencyFactor:
    """Multiplier from how recently the announcing sender was heard.

    ``silence = now - last_heard(sender)``.  Multiplier ramps linearly from
    ``min_gain`` (sender heard just now; info redundant) to ``max_gain``
    (sender silent for >= ``horizon`` seconds; info likely fresh).  A sender
    never heard before gets ``max_gain``.
    """

    name = "sender-recency"

    def __init__(
        self,
        now_fn: Callable[[], float],
        last_heard_fn: Callable[[int], Optional[float]],
        horizon: float = 10.0,
        min_gain: float = 0.25,
        max_gain: float = 4.0,
    ) -> None:
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if not 0 < min_gain <= max_gain:
            raise ConfigurationError("need 0 < min_gain <= max_gain")
        self._now_fn = now_fn
        self._last_heard_fn = last_heard_fn
        self.horizon = horizon
        self.min_gain = min_gain
        self.max_gain = max_gain

    def __call__(self, announcement: "Announcement") -> float:
        last = self._last_heard_fn(announcement.sender)
        if last is None:
            return self.max_gain
        silence = max(self._now_fn() - last, 0.0)
        frac = min(silence / self.horizon, 1.0)
        return self.min_gain + frac * (self.max_gain - self.min_gain)


class MobilityFactor:
    """Multiplier decaying with the node's observed link-change rate.

    ``multiplier = exp(-rate / scale)``: a static node keeps the full P_R; a
    node whose neighborhood churns at ``scale`` changes/second overhears at
    ~37% of the base probability.
    """

    name = "mobility"

    def __init__(self, link_change_rate_fn: Callable[[], float], scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError("scale must be positive")
        self._rate_fn = link_change_rate_fn
        self.scale = scale

    def __call__(self, announcement: "Announcement") -> float:
        rate = max(self._rate_fn(), 0.0)
        return math.exp(-rate / self.scale)


class BatteryFactor:
    """Multiplier equal to the remaining battery fraction (floored).

    The floor keeps nearly-drained nodes overhearing occasionally so they do
    not become route-information black holes.
    """

    name = "battery"

    def __init__(self, remaining_fraction_fn: Callable[[], float], floor: float = 0.05) -> None:
        if not 0 <= floor <= 1:
            raise ConfigurationError("floor must be in [0, 1]")
        self._remaining_fn = remaining_fraction_fn
        self.floor = floor

    def __call__(self, announcement: "Announcement") -> float:
        return max(self._remaining_fn(), self.floor)


class CompositeProbability:
    """Product of a base probability and any number of factor multipliers."""

    def __init__(self, base: "Callable[[Announcement], float]",
                 factors: "Sequence[Callable[[Announcement], float]]" = ()) -> None:
        self._base = base
        self._factors = list(factors)

    def __call__(self, announcement: "Announcement") -> float:
        p = self._base(announcement)
        for factor in self._factors:
            p *= factor(announcement)
        if p <= 0.0:
            return 0.0
        return p if p < 1.0 else 1.0


__all__ = [
    "NeighborCountProbability",
    "SenderRecencyFactor",
    "MobilityFactor",
    "BatteryFactor",
    "CompositeProbability",
]
