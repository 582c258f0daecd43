"""Fixed-memory online aggregators for streaming telemetry.

Every aggregator here consumes a scalar series one value at a time and
keeps O(1) (or O(buckets) / O(sample size)) state, so observability cost
is independent of how many events a run produces — the property that
unlocks 1k+-node scenarios where per-packet record retention dominates
the heap.  All of them are deterministic: the same value sequence always
produces the same state, and the only randomness (reservoir sampling)
draws from a ``derive_seed``-derived ``obs:*`` stream, so same seed ⇒
same sample, serial ≡ parallel.

Aggregators
-----------
:class:`Welford`
    Numerically stable online mean/variance (Welford 1962).  One pass,
    three floats of state; ``variance`` matches the two-pass unbiased
    (n−1) estimator to floating-point accuracy.
:class:`ReservoirSampler`
    Algorithm R uniform sample of ``k`` values from a stream of unknown
    length.  Deterministic for a fixed RNG stream and value order.
:class:`StreamingHistogram`
    Fixed log-spaced buckets with under/overflow bins.  Bucket edges are
    chosen up front (never rebalanced), so two histograms fed the same
    values are bit-identical regardless of arrival order; quantiles are
    estimated by linear interpolation inside the hit bucket.
:class:`StreamStats`
    Composition of all three for one scalar series, with a JSON-safe
    ``summary()`` used for the ``RunMetrics`` distribution fields.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

from repro.sim.rng import derived_stream

#: Histogram span in decades (delays and per-bit energies fall inside)
#: and resolution.
HISTOGRAM_LO_EXP = -4
HISTOGRAM_HI_EXP = 3
HISTOGRAM_PER_DECADE = 8

#: Interior bucket edges, ascending (decades * per decade + 1 of them).
_HISTOGRAM_EDGES: Tuple[float, ...] = tuple(
    10.0 ** (HISTOGRAM_LO_EXP + i / HISTOGRAM_PER_DECADE)
    for i in range((HISTOGRAM_HI_EXP - HISTOGRAM_LO_EXP)
                   * HISTOGRAM_PER_DECADE + 1)
)


class Welford:
    """Online mean/variance accumulator (Welford's algorithm).

    State is ``(n, mean, M2)``; pushing ``x`` costs O(1) and never
    materializes the series.  ``variance`` is the unbiased sample
    variance (n−1 denominator), matching
    :func:`repro.metrics.stats.sample_variance` semantics.
    """

    __slots__ = ("n", "mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        """Fold one value into the running moments."""
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        """Unbiased (n−1) sample variance; 0.0 below two values."""
        if self.n < 2:
            return 0.0
        return self._m2 / (self.n - 1)

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe snapshot."""
        return {"n": float(self.n), "mean": self.mean,
                "variance": self.variance}


class ReservoirSampler:
    """Uniform ``k``-sample of a stream (Vitter's Algorithm R).

    The RNG is a private ``obs:reservoir:<name>`` stream derived via
    :func:`repro.sim.rng.derive_seed`, so the sample is a pure function
    of (seed, name, value order): reruns — serial or parallel — yield
    the identical sample.
    """

    def __init__(self, k: int, seed: int, name: str = "default") -> None:
        if k <= 0:
            raise ValueError(f"reservoir size must be positive, got {k!r}")
        self.k = k
        self.n = 0
        self._values: List[float] = []
        self._rng = derived_stream(seed, f"obs:reservoir:{name}")

    def push(self, x: float) -> None:
        """Offer one value to the reservoir."""
        self.n += 1
        if len(self._values) < self.k:
            self._values.append(x)
            return
        j = self._rng.randrange(self.n)
        if j < self.k:
            self._values[j] = x

    def values(self) -> Tuple[float, ...]:
        """Current sample, in reservoir slot order (not sorted)."""
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)


class StreamingHistogram:
    """Fixed-bucket log-spaced histogram with interpolated quantiles.

    Buckets span ``[10**HISTOGRAM_LO_EXP, 10**HISTOGRAM_HI_EXP)`` with
    ``HISTOGRAM_PER_DECADE`` buckets per decade, plus an underflow bucket
    (anything below the span, including zero and negatives) and an
    overflow bucket.  Edges
    are fixed at construction — the histogram never rebalances — so the
    bucket counts for a given multiset of values are independent of
    arrival order, and memory is O(buckets) forever.

    ``quantile(q)`` walks the cumulative counts and interpolates
    linearly inside the hit bucket; the underflow bucket interpolates
    over ``[observed min, first edge)`` and the overflow bucket over
    ``[last edge, observed max]``, so estimates stay inside the observed
    range.
    """

    def __init__(self) -> None:
        self.edges = _HISTOGRAM_EDGES
        #: counts[0] = underflow, counts[-1] = overflow
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.n = 0
        self.min = math.inf
        self.max = -math.inf

    def push(self, x: float) -> None:
        """Count one value."""
        self.n += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        self.counts[bisect_right(self.edges, x)] += 1

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (q in [0, 1]); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q!r}")
        if self.n == 0:
            return 0.0
        target = q * self.n
        cum = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            if cum + count >= target:
                lo, hi = self._bucket_bounds(i)
                frac = (target - cum) / count
                # Clamp: a bucket's lower edge can sit below the observed
                # minimum (values land mid-bucket), and estimates must
                # stay inside the observed range.
                return min(max(lo + frac * (hi - lo), self.min), self.max)
            cum += count
        return self.max  # q == 1.0 fell through on rounding

    def _bucket_bounds(self, index: int) -> Tuple[float, float]:
        """(lo, hi) interpolation bounds of bucket ``index``."""
        if index == 0:  # underflow: clamp to observed minimum
            return self.min, min(self.edges[0], self.max)
        if index == len(self.counts) - 1:  # overflow: clamp to observed max
            return max(self.edges[-1], self.min), self.max
        return self.edges[index - 1], self.edges[index]

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        """Sparse ``(bucket index, count)`` pairs, ascending index."""
        return [(i, c) for i, c in enumerate(self.counts) if c]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe sparse snapshot (deterministic key and pair order)."""
        return {
            "n": self.n,
            "min": self.min if self.n else None,
            "max": self.max if self.n else None,
            "per_decade": HISTOGRAM_PER_DECADE,
            "first_edge": self.edges[0],
            "last_edge": self.edges[-1],
            "buckets": [[i, c] for i, c in self.nonzero_buckets()],
        }


#: The quantiles reported in distribution summaries.
SUMMARY_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
)


class StreamStats:
    """All three aggregators over one scalar series.

    ``name`` scopes the reservoir's RNG stream (``obs:reservoir:<name>``)
    so two series in the same run draw from independent streams.
    """

    def __init__(self, name: str, seed: int, reservoir_k: int = 64) -> None:
        self.name = name
        self.moments = Welford()
        self.reservoir = ReservoirSampler(reservoir_k, seed, name=name)
        self.histogram = StreamingHistogram()

    def push(self, x: float) -> None:
        """Fold one value into every aggregator."""
        self.moments.push(x)
        self.reservoir.push(x)
        self.histogram.push(x)

    def extend(self, values: Sequence[float]) -> None:
        """Fold a sequence in order (batch-mode replay helper)."""
        for x in values:
            self.push(x)

    @property
    def n(self) -> int:
        """Values folded so far."""
        return self.moments.n

    def summary(self) -> Dict[str, object]:
        """JSON-safe distribution summary (stable key order)."""
        hist = self.histogram
        return {
            "n": self.n,
            "mean": self.moments.mean,
            "variance": self.moments.variance,
            "min": hist.min if self.n else None,
            "max": hist.max if self.n else None,
            "quantiles": {label: hist.quantile(q)
                          for label, q in SUMMARY_QUANTILES},
            "histogram": hist.to_dict(),
            "reservoir": list(self.reservoir.values()),
        }


__all__ = [
    "ReservoirSampler",
    "StreamStats",
    "StreamingHistogram",
    "SUMMARY_QUANTILES",
    "Welford",
]
