"""Position service: cached positions and neighbor queries.

Protocol layers never talk to mobility models directly; they ask the
:class:`PositionService`, which

* snapshots all node positions at most once per ``NEIGHBOR_REFRESH_S``
  seconds of virtual time,
* derives the symmetric neighbor relation ``dist <= tx_range`` from each
  snapshot using a uniform spatial grid (cell size = carrier-sense range),
  so only nodes in adjacent cells are ever compared — sub-quadratic for
  arenas larger than a few cells, never worse than the dense product, and
* exposes the per-node neighbor count that Rcast's ``P_R = 1/n`` uses and a
  link-change rate estimate used by the mobility decision factor.

The fixed 1 s refresh period trades fidelity for speed: a node moving at
the paper's maximum 20 m/s covers 20 m between snapshots, well under the
250 m radio range, so the neighbor relation is accurate to a few percent of
the range.

Snapshot caching contract (the simulator hot path depends on it):

* :meth:`neighbors` / :meth:`cs_neighbors` return **interned frozensets**
  built once per refresh — repeated queries between refreshes return the
  *same object*, and a refresh that leaves a node's neighborhood unchanged
  keeps the old object too (static topologies never re-allocate).
* :meth:`sorted_neighbors` returns the same relation as an ascending
  tuple, precomputed per refresh — callers that need deterministic
  iteration order (the channel's audible snapshot, SPAN's pair scans) get
  it without a per-call ``tuple(sorted(...))``.
* Link-change accounting walks the old and new sorted index tuples with a
  two-pointer merge instead of ``set.symmetric_difference``.

Determinism note: membership is decided on squared distances
(``d² <= range²``) computed with identical elementwise operations in every
grid block, so the relation is a pure function of the snapshot positions —
independent of cell shape, block iteration order, or node numbering.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.constants import NEIGHBOR_REFRESH_S, TX_RANGE_M
from repro.mobility.base import MobilityModel
from repro.sim.engine import Simulator


def _count_changes(old: Tuple[int, ...], new: Tuple[int, ...]) -> int:
    """Size of the symmetric difference of two ascending index tuples."""
    i = j = common = 0
    len_old, len_new = len(old), len(new)
    while i < len_old and j < len_new:
        a, b = old[i], new[j]
        if a == b:
            common += 1
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return len_old + len_new - 2 * common


class PositionService:
    """Time-cached positions and allocation-free neighbor lookups."""

    def __init__(
        self,
        sim: Simulator,
        model: MobilityModel,
        tx_range: float = TX_RANGE_M,
        cs_range: Optional[float] = None,
    ) -> None:
        self._sim = sim
        self._model = model
        self.tx_range = tx_range
        self.cs_range = cs_range if cs_range is not None else tx_range
        self.num_nodes = model.num_nodes
        #: first virtual time at which the current snapshot is stale
        self._valid_until = -1.0
        self._positions: NDArray[np.float64] = np.zeros((self.num_nodes, 2))
        empty_tuple: Tuple[int, ...] = ()
        empty_set: FrozenSet[int] = frozenset()
        empty_idx: NDArray[np.int64] = np.empty(0, dtype=np.int64)
        self._neighbor_tuples: List[Tuple[int, ...]] = (
            [empty_tuple] * self.num_nodes)
        self._cs_tuples: List[Tuple[int, ...]] = [empty_tuple] * self.num_nodes
        self._neighbor_sets: List[FrozenSet[int]] = [empty_set] * self.num_nodes
        self._cs_sets: List[FrozenSet[int]] = [empty_set] * self.num_nodes
        #: int64 views of the ascending tx relation, interned alongside
        #: the tuples — the channel fancy-indexes its radio-state mirrors
        #: with these, so they must only be reallocated when membership
        #: actually changes (callers hold on to the returned object).
        self._neighbor_arrays: List[NDArray[np.int64]] = (
            [empty_idx] * self.num_nodes)
        #: cumulative count of neighbor-set changes observed per node,
        #: feeding the mobility decision factor.
        self.link_changes: NDArray[np.int64] = np.zeros(self.num_nodes,
                                                        dtype=np.int64)
        self._bootstrapped = False
        #: callbacks fired at the end of every snapshot refresh — for
        #: subsystems keeping incremental state derived from the interned
        #: neighbor sets (the channel's per-waiter busy counts).  Listeners
        #: run after all interning completes and may query this service
        #: (the fresh snapshot is already valid, so no reentrant refresh).
        self._refresh_listeners: List[Callable[[], None]] = []
        self._refresh_now(force=True)

    def add_refresh_listener(self, listener: Callable[[], None]) -> None:
        """Register ``listener`` to run after every snapshot refresh."""
        self._refresh_listeners.append(listener)

    def ensure_fresh(self) -> None:
        """Refresh the snapshot if stale (same trigger as any query)."""
        if self._sim.now >= self._valid_until:
            self._refresh_now()

    # ------------------------------------------------------------------
    # Snapshot maintenance
    # ------------------------------------------------------------------

    def _refresh_now(self, force: bool = False) -> None:
        now = self._sim.now
        if not force and now < self._valid_until:
            return
        self._valid_until = now + NEIGHBOR_REFRESH_S
        positions = self._model.positions_at(now)
        self._positions = positions
        num_nodes = self.num_nodes

        # Bin nodes into a uniform grid of cs_range-sized cells.  A node's
        # carrier-sense disc is then fully covered by its own cell plus the
        # eight adjacent ones, so those are the only candidates compared.
        cells = np.floor(positions * (1.0 / self.cs_range)).astype(np.int64)
        col = cells[:, 0].tolist()
        row = cells[:, 1].tolist()
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for node in range(num_nodes):
            buckets.setdefault((col[node], row[node]), []).append(node)

        tx_sq = self.tx_range * self.tx_range
        cs_sq = self.cs_range * self.cs_range
        new_tx: List[Tuple[int, ...]] = [()] * num_nodes
        new_cs: List[Tuple[int, ...]] = [()] * num_nodes
        for (cx, cy), members in buckets.items():
            candidates: List[int] = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    block = buckets.get((cx + dx, cy + dy))
                    if block is not None:
                        candidates.extend(block)
            # Ascending candidate ids make every derived neighbor tuple
            # ascending too (a load-bearing invariant: delivery iterates
            # these tuples directly).
            candidates.sort()
            cand = np.asarray(candidates, dtype=np.int64)
            rows = np.asarray(members, dtype=np.int64)
            diff = positions[rows][:, None, :] - positions[cand][None, :, :]
            dist_sq = np.einsum("ijk,ijk->ij", diff, diff)
            in_tx = dist_sq <= tx_sq
            in_cs = dist_sq <= cs_sq
            for local, node in enumerate(members):
                not_self = cand != node
                new_tx[node] = tuple(cand[in_tx[local] & not_self].tolist())
                new_cs[node] = tuple(cand[in_cs[local] & not_self].tolist())

        # Interning + link-change accounting.  Only nodes whose membership
        # actually changed get fresh tuple/frozenset objects; everyone else
        # keeps the previous snapshot's objects (zero allocation when the
        # topology is static).
        bootstrapped = self._bootstrapped
        nbr_tuples = self._neighbor_tuples
        nbr_sets = self._neighbor_sets
        nbr_arrays = self._neighbor_arrays
        cs_tuples = self._cs_tuples
        cs_sets = self._cs_sets
        link_changes = self.link_changes
        for node in range(num_nodes):
            fresh = new_tx[node]
            old = nbr_tuples[node]
            if fresh != old:
                if bootstrapped:
                    link_changes[node] += _count_changes(old, fresh)
                nbr_tuples[node] = fresh
                nbr_sets[node] = frozenset(fresh)
                nbr_arrays[node] = np.asarray(fresh, dtype=np.int64)
            elif not bootstrapped:
                nbr_sets[node] = frozenset(fresh)
                nbr_arrays[node] = np.asarray(fresh, dtype=np.int64)
            fresh_cs = new_cs[node]
            if fresh_cs != cs_tuples[node]:
                cs_tuples[node] = fresh_cs
                cs_sets[node] = frozenset(fresh_cs)
            elif not bootstrapped:
                cs_sets[node] = frozenset(fresh_cs)
        self._bootstrapped = True
        for listener in self._refresh_listeners:
            listener()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def positions(self) -> NDArray[np.float64]:
        """Snapshot of all positions (refreshed if stale)."""
        if self._sim.now >= self._valid_until:
            self._refresh_now()
        return self._positions

    def neighbors(self, node: int) -> FrozenSet[int]:
        """Nodes within transmission range of ``node`` (interned)."""
        if self._sim.now >= self._valid_until:
            self._refresh_now()
        return self._neighbor_sets[node]

    def cs_neighbors(self, node: int) -> FrozenSet[int]:
        """Nodes within carrier-sense range of ``node`` (interned)."""
        if self._sim.now >= self._valid_until:
            self._refresh_now()
        return self._cs_sets[node]

    def sorted_neighbors(self, node: int) -> Tuple[int, ...]:
        """Ascending tuple of nodes within transmission range of ``node``.

        The tuple is built once per refresh and shared between callers, so
        iterating it is allocation-free and its order is a stable function
        of the snapshot (node ids ascending) — safe to drive event
        scheduling from.
        """
        if self._sim.now >= self._valid_until:
            self._refresh_now()
        return self._neighbor_tuples[node]

    def neighbor_index_array(self, node: int) -> NDArray[np.int64]:
        """Ascending int64 array of nodes within tx range of ``node``.

        Same interning contract as :meth:`sorted_neighbors`: the array is
        built once per membership change and shared between callers, so it
        must be treated as read-only.
        """
        if self._sim.now >= self._valid_until:
            self._refresh_now()
        return self._neighbor_arrays[node]

    def neighbor_count(self, node: int) -> int:
        """Number of radio neighbors (Rcast's ``P_R`` denominator)."""
        if self._sim.now >= self._valid_until:
            self._refresh_now()
        return len(self._neighbor_tuples[node])

    def in_range(self, a: int, b: int) -> bool:
        """True when ``a`` and ``b`` are within transmission range."""
        if self._sim.now >= self._valid_until:
            self._refresh_now()
        return b in self._neighbor_sets[a]

    def distance(self, a: int, b: int) -> float:
        """Distance between the cached positions of two nodes."""
        if self._sim.now >= self._valid_until:
            self._refresh_now()
        diff = self._positions[a] - self._positions[b]
        return float(np.hypot(diff[0], diff[1]))

    def link_change_rate(self, node: int) -> float:
        """Neighbor-set changes per second observed so far at ``node``."""
        if self._sim.now >= self._valid_until:
            self._refresh_now()
        elapsed = max(self._sim.now, NEIGHBOR_REFRESH_S)
        return float(self.link_changes[node]) / elapsed


__all__ = ["PositionService"]
