"""The DSR path route cache.

Each node caches complete paths that *start at itself*.  A cached path to D
implicitly provides routes to every intermediate node (prefixes).  The cache
is the protagonist of the paper's analysis: overhearing keeps it populated;
unconditional overhearing over-populates it with soon-stale alternatives;
Rcast keeps it populated "just enough" by exploiting the temporal locality
of route information.

Following Hu & Johnson's cache study (cited by the paper), the cache is
split into a **primary** segment for routes this node actively uses or
discovered itself (RREP results, routes it forwards on) and a **secondary**
segment for passively acquired routes (overheard packets, RREQ reverse
paths).  Each segment is LRU-bounded independently, so a flood of overheard
alternatives can never evict the working route of an active connection —
without the split, dense unconditional overhearing churns sources' caches
and triggers spurious rediscovery storms.  A secondary route is promoted to
primary the first time it is actually used.

Hot-path note: ``add_path`` runs on every overheard path, every RREQ
reverse path and every forwarded source route — at dense-network rates it
is one of the busiest functions in the whole simulator, and once a segment
is full every new path evicts one.  Its whole lookup is one frame: per
segment, one dict probe for the path itself and one scan of its
first-hop bucket, with no helper call between them.  On the always-on
802.11 workload over half the calls are exact refreshes of a secondary
entry, and most nodes hold no primary entry via the probe's first hop,
so the primary segment is asked for its bucket first and the secondary
for the exact path first.  Eviction reads a per-segment binary heap of
``(last_used, added_at, seq, entry)`` tuples instead of scanning the
segment.  Touches stay plain ``last_used`` writes and push nothing;
the heap is repaired lazily when the victim search meets a stale tuple
(see :meth:`_Segment._lru`), and each touch costs at most one such
re-push, so eviction is amortised O(log n) rather than O(n).  Once a
segment is full, an insert evicts in place: the victim's entry object
and heap slot take the new path (:meth:`_Segment.replace_lru`), so the
evicting insert allocates no entry and swaps one heap tuple.  The
per-prefix / per-link index structures that used to answer covering
lookups and ``using_link`` in O(1) cost ~20x the path storage in
key tuples and bucket lists (>190 MB at 1,000 nodes), which made cache
memory — not speed — the barrier to large scenarios, so they are gone.
What remains is bounded: the heap (at most two tuples per entry) and a
first-hop bucket dict — every cached path starts at the owner, so every
extension of a probe path shares its second element, and the buckets
(<= capacity keys, exactly one list slot per entry) narrow the
covering scan to the handful of same-first-hop candidates.  They also
guard it: a bucket exists iff some entry has that first hop (``remove``
deletes emptied buckets, ``clear`` all of them), so a segment holding
nothing via the path's first hop costs ``add_path`` no scan.
``using_link`` keeps the linear scan but rejects non-members with two
C-speed tuple probes before walking any hop pairs.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush, heapreplace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.constants import DSR_CACHE_CAPACITY, DSR_CACHE_PRIMARY_CAPACITY
from repro.errors import RoutingError

#: sources that go to the primary segment
PRIMARY_SOURCES = frozenset({"rrep", "forward", "local"})

class CachedPath:
    """One cached path with bookkeeping.

    A plain slotted record: equality is identity, so a first-hop bucket's
    ``list.remove`` finds its entry without comparing field tuples.

    Entries are reused on eviction: a full segment overwrites its victim's
    fields with the new path's (:meth:`_Segment.replace_lru`).  So an
    entry object names a cache slot, not a path; a reader that keeps one
    past the next ``add_path`` may see it hold another path.
    """

    __slots__ = ("path", "added_at", "last_used", "source", "uses", "seq")

    def __init__(self, path: Tuple[int, ...], added_at: float,
                 last_used: float, source: str = "unknown",
                 uses: int = 0) -> None:
        self.path = path
        self.added_at = added_at
        self.last_used = last_used
        #: 'rrep' | 'forward' | 'overhear' | 'rreq' | ...
        self.source = source
        self.uses = uses
        #: position in the owning segment's insertion order (set by
        #: ``_Segment.insert``, -1 once removed); the final LRU tie-break
        self.seq = -1

    def __repr__(self) -> str:
        return (f"CachedPath(path={self.path}, added_at={self.added_at}, "
                f"last_used={self.last_used}, source={self.source!r}, "
                f"uses={self.uses})")


class _Segment:
    """One LRU-bounded cache segment.

    ``entries`` maps the full path to its entry; dict insertion order *is*
    segment order, so "the first entry in segment order extending path P"
    is the first match in scan order.  ``by_hop`` buckets entries by their
    second element (the first hop): every extension of a probe path shares
    that element, so ``RouteCache.add_path`` scans one bucket instead of
    the whole segment.  Buckets hold entries in segment insertion order (a
    subsequence of the dict order), so "earliest inserted" is preserved,
    and their memory is strictly bounded by the segment capacity — one
    list slot per entry — unlike the per-prefix index removed for eating
    >190 MB at 1,000 nodes.

    ``heap`` orders entries for eviction by ``(last_used, added_at, seq)``.
    ``seq`` numbers insertions from ``seqs``, one counter for both
    segments of a cache, so it increases along the dict order and
    reproduces the tie-break of ``min()`` over ``entries.values()`` (the
    first in dict order wins); a path is never re-inserted over itself, so
    every insertion appends.  Numbers are never reused and a removed
    entry's ``seq`` is -1, so a heap tuple belongs to a live entry of this
    segment iff its ``seq`` is the entry's.
    """

    __slots__ = ("entries", "by_hop", "heap", "seqs")

    def __init__(self, seqs: Iterator[int]) -> None:
        self.entries: Dict[Tuple[int, ...], CachedPath] = {}
        self.by_hop: Dict[int, List[CachedPath]] = {}
        self.heap: List[Tuple[float, float, int, CachedPath]] = []
        self.seqs = seqs

    def __len__(self) -> int:
        return len(self.entries)

    def insert(self, entry: CachedPath) -> None:
        """Append ``entry``; its path must not already be in the segment."""
        path = entry.path
        self.entries[path] = entry
        bucket = self.by_hop.get(path[1])
        if bucket is None:
            self.by_hop[path[1]] = [entry]
        else:
            bucket.append(entry)
        entry.seq = seq = next(self.seqs)
        heappush(self.heap, (entry.last_used, entry.added_at, seq, entry))

    def remove(self, entry: CachedPath) -> None:
        del self.entries[entry.path]
        entry.seq = -1
        hop = entry.path[1]
        bucket = self.by_hop[hop]
        bucket.remove(entry)
        if not bucket:
            del self.by_hop[hop]
        # Removal leaves the entry's heap tuple behind; rebuild once stale
        # tuples outnumber live ones, so the heap stays O(capacity).
        if len(self.heap) > 2 * len(self.entries):
            self.heap = [(e.last_used, e.added_at, e.seq, e)
                         for e in self.entries.values()]
            heapify(self.heap)

    def _lru(self) -> CachedPath:
        """Bring the least recently used entry's tuple to the heap top.

        The victim is the entry minimising ``(last_used, added_at, seq)``.
        Touches overwrite ``last_used`` without updating the heap, which
        stays exact because simulated time never decreases: every live
        entry has exactly one heap tuple, and its key is a lower bound on
        the entry's true key.  So a top tuple whose entry is gone (its
        ``seq`` no longer matches) is dropped, one whose ``last_used`` has
        moved is replaced by the current value, and one whose key is still
        current is the minimum.  Keys are unique (``seq`` is), so the
        victim does not depend on the heap's layout.  This is the one
        eviction law: :meth:`pop_lru` and :meth:`replace_lru` both use it.
        """
        heap = self.heap
        while True:
            last_used, added_at, seq, entry = heap[0]
            if entry.seq != seq:
                heappop(heap)
            elif entry.last_used != last_used:
                heapreplace(heap, (entry.last_used, added_at, seq, entry))
            else:
                return entry

    def pop_lru(self) -> CachedPath:
        """Remove and return the least recently used entry."""
        entry = self._lru()
        heappop(self.heap)
        self.remove(entry)
        return entry

    def replace_lru(self, path: Tuple[int, ...], now: float,
                    source: str) -> None:
        """Evict the least recently used entry and store ``path`` in it.

        The same victim as :meth:`pop_lru` followed by :meth:`insert` of a
        fresh entry, with the same resulting segment order, buckets and
        ``seq``; but the victim's object and heap slot are reused, so no
        entry is allocated and the heap sees one ``heapreplace``.
        """
        entry = self._lru()
        old = entry.path
        entries = self.entries
        del entries[old]
        by_hop = self.by_hop
        hop = old[1]
        bucket = by_hop[hop]
        bucket.remove(entry)
        if not bucket:
            del by_hop[hop]
        entry.path = path
        entry.added_at = entry.last_used = now
        entry.source = source
        entry.uses = 0
        entries[path] = entry
        bucket = by_hop.get(path[1])
        if bucket is None:
            by_hop[path[1]] = [entry]
        else:
            bucket.append(entry)
        entry.seq = seq = next(self.seqs)
        heapreplace(self.heap, (now, now, seq, entry))

    def using_link(self, a: int, b: int) -> List[CachedPath]:
        """Entries traversing undirected link ``a-b``, in insertion order."""
        key = (a, b) if a < b else (b, a)
        out: List[CachedPath] = []
        for entry in self.entries.values():
            path = entry.path
            # Two C-speed membership probes reject almost every entry
            # before the Python hop-pair walk (which still decides —
            # membership alone cannot tell adjacency).
            if a not in path or b not in path:
                continue
            prev = path[0]
            for node in path[1:]:
                if ((prev, node) if prev < node else (node, prev)) == key:
                    out.append(entry)
                    break
                prev = node
        return out

    def clear(self) -> None:
        self.entries.clear()
        self.by_hop.clear()
        self.heap.clear()


class RouteCache:
    """Two-segment (primary/secondary) LRU path cache for one node."""

    def __init__(
        self,
        owner: int,
        capacity: int = DSR_CACHE_CAPACITY,
        primary_capacity: int = DSR_CACHE_PRIMARY_CAPACITY,
    ) -> None:
        if capacity <= 0 or primary_capacity <= 0:
            raise RoutingError("cache capacities must be positive")
        self.owner = owner
        self.capacity = capacity              # secondary segment bound
        self.primary_capacity = primary_capacity
        seqs = itertools.count()
        self._primary = _Segment(seqs)
        self._secondary = _Segment(seqs)
        #: both segments in lookup order, primary first
        self._segments = (self._primary, self._secondary)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._primary) + len(self._secondary)

    def __contains__(self, path: Iterable[int]) -> bool:
        key = tuple(path)
        return key in self._primary.entries or key in self._secondary.entries

    def paths(self) -> List[CachedPath]:
        """All cached entries (primary first)."""
        return (list(self._primary.entries.values())
                + list(self._secondary.entries.values()))

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def add_path(self, path: Iterable[int], now: float, source: str = "unknown",
                 validate: bool = True) -> bool:
        """Cache ``path`` (must start at the owner, be loop-free, len >= 2).

        Returns True when a new entry was stored, False when it duplicated
        existing knowledge (whose recency is refreshed instead).  Callers
        that already guarantee the path invariants (the DSR learning paths
        build every path from a loop-free packet route) may pass
        ``validate=False`` to skip re-checking them.

        An equal path, or one ``path`` is a strict prefix of, already
        carries this information.  Each segment, primary first, is asked
        for ``path``'s own entry, then for the earliest-inserted entry
        extending it; every extension shares the first hop ``path[1]``,
        so only that first-hop bucket is scanned.
        """
        if type(path) is not tuple:
            path = tuple(path)
        if validate:
            if len(path) < 2:
                raise RoutingError(f"path too short: {path}")
            if path[0] != self.owner:
                raise RoutingError(
                    f"path {path} does not start at owner {self.owner}")
            if len(set(path)) != len(path):
                raise RoutingError(f"path has a loop: {path}")
        hop = path[1]
        # Primary: most nodes forward on few routes, so the first-hop
        # bucket is usually absent and one int-keyed probe settles it.
        primary = self._primary
        bucket = primary.by_hop.get(hop)
        if bucket is not None:
            known = primary.entries.get(path)
            if known is None:
                n = len(path)
                last = path[n - 1]
                for entry in bucket:
                    p = entry.path
                    if len(p) > n and p[n - 1] == last and p[:n] == path:
                        known = entry
                        break
            if known is not None:
                known.last_used = now
                return False
        # Secondary: an exact refresh is the commonest outcome of all.
        secondary = self._secondary
        known = secondary.entries.get(path)
        if known is None:
            bucket = secondary.by_hop.get(hop)
            if bucket is not None:
                n = len(path)
                last = path[n - 1]
                for entry in bucket:
                    p = entry.path
                    if len(p) > n and p[n - 1] == last and p[:n] == path:
                        known = entry
                        break
        if known is not None:
            known.last_used = now
            return False
        if source in PRIMARY_SOURCES:
            segment, bound = primary, self.primary_capacity
        else:
            segment, bound = secondary, self.capacity
        if len(segment.entries) >= bound:
            segment.replace_lru(path, now, source)
        else:
            segment.insert(CachedPath(path, now, now, source))
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def route_to(self, dst: int, now: float) -> Optional[Tuple[int, ...]]:
        """Shortest cached route ``owner -> dst`` (prefixes count), or None.

        A winning secondary entry is promoted to the primary segment: the
        route is now in active use and must not be churned out by passive
        overhearing.
        """
        best: Optional[CachedPath] = None
        best_len = None
        best_segment = None
        for segment in self._segments:
            for cached in segment.entries.values():
                path = cached.path
                # Membership probe first: raising ValueError from .index()
                # on every non-containing entry dominated this scan.
                if dst not in path:
                    continue
                idx = path.index(dst)
                if idx == 0:
                    continue  # dst == owner, meaningless
                if best_len is None or idx + 1 < best_len:
                    best = cached
                    best_len = idx + 1
                    best_segment = segment
                    if best_len == 2:
                        break  # one hop: nothing can beat it (first wins)
            if best_len == 2:
                break
        if best is None:
            return None
        best.last_used = now
        best.uses += 1
        if best_segment is self._secondary:
            self._secondary.remove(best)
            if len(self._primary) >= self.primary_capacity:
                self._primary.pop_lru()
            self._primary.insert(best)
        return best.path[:best_len]

    def has_route_to(self, dst: int) -> bool:
        """True when a route to ``dst`` is cached (no recency update)."""
        # Cached paths are loop-free, so "dst appears past the owner" is
        # equivalent to "dst is a member and is not the owner" — no slice.
        return any(
            dst != c.path[0] and dst in c.path
            for seg in self._segments for c in seg.entries.values()
        )

    # ------------------------------------------------------------------
    # Invalidation (route maintenance)
    # ------------------------------------------------------------------

    def remove_link(self, a: int, b: int) -> int:
        """Invalidate every path using link ``a-b`` (either direction).

        Paths are truncated just before the broken link (the surviving
        prefix is still valid information); prefixes shorter than one hop
        are dropped.  Returns the number of affected entries.
        """
        affected = 0
        for segment in self._segments:
            replacements: List[Tuple[CachedPath, Optional[CachedPath]]] = []
            for cached in segment.using_link(a, b):
                cut = self._link_position(cached.path, a, b)
                if cut is None:  # pragma: no cover - index guarantees a hit
                    continue
                affected += 1
                prefix = cached.path[: cut + 1]
                if len(prefix) >= 2:
                    replacements.append((cached, CachedPath(
                        prefix, cached.added_at, cached.last_used,
                        cached.source, cached.uses,
                    )))
                else:
                    replacements.append((cached, None))
            for cached, replacement in replacements:
                segment.remove(cached)
                if (replacement is not None
                        and replacement.path not in segment.entries):
                    segment.insert(replacement)
        return affected

    @staticmethod
    def _link_position(path: Tuple[int, ...], a: int, b: int) -> Optional[int]:
        """Index i such that (path[i], path[i+1]) is the link a-b, else None."""
        for i in range(len(path) - 1):
            hop = (path[i], path[i + 1])
            if hop == (a, b) or hop == (b, a):
                return i
        return None

    def clear(self) -> None:
        """Drop every cached path."""
        self._primary.clear()
        self._secondary.clear()


__all__ = ["RouteCache", "CachedPath", "PRIMARY_SOURCES"]
