"""Dynamic Source Routing (Johnson & Maltz).

* :mod:`repro.routing.dsr.cache` — the per-node path route cache, the data
  structure whose staleness/locality dynamics the paper studies.
* :mod:`repro.routing.dsr.protocol` — the protocol engine: route discovery
  (RREQ/RREP with expanding-ring search and cache replies), source-routed
  forwarding, route maintenance (RERR, salvaging) and promiscuous route
  learning from overheard packets.
"""

from repro.routing.dsr.cache import CachedPath, RouteCache
from repro.routing.dsr.protocol import DsrProtocol

__all__ = ["CachedPath", "DsrProtocol", "RouteCache"]
