"""Ad-hoc On-demand Distance Vector routing (Perkins & Royer).

The paper's footnote 1 uses AODV as the contrast case for its overhearing
argument: AODV "does not allow overhearing and eliminates existing route
information using timeout", which "necessitates more RREQ messages" — Das
et al. attribute ~90% of AODV's routing overhead to RREQs.  This package
implements a paper-era AODV (hop-by-hop forwarding tables, sequence-number
loop freedom, expanding-ring discovery, active-route timeouts, RERR
invalidation) so that claim is measurable inside the same simulator.

Differences from RFC 3561 kept deliberately simple (and documented):
no HELLO beacons (link failures come from MAC-layer ACK feedback, as in
the ns-2 studies the paper cites), no precursor lists (RERRs are TTL-1
broadcasts re-propagated by nodes that invalidated something), and no
gratuitous RREPs.
"""

from repro.routing.aodv.packets import (
    AodvData,
    AodvRerr,
    AodvRrep,
    AodvRreq,
)
from repro.routing.aodv.protocol import AodvProtocol
from repro.routing.aodv.table import AodvRoute, RoutingTable

__all__ = [
    "AodvData",
    "AodvProtocol",
    "AodvRerr",
    "AodvRrep",
    "AodvRreq",
    "AodvRoute",
    "RoutingTable",
]
