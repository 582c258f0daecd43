"""Role numbers: packet-forwarding responsibility per node.

The paper defines a node's *role number* as "a measure of the extent to
which the node lies on the paths between others", derived from the
intermediate nodes of the routes used during packet transmissions.  A node
with a high role number forwards a disproportionate share of traffic —
the preferential-attachment pathology Rcast's randomization dampens.

:class:`RoleTracker` increments each intermediate node's counter every time
a source route is committed to moving a data packet (origination and
salvage re-routes).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray


class RoleTracker:
    """Counts appearances of each node as a route intermediate."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self._counts = np.zeros(num_nodes, dtype=np.int64)

    def record_route(self, route: Sequence[int]) -> None:
        """Credit every intermediate node of ``route`` with one role unit."""
        for node in route[1:-1]:
            self._counts[node] += 1

    def counts(self) -> NDArray[np.int64]:
        """Copy of the per-node role-number vector."""
        return self._counts.copy()

    def max_role(self) -> int:
        """Largest role number in the network (paper Fig. 9 discussion)."""
        return int(self._counts.max()) if self.num_nodes else 0


__all__ = ["RoleTracker"]
