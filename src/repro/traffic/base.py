"""Shared typing surface for traffic sources.

Traffic sources only need two things from the routing layer, so they are
typed against this small structural protocol rather than a concrete
protocol engine — CBR sources drive DSR and AODV agents alike.
"""

from __future__ import annotations

from typing import Protocol


class RoutingAgent(Protocol):
    """What a traffic source requires of the routing layer."""

    @property
    def node_id(self) -> int: ...  # noqa: D102

    def send_data(self, dst: int, payload_bytes: int,
                  app_seq: int = 0) -> int: ...  # noqa: D102


__all__ = ["RoutingAgent"]
