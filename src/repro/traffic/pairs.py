"""Connection-pair selection for traffic scenarios."""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.errors import ConfigurationError


def choose_connections(
    num_nodes: int,
    num_connections: int,
    rng: random.Random,
) -> List[Tuple[int, int]]:
    """Pick ``num_connections`` (source, destination) pairs.

    Sources are distinct (the paper's "20 CBR sources"); destinations are
    arbitrary nodes other than the source.
    """
    if num_connections <= 0:
        raise ConfigurationError("num_connections must be positive")
    if num_nodes < 2:
        raise ConfigurationError("need at least two nodes for traffic")
    if num_connections > num_nodes:
        raise ConfigurationError(
            f"cannot pick {num_connections} distinct sources from "
            f"{num_nodes} nodes"
        )
    pairs = []
    for src in rng.sample(range(num_nodes), num_connections):
        dst = rng.randrange(num_nodes - 1)
        if dst >= src:
            dst += 1
        pairs.append((src, dst))
    return pairs


__all__ = ["choose_connections"]
