"""Connection-pair selection for traffic scenarios."""

from __future__ import annotations

import random
from typing import List, Tuple


def choose_connections(
    num_nodes: int,
    num_connections: int,
    rng: random.Random,
) -> List[Tuple[int, int]]:
    """Pick ``num_connections`` (source, destination) pairs.

    Sources are distinct (the paper's "20 CBR sources"); destinations are
    arbitrary nodes other than the source.
    """
    pairs = []
    for src in rng.sample(range(num_nodes), num_connections):
        dst = rng.randrange(num_nodes - 1)
        if dst >= src:
            dst += 1
        pairs.append((src, dst))
    return pairs


__all__ = ["choose_connections"]
