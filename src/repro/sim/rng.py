"""Reproducible, named random streams.

Every source of randomness in the simulator draws from its own named stream
("mobility", "traffic", "mac", "rcast", ...).  Streams are derived
deterministically from a single scenario seed, so

* two runs with the same seed are bit-identical, and
* adding draws to one subsystem (say, an extra mobility sample) does not
  perturb any other subsystem's sequence — which keeps A/B comparisons
  between schemes honest: the mobility trace and traffic pattern seen by
  ``rcast`` and ``odpm`` under the same seed are *the same*.

Streams are :class:`random.Random` instances: cheap scalar draws dominate
in the protocol layers.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 63-bit child seed from ``root_seed`` and a stream name.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (``hash()`` is salted per-process and unusable here).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RngRegistry:
    """Factory and cache of named random streams derived from one seed."""

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The scenario root seed."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the scalar RNG for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self._seed, name))
            self._streams[name] = rng
        return rng

    def streams(self) -> Dict[str, random.Random]:
        """Snapshot of every scalar stream derived so far (name -> RNG).

        For introspection tooling (the determinism sanitizer's draw
        ledgers); the returned dict is a copy, the streams are the live
        objects.
        """
        return dict(self._streams)


def derived_stream(root_seed: int, name: str) -> random.Random:
    """One named stream without a registry.

    For components that allow construction without an injected stream
    (tests, ad-hoc tooling): the fallback stays seed-stable and
    stream-isolated instead of silently coupling to the process-global
    ``random`` state.
    """
    return random.Random(derive_seed(root_seed, name))


__all__ = ["RngRegistry", "derive_seed", "derived_stream"]
