"""Traffic generation: the paper's CBR workload."""

from repro.traffic.cbr import CbrSource
from repro.traffic.pairs import choose_connections

__all__ = ["CbrSource", "choose_connections"]
