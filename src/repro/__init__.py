"""Rcast: randomized overhearing for energy-efficient MANETs.

Full reproduction of Lim, Yu & Das, *"Rcast: A Randomized Communication
Scheme for Improving Energy Efficiency in MANETs"* (ICDCS 2005): a
discrete-event MANET simulator with IEEE 802.11 PSM, On-Demand Power
Management, DSR routing and the Rcast overhearing scheme.

Quickstart::

    from repro import SimulationConfig, run_simulation

    config = SimulationConfig(scheme="rcast", num_nodes=50, sim_time=100.0,
                              packet_rate=0.4, seed=7)
    metrics = run_simulation(config)
    print(metrics.describe())

See :mod:`repro.experiments` for the paper's tables and figures.
"""

from repro.core.policy import (
    NoOverhearing,
    OverhearingLevel,
    RcastPolicy,
    UnconditionalOverhearing,
)
from repro.core.rcast import RcastManager
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.network import (
    SCHEMES,
    Network,
    SimulationConfig,
    build_network,
    run_simulation,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__version__ = "1.0.0"

__all__ = [
    "MetricsCollector",
    "Network",
    "NoOverhearing",
    "OverhearingLevel",
    "RcastManager",
    "RcastPolicy",
    "RunMetrics",
    "SCHEMES",
    "SimulationConfig",
    "Simulator",
    "RngRegistry",
    "UnconditionalOverhearing",
    "build_network",
    "run_simulation",
    "__version__",
]
