"""Radio propagation models.

ns-2 (the paper's substrate) computes received power with the Friis
free-space model below a crossover distance and the two-ray ground model
beyond it, then compares against fixed receive/carrier-sense thresholds.
With the default 802.11 parameters this yields a *deterministic* 250 m
reception disk and a 550 m carrier-sense disk — which is why the
reproduction's channel can use :class:`DiskReception` without losing any
behaviour the paper depends on.  The analytic models are implemented (and
tested) so that the disk radii are derived rather than asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Speed of light, m/s.
SPEED_OF_LIGHT = 299_792_458.0

#: Default 802.11b/ns-2 parameters (914 MHz WaveLAN).
DEFAULT_FREQ_HZ = 914e6
DEFAULT_TX_POWER_W = 0.28183815  # ns-2 default Pt for 250 m with two-ray
DEFAULT_ANTENNA_GAIN = 1.0
DEFAULT_ANTENNA_HEIGHT_M = 1.5
DEFAULT_SYSTEM_LOSS = 1.0
#: ns-2 default receive threshold (W) -> 250 m with the above parameters.
DEFAULT_RX_THRESHOLD_W = 3.652e-10
#: ns-2 default carrier-sense threshold (W) -> ~550 m.
DEFAULT_CS_THRESHOLD_W = 1.559e-11


class FreeSpaceModel:
    """Friis free-space path loss: ``Pr = Pt Gt Gr lambda^2 / ((4 pi d)^2 L)``."""

    def __init__(
        self,
        freq_hz: float = DEFAULT_FREQ_HZ,
        tx_gain: float = DEFAULT_ANTENNA_GAIN,
        rx_gain: float = DEFAULT_ANTENNA_GAIN,
        system_loss: float = DEFAULT_SYSTEM_LOSS,
    ) -> None:
        if freq_hz <= 0:
            raise ConfigurationError(f"frequency must be positive, got {freq_hz}")
        self.wavelength = SPEED_OF_LIGHT / freq_hz
        self.tx_gain = tx_gain
        self.rx_gain = rx_gain
        self.system_loss = system_loss

    def received_power(self, tx_power: float, distance: float) -> float:
        """Received power in watts at ``distance`` meters."""
        if distance <= 0:
            return tx_power
        num = tx_power * self.tx_gain * self.rx_gain * self.wavelength**2
        den = (4 * math.pi * distance) ** 2 * self.system_loss
        return num / den


class TwoRayGroundModel:
    """Two-ray ground reflection model with free-space crossover.

    Below the crossover distance ``dc = 4 pi ht hr / lambda`` the free-space
    model applies; beyond it ``Pr = Pt Gt Gr ht^2 hr^2 / (d^4 L)``.
    """

    def __init__(
        self,
        freq_hz: float = DEFAULT_FREQ_HZ,
        tx_gain: float = DEFAULT_ANTENNA_GAIN,
        rx_gain: float = DEFAULT_ANTENNA_GAIN,
        tx_height: float = DEFAULT_ANTENNA_HEIGHT_M,
        rx_height: float = DEFAULT_ANTENNA_HEIGHT_M,
        system_loss: float = DEFAULT_SYSTEM_LOSS,
    ) -> None:
        if tx_height <= 0 or rx_height <= 0:
            raise ConfigurationError("antenna heights must be positive")
        self._free_space = FreeSpaceModel(freq_hz, tx_gain, rx_gain, system_loss)
        self.tx_gain = tx_gain
        self.rx_gain = rx_gain
        self.tx_height = tx_height
        self.rx_height = rx_height
        self.system_loss = system_loss
        self.crossover = (
            4 * math.pi * tx_height * rx_height / self._free_space.wavelength
        )

    def received_power(self, tx_power: float, distance: float) -> float:
        """Received power in watts at ``distance`` meters."""
        if distance <= self.crossover:
            return self._free_space.received_power(tx_power, distance)
        num = tx_power * self.tx_gain * self.rx_gain
        num *= self.tx_height**2 * self.rx_height**2
        return num / (distance**4 * self.system_loss)

    def range_for_threshold(self, tx_power: float, threshold: float) -> float:
        """Largest distance at which received power still meets ``threshold``."""
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        # Try the two-ray branch first (valid beyond crossover).
        num = tx_power * self.tx_gain * self.rx_gain
        num *= self.tx_height**2 * self.rx_height**2
        d = (num / (threshold * self.system_loss)) ** 0.25
        if d >= self.crossover:
            return d
        # Threshold is met inside the free-space region.
        fs = self._free_space
        num = tx_power * fs.tx_gain * fs.rx_gain * fs.wavelength**2
        return math.sqrt(num / (threshold * (4 * math.pi) ** 2 * fs.system_loss))


@dataclass(frozen=True)
class DiskReception:
    """Deterministic disk reception rule derived from the threshold models.

    ``receivable(d)`` is True within ``rx_range``; ``sensible(d)`` within
    ``cs_range``.  This is exactly the behaviour ns-2's threshold comparison
    produces for the default parameters, with the physics factored out.
    """

    rx_range: float
    cs_range: float

    def __post_init__(self) -> None:
        if self.rx_range <= 0:
            raise ConfigurationError("rx_range must be positive")
        if self.cs_range < self.rx_range:
            raise ConfigurationError("cs_range must be >= rx_range")

    def receivable(self, distance: float) -> bool:
        """Can a frame be decoded at this distance?"""
        return distance <= self.rx_range

    def sensible(self, distance: float) -> bool:
        """Does a transmission at this distance raise carrier sense?"""
        return distance <= self.cs_range


__all__ = [
    "FreeSpaceModel",
    "TwoRayGroundModel",
    "DiskReception",
    "DEFAULT_TX_POWER_W",
    "DEFAULT_RX_THRESHOLD_W",
    "DEFAULT_CS_THRESHOLD_W",
]
