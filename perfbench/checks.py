"""Output checks applied to every simulated instance, from outside.

Three conservation identities must hold at the end of every run:

* packets: ``data_sent == data_delivered + sum(drop_reasons)``, where
  ``in_flight`` is one of the reasons;
* receptions: the audible receivers of every finished transmission, read
  from the ``Transmission`` objects ``Channel.transmit`` returns, equal
  ``frames_delivered + frames_missed_asleep + frames_collided``;
* energy, per node: ``1.15 W x awake + 0.045 W x (sim_time - awake)``.

Beyond the identities, a run fails when two runs of one scenario disagree
(:func:`digest` differs) or when the reference scenario's outputs differ
from ``reference.json``.  ``events_processed`` is part of the digest but
never compared with a recorded value, so a change to the event model stays
measurable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

#: The paper's two-level power model (awake / doze), in watts.
POWER_AWAKE_W = 1.15
POWER_SLEEP_W = 0.045
#: Relative tolerance of the energy identity (float accumulation order).
ENERGY_RTOL = 1e-9

#: Simulated outputs recorded for the reference scenario.
REFERENCE_KEYS = ("pdr", "energy_j", "avg_delay_s", "data_delivered")


class ReceptionAudit:
    """Counts audible receivers of every transmission a channel starts.

    Installed as an instance attribute over ``channel.transmit``, so the
    class and every other channel stay untouched.
    """

    def __init__(self, channel: Any) -> None:
        self.channel = channel
        self.audible = 0
        self.scalar = 0
        transmit = channel.transmit

        def audited(sender: int, frame: Any) -> Any:
            tx = transmit(sender, frame)
            self.audible += len(tx.audible)
            if tx.scalar:
                self.scalar += 1
            return tx

        channel.transmit = audited

    def finished_audible(self) -> int:
        """Audible receivers of transmissions that ended within the run."""
        pending = sum(len(tx.audible) for tx in self.channel._active.values())
        return self.audible - pending


def identity_failures(metrics: Any, channel: Any,
                      audit: ReceptionAudit) -> List[str]:
    """Every conservation identity ``metrics`` and ``channel`` violate."""
    failures = []
    dropped = sum(metrics.drop_reasons.values())
    if metrics.data_sent != metrics.data_delivered + dropped:
        failures.append(
            f"packets: sent {metrics.data_sent} != delivered "
            f"{metrics.data_delivered} + dropped {dropped} "
            f"{dict(metrics.drop_reasons)}")
    heard = audit.finished_audible()
    classified = (channel.frames_delivered + channel.frames_missed_asleep
                  + channel.frames_collided)
    if heard != classified:
        failures.append(
            f"receptions: audible {heard} != delivered "
            f"{channel.frames_delivered} + missed "
            f"{channel.frames_missed_asleep} + collided "
            f"{channel.frames_collided}")
    sim_time = metrics.sim_time
    awake_times = metrics.node_awake_time.tolist()
    for node, (energy, awake) in enumerate(
            zip(metrics.node_energy.tolist(), awake_times)):
        expected = POWER_AWAKE_W * awake + POWER_SLEEP_W * (sim_time - awake)
        if abs(energy - expected) > ENERGY_RTOL * max(1.0, abs(expected)):
            failures.append(f"energy: node {node} used {energy!r} J, "
                            f"power x state time gives {expected!r} J")
            break
    return failures


def outputs(metrics: Any, channel: Any,
            audit: ReceptionAudit) -> Dict[str, Any]:
    """Every simulated output of one run, JSON-safe."""
    return {
        "metrics": metrics.to_dict(),
        "channel": {
            "frames_sent": channel.frames_sent,
            "frames_delivered": channel.frames_delivered,
            "frames_collided": channel.frames_collided,
            "frames_missed_asleep": channel.frames_missed_asleep,
            "audible": audit.finished_audible(),
            "scalar": audit.scalar,
        },
    }


def digest(outputs_: Dict[str, Any]) -> str:
    """Fingerprint of a run's simulated outputs."""
    blob = json.dumps(outputs_, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def reference_values(metrics: Any) -> Dict[str, Any]:
    """The recorded subset of one reference run's outputs."""
    return {"pdr": metrics.pdr, "energy_j": metrics.total_energy,
            "avg_delay_s": metrics.avg_delay,
            "data_delivered": metrics.data_delivered}


def reference_failures(actual: Dict[str, Any],
                       recorded: Dict[str, Any]) -> List[str]:
    """Differences between a reference run and its recorded outputs."""
    return [f"reference: {key} = {actual[key]!r}, recorded {recorded[key]!r}"
            for key in REFERENCE_KEYS if actual[key] != recorded[key]]
