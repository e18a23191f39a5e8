"""Multi-receiver broadcast analysis.

Paper §8's closing observation: one ColorBars transmitter serving many
phones must provision its Reed-Solomon parity for the *worst* receiver it
supports — "the achievable goodput remains bounded by the slowest (highest
inter-frame loss ratio) smartphone".  This module makes that deployment
question first-class: run one broadcast (one shared configuration) against
a fleet of devices and report what each achieves, plus what each device
*could* have achieved with a link provisioned just for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.camera.devices import DeviceProfile
from repro.core.config import SystemConfig
from repro.core.metrics import LinkMetrics
from repro.exceptions import ConfigurationError
from repro.link.channel import ChannelConditions
from repro.link.simulator import RunSpec, Runner, execute_specs


@dataclass
class FleetMember:
    """One receiver's outcome in a shared broadcast."""

    device_name: str
    shared_metrics: LinkMetrics
    dedicated_metrics: Optional[LinkMetrics] = None

    @property
    def provisioning_cost_bps(self) -> Optional[float]:
        """Goodput this device gives up because the link serves the fleet."""
        if self.dedicated_metrics is None:
            return None
        return (
            self.dedicated_metrics.goodput_bps - self.shared_metrics.goodput_bps
        )


@dataclass
class FleetReport:
    """Outcome of one broadcast across a device fleet."""

    shared_config_description: str
    worst_loss_ratio: float
    members: List[FleetMember] = field(default_factory=list)

    def summary_lines(self) -> List[str]:
        lines = [
            f"shared link: {self.shared_config_description} "
            f"(provisioned for loss {self.worst_loss_ratio:.3f})"
        ]
        for member in self.members:
            line = (
                f"  {member.device_name}: "
                f"goodput {member.shared_metrics.goodput_bps:.0f} bps, "
                f"SER {member.shared_metrics.data_symbol_error_rate:.4f}"
            )
            if member.dedicated_metrics is not None:
                line += (
                    f" (dedicated link would give "
                    f"{member.dedicated_metrics.goodput_bps:.0f} bps)"
                )
            lines.append(line)
        return lines


def fleet_specs(
    devices: Sequence[DeviceProfile],
    csk_order: int = 16,
    symbol_rate: float = 3000.0,
    duration_s: float = 2.0,
    payload: Optional[bytes] = None,
    channel: Optional[ChannelConditions] = None,
    compare_dedicated: bool = True,
    seed: int = 0,
) -> List[RunSpec]:
    """Every run a fleet broadcast needs, as independent cell specs.

    Per device: the shared-provisioning run, then (optionally) the
    dedicated-provisioning run, in fleet order.  Every member reuses the
    *same* shared configuration and payload — which is what makes the
    transmitter plan memoizable across the whole fleet.
    """
    if not devices:
        raise ConfigurationError("fleet must contain at least one device")
    worst_loss = max(device.timing.gap_fraction for device in devices)
    shared_config = SystemConfig(
        csk_order=csk_order,
        symbol_rate=symbol_rate,
        design_loss_ratio=worst_loss,
    )
    specs: List[RunSpec] = []
    for index, device in enumerate(devices):
        specs.append(
            RunSpec(
                config=shared_config,
                device=device,
                channel=channel,
                seed=seed + index,
                payload=payload,
                duration_s=duration_s,
            )
        )
        if compare_dedicated:
            dedicated_config = SystemConfig(
                csk_order=csk_order,
                symbol_rate=symbol_rate,
                design_loss_ratio=device.timing.gap_fraction,
            )
            specs.append(
                RunSpec(
                    config=dedicated_config,
                    device=device,
                    channel=channel,
                    seed=seed + index,
                    payload=payload,
                    duration_s=duration_s,
                )
            )
    return specs


def broadcast_to_fleet(
    devices: Sequence[DeviceProfile],
    csk_order: int = 16,
    symbol_rate: float = 3000.0,
    duration_s: float = 2.0,
    payload: Optional[bytes] = None,
    channel: Optional[ChannelConditions] = None,
    compare_dedicated: bool = True,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> FleetReport:
    """One transmitter, many phones: the §8 deployment scenario.

    The shared configuration provisions FEC for the fleet's worst loss
    ratio; with ``compare_dedicated=True`` each device is also run against
    a link provisioned for it alone, quantifying the §8 bound.

    ``runner`` executes the per-member runs (e.g. over a process pool via
    :func:`repro.perf.executor.make_runner`); the default runs serially.
    An observing runner (``make_runner(observe=True)``) leaves each
    member run's span trace and metrics export on its result, and
    ``repro.obs.assemble_trace`` merges them — in fleet order, shared
    then dedicated run per member — into one coherent trace.
    """
    specs = fleet_specs(
        devices,
        csk_order=csk_order,
        symbol_rate=symbol_rate,
        duration_s=duration_s,
        payload=payload,
        channel=channel,
        compare_dedicated=compare_dedicated,
        seed=seed,
    )
    results = execute_specs(specs, runner=runner)
    report = FleetReport(
        shared_config_description=specs[0].config.describe(),
        worst_loss_ratio=max(device.timing.gap_fraction for device in devices),
    )
    runs_per_member = 2 if compare_dedicated else 1
    for index, device in enumerate(devices):
        shared = results[index * runs_per_member]
        dedicated = (
            results[index * runs_per_member + 1] if compare_dedicated else None
        )
        report.members.append(
            FleetMember(
                device_name=device.name,
                shared_metrics=shared.metrics,
                dedicated_metrics=(
                    dedicated.metrics if dedicated is not None else None
                ),
            )
        )
    return report
