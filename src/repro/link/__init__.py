"""End-to-end link simulation: transmitter -> camera -> receiver -> metrics.

:class:`~repro.link.simulator.LinkSimulator` wires a
:class:`~repro.core.system.ColorBarsTransmitter`, a device's
:class:`~repro.camera.sensor.RollingShutterCamera` and the
:class:`~repro.rx.receiver.ColorBarsReceiver` into one reproducible run, and
exposes the parameter sweeps the paper's evaluation section performs.
"""

from repro.link.adapt import (
    AdaptationDecision,
    AdaptationPolicy,
    AdaptiveComparison,
    LinkAdaptationController,
    ModulationLadder,
    ModulationRung,
    ReportWindowTracker,
    WindowStats,
    adaptive_vs_fixed,
    simulate_adaptive,
    simulate_fixed,
)
from repro.link.channel import (
    ChannelConditions,
    ChannelTrajectory,
    TrajectorySegment,
)
from repro.link.multi import (
    FleetMember,
    FleetReport,
    broadcast_to_fleet,
    fleet_specs,
)
from repro.link.simulator import (
    LinkResult,
    LinkSimulator,
    RunSpec,
    execute_specs,
    sweep,
    sweep_specs,
)
from repro.link.workloads import (
    text_payload,
)

__all__ = [
    "AdaptationDecision",
    "AdaptationPolicy",
    "AdaptiveComparison",
    "LinkAdaptationController",
    "ModulationLadder",
    "ModulationRung",
    "ReportWindowTracker",
    "WindowStats",
    "adaptive_vs_fixed",
    "simulate_adaptive",
    "simulate_fixed",
    "ChannelConditions",
    "ChannelTrajectory",
    "TrajectorySegment",
    "FleetMember",
    "FleetReport",
    "broadcast_to_fleet",
    "fleet_specs",
    "LinkResult",
    "LinkSimulator",
    "RunSpec",
    "execute_specs",
    "sweep",
    "sweep_specs",
    "text_payload",
]
