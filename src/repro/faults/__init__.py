"""Seeded, composable fault injection for the simulated optical link.

The paper's evaluation only exercises the happy optical path; this package
supplies the messier realities — occlusion, saturation, exposure spikes,
dropped/torn frames, clock drift — as :class:`FaultInjector` objects that
wrap the recording between camera and receiver.  Every injector is driven
by a generator derived through :mod:`repro.util.rng`, logs its ground truth
in a :class:`FaultSchedule`, and is a byte-exact no-op at intensity zero.

Use via :class:`~repro.link.simulator.LinkSimulator`::

    from repro.faults import FrameDropInjector
    LinkSimulator(config, device, faults=[FrameDropInjector(0.3)]).run()

or from the shell: ``colorbars simulate --fault frame-drop:0.3``.
"""

from repro.faults.base import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    validate_intensity,
)
from repro.faults.chaos import (
    CHAOS_REGISTRY,
    CellHangChaos,
    ProcessChaos,
    SlowCellChaos,
    WorkerCrashChaos,
    make_chaos,
    parse_chaos_spec,
    parse_chaos_specs,
)
from repro.faults.injectors import (
    FAULT_REGISTRY,
    DriftInjector,
    FrameDropInjector,
    OcclusionInjector,
    SaturationInjector,
    ScanlineCorruptionInjector,
    TimingJitterInjector,
    make_injector,
    parse_fault_spec,
    parse_fault_specs,
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "validate_intensity",
    "CHAOS_REGISTRY",
    "CellHangChaos",
    "ProcessChaos",
    "SlowCellChaos",
    "WorkerCrashChaos",
    "make_chaos",
    "parse_chaos_spec",
    "parse_chaos_specs",
    "FAULT_REGISTRY",
    "DriftInjector",
    "FrameDropInjector",
    "OcclusionInjector",
    "SaturationInjector",
    "ScanlineCorruptionInjector",
    "TimingJitterInjector",
    "make_injector",
    "parse_fault_spec",
    "parse_fault_specs",
]
