"""The end-to-end link simulator and parameter sweeps.

One :class:`LinkSimulator` run reproduces the paper's measurement procedure:
the transmitter broadcasts a payload cyclically, the simulated phone records
video for a duration, the receiver decodes the frames, and the metrics are
computed against the on-air ground truth.  :func:`sweep` runs the CSK-order
x symbol-rate grid of Figs 9-11.

Sweeps are embarrassingly parallel: every cell derives all of its
randomness from its own ``(seed, cell)`` tuple, so cells share no state.
:class:`RunSpec` makes one cell a picklable value object, and :func:`sweep`
accepts a ``runner`` — any callable mapping a spec list to the matching
result list — so :func:`repro.perf.runtime.run_specs_resilient` can run
the grid serially or on a process pool while staying bit-identical to
this serial code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.camera.devices import DeviceProfile
from repro.core.config import SystemConfig
from repro.core.metrics import LinkMetrics, align_ground_truth, compute_link_metrics
from repro.core.system import ColorBarsTransmitter, TransmissionPlan, make_receiver
from repro.exceptions import LinkError
from repro.faults.base import FaultInjector, FaultSchedule
from repro.link.channel import ChannelConditions
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.schema import (
    M_FAULTS_INJECTED,
    M_RUN_WALL_SECONDS,
    M_RUNS_COMPLETED,
    SPAN_CELL,
    SPAN_DECODE,
    SPAN_INJECT,
    SPAN_METRICS,
    SPAN_RECORD,
    SPAN_TX_PLAN,
    SPAN_WAVEFORM,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.link.workloads import text_payload
from repro.phy.waveform import EXTEND_CYCLE, OpticalWaveform
from repro.rx.receiver import ReceiverReport
from repro.util.rng import derive_rng, make_rng
from repro.util.validation import require_positive

@dataclass
class LinkResult:
    """Everything one simulated link run produced (bands: ``report.bands``)."""

    config: SystemConfig
    device_name: str
    metrics: LinkMetrics
    report: ReceiverReport
    plan: TransmissionPlan
    fault_schedule: FaultSchedule = field(default_factory=FaultSchedule)
    #: Span tuple recorded by an observed run (``RunSpec.execute(observe=
    #: True)``); measurement metadata (span durations are wall-clock),
    #: excluded from equality, ``None`` when the run was not observed.
    trace: Optional[Tuple] = field(default=None, compare=False)
    #: The observed run's local metrics export (see
    #: :meth:`repro.obs.metrics.MetricsRegistry.export`); ``None`` when the
    #: run was not observed.
    obs_metrics: Optional[Dict] = field(default=None, compare=False)

    def recovered_broadcast(self) -> Optional[bytes]:
        """The original payload, if at least one full cycle was recovered.

        The broadcast repeats, so a long enough recording yields every
        codeword at least once.  Each decoded payload is the k-byte prefix
        of its (systematic) codeword; matching prefixes identifies which
        block of the cycle it came from.  Returns ``None`` unless every
        block of the cycle was decoded at least once.
        """
        index_of_prefix = {
            bytes(codeword[: self._k()]): i
            for i, codeword in enumerate(self.plan.codewords)
        }
        recovered: Dict[int, bytes] = {}
        for payload in self.report.payloads:
            index = index_of_prefix.get(bytes(payload))
            if index is not None:
                recovered.setdefault(index, payload)
        if len(recovered) < len(self.plan.codewords):
            return None
        joined = b"".join(recovered[i] for i in range(len(self.plan.codewords)))
        return joined[: len(self.plan.payload)]

    def _k(self) -> int:
        """Payload bytes per codeword in this run's plan.

        Derived from the RS dimensioning: decoded payloads may be absent,
        and a codeword is n bytes (payload plus parity), not k — falling
        back to the codeword length would build the prefix map with the
        wrong slice.  Hand-built results without a config (unit fixtures)
        fall back to a decoded payload's length, which is k by definition.
        """
        if self.config is not None:
            return self.config.rs_params().k
        if self.report.payloads:
            return len(self.report.payloads[0])
        return 0


class LinkSimulator:
    """Reproducible transmitter-camera-receiver runs for one device."""

    def __init__(
        self,
        config: SystemConfig,
        device: DeviceProfile,
        channel: Optional[ChannelConditions] = None,
        simulated_columns: int = 48,
        seed=0,
        faults: Optional[Sequence[FaultInjector]] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.config = config
        self.device = device
        self.channel = channel if channel is not None else ChannelConditions.paper_setup()
        self.simulated_columns = simulated_columns
        self.seed = seed
        #: Fault injectors applied, in order, to each recording before the
        #: receiver sees it (see :mod:`repro.faults`).
        self.faults = tuple(faults or ())
        #: Injected observability (see :mod:`repro.obs`): span durations are
        #: the stage timings, and the no-op defaults keep the hot path clean.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def run(
        self,
        payload: Optional[bytes] = None,
        duration_s: float = 2.0,
    ) -> LinkResult:
        """Broadcast ``payload`` cyclically and record for ``duration_s``."""
        with self.tracer.span(
            SPAN_CELL,
            device=self.device.name,
            order=self.config.csk_order,
            rate=float(self.config.symbol_rate),
            seed=str(self.seed),
        ) as cell:
            plan, waveform, frames, schedule, true_starts = self._record(
                payload, duration_s
            )
            receiver = make_receiver(
                self.config,
                self.device.timing,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            with self.tracer.span(SPAN_DECODE):
                report = receiver.process_frames(frames)
            with self.tracer.span(SPAN_METRICS):
                start_offsets = {
                    frame.index: frame.start_time - true_starts[frame.index]
                    for frame in frames
                    if frame.start_time != true_starts[frame.index]
                }
                alignment = align_ground_truth(
                    report.bands,
                    plan.symbols,
                    waveform,
                    start_offsets=start_offsets,
                )
                metrics = compute_link_metrics(
                    report=report,
                    alignment=alignment,
                    bits_per_symbol=self.config.bits_per_symbol,
                    payload_bytes_per_packet=self.config.rs_params().k,
                    duration_s=duration_s,
                )
        self.metrics.counter(M_RUNS_COMPLETED).inc()
        self.metrics.counter(M_FAULTS_INJECTED).inc(len(schedule))
        if self.tracer.enabled:
            self.metrics.histogram(M_RUN_WALL_SECONDS).observe(cell.duration_s)
        return LinkResult(
            config=self.config,
            device_name=self.device.name,
            metrics=metrics,
            report=report,
            plan=plan,
            fault_schedule=schedule,
        )

    def record_session(
        self,
        payload: Optional[bytes] = None,
        duration_s: float = 2.0,
    ) -> Tuple[TransmissionPlan, list, FaultSchedule]:
        """The frame-producing front half of :meth:`run`, without decoding.

        Builds the broadcast plan, records the camera, and applies the
        configured fault injectors — exactly as :meth:`run` does, with the
        same seed derivations — but hands back ``(plan, frames, schedule)``
        instead of decoding.  This is how streaming clients (the session
        service, live examples) obtain a recording to feed a
        :class:`~repro.rx.streaming.StreamingReceiver` frame by frame.
        """
        plan, _, frames, schedule, _ = self._record(payload, duration_s)
        return plan, frames, schedule

    def _record(
        self, payload: Optional[bytes], duration_s: float
    ) -> Tuple[TransmissionPlan, OpticalWaveform, list, FaultSchedule, Dict]:
        """Plan, record and fault-inject one broadcast, each in its span.

        Also returns each recorded frame's true ``start_time`` by frame
        index, taken before the injectors run: a timing fault moves only a
        frame's claimed clock, and scoring needs the one that was on air.
        """
        require_positive(duration_s, "duration_s")
        if payload is None:
            payload = text_payload(3 * self.config.rs_params().k, seed=self.seed)
        with self.tracer.span(SPAN_TX_PLAN) as span:
            transmitter = ColorBarsTransmitter(self.config)
            plan = transmitter.plan(payload)
            with self.tracer.span(SPAN_WAVEFORM) as wave_span:
                waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
                wave_span.set("symbols", waveform.num_symbols)
            span.set("symbols", len(plan.symbols))
            span.set("codewords", len(plan.codewords))
        profile = DeviceProfile(
            name=self.device.name,
            timing=self.device.timing,
            response=self.device.response,
            noise=self.device.noise,
            optics=self.channel.make_optics(),
        )
        camera = profile.make_camera(
            simulated_columns=self.simulated_columns, seed=self.seed
        )
        with self.tracer.span(SPAN_RECORD) as span:
            frames = camera.record(
                waveform,
                duration=duration_s,
                tracer=self.tracer,
                metrics=self.metrics,
            )
            span.set("frames", len(frames))
        if not frames:
            raise LinkError(
                f"duration {duration_s}s too short for one frame at "
                f"{profile.timing.frame_rate} fps"
            )
        true_starts = {frame.index: frame.start_time for frame in frames}
        with self.tracer.span(SPAN_INJECT) as span:
            frames, schedule = self._inject_faults(frames)
            for key, value in schedule.span_attributes().items():
                span.set(key, value)
        return plan, waveform, frames, schedule, true_starts

    def _inject_faults(self, frames) -> tuple:
        """Run every configured injector over the recording, in order.

        Each injector gets a generator derived from the run seed and its
        position+name label, so fault randomness is reproducible, independent
        of the camera's, and — crucially — independent of the injector's
        intensity (common random numbers across a sweep).
        """
        schedule = FaultSchedule()
        if not self.faults:
            return frames, schedule
        fault_root = derive_rng(make_rng(self.seed), "faults")
        for index, injector in enumerate(self.faults):
            rng = derive_rng(fault_root, f"fault:{index}:{injector.name}")
            frames = injector.inject(frames, rng, schedule)
        return frames, schedule


@dataclass(frozen=True)
class RunSpec:
    """One link run as a picklable value: everything a cell needs, no state.

    Cells built from specs are independent by construction — every stochastic
    component derives from ``seed`` — which is the determinism argument that
    lets :func:`repro.perf.runtime.run_specs_resilient` run specs on the
    process pool (:mod:`repro.perf.pool`) and still produce
    byte-identical results to a serial loop.
    """

    config: SystemConfig
    device: DeviceProfile
    channel: Optional[ChannelConditions] = None
    simulated_columns: int = 48
    seed: int = 0
    faults: Tuple[FaultInjector, ...] = ()
    payload: Optional[bytes] = None
    duration_s: float = 2.0

    def execute(self, observe: bool = False) -> LinkResult:
        """Run this cell.

        ``observe=True`` records the run into a cell-local tracer and
        metrics registry and attaches both to the result (``trace``,
        ``obs_metrics``) — the worker-side half of sweep trace collection.
        Observation is a parameter here, *not* a spec field: specs stay
        pure value objects so :func:`repro.perf.runtime.spec_fingerprint`
        is unaffected by how a run is observed.
        """
        tracer = Tracer() if observe else None
        registry = MetricsRegistry() if observe else None
        simulator = LinkSimulator(
            self.config,
            self.device,
            channel=self.channel,
            simulated_columns=self.simulated_columns,
            seed=self.seed,
            faults=self.faults,
            tracer=tracer,
            metrics=registry,
        )
        result = simulator.run(payload=self.payload, duration_s=self.duration_s)
        if observe:
            result.trace = tracer.spans()
            result.obs_metrics = registry.export()
        return result


#: A runner executes specs and returns results in the same order.  The
#: default (``None``) is an in-process serial loop.
Runner = Callable[[Sequence[RunSpec]], List[LinkResult]]


def execute_specs(
    specs: Sequence[RunSpec], runner: Optional[Runner] = None
) -> List[LinkResult]:
    """Run ``specs`` through ``runner`` (or serially), preserving order."""
    if runner is not None:
        return list(runner(specs))
    return [spec.execute() for spec in specs]


def sweep_specs(
    device: DeviceProfile,
    orders: Sequence[int] = (4, 8, 16, 32),
    symbol_rates: Sequence[float] = (1000.0, 2000.0, 3000.0, 4000.0),
    duration_s: float = 2.0,
    seed=0,
    config_overrides: Optional[Callable[[SystemConfig], SystemConfig]] = None,
    **config_kwargs,
) -> Dict[Tuple[int, float], RunSpec]:
    """The feasible cells of the Figs 9-11 grid, as specs, in grid order."""
    specs: Dict[Tuple[int, float], RunSpec] = {}
    for order in orders:
        for rate in symbol_rates:
            if device.timing.rows_per_symbol(rate) < 10:
                continue
            config = SystemConfig(
                csk_order=order,
                symbol_rate=rate,
                design_loss_ratio=device.timing.gap_fraction,
                frame_rate=device.timing.frame_rate,
                **config_kwargs,
            )
            if config_overrides is not None:
                config = config_overrides(config)
            specs[(order, rate)] = RunSpec(
                config=config, device=device, seed=seed, duration_s=duration_s
            )
    return specs


def sweep(
    device: DeviceProfile,
    orders: Sequence[int] = (4, 8, 16, 32),
    symbol_rates: Sequence[float] = (1000.0, 2000.0, 3000.0, 4000.0),
    duration_s: float = 2.0,
    seed=0,
    config_overrides: Optional[Callable[[SystemConfig], SystemConfig]] = None,
    runner: Optional[Runner] = None,
    **config_kwargs,
) -> Dict[Tuple[int, float], LinkResult]:
    """The Figs 9-11 grid: CSK order x symbol rate for one device.

    Returns ``{(order, rate): LinkResult}``.  Combinations whose band width
    falls below the 10-row minimum for the device are skipped (the paper's
    §4 feasibility constraint), mirroring what a real deployment must do.

    ``runner`` executes the grid's cells (e.g. over a process pool via
    :func:`repro.perf.executor.make_runner`); the default runs serially.
    """
    specs = sweep_specs(
        device,
        orders=orders,
        symbol_rates=symbol_rates,
        duration_s=duration_s,
        seed=seed,
        config_overrides=config_overrides,
        **config_kwargs,
    )
    results = execute_specs(list(specs.values()), runner=runner)
    return dict(zip(specs.keys(), results))
