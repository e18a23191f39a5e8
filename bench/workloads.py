"""The benchmark's four workloads, driven only through public entry points.

Each workload has a ``setup(seed)`` that builds its inputs and warms the
process, and a ``rep(state, index)`` that runs one pass over an input set
and checks the outputs.  A rep's inputs are a pure function of the seed and
the rep index, so the same seed gives the same inputs and the same
``digest``.

* ``grid-serial`` / ``grid-pool`` — the paper's CSK-order x symbol-rate grid
  (Figs 9-11) on the Nexus 5 preset, through ``run_specs_resilient``
  in-process or on the two-worker ``pool`` backend.  Each rep is one sweep
  with its own cell seeds, so the per-process plan cache never turns a
  later rep into a cheaper one.
* ``serve-live`` — phones streaming 30-fps video into a ``SessionManager``
  as it arrives: an open loop at two pinned offered loads, then a closed
  flood for the peak frame rate.  Camera work sits in set-up.
* ``serve-churn`` — the 200-session chaos soak (``run_soak``) on its
  virtual clock: uncalibrated sessions, fault injection, admission,
  quarantine and idle eviction.
"""

from __future__ import annotations

import copy
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.camera.devices import iphone_5s, nexus_5
from repro.core.config import SystemConfig
from repro.core.system import make_receiver
from repro.link.simulator import LinkSimulator, RunSpec, sweep_specs
from repro.rx.streaming import StreamingReceiver
from repro.serve.manager import SessionManager
from repro.serve.session import STATE_CLOSED
from repro.serve.soak import ROLE_POISON, SoakSpec

# ``runtime.run_specs_resilient`` and ``soak.run_soak`` are looked up on their
# modules at call time so the traced pass can time them.
from repro.perf import runtime
from repro.serve import soak


def rep_seed(seed: int, index: int) -> int:
    """Cell/soak seed of rep ``index`` (indices stay below 1000)."""
    return seed * 1000 + index


def _digest(parts: Sequence) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _report_parts(report) -> tuple:
    """A receiver report's outputs for the digest: counters, every band's
    symbol decision, and the decoded payloads."""
    return (
        report.packets_decoded,
        report.packets_failed_fec,
        report.packets_seen,
        report.calibration_updates,
        report.frames_processed,
        report.symbols_detected,
        report.symbols_lost_in_gaps,
        "".join(band.to_char() for band in report.bands),
        *report.payloads,
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


@dataclass
class Rep:
    """What one pass over a workload's input set did."""

    wall_s: float
    ops: int
    failed: int
    digest: str
    packets_decoded: int
    #: Correctness violations found in the outputs (empty when correct).
    errors: List[str] = field(default_factory=list)
    #: Workload-specific numbers (latency samples, flood rate, ...).
    extra: Dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Ops per second of this rep."""
        return self.ops / self.wall_s


def _per_pass_end_to_end(reps: Sequence[Rep]) -> Dict[str, tuple]:
    """Closed-loop passes: ops per second, and the pass itself as latency."""
    rates = [rep.throughput for rep in reps]
    walls = [rep.wall_s * 1e3 for rep in reps]
    return {
        "throughput_per_s": (statistics.median(rates), rates),
        "latency_ms_p50": (statistics.median(walls), walls),
    }


def _self_s(tracer, layer: str) -> float:
    return tracer.layer(layer)["self_s"]


# -- the sweep grid ----------------------------------------------------------

#: Share of decoded grid payloads allowed to match no transmitted codeword.
#: The packet format has no CRC, so Reed-Solomon occasionally "corrects" a
#: badly damaged packet into a different codeword: about 0.3% of decoded
#: packets on this grid, at most one per sweep, mostly 16/32-CSK at 2 kHz.
#: A broken decoder produces far more.
MISCORRECTION_TOLERANCE = 0.02


@dataclass(frozen=True)
class GridSize:
    orders: tuple = (4, 8, 16, 32)
    rates: tuple = (1000.0, 2000.0, 3000.0, 4000.0)
    duration_s: float = 0.5


class GridWorkload:
    """One Figs 9-11 sweep per rep through ``run_specs_resilient``."""

    #: Traced reps use cell seeds no untraced rep used, so most of their
    #: cells miss the serial path's plan cache and the transmitter layer
    #: shows in the trace.
    trace_index = 500

    def __init__(self, size: GridSize, nominal_rep_s: float, **run_kwargs) -> None:
        self.size = size
        #: Seconds one rep takes on the reference host (sizes a run).
        self.nominal_rep_s = nominal_rep_s
        self.run_kwargs = run_kwargs
        #: Cell-running lanes: 1 in-process, else the pool width.
        self.lanes = run_kwargs.get("workers", 1)

    def specs(self, seed: int) -> List[RunSpec]:
        size = self.size
        cells = sweep_specs(
            nexus_5(),
            orders=size.orders,
            symbol_rates=size.rates,
            duration_s=size.duration_s,
            seed=seed,
        )
        if len(cells) != len(size.orders) * len(size.rates):
            raise ValueError("a grid cell is infeasible on the Nexus 5 preset")
        return list(cells.values())

    def setup(self, seed: int) -> int:
        warm = self.specs(rep_seed(seed, 999))[:1]
        outcome = runtime.run_specs_resilient(warm, workers=1)
        if outcome.failures:
            raise RuntimeError(f"warm-up cell failed: {outcome.failure_summary()}")
        return seed

    def rep(self, seed: int, index: int) -> Rep:
        specs = self.specs(rep_seed(seed, index))
        start = time.perf_counter()
        outcome = runtime.run_specs_resilient(specs, **self.run_kwargs)
        wall = time.perf_counter() - start
        errors = [f"cell {f.index} failed: {f.cause} {f.message}" for f in outcome.failures]
        parts: list = []
        decoded = seen = miscorrected = 0
        fec_reasons: Dict[str, int] = {}
        for spec, result in zip(specs, outcome.results):
            parts.append((spec.config.csk_order, spec.config.symbol_rate))
            if result is None:
                continue
            report = result.report
            k = spec.config.rs_params().k
            prefixes = {bytes(codeword[:k]) for codeword in result.plan.codewords}
            miscorrected += sum(bytes(p) not in prefixes for p in report.payloads)
            parts.extend(_report_parts(report))
            decoded += report.packets_decoded
            seen += report.packets_seen
            for reason, count in report.fec_failures_by_reason().items():
                fec_reasons[reason] = fec_reasons.get(reason, 0) + count
        if miscorrected > max(2, MISCORRECTION_TOLERANCE * decoded):
            errors.append(
                f"{miscorrected} of {decoded} decoded payloads match no codeword"
            )
        return Rep(
            wall_s=wall,
            ops=len(specs),
            failed=len(outcome.failures),
            digest=_digest(parts),
            packets_decoded=decoded,
            errors=errors,
            extra={
                "fec_failures": fec_reasons,
                "fec_miscorrected": miscorrected,
                "packets_seen": seen,
            },
        )

    def end_to_end(self, reps: Sequence[Rep]) -> Dict[str, tuple]:
        return _per_pass_end_to_end(reps)

    def diagnostics(self, reps: Sequence[Rep]) -> Dict:
        first = reps[0]
        return {
            "packets_seen": first.extra["packets_seen"],
            "fec_failures": first.extra["fec_failures"],
            "fec.miscorrected": sum(rep.extra["fec_miscorrected"] for rep in reps),
        }

    def trace_diagnostics(self, tracer, rep: Rep) -> Dict:
        """Sweep-runtime overhead and the rx attribution check."""
        sweep = tracer.layer("perf.runtime")["total_s"]
        cells = tracer.layer("link")["total_s"]
        process_frames = tracer.layer("rx.receiver")["total_s"]
        attributed = sum(
            _self_s(tracer, layer)
            for layer in (
                "rx.preprocess", "rx.segment", "rx.detect", "csk.calibration",
                "rx.assemble", "fec", "rx.receiver",
            )
        )
        return {
            "perf.overhead_s": sweep - cells,
            "perf.lane_busy_frac": cells / (self.lanes * sweep),
            "link.self_s": _self_s(tracer, "link"),
            "metrics.score_s": _self_s(tracer, "metrics"),
            "rx.attributed_share": attributed / process_frames,
            "fec_failures": rep.extra["fec_failures"],
        }


# -- live serving ------------------------------------------------------------


@dataclass(frozen=True)
class LiveSize:
    #: Distinct pre-recorded streams; sessions replay them in rotation.
    recordings: int = 2
    recording_s: float = 2.0
    #: Offered loads as concurrent 30-fps sessions: (name, sessions).
    loads: tuple = (("s3", 3), ("s6", 6))
    #: Closed-loop flood: waves of concurrent sessions, one after another.
    flood_sessions: int = 8
    flood_waves: int = 2


@dataclass
class LiveState:
    config: SystemConfig
    device: object
    table: object
    recordings: List[list]
    references: Optional[List[List[bytes]]] = None


class LiveWorkload:
    """Open-loop 30-fps streaming at pinned loads, then a closed flood."""

    trace_index = 0
    lanes = 1
    nominal_rep_s = 7.0
    fps = 30.0
    columns = 32

    def __init__(self, size: LiveSize) -> None:
        self.size = size

    def setup(self, seed: int) -> LiveState:
        device = iphone_5s()
        config = SystemConfig(
            csk_order=16,
            symbol_rate=3000.0,
            design_loss_ratio=device.timing.gap_fraction,
            frame_rate=device.timing.frame_rate,
        )
        recordings = []
        for index in range(self.size.recordings):
            simulator = LinkSimulator(
                config,
                device,
                simulated_columns=self.columns,
                seed=rep_seed(seed, index),
            )
            _, frames, _ = simulator.record_session(duration_s=self.size.recording_s)
            recordings.append(frames)
        bootstrap = make_receiver(config, device.timing)
        bootstrap.process_frames(recordings[0])
        if not bootstrap.calibration.is_calibrated:
            raise RuntimeError("bootstrap recording calibrated no table")
        state = LiveState(config, device, bootstrap.calibration, recordings)
        warm = self._streaming(state)
        for frame in recordings[0][:4]:
            warm.feed(frame)
        return state

    def _streaming(self, state: LiveState) -> StreamingReceiver:
        receiver = make_receiver(
            state.config,
            state.device.timing,
            calibration=copy.deepcopy(state.table),
        )
        return StreamingReceiver(receiver)

    def _references(self, state: LiveState) -> List[List[bytes]]:
        """Batch decode of each recording with the same table (untimed)."""
        if state.references is None:
            state.references = [
                make_receiver(
                    state.config,
                    state.device.timing,
                    calibration=copy.deepcopy(state.table),
                )
                .process_frames(frames)
                .payloads
                for frames in state.recordings
            ]
        return state.references

    def rep(self, state: LiveState, index: int) -> Rep:
        del index  # every rep replays the same recordings
        manager = SessionManager(lambda session_id: self._streaming(state))
        closed: List[tuple] = []
        extra: Dict = {}
        start = time.perf_counter()
        frames_fed = 0
        for load, slots in self.size.loads:
            latencies, late = self._paced(state, manager, load, slots, closed)
            extra[f"latency_ms.{load}"] = latencies
            extra[f"late_ms.{load}"] = late
            frames_fed += len(latencies)
        flood_frames, flood_s = self._flood(state, manager, closed)
        wall = time.perf_counter() - start
        extra["flood_fps"] = flood_frames / flood_s
        frames_fed += flood_frames

        references = self._references(state)
        errors: List[str] = []
        parts: list = []
        decoded = seen = bands_max = dropped = 0
        for session_id, recording in closed:
            session = manager.sessions[session_id]
            report = session.report
            if session.state != STATE_CLOSED:
                errors.append(f"{session_id} ended {session.state}")
            if session.payloads() != references[recording]:
                errors.append(f"{session_id}: streaming payloads differ from batch")
            parts.append((session_id, recording))
            parts.extend(_report_parts(report))
            decoded += report.packets_decoded
            seen += report.packets_seen
            bands_max = max(bands_max, len(report.bands))
            dropped += session.frames_dropped
        for failure in manager.failures:
            errors.append(f"quarantined {failure.session_id}: {failure.describe()}")
        extra["packets_seen"] = seen
        extra["report_bands_max"] = bands_max
        extra["frames_dropped"] = dropped
        extra["peak_queue_depth"] = manager.peak_queue_depth
        return Rep(
            wall_s=wall,
            ops=frames_fed,
            failed=dropped + len(manager.failures),
            digest=_digest(parts),
            packets_decoded=decoded,
            errors=errors,
            extra=extra,
        )

    def end_to_end(self, reps: Sequence[Rep]) -> Dict[str, tuple]:
        """Flood frame rate, and frame latency at the lighter offered load."""
        load = self.size.loads[0][0]
        floods = [rep.extra["flood_fps"] for rep in reps]
        pooled = [ms for rep in reps for ms in rep.extra[f"latency_ms.{load}"]]
        per_rep = [percentile(rep.extra[f"latency_ms.{load}"], 50) for rep in reps]
        return {
            "throughput_per_s": (statistics.median(floods), floods),
            "latency_ms_p50": (percentile(pooled, 50), per_rep),
        }

    def diagnostics(self, reps: Sequence[Rep]) -> Dict:
        out: Dict = {}
        for load, _ in self.size.loads:
            latencies = [ms for rep in reps for ms in rep.extra[f"latency_ms.{load}"]]
            late = [ms for rep in reps for ms in rep.extra[f"late_ms.{load}"]]
            out[f"feed_ms_p50.{load}"] = percentile(latencies, 50)
            out[f"feed_ms_p99.{load}"] = percentile(latencies, 99)
            out[f"feed_samples.{load}"] = len(latencies)
            out[f"loadgen.late_ms_p99.{load}"] = percentile(late, 99)
        first = reps[0]
        out["flood_fps"] = [rep.extra["flood_fps"] for rep in reps]
        out["packets_seen"] = first.extra["packets_seen"]
        out["rx.report_bands_max"] = first.extra["report_bands_max"]
        out["serve.frames_dropped"] = sum(rep.extra["frames_dropped"] for rep in reps)
        out["serve.peak_queue_depth"] = max(rep.extra["peak_queue_depth"] for rep in reps)
        return out

    def trace_diagnostics(self, tracer, rep: Rep) -> Dict:
        return {
            "serve.self_s": _self_s(tracer, "serve"),
            "rx.streaming_self_s": _self_s(tracer, "rx.streaming"),
            "rx.report_bands_max": rep.extra["report_bands_max"],
        }

    def _paced(self, state, manager, load: str, slots: int, closed: list):
        """One open-loop phase: ``slots`` concurrent 30-fps streams.

        Slot ``k`` plays one recording, its frames due every 1/30 s from a
        phase offset of ``k / (30 * slots)``.  Latency runs from a frame's
        due time to the end of the pump that fed it, so a stall counts
        against every frame queued behind it.
        """
        recordings = state.recordings
        period = 1.0 / self.fps
        schedule = []
        for slot in range(slots):
            recording = slot % len(recordings)
            session_id = f"{load}-{slot}"
            for frame_index in range(len(recordings[recording])):
                due = slot * period / slots + frame_index * period
                schedule.append((due, session_id, recording, frame_index))
        schedule.sort()
        latencies: List[float] = []
        late: List[float] = []
        origin = time.perf_counter() + period
        for due, session_id, recording, frame_index in schedule:
            due_at = origin + due
            now = time.perf_counter()
            if now < due_at:
                time.sleep(due_at - now)
            started = time.perf_counter()
            if frame_index == 0:
                manager.open_session(session_id)
            frames = recordings[recording]
            manager.submit_frame(session_id, frames[frame_index])
            manager.pump()
            if frame_index == len(frames) - 1:
                manager.close_session(session_id)
                closed.append((session_id, recording))
            finished = time.perf_counter()
            latencies.append((finished - due_at) * 1e3)
            late.append(max(0.0, started - due_at) * 1e3)
        return latencies, late

    def _flood(self, state, manager, closed: list):
        """Closed loop: every session submits its next frame, then one pump."""
        recordings = state.recordings
        size = self.size
        fed = 0
        start = time.perf_counter()
        for wave in range(size.flood_waves):
            sessions = [
                (f"flood-{wave}-{n}", (wave + n) % len(recordings))
                for n in range(size.flood_sessions)
            ]
            for session_id, _ in sessions:
                manager.open_session(session_id)
            longest = max(len(frames) for frames in recordings)
            for frame_index in range(longest):
                for session_id, recording in sessions:
                    frames = recordings[recording]
                    if frame_index < len(frames):
                        manager.submit_frame(session_id, frames[frame_index])
                        fed += 1
                manager.pump()
            for session_id, recording in sessions:
                manager.close_session(session_id)
                closed.append((session_id, recording))
        return fed, time.perf_counter() - start


# -- session churn -----------------------------------------------------------


@dataclass(frozen=True)
class ChurnSize:
    sessions: int = 200
    distinct_recordings: int = 6
    warm_sessions: int = 8


class ChurnWorkload:
    """The deterministic chaos soak, one full soak per rep."""

    trace_index = 0
    lanes = 1
    nominal_rep_s = 6.5

    def __init__(self, size: ChurnSize) -> None:
        self.size = size

    def spec(self, seed: int, sessions: int, recordings: int) -> SoakSpec:
        return SoakSpec(
            sessions=sessions,
            seed=seed,
            distinct_recordings=recordings,
            chaos_fraction=0.2,
            poison_fraction=0.05,
            stall_fraction=0.05,
        )

    def setup(self, seed: int) -> int:
        soak.run_soak(self.spec(rep_seed(seed, 999), self.size.warm_sessions, 1))
        return seed

    def rep(self, seed: int, index: int) -> Rep:
        spec = self.spec(
            rep_seed(seed, index), self.size.sessions, self.size.distinct_recordings
        )
        start = time.perf_counter()
        report = soak.run_soak(spec)
        wall = time.perf_counter() - start
        poison = sorted(o.session_id for o in report.outcomes if o.role == ROLE_POISON)
        quarantined = sorted(o.session_id for o in report.quarantined)
        errors: List[str] = []
        unexpected = sorted(set(quarantined) - set(poison))
        if quarantined != poison:
            errors.append(
                f"quarantined {len(quarantined)} session(s), expected the "
                f"{len(poison)} poison one(s); unexpected: {unexpected[:5]}"
            )
        if report.rejected:
            errors.append(f"{len(report.rejected)} session(s) rejected at admission")
        parts: list = []
        for outcome in report.outcomes:
            parts.append(
                (
                    outcome.session_id,
                    outcome.role,
                    outcome.state,
                    outcome.frames_submitted,
                    outcome.frames_dropped,
                )
            )
            parts.extend(outcome.payloads)
        parts.extend(failure.describe() for failure in report.failures)
        return Rep(
            wall_s=wall,
            ops=spec.sessions,
            failed=len(unexpected) + len(report.rejected),
            digest=_digest(parts),
            packets_decoded=sum(len(o.payloads) for o in report.outcomes),
            errors=errors,
            extra={
                "frames_fed_per_s": sum(o.frames_submitted for o in report.outcomes) / wall,
                "quarantined": len(quarantined),
                "evicted": len(report.evicted),
                "peak_queue_depth": report.peak_queue_depth,
            },
        )

    def end_to_end(self, reps: Sequence[Rep]) -> Dict[str, tuple]:
        return _per_pass_end_to_end(reps)

    def diagnostics(self, reps: Sequence[Rep]) -> Dict:
        first = reps[0]
        return {
            "frames_fed_per_s": statistics.median(
                rep.extra["frames_fed_per_s"] for rep in reps
            ),
            "serve.quarantined": first.extra["quarantined"],
            "serve.evicted": first.extra["evicted"],
            "serve.peak_queue_depth": first.extra["peak_queue_depth"],
        }

    def trace_diagnostics(self, tracer, rep: Rep) -> Dict:
        return {
            "faults.inject_s": _self_s(tracer, "faults"),
            "serve.self_s": _self_s(tracer, "serve"),
            "serve.soak_self_s": _self_s(tracer, "serve.soak"),
            "rx.streaming_self_s": _self_s(tracer, "rx.streaming"),
            "serve.quarantined": rep.extra["quarantined"],
        }


def make_workloads(smoke: bool = False) -> Dict[str, object]:
    """Name -> workload; ``smoke`` shrinks every input for self-tests."""
    if smoke:
        grid = GridSize(orders=(4, 8), rates=(1000.0, 2000.0), duration_s=0.2)
        live = LiveSize(
            recordings=1, recording_s=0.5, loads=(("s3", 1), ("s6", 2)),
            flood_sessions=2, flood_waves=1,
        )
        churn = ChurnSize(sessions=12, distinct_recordings=2, warm_sessions=2)
    else:
        grid, live, churn = GridSize(), LiveSize(), ChurnSize()
    return {
        "grid-serial": GridWorkload(grid, 4.5, workers=1),
        "grid-pool": GridWorkload(grid, 3.0, workers=2, backend="pool"),
        "serve-live": LiveWorkload(live),
        "serve-churn": ChurnWorkload(churn),
    }
