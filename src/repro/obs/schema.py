"""The single source of truth for every span and metric name.

Everything the observability layer can emit is declared here — span names
with their emitting module and nesting position, and metric names with
their instrument type and unit.  :class:`repro.obs.metrics.MetricsRegistry`
validates every instrument request against this catalog, and
``colorbars trace --schema`` renders :func:`render_reference` as
``docs/METRICS.md``, so the committed reference physically cannot drift
from the code: CI regenerates and diffs it.

Grow the catalog by adding entries (and regenerating the doc); never
rename an existing name in place — downstream dashboards key on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Version of the exported metrics payload; bump when the shape changes.
METRICS_SCHEMA_VERSION = 1

#: Version of the JSONL trace record; bump when the record shape changes.
TRACE_SCHEMA_VERSION = 1

#: Instrument kinds a metric may declare.
KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"

# -- span names ------------------------------------------------------------

SPAN_SWEEP = "sweep"
SPAN_CELL = "cell"
SPAN_TX_PLAN = "tx-plan"
SPAN_WAVEFORM = "waveform"
SPAN_RECORD = "record"
SPAN_CAPTURE = "capture"
SPAN_INJECT = "inject"
SPAN_DECODE = "decode"
SPAN_SEGMENT = "segment"
SPAN_CALIBRATE = "calibrate"
SPAN_DEMOD = "demod"
SPAN_ASSEMBLE = "assemble"
SPAN_FEC = "fec"
SPAN_METRICS = "metrics"
SPAN_SERVE_PUMP = "serve-pump"
SPAN_SERVE_CLOSE = "serve-close"
SPAN_ADAPT_SEGMENT = "adapt-segment"
SPAN_ADAPT_DECISION = "adapt-decision"

# -- metric names ----------------------------------------------------------

M_RUNS_COMPLETED = "colorbars.runs.completed"
M_FAULTS_INJECTED = "colorbars.faults.injected"
M_FRAMES_RECORDED = "colorbars.frames.recorded"
M_FRAMES_FAILED = "colorbars.frames.failed"
M_SYMBOLS_DETECTED = "colorbars.symbols.detected"
M_SYMBOLS_LOST = "colorbars.symbols.lost_in_gaps"
M_PACKETS_SEEN = "colorbars.packets.seen"
M_PACKETS_DECODED = "colorbars.packets.decoded"
M_PACKETS_FAILED_FEC = "colorbars.packets.failed_fec"
M_CALIBRATION_UPDATES = "colorbars.calibration.updates"
M_CALIBRATION_REJECTED = "colorbars.calibration.rejected"
M_CELLS_COMPLETED = "colorbars.cells.completed"
M_CELLS_FAILED = "colorbars.cells.failed"
M_CELLS_RETRIED = "colorbars.cells.retried"
M_CELLS_RESUMED = "colorbars.cells.resumed"
M_SWEEP_WORKERS = "colorbars.sweep.workers"
M_RUN_WALL_SECONDS = "colorbars.run.wall_seconds"
M_FRAME_BANDS = "colorbars.frame.bands"
M_PACKET_ERASURES = "colorbars.packet.erasures"
M_SESSIONS_ADMITTED = "colorbars.sessions.admitted"
M_SESSIONS_REJECTED = "colorbars.sessions.rejected"
M_SESSIONS_EVICTED = "colorbars.sessions.evicted"
M_SESSIONS_QUARANTINED = "colorbars.sessions.quarantined"
M_SESSIONS_CLOSED = "colorbars.sessions.closed"
M_SESSIONS_ACTIVE = "colorbars.sessions.active"
M_SESSION_FRAMES_DROPPED = "colorbars.sessions.frames_dropped"
M_SESSION_QUEUE_PEAK = "colorbars.sessions.queue_peak"
M_ADAPT_DECISIONS = "colorbars.adapt.decisions"
M_ADAPT_UPSHIFTS = "colorbars.adapt.upshifts"
M_ADAPT_DOWNSHIFTS = "colorbars.adapt.downshifts"
M_ADAPT_RUNG = "colorbars.adapt.rung"
M_ADAPT_MARGIN = "colorbars.adapt.margin_delta_e"
M_ADAPT_QUARANTINES_AVERTED = "colorbars.adapt.quarantines_averted"


@dataclass(frozen=True)
class SpanEntry:
    """One span name in the catalog: where it nests and who emits it."""

    name: str
    parent: str
    module: str
    description: str


@dataclass(frozen=True)
class MetricEntry:
    """One metric name in the catalog: instrument kind, unit, emitter."""

    name: str
    kind: str
    unit: str
    module: str
    description: str


#: Every span the pipeline can emit, in nesting/appearance order.
SPANS: Tuple[SpanEntry, ...] = (
    SpanEntry(
        SPAN_SWEEP, "(root)", "repro.obs.trace",
        "One assembled sweep trace; every per-cell trace is re-parented "
        "under it in spec order (a `colorbars run` is a one-cell sweep).",
    ),
    SpanEntry(
        SPAN_CELL, SPAN_SWEEP, "repro.link.simulator",
        "One end-to-end link run (one sweep cell): device, CSK order, "
        "symbol rate, seed, cell index, and attempt number as attributes.",
    ),
    SpanEntry(
        SPAN_TX_PLAN, SPAN_CELL, "repro.link.simulator",
        "Transmitter plan construction (RS encode, packetize, modulate); "
        "each cell builds its own.",
    ),
    SpanEntry(
        SPAN_WAVEFORM, SPAN_TX_PLAN, "repro.link.simulator",
        "Optical waveform synthesis of the planned broadcast cycle; one "
        "under every `tx-plan`.",
    ),
    SpanEntry(
        SPAN_RECORD, SPAN_CELL, "repro.link.simulator",
        "The full camera recording: every captured frame nests below.",
    ),
    SpanEntry(
        SPAN_CAPTURE, SPAN_RECORD, "repro.camera.sensor",
        "One rolling-shutter frame exposure+readout; `frame` attribute "
        "is the frame index.",
    ),
    SpanEntry(
        SPAN_INJECT, SPAN_CELL, "repro.link.simulator",
        "Fault injection over the recording; fault-schedule counts as "
        "attributes.",
    ),
    SpanEntry(
        SPAN_DECODE, SPAN_CELL, "repro.link.simulator",
        "The complete receive chain over the recording.",
    ),
    SpanEntry(
        SPAN_SEGMENT, SPAN_DECODE, "repro.rx.receiver",
        "One frame through preprocess -> segment (calibration-independent "
        "front half); `frame` attribute is the frame index.",
    ),
    SpanEntry(
        SPAN_CALIBRATE, SPAN_DECODE, "repro.rx.receiver",
        "Bootstrap calibration pass (present only when the receiver "
        "starts uncalibrated).",
    ),
    SpanEntry(
        SPAN_DEMOD, SPAN_DECODE, "repro.rx.receiver",
        "Calibrated symbol classification over every segmented frame.",
    ),
    SpanEntry(
        SPAN_ASSEMBLE, SPAN_DECODE, "repro.rx.receiver",
        "Cross-frame stitching and packet extraction.",
    ),
    SpanEntry(
        SPAN_FEC, SPAN_DECODE, "repro.rx.receiver",
        "Reed-Solomon decode of every seen packet; decoded/failed counts "
        "as attributes.",
    ),
    SpanEntry(
        SPAN_METRICS, SPAN_CELL, "repro.link.simulator",
        "Ground-truth alignment and link-metric computation.",
    ),
    SpanEntry(
        SPAN_SERVE_PUMP, "(root)", "repro.serve.manager",
        "One SessionManager pump pass: queued frames fed to their "
        "streaming receivers; sessions/frames/quarantines as attributes.",
    ),
    SpanEntry(
        SPAN_SERVE_CLOSE, "(root)", "repro.serve.manager",
        "One session teardown (close or idle eviction): the streaming "
        "flush plus its final packet accounting as attributes.",
    ),
    SpanEntry(
        SPAN_ADAPT_SEGMENT, "(root)", "repro.link.adapt",
        "One trajectory segment of an adaptive (or fixed-baseline) run: "
        "the rung in force, its CSK order, and the measured window stats "
        "as attributes.",
    ),
    SpanEntry(
        SPAN_ADAPT_DECISION, SPAN_SERVE_PUMP, "repro.serve.manager",
        "One controller decision applied to a session at a packet "
        "boundary (or on a failure streak): action, rung transition and "
        "reason as attributes.",
    ),
)

#: Every metric the pipeline can record.
METRICS: Tuple[MetricEntry, ...] = (
    MetricEntry(
        M_RUNS_COMPLETED, KIND_COUNTER, "runs", "repro.link.simulator",
        "Completed end-to-end link runs.",
    ),
    MetricEntry(
        M_FAULTS_INJECTED, KIND_COUNTER, "events", "repro.link.simulator",
        "Fault events recorded on the run's FaultSchedule.",
    ),
    MetricEntry(
        M_FRAMES_RECORDED, KIND_COUNTER, "frames", "repro.camera.sensor",
        "Frames captured by the rolling-shutter camera.",
    ),
    MetricEntry(
        M_FRAMES_FAILED, KIND_COUNTER, "frames", "repro.rx.receiver",
        "Frames whose receive pipeline raised and was contained.",
    ),
    MetricEntry(
        M_SYMBOLS_DETECTED, KIND_COUNTER, "symbols", "repro.rx.receiver",
        "Symbols detected across all processed frames.",
    ),
    MetricEntry(
        M_SYMBOLS_LOST, KIND_COUNTER, "symbols", "repro.rx.receiver",
        "Symbols lost to inter-frame readout gaps (assembler estimate).",
    ),
    MetricEntry(
        M_PACKETS_SEEN, KIND_COUNTER, "packets", "repro.rx.receiver",
        "Packets extracted by the assembler (decoded or not).",
    ),
    MetricEntry(
        M_PACKETS_DECODED, KIND_COUNTER, "packets", "repro.rx.receiver",
        "Packets whose RS decode succeeded.",
    ),
    MetricEntry(
        M_PACKETS_FAILED_FEC, KIND_COUNTER, "packets", "repro.rx.receiver",
        "Packets that failed FEC (see fec_failures for the reason taxonomy).",
    ),
    MetricEntry(
        M_CALIBRATION_UPDATES, KIND_COUNTER, "events", "repro.rx.receiver",
        "Credible calibration events folded into the calibration table.",
    ),
    MetricEntry(
        M_CALIBRATION_REJECTED, KIND_COUNTER, "events", "repro.rx.receiver",
        "Calibration events rejected by the poison gates.",
    ),
    MetricEntry(
        M_CELLS_COMPLETED, KIND_COUNTER, "cells", "repro.perf.runtime",
        "Sweep cells that produced a result (including resumed cells).",
    ),
    MetricEntry(
        M_CELLS_FAILED, KIND_COUNTER, "cells", "repro.perf.runtime",
        "Sweep cells recorded as CellFailure after all attempts.",
    ),
    MetricEntry(
        M_CELLS_RETRIED, KIND_COUNTER, "attempts", "repro.perf.runtime",
        "Retry attempts consumed across all cells (excludes innocent "
        "pool-mate resubmissions).",
    ),
    MetricEntry(
        M_CELLS_RESUMED, KIND_COUNTER, "cells", "repro.perf.runtime",
        "Cells satisfied from the resume journal without re-execution.",
    ),
    MetricEntry(
        M_SWEEP_WORKERS, KIND_GAUGE, "processes", "repro.perf.runtime",
        "Effective worker count (the requested workers, clamped to the cell "
        "count) of the sweep that recorded into this registry (last "
        "sweep wins).",
    ),
    MetricEntry(
        M_RUN_WALL_SECONDS, KIND_HISTOGRAM, "seconds", "repro.link.simulator",
        "Wall-clock of one end-to-end run: its `cell` span's duration "
        "(traced runs only).",
    ),
    MetricEntry(
        M_FRAME_BANDS, KIND_HISTOGRAM, "bands", "repro.rx.receiver",
        "Classified bands per processed frame.",
    ),
    MetricEntry(
        M_PACKET_ERASURES, KIND_HISTOGRAM, "symbols", "repro.rx.receiver",
        "Erasure positions per seen packet, before the FEC budget check.",
    ),
    MetricEntry(
        M_SESSIONS_ADMITTED, KIND_COUNTER, "sessions", "repro.serve.manager",
        "Sessions admitted by the session manager.",
    ),
    MetricEntry(
        M_SESSIONS_REJECTED, KIND_COUNTER, "sessions", "repro.serve.manager",
        "Session admissions refused (capacity or duplicate id).",
    ),
    MetricEntry(
        M_SESSIONS_EVICTED, KIND_COUNTER, "sessions", "repro.serve.manager",
        "Sessions evicted after exceeding the idle timeout.",
    ),
    MetricEntry(
        M_SESSIONS_QUARANTINED, KIND_COUNTER, "sessions", "repro.serve.manager",
        "Poison sessions quarantined as SessionFailure records.",
    ),
    MetricEntry(
        M_SESSIONS_CLOSED, KIND_COUNTER, "sessions", "repro.serve.manager",
        "Sessions closed cleanly (explicit close, streaming flush ran).",
    ),
    MetricEntry(
        M_SESSIONS_ACTIVE, KIND_GAUGE, "sessions", "repro.serve.manager",
        "Currently admitted, not yet closed/evicted/quarantined sessions.",
    ),
    MetricEntry(
        M_SESSION_FRAMES_DROPPED, KIND_COUNTER, "frames", "repro.serve.manager",
        "Frames shed by backpressure (drop-oldest or reject) plus frames "
        "discarded when their session was quarantined.",
    ),
    MetricEntry(
        M_SESSION_QUEUE_PEAK, KIND_GAUGE, "frames", "repro.serve.manager",
        "Deepest per-session frame queue observed since the manager "
        "started (never exceeds the configured cap).",
    ),
    MetricEntry(
        M_ADAPT_DECISIONS, KIND_COUNTER, "decisions", "repro.link.adapt",
        "Link-adaptation controller decisions taken (every action, both "
        "execution shapes).",
    ),
    MetricEntry(
        M_ADAPT_UPSHIFTS, KIND_COUNTER, "decisions", "repro.link.adapt",
        "Decisions that moved one rung faster after the clean-window "
        "streak.",
    ),
    MetricEntry(
        M_ADAPT_DOWNSHIFTS, KIND_COUNTER, "decisions", "repro.link.adapt",
        "Decisions that moved one rung more robust (margin/SER/erasure "
        "breach, or a serve-side failure streak).",
    ),
    MetricEntry(
        M_ADAPT_RUNG, KIND_GAUGE, "rung", "repro.link.adapt",
        "Modulation-ladder rung in force after the latest decision "
        "(0 = fastest).",
    ),
    MetricEntry(
        M_ADAPT_MARGIN, KIND_HISTOGRAM, "delta-e", "repro.link.adapt",
        "Per-window mean ΔE margin to the runner-up reference (observed "
        "only for windows where the margin is defined).",
    ),
    MetricEntry(
        M_ADAPT_QUARANTINES_AVERTED, KIND_COUNTER, "sessions",
        "repro.serve.manager",
        "Failure streaks absorbed by a controller downshift instead of "
        "quarantine (quarantine is the ladder's last rung).",
    ),
)

#: ``{metric name: instrument kind}`` — the registry's validation table.
METRIC_TYPES: Dict[str, str] = {entry.name: entry.kind for entry in METRICS}

#: Every declared span name.
SPAN_NAMES = frozenset(entry.name for entry in SPANS)


def render_reference() -> str:
    """The markdown span/metric reference committed as ``docs/METRICS.md``.

    Regenerate with ``colorbars trace --schema > docs/METRICS.md``; CI
    diffs the two and fails on drift.
    """
    lines = [
        "# ColorBars observability reference",
        "",
        "<!-- GENERATED FILE — do not edit by hand. -->",
        "<!-- Regenerate: colorbars trace --schema > docs/METRICS.md -->",
        "",
        "Every span and metric the pipeline can emit, as declared in",
        "`repro.obs.schema` (the registry rejects undeclared names, and CI",
        "diffs this file against `colorbars trace --schema`).",
        "",
        f"Trace record schema version: {TRACE_SCHEMA_VERSION}."
        f" Metrics export schema version: {METRICS_SCHEMA_VERSION}.",
        "",
        "## Spans",
        "",
        "| span | child of | emitted by | description |",
        "|---|---|---|---|",
    ]
    for span in SPANS:
        lines.append(
            f"| `{span.name}` | `{span.parent}` | `{span.module}` "
            f"| {span.description} |"
        )
    lines += [
        "",
        "## Metrics",
        "",
        "| metric | type | unit | emitted by | description |",
        "|---|---|---|---|---|",
    ]
    for metric in METRICS:
        lines.append(
            f"| `{metric.name}` | {metric.kind} | {metric.unit} "
            f"| `{metric.module}` | {metric.description} |"
        )
    lines += [
        "",
        "## Export formats",
        "",
        "A trace file (`--trace out.jsonl`) is JSON Lines, one span per",
        "line, parents before children:",
        "",
        "```json",
        '{"schema": 1, "span": 2, "parent": 1, "name": "cell",'
        ' "start_s": 0.0, "duration_s": 1.93, "attrs": {"device": "nexus-5"}}',
        "```",
        "",
        "A metrics dump (`--metrics out.json`, or `-` for stdout) is one",
        "JSON object:",
        "",
        "```json",
        '{"schema": 1, "counters": {"colorbars.packets.decoded": 12},',
        ' "gauges": {"colorbars.sweep.workers": 2},',
        ' "histograms": {"colorbars.frame.bands":'
        ' {"count": 60, "sum": 840.0, "min": 0.0, "max": 17.0}}}',
        "```",
        "",
        "Histograms export count/sum/min/max (dependency-free aggregation",
        "that merges exactly across worker processes).",
        "",
    ]
    return "\n".join(lines)
