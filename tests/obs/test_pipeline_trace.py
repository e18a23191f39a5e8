"""End-to-end observability: serial==parallel trees, resume, CLI export.

The acceptance contract: the assembled span tree (names, parentage,
counts) is a pure function of the spec list — identical for serial,
parallel, and resumed executions of the same specs, for the same seed.
"""

import json

import pytest

from repro.cli import main
from repro.core.config import SystemConfig
from repro.link.simulator import RunSpec
from repro.obs import (
    MetricsRegistry,
    assemble_trace,
    read_trace,
)
from repro.obs.schema import (
    M_CELLS_COMPLETED,
    M_FRAMES_RECORDED,
    M_RUNS_COMPLETED,
    M_SWEEP_WORKERS,
    SPAN_CELL,
    SPAN_NAMES,
    SPAN_SWEEP,
)
from repro.perf.runtime import run_specs_resilient

from tests.obs.test_trace import tree_signature


def _specs(tiny_device, count=2, duration_s=0.4):
    return [
        RunSpec(
            config=SystemConfig(
                csk_order=4,
                symbol_rate=1000.0,
                design_loss_ratio=tiny_device.timing.gap_fraction,
                frame_rate=tiny_device.timing.frame_rate,
            ),
            device=tiny_device,
            simulated_columns=32,
            seed=seed,
            duration_s=duration_s,
        )
        for seed in range(count)
    ]


class TestSerialParallelIdentity:
    def test_span_tree_identical_and_counters_match(self, tiny_device):
        specs = _specs(tiny_device)
        serial_registry = MetricsRegistry()
        serial = run_specs_resilient(specs, workers=1, metrics=serial_registry)
        parallel_registry = MetricsRegistry()
        parallel = run_specs_resilient(
            specs, workers=2, metrics=parallel_registry
        )

        serial_trace = assemble_trace([r.trace for r in serial.results])
        parallel_trace = assemble_trace([r.trace for r in parallel.results])
        assert tree_signature(serial_trace) == tree_signature(parallel_trace)
        assert (
            serial_registry.export()["counters"]
            == parallel_registry.export()["counters"]
        )

    def test_every_span_name_is_declared(self, tiny_device):
        outcome = run_specs_resilient(
            _specs(tiny_device, count=1), workers=1, observe=True
        )
        spans = assemble_trace([r.trace for r in outcome.results])
        assert {span.name for span in spans} <= SPAN_NAMES

    def test_cell_roots_annotated_with_index_and_attempt(self, tiny_device):
        outcome = run_specs_resilient(
            _specs(tiny_device), workers=1, observe=True
        )
        for index, result in enumerate(outcome.results):
            root = result.trace[0]
            assert root.name == SPAN_CELL
            assert root.attributes["cell_index"] == index
            assert root.attributes["attempt"] == 1

    def test_observation_off_by_default(self, tiny_device):
        outcome = run_specs_resilient(_specs(tiny_device, count=1), workers=1)
        assert outcome.results[0].trace is None
        assert outcome.results[0].obs_metrics is None

    def test_make_runner_observe_attaches_traces(self, tiny_device):
        from repro.perf.executor import make_runner

        runner = make_runner(workers=1, observe=True)
        results = runner(_specs(tiny_device, count=1))
        assert results[0].trace is not None
        assert results[0].trace[0].name == SPAN_CELL
        assert results[0].obs_metrics["counters"][M_RUNS_COMPLETED] == 1


class TestRuntimeMetrics:
    def test_sweep_level_counters_and_gauge(self, tiny_device):
        registry = MetricsRegistry()
        run_specs_resilient(_specs(tiny_device), workers=2, metrics=registry)
        exported = registry.export()
        assert exported["counters"][M_CELLS_COMPLETED] == 2
        assert exported["counters"][M_RUNS_COMPLETED] == 2
        assert exported["counters"][M_FRAMES_RECORDED] > 0
        assert exported["gauges"][M_SWEEP_WORKERS] == 2.0


class TestResume:
    def test_resumed_trace_identical_to_uninterrupted(
        self, tiny_device, tmp_path
    ):
        specs = _specs(tiny_device)
        baseline = run_specs_resilient(specs, workers=1, observe=True)
        baseline_trace = assemble_trace([r.trace for r in baseline.results])

        journal = tmp_path / "sweep.jsonl"
        run_specs_resilient(specs[:1], workers=1, journal=journal, observe=True)
        resumed = run_specs_resilient(
            specs, workers=1, journal=journal, resume=True, observe=True
        )
        assert resumed.resumed == 1
        resumed_trace = assemble_trace([r.trace for r in resumed.results])
        assert tree_signature(resumed_trace) == tree_signature(baseline_trace)


class TestCliExport:
    def test_sweep_trace_and_metrics_files(self, tmp_path, capsys):
        trace_path = tmp_path / "sweep-trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "sweep",
                "--orders", "4",
                "--rates", "1000",
                "--duration", "0.4",
                "--workers", "2",
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace  : wrote" in out
        assert f"metrics: wrote {metrics_path}" in out

        spans = read_trace(trace_path)
        assert spans[0].name == SPAN_SWEEP
        assert spans[0].attributes["workers"] == 2
        assert spans[0].attributes["cells"] == 1
        assert sum(1 for s in spans if s.name == SPAN_CELL) == 1

        exported = json.loads(metrics_path.read_text())
        assert exported["counters"][M_CELLS_COMPLETED] == 1
        # The trace root records the *requested* worker count; the gauge
        # records the *effective* one (a 1-cell sweep clamps the pool to 1).
        assert exported["gauges"][M_SWEEP_WORKERS] == 1.0

    def test_run_trace_is_a_one_cell_sweep(self, tmp_path, capsys):
        trace_path = tmp_path / "run-trace.jsonl"
        code = main(
            ["run", "--order", "4", "--rate", "1000", "--duration", "0.4",
             "--trace", str(trace_path)]
        )
        assert code == 0
        spans = read_trace(trace_path)
        assert spans[0].name == SPAN_SWEEP
        assert spans[0].attributes["cells"] == 1

    def test_metrics_dash_prints_lines(self, capsys):
        code = main(
            ["run", "--order", "4", "--rate", "1000", "--duration", "0.4",
             "--metrics", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert M_RUNS_COMPLETED + " = 1" in out


class TestTraceCli:
    @pytest.fixture
    def trace_file(self, tiny_device, tmp_path):
        outcome = run_specs_resilient(
            _specs(tiny_device, count=1), workers=1, observe=True
        )
        path = tmp_path / "t.jsonl"
        from repro.obs import write_trace

        write_trace(
            path, assemble_trace([r.trace for r in outcome.results])
        )
        return path

    def test_summary_default(self, trace_file, capsys):
        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "span(s)" in out
        assert "capture" in out

    def test_tree_view(self, trace_file, capsys):
        assert main(["trace", str(trace_file), "--tree"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sweep")
        assert "  cell" in out

    def test_name_filter(self, trace_file, capsys):
        assert main(["trace", str(trace_file), "--name", "capture"]) == 0
        out = capsys.readouterr().out
        assert "'capture' span(s)" in out
        assert "mean" in out

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "ghost.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_file_required_without_schema(self):
        with pytest.raises(SystemExit, match="FILE is required"):
            main(["trace"])
