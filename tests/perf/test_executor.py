"""Executor equivalence: worker pools are bit-identical to the serial loop."""

import pytest

from repro.core.config import SystemConfig
from repro.exceptions import ConfigurationError
from repro.faults import make_injector
from repro.link.simulator import RunSpec, sweep
from repro.obs.schema import M_RUN_WALL_SECONDS, SPAN_CELL
from repro.perf.executor import (
    WORKERS_ENV,
    default_workers,
    make_runner,
    resolve_workers,
    run_specs,
    validate_workers,
)


def _spec(tiny_device, seed=0, faults=(), duration_s=0.6):
    config = SystemConfig(
        csk_order=4,
        symbol_rate=1000.0,
        design_loss_ratio=tiny_device.timing.gap_fraction,
        frame_rate=tiny_device.timing.frame_rate,
    )
    return RunSpec(
        config=config,
        device=tiny_device,
        simulated_columns=32,
        seed=seed,
        faults=tuple(faults),
        duration_s=duration_s,
    )


def _assert_results_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.metrics == b.metrics
        assert a.report.payloads == b.report.payloads
        assert a.plan.symbols == b.plan.symbols
        assert a.plan.codewords == b.plan.codewords
        assert a.fault_schedule.events == b.fault_schedule.events


class TestDefaultWorkers:
    def test_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert default_workers() == 4

    @pytest.mark.parametrize("raw", ["0", "-2", "two"])
    def test_bad_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ConfigurationError):
            default_workers()


class TestWorkerValidation:
    @pytest.mark.parametrize("workers", [0, -1, 1.5, "two", True])
    def test_non_positive_integers_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="positive integer"):
            validate_workers(workers)

    def test_digit_strings_accepted(self):
        # The environment can only supply strings; "4" is a worker count.
        assert validate_workers("4", source=WORKERS_ENV) == 4

    def test_error_names_the_source(self):
        with pytest.raises(ConfigurationError, match=WORKERS_ENV):
            validate_workers("nope", source=WORKERS_ENV)

    def test_resolve_defaults_to_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3

    def test_resolve_clamps_to_cell_count(self):
        # More workers than cells just spawns idle processes; clamp them.
        assert resolve_workers(8, cell_count=3) == 3
        assert resolve_workers(2, cell_count=5) == 2

    def test_resolve_never_clamps_below_one(self):
        assert resolve_workers(4, cell_count=0) == 1


class TestEquivalence:
    def test_parallel_matches_serial(self, tiny_device):
        specs = [_spec(tiny_device, seed=3), _spec(tiny_device, seed=4)]
        serial = run_specs(specs, workers=1)
        parallel = run_specs(specs, workers=2)
        _assert_results_identical(serial, parallel)

    def test_parallel_matches_serial_with_faults(self, tiny_device):
        specs = [
            _spec(tiny_device, seed=3, faults=[make_injector("frame-drop", 0.3)]),
            _spec(
                tiny_device,
                seed=3,
                faults=[make_injector("scanline-corruption", 0.2)],
            ),
        ]
        serial = run_specs(specs, workers=1)
        parallel = run_specs(specs, workers=2)
        for result in serial:
            assert result.fault_schedule.events
        _assert_results_identical(serial, parallel)

    def test_single_spec_stays_in_process(self, tiny_device):
        # One cell never justifies pool startup; results still come back.
        (result,) = run_specs([_spec(tiny_device, seed=1)], workers=8)
        assert result.metrics.duration_s == pytest.approx(0.6)

    def test_bad_worker_count_rejected(self, tiny_device):
        with pytest.raises(ConfigurationError):
            run_specs([_spec(tiny_device)], workers=0)


class TestRunnerInjection:
    def test_sweep_through_runner_matches_serial_sweep(self, tiny_device):
        kwargs = dict(
            orders=(4,), symbol_rates=(1000.0,), duration_s=0.5, seed=2
        )
        direct = sweep(tiny_device, **kwargs)
        injected = sweep(tiny_device, runner=make_runner(1), **kwargs)
        assert set(direct) == set(injected)
        for key in direct:
            assert direct[key].metrics == injected[key].metrics
            assert direct[key].report.payloads == injected[key].report.payloads

    def test_cell_span_times_the_run(self, tiny_device):
        result = _spec(tiny_device).execute(observe=True)
        (cell,) = [span for span in result.trace if span.name == SPAN_CELL]
        children = [
            span.name for span in result.trace if span.parent_id == cell.span_id
        ]
        assert children == ["tx-plan", "record", "inject", "decode", "metrics"]
        wall = result.obs_metrics["histograms"][M_RUN_WALL_SECONDS]
        assert wall["count"] == 1
        assert wall["sum"] == cell.duration_s > 0
