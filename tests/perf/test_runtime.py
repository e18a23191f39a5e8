"""Resilient runtime contracts: equivalence, containment, retry, resume."""

import base64
import copy
import json
from dataclasses import dataclass, replace

import pytest

import repro.core.metrics as metrics_module
from repro.core.config import SystemConfig
from repro.core.metrics import align_ground_truth, compute_link_metrics
from repro.core.system import ColorBarsTransmitter
from repro.exceptions import ConfigurationError, JournalError, LinkError
from repro.faults import make_injector
from repro.faults.chaos import CellHangChaos, SlowCellChaos, WorkerCrashChaos
from repro.link.simulator import RunSpec
from repro.obs import MetricsRegistry
from repro.obs.schema import M_CELLS_RETRIED, M_SWEEP_WORKERS
from repro.perf.executor import make_runner, run_specs
from repro.phy.waveform import EXTEND_CYCLE
from repro.perf.runtime import (
    CELL_TIMEOUT_ENV,
    RunJournal,
    RuntimePolicy,
    backoff_delay_s,
    default_cell_timeout,
    resilient_fleet,
    run_specs_resilient,
    spec_fingerprint,
)


def _spec(tiny_device, seed=0, faults=(), duration_s=0.5):
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


@dataclass(frozen=True)
class GroundTruthMatch:
    """One band paired with its on-air symbol, laid out as
    ``repro.core.metrics.GroundTruthMatch`` was when each result kept a
    list of them as ``LinkResult.matches``."""

    band: object
    truth: object


GroundTruthMatch.__module__ = metrics_module.__name__


def _legacy_record(result):
    """``result`` as journals wrote it before results scored from columns:
    its report's bands a plain list, and a ``matches`` list beside them."""
    legacy = copy.copy(result)
    legacy.report = replace(result.report, bands=list(result.report.bands))
    waveform = ColorBarsTransmitter(result.config).waveform(
        result.plan, extend=EXTEND_CYCLE
    )
    positions = waveform.symbol_index_at(
        [band.mid_time for band in legacy.report.bands]
    ).tolist()
    legacy.matches = [
        GroundTruthMatch(band=band, truth=result.plan.symbols[position])
        for band, position in zip(legacy.report.bands, positions)
        if position >= 0
    ]
    return legacy


def _assert_results_identical(expected, actual):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a is not None and b is not None
        assert a.metrics == b.metrics
        assert a.report.payloads == b.report.payloads
        assert a.plan.symbols == b.plan.symbols
        assert a.fault_schedule.events == b.fault_schedule.events


class TestFingerprint:
    def test_stable_across_constructions(self, tiny_device):
        assert spec_fingerprint(_spec(tiny_device, seed=3)) == spec_fingerprint(
            _spec(tiny_device, seed=3)
        )

    def test_distinguishes_seeds(self, tiny_device):
        assert spec_fingerprint(_spec(tiny_device, seed=3)) != spec_fingerprint(
            _spec(tiny_device, seed=4)
        )


class TestPolicyValidation:
    def test_defaults_are_plain_containment(self):
        policy = RuntimePolicy()
        assert policy.cell_timeout_s is None
        assert policy.max_attempts == 1
        assert not policy.needs_isolation()

    def test_timeout_or_chaos_forces_isolation(self):
        assert RuntimePolicy(cell_timeout_s=5.0).needs_isolation()
        assert RuntimePolicy(chaos=(SlowCellChaos(0.0),)).needs_isolation()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cell_timeout_s": 0.0},
            {"cell_timeout_s": -1.0},
            {"max_attempts": 0},
            {"max_attempts": 1.5},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RuntimePolicy(**kwargs)


class TestDefaultCellTimeout:
    def test_unset_disables_watchdog(self, monkeypatch):
        monkeypatch.delenv(CELL_TIMEOUT_ENV, raising=False)
        assert default_cell_timeout() is None

    def test_env_sets_deadline(self, monkeypatch):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "120")
        assert default_cell_timeout() == 120.0

    @pytest.mark.parametrize("raw", ["0", "-3", "soon"])
    def test_bad_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, raw)
        with pytest.raises(ConfigurationError):
            default_cell_timeout()


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay_s(7, 2) == backoff_delay_s(7, 2)

    def test_grows_with_attempt(self):
        assert backoff_delay_s(7, 3) > backoff_delay_s(7, 2)


class TestEquivalence:
    def test_inline_matches_fast_path(self, tiny_device):
        specs = [_spec(tiny_device, seed=3), _spec(tiny_device, seed=4)]
        baseline = run_specs(specs, workers=1)
        outcome = run_specs_resilient(specs, workers=1)
        assert not outcome.degraded
        assert outcome.resumed == 0
        _assert_results_identical(baseline, outcome.results)

    def test_inline_matches_fast_path_with_faults(self, tiny_device):
        specs = [
            _spec(tiny_device, seed=3, faults=[make_injector("frame-drop", 0.3)])
        ]
        baseline = run_specs(specs, workers=1)
        outcome = run_specs_resilient(specs, workers=1)
        assert baseline[0].fault_schedule.events
        _assert_results_identical(baseline, outcome.results)

    def test_slow_cell_under_deadline_is_byte_identical(self, tiny_device):
        # Chaos that merely delays a cell must not change its result.
        specs = [_spec(tiny_device, seed=5)]
        baseline = run_specs(specs, workers=1)
        outcome = run_specs_resilient(
            specs,
            workers=1,
            policy=RuntimePolicy(
                cell_timeout_s=120.0,
                chaos=(SlowCellChaos(1.0, max_delay_s=0.2),),
            ),
        )
        assert not outcome.degraded
        _assert_results_identical(baseline, outcome.results)

    def test_zero_intensity_chaos_is_byte_identical(self, tiny_device):
        specs = [_spec(tiny_device, seed=5)]
        baseline = run_specs(specs, workers=1)
        outcome = run_specs_resilient(
            specs,
            workers=1,
            policy=RuntimePolicy(chaos=(WorkerCrashChaos(0.0),)),
        )
        assert not outcome.degraded
        _assert_results_identical(baseline, outcome.results)


class TestCrashContainment:
    def test_certain_crash_becomes_structured_failures(self, tiny_device):
        specs = [_spec(tiny_device, seed=1), _spec(tiny_device, seed=2)]
        outcome = run_specs_resilient(
            specs,
            workers=2,
            policy=RuntimePolicy(chaos=(WorkerCrashChaos(1.0),)),
        )
        assert outcome.degraded
        assert outcome.completed == 0
        assert len(outcome.failures) == 2
        for failure in outcome.failures:
            assert failure.cause == "crash"
            assert failure.attempts == 1
            assert failure.fingerprint == spec_fingerprint(specs[failure.index])
        assert "crash=2" in outcome.failure_summary()

    def test_retry_outlasts_transient_crash(self, tiny_device):
        # Pick a chaos seed whose attempt-1 draw is below its attempt-2
        # draw, then an intensity between them: attempt 1 deterministically
        # crashes and attempt 2 deterministically survives.
        chaos = None
        for chaos_seed in range(32):
            probe = WorkerCrashChaos(0.5, seed=chaos_seed)
            first, second = probe.trigger_draw(0, 1), probe.trigger_draw(0, 2)
            if first < second:
                chaos = WorkerCrashChaos((first + second) / 2, seed=chaos_seed)
                break
        assert chaos is not None
        assert chaos.triggers(0, 1) and not chaos.triggers(0, 2)

        specs = [_spec(tiny_device, seed=6)]
        baseline = run_specs(specs, workers=1)
        registry = MetricsRegistry()
        outcome = run_specs_resilient(
            specs,
            workers=1,
            policy=RuntimePolicy(max_attempts=2, chaos=(chaos,)),
            metrics=registry,
        )
        assert not outcome.degraded
        assert registry.export()["counters"][M_CELLS_RETRIED] >= 1
        _assert_results_identical(baseline, outcome.results)


class TestWatchdog:
    def test_hung_cell_is_timed_out(self, tiny_device):
        specs = [_spec(tiny_device, seed=1)]
        outcome = run_specs_resilient(
            specs,
            workers=1,
            policy=RuntimePolicy(
                cell_timeout_s=1.0,
                chaos=(CellHangChaos(1.0, hang_s=60.0),),
            ),
        )
        assert outcome.degraded
        (failure,) = outcome.failures
        assert failure.cause == "timeout"
        assert "watchdog" in failure.message
        assert outcome.results == [None]


class TestErrorContainment:
    def test_cell_exception_is_contained_inline(self, tiny_device):
        # 4 kHz on the tiny sensor leaves 4 rows/symbol — below the 10-row
        # demodulation minimum, so the cell raises during execution.
        config = SystemConfig(
            csk_order=4,
            symbol_rate=4000.0,
            design_loss_ratio=tiny_device.timing.gap_fraction,
            frame_rate=tiny_device.timing.frame_rate,
        )
        bad = RunSpec(
            config=config,
            device=tiny_device,
            simulated_columns=32,
            seed=1,
            duration_s=0.5,
        )
        good = _spec(tiny_device, seed=2)
        outcome = run_specs_resilient([bad, good], workers=1)
        assert outcome.completed == 1
        (failure,) = outcome.failures
        assert failure.cause == "error"
        assert failure.index == 0
        assert outcome.results[0] is None
        assert outcome.results[1] is not None


class TestJournalResume:
    def test_resume_is_byte_identical_to_uninterrupted(self, tiny_device, tmp_path):
        specs = [_spec(tiny_device, seed=s) for s in (1, 2, 3)]
        baseline = run_specs(specs, workers=1)
        journal = tmp_path / "sweep.jsonl"

        # "Kill" the sweep after two cells, then resume the full grid.
        partial = run_specs_resilient(specs[:2], workers=1, journal=journal)
        assert partial.completed == 2
        resumed = run_specs_resilient(
            specs, workers=1, journal=journal, resume=True
        )
        assert resumed.resumed == 2
        assert not resumed.degraded
        _assert_results_identical(baseline, resumed.results)

    def test_resume_is_byte_identical_with_faults(self, tiny_device, tmp_path):
        specs = [
            _spec(tiny_device, seed=1, faults=[make_injector("frame-drop", 0.3)]),
            _spec(
                tiny_device,
                seed=2,
                faults=[make_injector("scanline-corruption", 0.2)],
            ),
        ]
        baseline = run_specs(specs, workers=1)
        journal = tmp_path / "sweep.jsonl"
        run_specs_resilient(specs[:1], workers=1, journal=journal)
        resumed = run_specs_resilient(
            specs, workers=1, journal=journal, resume=True
        )
        assert resumed.resumed == 1
        _assert_results_identical(baseline, resumed.results)

    def test_fresh_run_discards_existing_journal(self, tiny_device, tmp_path):
        specs = [_spec(tiny_device, seed=1)]
        journal = tmp_path / "sweep.jsonl"
        run_specs_resilient(specs, workers=1, journal=journal)
        assert len(journal.read_text().splitlines()) == 1
        run_specs_resilient(specs, workers=1, journal=journal)
        # The old journal was discarded, not appended to.
        assert len(journal.read_text().splitlines()) == 1

    def test_truncated_line_reruns_that_cell(self, tiny_device, tmp_path):
        specs = [_spec(tiny_device, seed=1), _spec(tiny_device, seed=2)]
        journal = tmp_path / "sweep.jsonl"
        run_specs_resilient(specs, workers=1, journal=journal)
        lines = journal.read_text().splitlines()
        journal.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2] + "\n")
        resumed = run_specs_resilient(
            specs, workers=1, journal=journal, resume=True
        )
        assert resumed.resumed == 1
        assert resumed.completed == 2

    def test_torn_tail_does_not_eat_the_next_record(self, tiny_device, tmp_path):
        # A killed run can leave its last record half-written with no
        # newline; the first record appended on resume must not join it.
        specs = [_spec(tiny_device, seed=s) for s in (1, 2, 3)]
        journal = tmp_path / "sweep.jsonl"
        run_specs_resilient(specs[:2], workers=1, journal=journal)
        lines = journal.read_text().splitlines()
        journal.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        first = run_specs_resilient(specs, workers=1, journal=journal, resume=True)
        assert first.resumed == 1
        assert first.completed == 3
        second = run_specs_resilient(specs, workers=1, journal=journal, resume=True)
        assert second.resumed == 3

    def test_wrong_schema_rejected(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        journal.write_text(
            json.dumps({"schema": 99, "fingerprint": "x", "result": ""}) + "\n"
        )
        with pytest.raises(JournalError, match="schema"):
            RunJournal(journal).load()

    def test_resume_splices_a_record_that_still_carries_matches(
        self, tiny_device, tmp_path, monkeypatch
    ):
        specs = [_spec(tiny_device, seed=s) for s in (1, 2)]
        baseline = run_specs(specs, workers=1)
        journal = tmp_path / "sweep.jsonl"
        legacy = _legacy_record(baseline[0])
        assert legacy.matches
        with monkeypatch.context() as patch:
            patch.setattr(
                metrics_module, "GroundTruthMatch", GroundTruthMatch, raising=False
            )
            RunJournal(journal).append(spec_fingerprint(specs[0]), legacy)
        payload = json.loads(journal.read_text())["result"]
        assert b"GroundTruthMatch" in base64.b64decode(payload)
        assert not hasattr(metrics_module, "GroundTruthMatch")

        executed = []
        execute = RunSpec.execute

        def counting(spec, observe=False):
            executed.append(spec.seed)
            return execute(spec, observe=observe)

        monkeypatch.setattr(RunSpec, "execute", counting)
        resumed = run_specs_resilient(
            specs, workers=1, journal=journal, resume=True
        )
        assert resumed.resumed == 1 and executed == [2]
        spliced = resumed.results[0]
        assert not hasattr(spliced, "matches")
        assert isinstance(spliced.report.bands, list)

        # The spliced cell still scores, from its list of bands.
        waveform = ColorBarsTransmitter(spliced.config).waveform(
            spliced.plan, extend=EXTEND_CYCLE
        )
        rescored = compute_link_metrics(
            report=spliced.report,
            alignment=align_ground_truth(
                spliced.report.bands, spliced.plan.symbols, waveform
            ),
            bits_per_symbol=spliced.config.bits_per_symbol,
            payload_bytes_per_packet=spliced.config.rs_params().k,
            duration_s=specs[0].duration_s,
        )
        assert rescored == baseline[0].metrics
        assert spliced.report.delta_e_margin == baseline[0].report.delta_e_margin

        # And the sweep's table equals an uninterrupted run's.
        assert [r.metrics for r in resumed.results] == [
            r.metrics for r in baseline
        ]
        _assert_results_identical(baseline, resumed.results)

    def test_resume_requires_no_reexecution(self, tiny_device, tmp_path):
        # A fully journaled sweep resumes without touching any worker: even
        # certain-crash chaos cannot hurt it.
        specs = [_spec(tiny_device, seed=1)]
        journal = tmp_path / "sweep.jsonl"
        run_specs_resilient(specs, workers=1, journal=journal)
        resumed = run_specs_resilient(
            specs,
            workers=1,
            journal=journal,
            resume=True,
            policy=RuntimePolicy(chaos=(WorkerCrashChaos(1.0),)),
        )
        assert resumed.resumed == 1
        assert not resumed.degraded


class TestResilientFleet:
    def test_fleet_surfaces_member_failures(self, tiny_device):
        report = resilient_fleet(
            [tiny_device],
            workers=1,
            policy=RuntimePolicy(chaos=(WorkerCrashChaos(1.0),)),
            csk_order=4,
            symbol_rate=1000.0,
            duration_s=0.5,
            compare_dedicated=False,
        )
        assert report.degraded
        (member,) = report.members
        assert member.failure is not None
        assert member.failure.cause == "crash"
        assert member.shared_metrics is None
        assert any("FAILED" in line for line in report.summary_lines())


def _infeasible_spec(tiny_device):
    # 4 kHz on the tiny sensor leaves 4 rows/symbol — below the 10-row
    # demodulation minimum, so the cell raises during execution.
    config = SystemConfig(
        csk_order=4,
        symbol_rate=4000.0,
        design_loss_ratio=tiny_device.timing.gap_fraction,
        frame_rate=tiny_device.timing.frame_rate,
    )
    return RunSpec(
        config=config,
        device=tiny_device,
        simulated_columns=32,
        seed=1,
        duration_s=0.5,
    )


class TestBackendResolution:
    @pytest.fixture
    def pool_drains(self, monkeypatch):
        """The worker count of every :func:`run_pool` call, in call order."""
        from repro.perf import pool

        calls = []
        engine = pool.run_pool

        def spy(cells, workers, *args, **kwargs):
            calls.append(workers)
            return engine(cells, workers, *args, **kwargs)

        monkeypatch.setattr(pool, "run_pool", spy)
        return calls

    def test_one_worker_runs_inprocess(self, tiny_device, pool_drains):
        specs = [_spec(tiny_device, seed=s) for s in (1, 2, 3)]
        run_specs_resilient(specs, workers=1)
        assert pool_drains == []

    def test_two_workers_run_on_pool(self, tiny_device, pool_drains):
        specs = [_spec(tiny_device, seed=s) for s in (1, 2, 3)]
        run_specs_resilient(specs, workers=2)
        assert pool_drains == [2]

    @pytest.mark.parametrize(
        "policy",
        [
            RuntimePolicy(cell_timeout_s=120.0),
            RuntimePolicy(chaos=(WorkerCrashChaos(0.0),)),
        ],
        ids=["watchdog", "chaos"],
    )
    def test_isolation_policy_at_one_worker_runs_on_pool(
        self, tiny_device, pool_drains, policy
    ):
        outcome = run_specs_resilient(
            [_spec(tiny_device, seed=1)], workers=1, policy=policy
        )
        assert not outcome.degraded
        assert pool_drains == [1]

    def test_explicit_backend_wins_over_workers(self, tiny_device, pool_drains):
        specs = [_spec(tiny_device, seed=s) for s in (1, 2, 3)]
        run_specs_resilient(specs, workers=1, backend="pool")
        assert pool_drains == [1]

    def test_sweep_workers_gauge_is_effective_lane_count(self, tiny_device):
        registry = MetricsRegistry()
        specs = [_spec(tiny_device, seed=s) for s in (1, 2)]
        run_specs_resilient(specs, workers=4, backend="pool", metrics=registry)
        assert registry.export()["gauges"][M_SWEEP_WORKERS] == 2.0


class TestRunnerFailures:
    def test_run_specs_raises_link_error_naming_the_cell(self, tiny_device):
        specs = [_spec(tiny_device, seed=2), _infeasible_spec(tiny_device)]
        with pytest.raises(LinkError, match=r"^cell 1 \[") as caught:
            run_specs(specs, workers=1)
        assert spec_fingerprint(specs[1])[:12] in str(caught.value)

    def test_make_runner_raises_link_error(self, tiny_device):
        runner = make_runner(workers=2)
        with pytest.raises(LinkError, match=r"^cell 0 \[.*error"):
            runner([_infeasible_spec(tiny_device), _spec(tiny_device, seed=2)])
