"""Sweep-backend contracts: registry, lifecycle, sharding, journal, parity.

The byte-identity contract is over *deterministic content* — metrics,
decoded payloads, the symbol plan, the fault schedule — not whole-result
pickles: ``LinkResult.trace`` is wall-clock, and pickle memoization of
shared references inside ``config`` differs across process round trips
even between the ``inprocess`` and ``pool`` backends.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.conftest import make_tiny_device

from repro.core.config import SystemConfig
from repro.exceptions import BackendError, ConfigurationError
from repro.link.simulator import RunSpec
from repro.perf.backends import (
    BACKEND_REGISTRY,
    InProcessBackend,
    Shard,
    ShardCell,
    SweepBackend,
    assemble_backend_trace,
    make_backend,
    make_shards,
    parse_backend_spec,
    run_specs_sharded,
)
from repro.perf.runtime import (
    RunJournal,
    RuntimePolicy,
    run_specs_resilient,
    spec_fingerprint,
)


def _spec(tiny_device, seed=0, duration_s=0.4):
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
        duration_s=duration_s,
    )


def _specs(tiny_device, count=3):
    return [_spec(tiny_device, seed=seed) for seed in range(count)]


def _signature(result):
    """The deterministic content every backend must reproduce exactly."""
    return (
        result.metrics,
        result.report.payloads,
        result.plan.symbols,
        result.fault_schedule.events,
    )


def _cells(specs):
    return [
        ShardCell(index=i, fingerprint=spec_fingerprint(s), spec=s)
        for i, s in enumerate(specs)
    ]


class TestRegistryAndSpec:
    def test_shipped_backends_registered(self):
        assert {"inprocess", "pool"} <= set(BACKEND_REGISTRY)

    def test_parse_plain_name(self):
        assert parse_backend_spec("pool") == ("pool", {})

    def test_parse_options(self):
        name, options = parse_backend_spec("pool:workers=2,x=y")
        assert name == "pool"
        assert options == {"workers": "2", "x": "y"}

    @pytest.mark.parametrize("bad", ["", "   ", "pool:workers", "pool:=2", "pool:a="])
    def test_malformed_spec_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_backend_spec(bad)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_backend("teleport")

    def test_inprocess_takes_no_options(self):
        with pytest.raises(ConfigurationError, match="no options"):
            make_backend("inprocess:workers=2")

    def test_spec_workers_option_wins_over_argument(self):
        with make_backend("pool:workers=3", workers=2) as backend:
            assert backend.lanes == 3

    def test_bad_workers_option_rejected(self):
        with pytest.raises(ConfigurationError):
            make_backend("pool:workers=zero")


class TestLifecycle:
    def test_closed_backend_rejects_submit_and_drain(self):
        backend = InProcessBackend()
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(BackendError, match="closed"):
            backend.submit_shard(Shard(shard_id=0, cells=()))
        with pytest.raises(BackendError, match="closed"):
            backend.drain()

    def test_duplicate_shard_id_rejected(self):
        with InProcessBackend() as backend:
            backend.submit_shard(Shard(shard_id=0, cells=()))
            with pytest.raises(BackendError, match="already submitted"):
                backend.submit_shard(Shard(shard_id=0, cells=()))

    def test_non_shard_rejected(self):
        with InProcessBackend() as backend:
            with pytest.raises(BackendError, match="takes a Shard"):
                backend.submit_shard("shard zero")

    def test_drain_empties_the_queue(self, tiny_device):
        with InProcessBackend() as backend:
            backend.submit_shard(
                Shard(shard_id=0, cells=tuple(_cells([_spec(tiny_device)])))
            )
            assert len(backend.drain()) == 1
            assert backend.drain() == []

    def test_bad_lane_count_rejected(self):
        with pytest.raises(ConfigurationError, match="lanes"):
            SweepBackend(lanes=0)

    def test_inprocess_refuses_isolation_policies(self):
        policy = RuntimePolicy(cell_timeout_s=5.0)
        with pytest.raises(ConfigurationError, match="isolation"):
            InProcessBackend(policy=policy)


class TestSharding:
    def test_round_robin_assignment(self, tiny_device):
        cells = _cells(_specs(tiny_device, count=5))
        shards = make_shards(cells, lanes=2)
        assert [c.index for c in shards[0].cells] == [0, 2, 4]
        assert [c.index for c in shards[1].cells] == [1, 3]

    def test_no_empty_shards(self, tiny_device):
        cells = _cells(_specs(tiny_device, count=2))
        shards = make_shards(cells, lanes=8)
        assert len(shards) == 2
        assert all(shard.cells for shard in shards)

    def test_no_cells_no_shards(self):
        assert make_shards([], lanes=4) == []

    def test_journal_paths_derive_from_sweep_journal(self, tiny_device, tmp_path):
        # Every shard checkpoints into the sweep journal itself.
        journal = tmp_path / "sweep.jsonl"
        shards = make_shards(_cells(_specs(tiny_device)), 2, journal_path=journal)
        assert [shard.journal_path for shard in shards] == [str(journal)] * 2
        assert shards[1].journal().path == journal


class TestByteIdentity:
    """Every backend reproduces the inprocess reference exactly."""

    @pytest.fixture(scope="class")
    def reference(self):
        specs = _specs(make_tiny_device())
        with make_backend("inprocess") as backend:
            outcome = run_specs_sharded(specs, backend)
        assert not outcome.failures
        return [_signature(r) for r in outcome.results]

    @pytest.mark.parametrize("spec", ["pool:workers=2"])
    def test_backend_matches_reference(self, spec, tiny_device, reference):
        with make_backend(spec) as backend:
            outcome = run_specs_sharded(_specs(tiny_device), backend)
        assert not outcome.failures
        assert [_signature(r) for r in outcome.results] == reference

    def test_shard_of_records_the_plan(self, tiny_device):
        with make_backend("pool:workers=2") as backend:
            outcome = run_specs_sharded(_specs(tiny_device), backend)
        assert outcome.shard_of == [0, 1, 0]

    def test_run_specs_resilient_accepts_backend_spec(self, tiny_device, reference):
        outcome = run_specs_resilient(_specs(tiny_device), backend="pool:workers=2")
        assert [_signature(r) for r in outcome.results] == reference


class TestResume:
    def test_resume_splices_journaled_cells(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        specs = _specs(tiny_device)
        # A "killed" run checkpointed cell 1 only.
        RunJournal(journal).append(spec_fingerprint(specs[1]), specs[1].execute())
        with make_backend("inprocess") as backend:
            outcome = run_specs_sharded(specs, backend, journal=journal, resume=True)
        assert outcome.resumed == 1
        assert outcome.shard_of[1] is None  # resumed, never re-sharded
        assert not outcome.failures
        assert len(RunJournal(journal).load()) == len(specs)

    def test_fresh_run_discards_leftovers(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        specs = _specs(tiny_device)
        RunJournal(journal).append(spec_fingerprint(specs[0]), specs[0].execute())
        with make_backend("inprocess") as backend:
            outcome = run_specs_sharded(specs, backend, journal=journal, resume=False)
        assert outcome.resumed == 0
        # The leftover record was discarded, not kept beside the new ones.
        assert len(journal.read_text().splitlines()) == len(specs)

    def test_resumed_rerun_is_byte_identical(self, tiny_device, tmp_path):
        specs = _specs(tiny_device)
        with make_backend("inprocess") as backend:
            full = run_specs_sharded(specs, backend)
        journal = tmp_path / "sweep.jsonl"
        RunJournal(journal).append(spec_fingerprint(specs[0]), specs[0].execute())
        with make_backend("pool:workers=2") as backend:
            resumed = run_specs_sharded(specs, backend, journal=journal, resume=True)
        assert [_signature(r) for r in resumed.results] == [
            _signature(r) for r in full.results
        ]

    def test_pool_sweep_writes_only_the_sweep_journal(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        specs = _specs(tiny_device)
        with make_backend("pool:workers=2") as backend:
            outcome = run_specs_sharded(specs, backend, journal=journal)
        assert not outcome.failures
        assert os.listdir(tmp_path) == ["sweep.jsonl"]
        assert len(RunJournal(journal).load()) == len(specs)


class TestDrainContract:
    def test_hole_in_outcomes_raises(self, tiny_device):
        class HoleBackend(SweepBackend):
            name = "hole"

            def _drain(self, shards):
                return []  # violates one-outcome-per-cell

        with HoleBackend() as backend:
            with pytest.raises(BackendError, match="no outcome"):
                run_specs_sharded([_spec(tiny_device)], backend)

    def test_cell_error_contained_as_failure(self, tiny_device):
        spec = _spec(tiny_device)
        bad = RunSpec(
            config=spec.config,
            device=spec.device,
            simulated_columns=spec.simulated_columns,
            seed=spec.seed,
            duration_s=1e-9,  # too short to fit one symbol: raises in execute
        )
        with make_backend("inprocess") as backend:
            outcome = run_specs_sharded([bad], backend)
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.cause == "error"
        assert failure.index == 0


class TestKilledSweepResume:
    def test_mid_sweep_kill_then_resume_is_byte_identical(
        self, tiny_device, tmp_path
    ):
        """SIGKILL a pool sweep's driver mid-flight; no worker outlives it.

        The driver runs in its own session, so its process group holds it
        and every pool worker it forked; only the driver is killed, and the
        whole group must then drain by itself.  ``--resume`` reads the
        cells the sweep journal checkpointed and reruns only the rest, into
        the identical table.
        """
        journal = tmp_path / "sweep.jsonl"
        driver = (
            "import pickle, sys\n"
            "from repro.perf.backends import make_backend, run_specs_sharded\n"
            "specs = pickle.load(open(sys.argv[1], 'rb'))\n"
            "with make_backend('pool:workers=2') as backend:\n"
            "    run_specs_sharded(specs, backend, journal=sys.argv[2])\n"
        )
        specs = _specs(tiny_device, count=4)
        specs_path = tmp_path / "specs.pkl"
        specs_path.write_bytes(pickle.dumps(specs, protocol=4))
        # Fingerprints are stable only within one pickling generation
        # (memoization of shared references shifts bytes on the first
        # round trip), so resume with the same generation the subprocess
        # driver unpickled and journaled.
        specs = pickle.loads(specs_path.read_bytes())
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", driver, str(specs_path), str(journal)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = time.monotonic() + 120.0
        try:
            # Kill as soon as the sweep journal holds a completed cell.
            while time.monotonic() < deadline:
                if RunJournal(journal).load():
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            proc.kill()
            proc.wait()
            survivors_deadline = time.monotonic() + 20.0
            while True:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < survivors_deadline, (
                    "pool workers outlived their killed driver"
                )
                time.sleep(0.1)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.kill()
            proc.wait()
        checkpointed = len(RunJournal(journal).load())
        assert checkpointed >= 1
        with make_backend("inprocess") as backend:
            resumed = run_specs_sharded(specs, backend, journal=journal, resume=True)
        assert resumed.resumed == checkpointed
        assert not resumed.failures
        with make_backend("inprocess") as backend:
            reference = run_specs_sharded(specs, backend)
        assert [_signature(r) for r in resumed.results] == [
            _signature(r) for r in reference.results
        ]
        assert sorted(os.listdir(tmp_path)) == ["specs.pkl", "sweep.jsonl"]


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the pool forks only on Linux"
)
def test_pool_survives_a_forkserver_default(tiny_device, tmp_path):
    """A ``forkserver`` default start method must not break the pool.

    Under ``forkserver`` a worker's parent is the fork server, not the
    driver, which the pool's orphan guard would read as a dead driver.
    """
    driver = (
        "import multiprocessing, pickle, sys\n"
        "multiprocessing.set_start_method('forkserver', force=True)\n"
        "from repro.perf.runtime import run_specs_resilient\n"
        "specs = pickle.load(open(sys.argv[1], 'rb'))\n"
        "outcome = run_specs_resilient(specs, backend='pool:workers=2')\n"
        "print(outcome.failure_summary())\n"
        "sys.exit(1 if outcome.failures else 0)\n"
    )
    specs_path = tmp_path / "specs.pkl"
    specs_path.write_bytes(pickle.dumps(_specs(tiny_device, count=2), protocol=4))
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", driver, str(specs_path)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr


class TestBackendTrace:
    def test_root_shard_cell_hierarchy(self, tiny_device):
        with make_backend("pool:workers=2") as backend:
            outcome = run_specs_sharded(
                _specs(tiny_device), backend, observe=True
            )
        spans = assemble_backend_trace(outcome, backend.name, backend.lanes)
        root = spans[0]
        assert root.attributes["backend"] == "pool"
        assert root.attributes["lanes"] == 2
        shard_spans = [s for s in spans if s.parent_id == root.span_id]
        assert [s.attributes["shard"] for s in shard_spans] == [0, 1]

    def test_resumed_cells_group_under_trailing_span(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        specs = _specs(tiny_device)
        RunJournal(journal).append(
            spec_fingerprint(specs[2]), specs[2].execute(observe=True)
        )
        with make_backend("inprocess") as backend:
            outcome = run_specs_sharded(
                specs, backend, journal=journal, resume=True, observe=True
            )
        spans = assemble_backend_trace(outcome, backend.name, backend.lanes)
        root = spans[0]
        shard_spans = [s for s in spans if s.parent_id == root.span_id]
        assert shard_spans[-1].attributes["shard"] == "resumed"
