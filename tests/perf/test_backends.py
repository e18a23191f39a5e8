"""Engine parity: the serial loop and the process pool give one sweep.

``run_specs_resilient`` runs a sweep's pending cells serially in-process
at one worker, or on the supervised pool at two.  The byte-identity
contract is over *deterministic content* — metrics, decoded payloads,
the symbol plan, the fault schedule — not whole-result pickles:
``LinkResult.trace`` is wall-clock, and pickle memoization of shared
references inside ``config`` differs across process round trips even
between the serial loop and the pool.
"""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tests.conftest import make_tiny_device

from repro.camera import capture
from repro.util import lanes
from repro.core.config import SystemConfig
from repro.exceptions import ConfigurationError
from repro.link.simulator import RunSpec
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
    """The deterministic content both engines must reproduce exactly."""
    return (
        result.metrics,
        result.report.payloads,
        result.plan.symbols,
        result.fault_schedule.events,
    )


class TestByteIdentity:
    """The pool reproduces the serial reference exactly."""

    @pytest.fixture(scope="class")
    def reference(self):
        specs = _specs(make_tiny_device())
        outcome = run_specs_resilient(specs, workers=1)
        assert not outcome.failures
        return [_signature(r) for r in outcome.results]

    def test_pool_matches_reference(self, tiny_device, reference):
        outcome = run_specs_resilient(_specs(tiny_device), workers=2)
        assert not outcome.failures
        assert [_signature(r) for r in outcome.results] == reference

    @pytest.mark.parametrize(
        "backend", ["pool", "pool:workers=2", "inprocess", "teleport"]
    )
    def test_backend_argument(self, backend, tiny_device, reference):
        # ``backend="pool"`` forces the pool; nothing else is accepted.
        if backend != "pool":
            with pytest.raises(ConfigurationError, match="backend"):
                run_specs_resilient(_specs(tiny_device), backend=backend)
            return
        outcome = run_specs_resilient(_specs(tiny_device), backend=backend)
        assert [_signature(r) for r in outcome.results] == reference


class TestResume:
    def test_resume_splices_journaled_cells(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        specs = _specs(tiny_device)
        # A "killed" run checkpointed cell 1 only.
        RunJournal(journal).append(spec_fingerprint(specs[1]), specs[1].execute())
        outcome = run_specs_resilient(
            specs, workers=1, journal=journal, resume=True
        )
        assert outcome.resumed == 1
        assert not outcome.failures
        assert len(RunJournal(journal).load()) == len(specs)

    def test_fresh_run_discards_leftovers(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        specs = _specs(tiny_device)
        RunJournal(journal).append(spec_fingerprint(specs[0]), specs[0].execute())
        outcome = run_specs_resilient(
            specs, workers=1, journal=journal, resume=False
        )
        assert outcome.resumed == 0
        # The leftover record was discarded, not kept beside the new ones.
        assert len(journal.read_text().splitlines()) == len(specs)

    def test_resumed_rerun_is_byte_identical(self, tiny_device, tmp_path):
        specs = _specs(tiny_device)
        full = run_specs_resilient(specs, workers=1)
        journal = tmp_path / "sweep.jsonl"
        RunJournal(journal).append(spec_fingerprint(specs[0]), specs[0].execute())
        resumed = run_specs_resilient(
            specs, workers=2, journal=journal, resume=True
        )
        assert [_signature(r) for r in resumed.results] == [
            _signature(r) for r in full.results
        ]

    def test_pool_sweep_writes_only_the_sweep_journal(self, tiny_device, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        specs = _specs(tiny_device)
        outcome = run_specs_resilient(specs, workers=2, journal=journal)
        assert not outcome.failures
        assert os.listdir(tmp_path) == ["sweep.jsonl"]
        assert len(RunJournal(journal).load()) == len(specs)


class TestDrainContract:
    def test_cell_error_contained_as_failure(self, tiny_device):
        spec = _spec(tiny_device)
        bad = RunSpec(
            config=spec.config,
            device=spec.device,
            simulated_columns=spec.simulated_columns,
            seed=spec.seed,
            duration_s=1e-9,  # too short to fit one symbol: raises in execute
        )
        outcome = run_specs_resilient([bad], workers=1)
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
            "from repro.perf.runtime import run_specs_resilient\n"
            "specs = pickle.load(open(sys.argv[1], 'rb'))\n"
            "run_specs_resilient(specs, workers=2, journal=sys.argv[2])\n"
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
        resumed = run_specs_resilient(
            specs, workers=1, journal=journal, resume=True
        )
        assert resumed.resumed == checkpointed
        assert not resumed.failures
        reference = run_specs_resilient(specs, workers=1)
        assert [_signature(r) for r in resumed.results] == [
            _signature(r) for r in reference.results
        ]
        assert sorted(os.listdir(tmp_path)) == ["specs.pkl", "sweep.jsonl"]


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the pool forks only on Linux"
)
def test_pool_forks_cleanly_after_multi_lane_recording(tiny_device, monkeypatch):
    """In-process develop and preprocess lanes leave no thread behind for a
    pool to fork.

    A serial sweep first develops its recordings on three lanes (six
    two-frame chunks each); a pool sweep under a watchdog then runs in the
    same process, its forked workers developing on lanes of their own.  A
    worker that inherited a dead executor would hang until the watchdog
    failed its cell.
    """
    frame_elements = tiny_device.timing.rows * 32 * 3
    monkeypatch.setattr(lanes, "lane_count", lambda: 3)
    monkeypatch.setattr(capture, "_CHUNK_ELEMENTS", 3 * 2 * frame_elements)
    lane_threads = set()
    develop = capture._develop

    def spy(*args):
        lane_threads.add(threading.current_thread().name)
        return develop(*args)

    monkeypatch.setattr(capture, "_develop", spy)

    serial = run_specs_resilient(_specs(tiny_device, count=2), workers=1)
    assert not serial.failures
    assert len(lane_threads) == 3
    assert not [
        thread for thread in threading.enumerate()
        if thread.name.startswith(lanes.THREAD_PREFIX)
    ]

    pooled = run_specs_resilient(
        _specs(tiny_device, count=2),
        workers=2,
        policy=RuntimePolicy(cell_timeout_s=30.0),
        backend="pool",
    )
    assert not pooled.failures, pooled.failure_summary()
    assert [_signature(r) for r in pooled.results] == [
        _signature(r) for r in serial.results
    ]


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
        "outcome = run_specs_resilient(specs, workers=2)\n"
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
