"""Self-tests of the benchmark, on ``--smoke`` inputs.

Run with ``python -m pytest bench/tests``; they sit outside the tier-1
``testpaths``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from layers import TARGETS, _resolve  # noqa: E402
from workloads import make_workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    return make_workloads(smoke=True)


@pytest.fixture(scope="module")
def untraced(workloads):
    cache = {}

    def get(name, seed):
        if (name, seed) not in cache:
            cache[name, seed] = run.untraced(workloads[name], seed, seconds=0.1)
        return cache[name, seed]

    return get


def _callables():
    return {target.key: _resolve(target)[0].__dict__[_resolve(target)[1]] for target in TARGETS}


def test_declared_workloads_are_the_runnable_ones(workloads):
    assert WORKLOADS == list(run.WORKLOADS) == list(workloads)
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert metric["unit"], metric


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_the_end_to_end_metrics(untraced, name):
    record = untraced(name, 1)
    assert not record["errors"]
    assert set(record["metrics"]) == END_TO_END
    assert all(value > 0 for value in record["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_changes_outputs_but_not_metric_names(untraced, name):
    first, second = untraced(name, 1), untraced(name, 2)
    assert first["output_sha"] != second["output_sha"]
    assert set(first["metrics"]) == set(second["metrics"])


def _timed(metrics) -> dict:
    return {n: v for n, v in metrics.items() if n.endswith("_s") or n.endswith("_per_frame")}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_pass_emits_per_layer_metrics_and_removes_wrappers(workloads, name):
    before = _callables()
    record = run.traced(workloads[name], seed=1)
    assert _callables() == before
    assert not record["errors"], record["errors"]
    assert set(record["metrics"]) == PER_LAYER
    idle = {n for n, v in _timed(record["metrics"]).items() if v <= 0}
    if name.startswith("grid-"):
        # These tests share one process, whose plan cache may already hold
        # every smoke payload; a fresh process is checked through the CLI.
        idle -= {"tx.plan_s", "tx.waveform_s"}
    assert idle == set()
    if name == "grid-serial":
        assert record["diagnostics"]["rx.attributed_share"] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize(
    "workload, trace, declared",
    [("serve-churn", 0, "end_to_end"), ("grid-pool", 1, "per_layer")],
)
def test_command_prints_the_result_as_its_last_line(workload, trace, declared):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC[declared]
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(v > 0 for v in _timed(values).values()), values


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def _metric(better="lower", bound=0.1):
    return {"name": "m", "unit": "s", "better": better, "bound": bound}


def test_compare_verdicts():
    parent = {seed: 1.0 + 0.001 * seed for seed in range(10)}
    assert compare.verdict(_metric(), parent, dict(parent))[0] == "same"
    slower = {seed: value * 1.2 for seed, value in parent.items()}
    assert compare.verdict(_metric(), parent, slower)[0] == "worse"
    faster = {seed: value * 0.8 for seed, value in parent.items()}
    assert compare.verdict(_metric(), parent, faster)[0] == "better"
    assert compare.verdict(_metric("higher"), parent, faster)[0] == "worse"
    noisy = {seed: (0.7 if seed % 2 else 1.3) for seed in range(10)}
    assert compare.verdict(_metric(), parent, noisy)[0] == "unresolved"
    setup = dict(_metric(), name="setup_s")
    assert compare.verdict(setup, parent, noisy)[0] == "same"


def test_compare_flags_changed_outputs():
    record = {"workload": "grid-serial", "seed": 1, "trace": 0, "smoke": False,
              "correct": True, "errors": [], "output_sha": "a", "packets_decoded": 5}
    changed = dict(record, output_sha="b")
    assert compare.correctness([record], [record]) == []
    assert len(compare.correctness([record], [changed])) == 1
