#!/usr/bin/env python3
"""Run the ColorBars benchmark.

One workload, in the form a regression gate runs::

    python3 bench/run.py --workload grid-serial --seed 7 --seconds 20 --trace 0

prints progress lines and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json from untraced reps;
``--trace 1`` reports the per-layer metrics from a traced set-up and rep.
``--out FILE`` also writes the full record (per-rep values, spreads,
diagnostics, ``output_sha``, environment) as JSON.

A whole set, every workload in its own fresh process, untraced then traced::

    python3 bench/run.py --seed 7 --runs 1 --out set.json

Compare two sets with ``python3 bench/compare.py a.json b.json``.  The
program is imported from ``src/`` next to this directory; without it the
command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space (worker counters, set-mode records) inside the checkout.
OUT_DIR = ROOT / ".bench_out"

#: BLAS/OpenMP pools pinned to one thread before numpy loads: two pool
#: workers with default BLAS threads oversubscribe a 2-CPU host.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Set-up runs this many times per untraced run; ``setup_s`` is the median.
SETUP_REPS = 3
WORKLOADS = ("grid-serial", "grid-pool", "serve-live", "serve-churn")


def summarize(values):
    """Median and spread of per-rep values: min/max below 5, else quartiles."""
    values = [float(v) for v in values]
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) < 5:
        out["min"], out["max"] = min(values), max(values)
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}".strip()
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": affinity or os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "platform": platform.platform(),
    }


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for section in ("end_to_end", "per_layer")
        for metric in spec[section]
    }


def _metric_block(values: dict) -> dict:
    units = declared_units()
    return {
        name: {"value": value, "unit": units.get(name, "")}
        for name, value in values.items()
    }


# -- one workload -----------------------------------------------------------


def run_reps(workload, state, seconds: float):
    """A fixed number of reps sized to ``seconds`` on the reference host.

    The count depends on ``seconds`` alone, never on how fast this run
    goes, so every run of a seed does the same work: same outputs, same
    peak memory.
    """
    count = max(1, round(seconds / workload.nominal_rep_s))
    start = time.perf_counter()
    reps = [workload.rep(state, index) for index in range(count)]
    return reps, time.perf_counter() - start


def untraced(workload, seed: int, seconds: float) -> dict:
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    reps, elapsed = run_reps(workload, state, seconds)
    metrics = {"setup_s": statistics.median(setup_times)}
    per_rep = {"setup_s": setup_times}
    for name, (value, values) in workload.end_to_end(reps).items():
        metrics[name] = value
        per_rep[name] = values
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "metrics": metrics,
        "per_rep": per_rep,
        "spread": {name: summarize(values) for name, values in per_rep.items()},
        "reps": len(reps),
        "measured_s": elapsed,
        "attempted": sum(rep.ops for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "errors": [error for rep in reps for error in rep.errors],
        "output_sha": reps[0].digest,
        "packets_decoded": reps[0].packets_decoded,
        "diagnostics": workload.diagnostics(reps),
    }


def traced(workload, seed: int) -> dict:
    """One untraced and one traced set-up + rep; per-layer from the latter.

    An untimed set-up runs first so neither timed leg pays for a cold
    process, which would skew ``trace_overhead_frac``.
    """
    from layers import LayerTracer

    workload.setup(seed)
    start = time.perf_counter()
    state = workload.setup(seed)
    base = workload.rep(state, 0)
    untraced_s = time.perf_counter() - start

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as spool:
        tracer = LayerTracer(spool_dir=Path(spool))
        start = time.perf_counter()
        with tracer:
            traced_state = workload.setup(seed)
            rep = workload.rep(traced_state, workload.trace_index)
        traced_s = time.perf_counter() - start
        workers_merged = tracer.collect_spool()
    errors = list(base.errors) + list(rep.errors)
    if workload.lanes > 1 and not workers_merged:
        errors.append("no pool worker left layer counters")
    # Replay the traced inputs untraced: the wrappers must change nothing.
    reference = base if workload.trace_index == 0 else workload.rep(state, workload.trace_index)
    if reference.digest != rep.digest:
        errors.append("traced outputs differ from untraced outputs")
    overhead = traced_s / untraced_s - 1.0
    ops = [base, rep] + ([] if reference is base else [reference])
    return {
        "metrics": per_layer_metrics(tracer, rep, overhead),
        "attempted": sum(r.ops for r in ops),
        "failed": sum(r.failed for r in ops),
        "errors": errors,
        "output_sha": base.digest,
        "packets_decoded": base.packets_decoded,
        "diagnostics": {
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "workers_merged": workers_merged,
            "layers": {
                layer: tracer.layer(layer)
                for layer in sorted({t.layer for t in tracer.targets})
            },
            **workload.trace_diagnostics(tracer, rep),
        },
    }


def per_layer_metrics(tracer, rep, overhead: float) -> dict:
    layer = tracer.layer
    camera = layer("camera")
    return {
        "camera.record_s": camera["self_s"],
        "camera.ms_per_frame": camera["total_s"] * 1e3 / max(1, camera["count"]),
        "tx.plan_s": layer("tx.plan")["self_s"],
        "tx.waveform_s": layer("tx.waveform")["self_s"],
        "rx.preprocess_s": layer("rx.preprocess")["self_s"],
        "rx.segment_s": layer("rx.segment")["self_s"],
        "rx.detect_s": layer("rx.detect")["self_s"],
        "csk.calibration_s": layer("csk.calibration")["self_s"],
        "rx.assemble_s": layer("rx.assemble")["self_s"],
        "fec.decode_s": layer("fec")["self_s"],
        "rx.receiver_self_s": layer("rx.receiver")["self_s"] + layer("rx.streaming")["self_s"],
        "rx.bands": layer("rx.segment")["count"],
        "rx.symbols": layer("rx.detect")["count"],
        "fec.decode_calls": layer("fec")["calls"],
        "csk.calibration_updates": tracer.key(
            "repro.csk.calibration:CalibrationTable.update_partial"
        )["calls"],
        "rx.packets_decoded": rep.packets_decoded,
        "trace_overhead_frac": overhead,
    }


def run_one(args) -> int:
    from workloads import make_workloads

    workload = make_workloads(smoke=args.smoke)[args.workload]
    start = time.perf_counter()
    if args.trace:
        record = traced(workload, args.seed)
    else:
        record = untraced(workload, args.seed, args.seconds)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        correct=not record["errors"],
        wall_s=time.perf_counter() - start,
        environment=environment(),
    )
    for error in record["errors"][:20]:
        print(f"ERROR {args.workload}: {error}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"sha {record['output_sha'][:12]}, {record['attempted']} ops, "
          f"{record['failed']} failed, {record['wall_s']:.1f} s")
    for name, value in sorted(record["diagnostics"].items()):
        if not isinstance(value, dict):
            print(f"  {name} = {value}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": _metric_block(record["metrics"]),
    }))
    return 0 if record["correct"] else 1


# -- a whole set ------------------------------------------------------------


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_set(args) -> int:
    """Every workload, ``--runs`` seeds each, untraced then traced."""
    OUT_DIR.mkdir(exist_ok=True)
    started = time.time()
    records = []
    failures = 0
    for name in WORKLOADS:
        for run in range(args.runs):
            for trace in (0, 1):
                with tempfile.NamedTemporaryFile(
                    dir=OUT_DIR, suffix=".json", delete=False
                ) as handle:
                    path = Path(handle.name)
                command = [
                    sys.executable, str(BENCH_DIR / "run.py"),
                    "--workload", name, "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(path),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, capture_output=True, text=True, check=False)
                summary = [line for line in done.stdout.splitlines() if " seed=" in line]
                print(summary[0] if summary else f"{name}: no result", flush=True)
                if done.returncode != 0:
                    failures += 1
                    sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                try:
                    records.append(json.loads(path.read_text()))
                except ValueError:
                    pass
                finally:
                    path.unlink()
    result = {
        "schema": 1,
        "git_rev": git_rev(),
        "seed": args.seed,
        "runs_per_workload": args.runs,
        "seconds": args.seconds,
        "started_unix": started,
        "total_wall_s": time.time() - started,
        "environment": environment(),
        "records": records,
    }
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}: {len(records)} record(s) in "
          f"{result['total_wall_s']:.0f} s, {failures} failed run(s)")
    return 1 if failures else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; omit to run a whole set")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of one untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-tests")
    parser.add_argument("--out", help="write the full record (set mode: the set)")
    parser.add_argument("--runs", type=int, default=1,
                        help="set mode: seeds per workload (seed, seed+1, ...)")
    args = parser.parse_args(argv)
    if args.workload is None and not args.out:
        parser.error("set mode needs --out")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the program source {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_set(args)
    return run_one(args)


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    sys.exit(main())
