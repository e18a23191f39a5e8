"""The supervised process pool: the sweep engine behind ``workers >= 2``.

:func:`run_pool` gives every cell watchdog deadlines, ``BrokenProcessPool``
containment, innocent-pool-mate resubmission and seed-stable retry:

* cells are dispatched in spec order, at most one per worker at a time;
* the driver process appends each completed cell to the sweep journal as
  it finishes;
* every worker exits on its own once the driver that forked it is gone,
  so a killed sweep leaves no orphans behind (:data:`_MP_CONTEXT` keeps
  the driver each worker's parent, which that guard relies on).

:func:`repro.perf.runtime.run_specs_resilient` runs a sweep here whenever
it needs more than one worker, a watchdog, or chaos.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.camera.capture import start_pool_worker
from repro.exceptions import CellFailure
from repro.faults.chaos import ProcessChaos
from repro.link.simulator import LinkResult, RunSpec
from repro.perf.runtime import (
    RunJournal,
    RuntimePolicy,
    SweepCell,
    _annotate_trace,
    backoff_delay_s,
)

#: Poll interval of the supervision loop, seconds.
_TICK_S = 0.1

#: How often a pool worker checks that its driver is still alive, seconds.
_DRIVER_POLL_S = 0.5

#: Start method of the pool's workers.  Under ``forkserver`` (the Linux
#: default from Python 3.14) a worker's parent is the fork server, which
#: :func:`_start_worker` would read as a dead driver, and which itself
#: outlives a killed driver.  ``fork`` keeps the driver the parent; other
#: platforms keep their default (``spawn``, whose workers are the
#: driver's children too).
_MP_CONTEXT = (
    multiprocessing.get_context("fork") if sys.platform.startswith("linux")
    else None
)


@dataclass
class _Cell:
    """Mutable supervision state for one sweep cell while the pool runs it."""

    cell: SweepCell
    attempt: int = 1
    #: Dispatch time of the current attempt (watchdog reference), or None.
    started_at: Optional[float] = None
    #: Earliest monotonic time the next attempt may be submitted (backoff).
    ready_at: float = 0.0


def _execute_cell(
    index: int,
    spec: RunSpec,
    attempt: int,
    chaos: Tuple[ProcessChaos, ...],
    observe: bool = False,
) -> LinkResult:
    """Worker-side cell entry point: chaos first, then the real run."""
    for injector in chaos:
        injector.before_cell(cell_index=index, attempt=attempt)
    result = spec.execute(observe=observe)
    return _annotate_trace(result, index, attempt)


def _start_worker(driver_pid: int, pool_width: int) -> None:
    """Pool-worker initializer: a clean capture engine, then a driver watch.

    The worker's capture engine gets its share of the CPUs (``pool_width``
    workers run cells at once) and drops the plan memo inherited from the
    driver.  The worker then hard-exits once the driver process is gone:
    a killed driver closes none of the pool's pipes, and forked workers
    hold each other's pipe ends, so an orphaned worker blocked on one would
    never see EOF.  A daemon thread polls the parent pid instead; the worker
    is reparented the moment the driver dies.
    """
    start_pool_worker(pool_width)

    def watch() -> None:
        while os.getppid() == driver_pid:
            time.sleep(_DRIVER_POLL_S)
        os._exit(1)

    threading.Thread(
        target=watch, name="colorbars-driver-watch", daemon=True
    ).start()


def _teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool hard: terminate every worker, then release the executor.

    ``shutdown`` alone cannot clear a hung worker — the hang *is* the
    running task — so the watchdog terminates the processes first; the
    executor's management thread then observes the deaths and unblocks.
    """
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except OSError:
            pass
    pool.shutdown(wait=True, cancel_futures=True)


def run_pool(
    cells: Sequence[SweepCell],
    workers: int,
    policy: RuntimePolicy,
    journal: Optional[RunJournal],
    observe: bool,
) -> Tuple[Dict[int, LinkResult], List[CellFailure], int]:
    """Run ``cells`` (in spec order) on at most ``workers`` processes.

    Returns ``(results by cell index, failures, retry attempts consumed)``
    with exactly one result or failure per cell; each result is appended
    to ``journal`` as it arrives.

    In-flight submissions are capped at the pool width, so (a) a broken
    pool takes down at most ``workers`` attempts, and (b) a cell's deadline
    starts when a worker slot is actually dedicated to it.  Cells caught in
    a teardown they did not cause (pool-mates of a hung cell observed
    before their own deadline) are resubmitted at the *same* attempt
    number — only a cell's own crash, timeout, or error consumes one of
    its attempts.
    """
    pending: Deque[_Cell] = deque(_Cell(cell) for cell in cells)
    active: Dict[Future, _Cell] = {}
    results: Dict[int, LinkResult] = {}
    failures: List[CellFailure] = []
    retried = 0

    def retry_or_fail(cell: _Cell, cause: str, error_type: str, message: str) -> None:
        """Requeue the cell for its next attempt, or record its final failure.

        Backoff counts from the current supervision tick's ``now``.
        """
        nonlocal retried
        if cell.attempt < policy.max_attempts:
            cell.ready_at = now + backoff_delay_s(
                cell.cell.spec.seed, cell.attempt + 1
            )
            cell.attempt += 1
            cell.started_at = None
            pending.append(cell)
            retried += 1
            return
        failures.append(
            CellFailure(
                fingerprint=cell.cell.fingerprint,
                index=cell.cell.index,
                cause=cause,
                attempts=cell.attempt,
                error_type=error_type,
                message=message,
            )
        )

    pool: Optional[ProcessPoolExecutor] = None
    pool_width = 0
    try:
        while pending or active:
            now = time.monotonic()
            if pool is None and any(c.ready_at <= now for c in pending):
                pool_width = max(1, min(workers, len(pending)))
                pool = ProcessPoolExecutor(
                    max_workers=pool_width,
                    mp_context=_MP_CONTEXT,
                    initializer=_start_worker,
                    initargs=(os.getpid(), pool_width),
                )
            while pool is not None and len(active) < pool_width:
                cell = next((c for c in pending if c.ready_at <= now), None)
                if cell is None:
                    break
                pending.remove(cell)
                cell.started_at = time.monotonic()
                future = pool.submit(
                    _execute_cell, cell.cell.index, cell.cell.spec,
                    cell.attempt, policy.chaos, observe,
                )
                active[future] = cell

            if not active:
                # Everything runnable is backing off; sleep to the gate.
                wake = min(c.ready_at for c in pending)
                time.sleep(max(0.0, min(wake - time.monotonic(), _TICK_S)))
                continue

            done, _ = futures_wait(
                set(active), timeout=_TICK_S, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            pool_broke = False
            for future in done:
                cell = active.pop(future)
                error = future.exception()
                if error is None:
                    result = future.result()
                    if journal is not None:
                        journal.append(cell.cell.fingerprint, result)
                    results[cell.cell.index] = result
                elif isinstance(error, BrokenProcessPool):
                    pool_broke = True
                    retry_or_fail(
                        cell, "crash", type(error).__name__, "worker process died"
                    )
                else:
                    retry_or_fail(cell, "error", type(error).__name__, str(error))

            if pool_broke:
                # Every other in-flight attempt died with the pool; each
                # consumes an attempt (the crasher is indistinguishable
                # from its pool-mates once the pool is broken).
                for cell in active.values():
                    retry_or_fail(
                        cell, "crash", "BrokenProcessPool", "worker process died"
                    )
                active.clear()
                _teardown_pool(pool)
                pool = None
                continue

            if policy.cell_timeout_s is not None and active:
                overdue = [
                    (future, cell)
                    for future, cell in active.items()
                    if cell.started_at is not None
                    and now - cell.started_at > policy.cell_timeout_s
                ]
                if overdue:
                    for future, cell in overdue:
                        active.pop(future)
                        retry_or_fail(
                            cell, "timeout", "TimeoutError",
                            f"cell exceeded {policy.cell_timeout_s:g}s watchdog "
                            f"deadline on attempt {cell.attempt}",
                        )
                    for cell in active.values():
                        # Innocent pool-mates: rerun at the same attempt.
                        cell.started_at = None
                        pending.append(cell)
                    active.clear()
                    _teardown_pool(pool)
                    pool = None
    finally:
        if pool is not None:
            _teardown_pool(pool)
    return results, failures, retried
