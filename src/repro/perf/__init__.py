"""Performance subsystem: parallel execution and resilience.

Two pieces (DESIGN.md §5d-§5e, §5k):

* :mod:`repro.perf.runtime` — :func:`run_specs_resilient`, the one entry
  point for running a list of independent
  :class:`~repro.link.simulator.RunSpec` cells: per-cell watchdog
  timeouts (``COLORBARS_CELL_TIMEOUT`` / ``--cell-timeout``), crash
  containment into structured :class:`~repro.exceptions.CellFailure`
  records, bounded seed-stable retry, and a JSONL checkpoint journal with
  ``--resume``.  It runs the cells serially in-process at one worker,
  or else on the supervised process pool of :mod:`repro.perf.pool`;
  both give identical results, since each cell derives all randomness
  from its own seed.
* :mod:`repro.perf.executor` — worker-count resolution
  (``COLORBARS_WORKERS`` / ``--workers``; 1 is serial) and
  :func:`run_specs` / :func:`make_runner`, thin wrappers that give the
  runtime the plain ``Runner`` contract.

A cell's stage times are the durations of its spans
(:mod:`repro.obs.trace`); the repository benchmark lives in ``bench/``.
"""

from repro.perf.executor import (
    WORKERS_ENV,
    default_workers,
    make_runner,
    resolve_workers,
    run_specs,
    validate_workers,
)
from repro.perf.runtime import (
    CELL_TIMEOUT_ENV,
    RunJournal,
    RuntimePolicy,
    RuntimeResult,
    default_cell_timeout,
    run_specs_resilient,
    spec_fingerprint,
)

__all__ = [
    "WORKERS_ENV",
    "default_workers",
    "make_runner",
    "resolve_workers",
    "run_specs",
    "validate_workers",
    "CELL_TIMEOUT_ENV",
    "RunJournal",
    "RuntimePolicy",
    "RuntimeResult",
    "default_cell_timeout",
    "run_specs_resilient",
    "spec_fingerprint",
]
