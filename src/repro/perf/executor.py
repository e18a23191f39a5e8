"""Worker-count resolution and the plain ``Runner`` over the sweep runtime.

Every artifact sweep in this reproduction — the Figs 9-11 grids, the fleet
study, the resilience matrix — is a list of
:class:`~repro.link.simulator.RunSpec` cells, each deriving *all* of its
randomness from its own ``(seed, cell)`` tuple.  Cells therefore share no
state, and executing them in worker processes is bit-identical to the
serial loop by construction: the same spec runs the same code against the
same seed either way, and result order is the spec order.

``workers=1`` (the default, also via the ``COLORBARS_WORKERS`` environment
switch) keeps everything in-process and serial.

:func:`run_specs` and :func:`make_runner` adapt
:func:`repro.perf.runtime.run_specs_resilient` to the plain
:data:`~repro.link.simulator.Runner` contract (a list of results, an
exception on failure) that :func:`~repro.link.simulator.sweep` and
:func:`~repro.link.multi.broadcast_to_fleet` take.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.exceptions import ConfigurationError, LinkError
from repro.link.simulator import LinkResult, RunSpec, Runner

#: Environment switch: ``COLORBARS_WORKERS=4`` parallelizes every sweep that
#: does not pin an explicit worker count.
WORKERS_ENV = "COLORBARS_WORKERS"


def validate_workers(workers, source: str = "workers") -> int:
    """The one worker-count validator every call site routes through.

    ``source`` names the knob in the error message (``workers``, the CLI
    flag, or :data:`WORKERS_ENV`), so the same rule reads the same
    everywhere: a worker count is a positive integer.  Digit strings are
    accepted (the environment can only supply strings); fractional values
    are rejected rather than silently truncated.
    """
    try:
        value = int(workers)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{source} must be a positive integer, got {workers!r}"
        ) from None
    if isinstance(workers, bool) or (
        isinstance(workers, float) and value != workers
    ):
        raise ConfigurationError(
            f"{source} must be a positive integer, got {workers!r}"
        )
    if value < 1:
        raise ConfigurationError(
            f"{source} must be a positive integer, got {workers!r}"
        )
    return value


def resolve_workers(workers: Optional[int] = None, cell_count: Optional[int] = None) -> int:
    """Validated, clamped worker count for a sweep of ``cell_count`` cells.

    ``None`` consults :func:`default_workers`; explicit values go through
    :func:`validate_workers`; and a pool never exceeds the number of cells
    it will actually run (``cell_count``, when known) — spawning idle
    workers is pure startup cost.
    """
    if workers is None:
        workers = default_workers()
    else:
        workers = validate_workers(workers)
    if cell_count is not None:
        workers = max(1, min(workers, cell_count))
    return workers


def default_workers() -> int:
    """Worker count from :data:`WORKERS_ENV`, defaulting to 1 (serial)."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or not raw.strip():
        return 1
    return validate_workers(raw.strip(), source=WORKERS_ENV)


def run_specs(
    specs: Sequence[RunSpec],
    workers: Optional[int] = None,
    observe: bool = False,
) -> List[LinkResult]:
    """Execute ``specs`` and return results in spec order.

    A thin wrapper over :func:`repro.perf.runtime.run_specs_resilient`
    with a plain :class:`~repro.perf.runtime.RuntimePolicy` (no watchdog,
    no retry, no chaos).  ``workers=None`` consults
    :func:`default_workers`; ``1`` runs serially in-process, ``>= 2`` on
    the supervised process pool; both produce byte-identical results.

    Every cell runs even if an earlier one fails; after the sweep, the
    first failed cell raises :class:`~repro.exceptions.LinkError` carrying
    its :meth:`~repro.exceptions.CellFailure.describe` line.

    ``observe=True`` records each cell into a cell-local tracer/registry
    (attached to the results as ``trace``/``obs_metrics``); observation is
    per-cell measurement metadata and cannot change any result.
    """
    # Imported lazily: repro.perf.runtime imports this module.
    from repro.perf.runtime import RuntimePolicy, run_specs_resilient

    outcome = run_specs_resilient(
        specs, workers=workers, policy=RuntimePolicy(), observe=observe
    )
    if outcome.failures:
        raise LinkError(outcome.failures[0].describe())
    return outcome.results


def make_runner(workers: Optional[int] = None, observe: bool = False) -> Runner:
    """A :data:`~repro.link.simulator.Runner` bound to a worker count.

    Inject into :func:`repro.link.simulator.sweep`,
    :func:`repro.link.multi.broadcast_to_fleet`, or any other spec-based
    sweep: ``sweep(device, runner=make_runner(4))``.  ``observe=True``
    makes every executed cell carry its span trace and metrics export
    (``result.trace`` / ``result.obs_metrics``), ready for
    :func:`repro.obs.assemble_trace` / ``MetricsRegistry.merge_export``.
    A failed cell raises :class:`~repro.exceptions.LinkError` after the
    sweep, as in :func:`run_specs`.
    """

    def runner(specs: Sequence[RunSpec]) -> List[LinkResult]:
        return run_specs(specs, workers=workers, observe=observe)

    return runner
