"""Sharded sweep driver: the half of distribution no backend has to write.

The driver owns everything above the ``submit_shard / drain / close``
line, so every backend gets the same semantics for free:

* **identity** — each spec's :func:`~repro.perf.runtime.spec_fingerprint`
  is computed here and rides the :class:`~repro.perf.backends.base.ShardCell`;
* **resume** — with ``resume``, cells already in the sweep journal are
  spliced into the results unrun; without it the journal is discarded;
* **sharding** — pending cells round-robin across the backend's lanes
  (cell *i* of the pending list lands in shard ``i % lanes``), a pure
  function of the spec list and lane count, so two runs shard alike;
* **journal** — every shard checkpoints into the sweep journal itself, so
  there is one file per sweep and nothing to merge after ``drain``;
* **observability** — the ``colorbars.sweep.*`` and
  ``colorbars.backend.*`` metrics, and the root -> shard -> cell trace via
  :func:`repro.obs.trace.assemble_sharded_trace`.

Backends only execute cells; the driver guarantees that whatever they
are, the sweep's results, journal, and failure records look the same.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.exceptions import BackendError, CellFailure
from repro.link.simulator import LinkResult, RunSpec
from repro.obs.schema import (
    M_BACKEND_CELLS,
    M_CELLS_COMPLETED,
    M_CELLS_FAILED,
    M_CELLS_RESUMED,
    M_CELLS_RETRIED,
    M_SWEEP_WORKERS,
)
from repro.obs.trace import Span, assemble_sharded_trace
from repro.perf.backends.base import Shard, ShardCell, SweepBackend
from repro.perf.runtime import RunJournal, RuntimeResult, spec_fingerprint

# -- sharding --------------------------------------------------------------


def make_shards(
    cells: Sequence[ShardCell], lanes: int, journal_path=None
) -> List[Shard]:
    """Round-robin ``cells`` into at most ``lanes`` non-empty shards.

    Cell *i* of the list lands in shard ``i % lanes`` — a pure function
    of (cell order, lane count), so two runs of the same sweep shard
    identically and a resumed run re-shards only what is still pending.
    Every shard checkpoints into ``journal_path``, the sweep journal.
    """
    if not cells:
        return []
    lane_count = max(1, min(int(lanes), len(cells)))
    buckets: List[List[ShardCell]] = [[] for _ in range(lane_count)]
    for position, cell in enumerate(cells):
        buckets[position % lane_count].append(cell)
    return [
        Shard(
            shard_id=shard_id,
            cells=tuple(bucket),
            journal_path=None if journal_path is None else str(journal_path),
        )
        for shard_id, bucket in enumerate(buckets)
    ]


# -- the drive -------------------------------------------------------------


def record_sweep_metrics(
    metrics,
    results: Sequence[Optional[LinkResult]],
    failures: Sequence[CellFailure],
    retried: int,
    resumed: int,
    workers: int,
) -> None:
    """Fold one sweep's runtime counters and per-cell exports into ``metrics``.

    ``workers`` is the effective lane count: the backend's lanes, clamped
    to the number of cells in the sweep.
    """
    metrics.gauge(M_SWEEP_WORKERS).set(workers)
    completed = sum(1 for result in results if result is not None)
    metrics.counter(M_CELLS_COMPLETED).inc(completed)
    metrics.counter(M_CELLS_FAILED).inc(len(failures))
    metrics.counter(M_CELLS_RETRIED).inc(retried)
    metrics.counter(M_CELLS_RESUMED).inc(resumed)
    for result in results:
        exported = getattr(result, "obs_metrics", None)
        if exported:
            metrics.merge_export(exported)


def run_specs_sharded(
    specs: Sequence[RunSpec],
    backend: SweepBackend,
    journal=None,
    resume: bool = False,
    observe: bool = False,
    metrics=None,
) -> RuntimeResult:
    """Execute ``specs`` through a :class:`SweepBackend`, shard by shard.

    The one sweep engine behind
    :func:`repro.perf.runtime.run_specs_resilient` (journal
    path-or-object, ``resume`` splicing, ``metrics`` implies ``observe``);
    the returned :class:`RuntimeResult` carries ``shard_of`` (per spec,
    which shard ran it — ``None`` for resumed cells).  The caller keeps
    ownership of the backend (close it when done).
    """
    specs = list(specs)
    if metrics is not None:
        observe = True
    if observe:
        backend.observe = True
    if journal is not None and not isinstance(journal, RunJournal):
        journal = RunJournal(journal)

    journaled: Dict[str, LinkResult] = {}
    if journal is not None:
        if resume:
            journaled = journal.load()
        else:
            journal.discard()

    results: List[Optional[LinkResult]] = [None] * len(specs)
    failures: List[CellFailure] = []
    resumed = 0
    pending: List[ShardCell] = []
    for index, spec in enumerate(specs):
        fingerprint = spec_fingerprint(spec)
        prior = journaled.get(fingerprint)
        if prior is not None:
            results[index] = prior
            resumed += 1
        else:
            pending.append(
                ShardCell(index=index, fingerprint=fingerprint, spec=spec)
            )

    shard_of: List[Optional[int]] = [None] * len(specs)
    retried_before = backend.cells_retried
    if pending:
        shards = make_shards(
            pending,
            backend.lanes,
            journal_path=journal.path if journal is not None else None,
        )
        for shard in shards:
            backend.submit_shard(shard)
            for cell in shard.cells:
                shard_of[cell.index] = shard.shard_id
        for outcome in backend.drain():
            if outcome.result is not None:
                results[outcome.index] = outcome.result
            elif outcome.failure is not None:
                failures.append(outcome.failure)
        holes = [
            cell.index
            for cell in pending
            if results[cell.index] is None
            and not any(failure.index == cell.index for failure in failures)
        ]
        if holes:
            raise BackendError(
                f"backend {backend.name!r} returned no outcome for "
                f"cell(s) {holes[:5]}; the drain contract requires one "
                f"per submitted cell"
            )
        failures.sort(key=lambda failure: failure.index)

    outcome = RuntimeResult(
        results=results, failures=failures, resumed=resumed, shard_of=shard_of
    )
    if metrics is not None:
        record_sweep_metrics(
            metrics,
            results,
            failures,
            retried=backend.cells_retried - retried_before,
            resumed=resumed,
            workers=max(1, min(backend.lanes, len(specs))),
        )
        metrics.counter(M_BACKEND_CELLS).inc(len(pending))
    return outcome


def assemble_backend_trace(
    outcome: RuntimeResult,
    backend_name: str,
    lanes: int,
    root_attributes: Optional[Dict[str, object]] = None,
) -> List[Span]:
    """The sweep's root -> shard -> cell trace, in sharding-plan order.

    Cells group by the shard that ran them (``outcome.shard_of``), in
    spec order within each group; cells satisfied from the resume journal
    carry no shard and group under a trailing ``shard: resumed`` span.
    """
    by_shard: Dict[Optional[int], List[Optional[Sequence[Span]]]] = {}
    for shard_id, result in zip(outcome.shard_of, outcome.results):
        trace = getattr(result, "trace", None) if result is not None else None
        by_shard.setdefault(shard_id, []).append(trace)
    groups = []
    for shard_id in sorted(
        by_shard, key=lambda s: (s is None, s if s is not None else 0)
    ):
        groups.append(
            (
                {
                    "backend": backend_name,
                    "shard": "resumed" if shard_id is None else shard_id,
                },
                by_shard[shard_id],
            )
        )
    root_attrs = dict(root_attributes or {})
    root_attrs.setdefault("backend", backend_name)
    root_attrs.setdefault("lanes", lanes)
    return assemble_sharded_trace(groups, root_attributes=root_attrs)
