"""Resilient sweep runtime: watchdogs, crash containment, retry, journal.

:func:`run_specs_resilient` is the one entry point every sweep goes
through.  It fingerprints the cells, splices journaled ones on resume,
and runs the rest through one of two loops — serially in this process,
or on the supervised process pool (:func:`repro.perf.pool.run_pool`) —
each appending every completed cell to the sweep journal as it
finishes.  What both loops share:

* **Watchdog timeouts** — every cell runs under a deadline
  (``cell_timeout_s``, or the ``COLORBARS_CELL_TIMEOUT`` environment
  switch).  An overdue cell is killed with its worker and recorded; the
  sweep never hangs.
* **Crash containment** — a dead worker or a cell exception becomes a
  structured :class:`~repro.exceptions.CellFailure` (spec fingerprint,
  attempt count, cause taxonomy crash/timeout/error) and the remaining
  cells continue.  Sweeps return degraded results instead of dying.
* **Bounded retry with deterministic backoff** — failed cells retry up to
  ``max_attempts`` times.  The backoff schedule is seed-stable (a pure
  function of the cell's seed and the attempt number), and a retried cell
  re-derives *all* of its randomness from its own seed, so retries cannot
  change any result.
* **Journaled checkpoint/resume** — a JSONL :class:`RunJournal` keyed by
  :func:`spec_fingerprint` records each completed cell as it finishes;
  ``resume=True`` skips already-journaled cells, so a killed sweep resumes
  where it stopped and the resumed result set is byte-identical to an
  uninterrupted run.

Process-level chaos (:mod:`repro.faults.chaos`) tests all of this: because
a ``worker-crash`` in-process would take the caller down, a policy with
chaos or a watchdog always runs on the pool, even at one worker.  A plain
``workers=1`` run with neither stays in-process.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import pickle
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.camera.devices import DeviceProfile
from repro.exceptions import CellFailure, ConfigurationError, JournalError
from repro.faults.chaos import ProcessChaos
from repro.link.multi import FleetReport, fleet_report_from_results, fleet_specs
from repro.link.simulator import LinkResult, RunSpec
from repro.obs.schema import (
    M_CELLS_COMPLETED,
    M_CELLS_FAILED,
    M_CELLS_RESUMED,
    M_CELLS_RETRIED,
    M_SWEEP_WORKERS,
)
from repro.perf.executor import resolve_workers
from repro.util.rng import derive_rng, make_rng

#: Environment switch: ``COLORBARS_CELL_TIMEOUT=120`` puts every sweep cell
#: under a two-minute watchdog unless the call pins an explicit policy.
CELL_TIMEOUT_ENV = "COLORBARS_CELL_TIMEOUT"

#: Journal record layout version; bump when the record shape changes.
JOURNAL_SCHEMA_VERSION = 1

#: Pickle protocol pinned for stable fingerprints and journal payloads.
_PICKLE_PROTOCOL = 4

#: Delay before the first retry, seconds; each later retry doubles it.
_BACKOFF_BASE_S = 0.05
_BACKOFF_FACTOR = 2.0


def default_cell_timeout() -> Optional[float]:
    """Watchdog deadline from :data:`CELL_TIMEOUT_ENV`, or ``None`` (off)."""
    raw = os.environ.get(CELL_TIMEOUT_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{CELL_TIMEOUT_ENV} must be a positive number of seconds, got {raw!r}"
        ) from None
    if value <= 0:
        raise ConfigurationError(
            f"{CELL_TIMEOUT_ENV} must be a positive number of seconds, got {raw!r}"
        )
    return value


def spec_fingerprint(spec: RunSpec) -> str:
    """A stable content hash of one cell: the journal/failure identity.

    Two specs built from the same parameters fingerprint identically (the
    hash covers the pickled value object — config, device, channel, seed,
    columns, faults, payload, duration), so a resumed sweep recognizes its
    own cells across processes and sessions.
    """
    return hashlib.sha256(
        pickle.dumps(spec, protocol=_PICKLE_PROTOCOL)
    ).hexdigest()


@dataclass(frozen=True)
class RuntimePolicy:
    """Resilience knobs for one sweep execution.

    ``cell_timeout_s=None`` disables the watchdog; ``max_attempts=1``
    disables retry; an empty ``chaos`` tuple injects nothing.  The default
    policy is therefore exactly the PR 3 behavior plus containment.
    """

    cell_timeout_s: Optional[float] = None
    max_attempts: int = 1
    chaos: Tuple[ProcessChaos, ...] = ()

    def __post_init__(self) -> None:
        if self.cell_timeout_s is not None and not self.cell_timeout_s > 0:
            raise ConfigurationError(
                f"cell_timeout_s must be positive, got {self.cell_timeout_s!r}"
            )
        if int(self.max_attempts) != self.max_attempts or self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be a positive integer, got {self.max_attempts!r}"
            )

    def needs_isolation(self) -> bool:
        """Whether cells must run in worker processes even at ``workers=1``.

        A watchdog can only cancel a cell it can kill, and process chaos
        must never strike the caller's own process.
        """
        return self.cell_timeout_s is not None or bool(self.chaos)


def backoff_delay_s(spec_seed: int, attempt: int) -> float:
    """Seed-stable delay before retry ``attempt`` (attempt numbering from 2).

    Exponential in the attempt number with a deterministic jitter derived
    from the cell's own seed — two runs of the same sweep back off on the
    same schedule, and cells with different seeds desynchronize instead of
    thundering back in lockstep.
    """
    delay = _BACKOFF_BASE_S * _BACKOFF_FACTOR ** max(0, attempt - 2)
    jitter = derive_rng(
        make_rng(spec_seed), f"runtime:backoff:attempt:{attempt}"
    ).random()
    return float(delay * (1.0 + 0.25 * float(jitter)))


class _RecordUnpickler(pickle.Unpickler):
    """Loads records written while results kept ``LinkResult.matches``:
    its element class, since removed, loads as a namespace."""

    def find_class(self, module: str, name: str):
        if (module, name) == ("repro.core.metrics", "GroundTruthMatch"):
            return types.SimpleNamespace
        return super().find_class(module, name)


class RunJournal:
    """Append-only JSONL checkpoint of completed cells, keyed by fingerprint.

    Each line is a self-describing record::

        {"schema": 1, "fingerprint": "<sha256>", "result": "<base64 pickle>"}

    Appends flush per cell, so a killed sweep loses at most the cell that
    was mid-write; :meth:`load` skips unparseable (truncated) lines rather
    than failing resume — an unreadable cell simply reruns.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)

    def load(self) -> Dict[str, LinkResult]:
        """Fingerprint -> result for every readable journaled cell.

        Later records win over earlier ones.  Unparseable or truncated
        records are skipped (the affected cell simply reruns); a schema
        mismatch is a hard error.
        """
        entries: Dict[str, LinkResult] = {}
        if not self.path.exists():
            return entries
        try:
            lines = self.path.read_text().splitlines()
        except OSError as exc:
            raise JournalError(f"cannot read journal {self.path}: {exc}") from exc
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # truncated mid-write; the cell just reruns
            if not isinstance(record, dict):
                continue
            schema = record.get("schema")
            if schema != JOURNAL_SCHEMA_VERSION:
                raise JournalError(
                    f"journal {self.path} has schema {schema!r}, "
                    f"expected {JOURNAL_SCHEMA_VERSION}"
                )
            fingerprint = record.get("fingerprint")
            payload = record.get("result")
            if not (isinstance(fingerprint, str) and isinstance(payload, str)):
                continue
            try:
                record = io.BytesIO(base64.b64decode(payload))
                result = _RecordUnpickler(record).load()
            except Exception:  # corrupt payload: rerun that cell
                continue
            if isinstance(result, LinkResult):
                vars(result).pop("matches", None)  # older records' band copy
                entries[fingerprint] = result
        return entries

    def append(self, fingerprint: str, result: LinkResult) -> None:
        """Record one completed cell (flushed immediately).

        A killed run can leave a last line cut off mid-write, with no
        newline.  That tail is ended first, so the new record starts a
        line of its own instead of joining the torn one.
        """
        record = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "result": base64.b64encode(
                pickle.dumps(result, protocol=_PICKLE_PROTOCOL)
            ).decode("ascii"),
        }
        line = (json.dumps(record) + "\n").encode("ascii")
        try:
            with self.path.open("ab+") as handle:
                if handle.seek(0, os.SEEK_END):
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        line = b"\n" + line
                handle.write(line)
                handle.flush()
        except OSError as exc:
            raise JournalError(f"cannot append to journal {self.path}: {exc}") from exc

    def discard(self) -> None:
        """Delete the journal file (fresh non-resume runs start clean)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise JournalError(f"cannot reset journal {self.path}: {exc}") from exc


@dataclass
class RuntimeResult:
    """What a resilient sweep produced: results in spec order, plus damage.

    ``results[i]`` is ``None`` exactly when spec ``i`` has a matching entry
    in ``failures``; ``resumed`` counts cells satisfied from the journal
    without re-execution.  ``workers`` is the worker count the sweep ran
    with: the request clamped to the cell count, and 1 on the serial loop.
    """

    results: List[Optional[LinkResult]]
    failures: List[CellFailure] = field(default_factory=list)
    resumed: int = 0
    workers: int = 1

    @property
    def degraded(self) -> bool:
        return bool(self.failures)

    @property
    def completed(self) -> int:
        return sum(1 for result in self.results if result is not None)

    def failure_summary(self) -> str:
        """One line for CLI/reports: how many cells failed, and why."""
        if not self.failures:
            return f"ok: {self.completed}/{len(self.results)} cells completed"
        counts: Dict[str, int] = {}
        for failure in self.failures:
            counts[failure.cause] = counts.get(failure.cause, 0) + 1
        causes = ", ".join(
            f"{cause}={count}" for cause, count in sorted(counts.items())
        )
        return (
            f"degraded: {len(self.failures)}/{len(self.results)} cells failed "
            f"({causes})"
        )


class SweepCell(NamedTuple):
    """One pending sweep cell: its spec position, journal identity, spec."""

    index: int
    fingerprint: str
    spec: RunSpec


def _annotate_trace(result: LinkResult, index: int, attempt: int) -> LinkResult:
    """Stamp cell position/attempt onto an observed result's root span.

    Attributes only — span *structure* stays a pure function of the spec,
    which is what keeps serial and parallel trees identical.
    """
    trace = getattr(result, "trace", None)
    if trace:
        trace[0].set("cell_index", index)
        trace[0].set("attempt", attempt)
    return result


def _run_serial(
    cells: Sequence[SweepCell],
    policy: RuntimePolicy,
    journal: Optional[RunJournal],
    observe: bool,
) -> Tuple[Dict[int, LinkResult], List[CellFailure], int]:
    """Run ``cells`` one at a time in this process; same returns as the pool.

    The reference loop: no process boundary, so it can enforce no
    watchdog and host no chaos (the caller routes such policies to the
    pool), but it contains and retries cell exceptions per ``policy``.
    """
    results: Dict[int, LinkResult] = {}
    failures: List[CellFailure] = []
    retried = 0
    for cell in cells:
        attempt = 1
        while True:
            try:
                result = _annotate_trace(
                    cell.spec.execute(observe=observe), cell.index, attempt
                )
            except Exception as exc:
                if attempt < policy.max_attempts:
                    time.sleep(backoff_delay_s(cell.spec.seed, attempt + 1))
                    attempt += 1
                    retried += 1
                    continue
                failures.append(
                    CellFailure(
                        fingerprint=cell.fingerprint,
                        index=cell.index,
                        cause="error",
                        attempts=attempt,
                        error_type=type(exc).__name__,
                        message=str(exc),
                    )
                )
                break
            if journal is not None:
                journal.append(cell.fingerprint, result)
            results[cell.index] = result
            break
    return results, failures, retried


def run_specs_resilient(
    specs: Sequence[RunSpec],
    workers: Optional[int] = None,
    policy: Optional[RuntimePolicy] = None,
    journal=None,
    resume: bool = False,
    observe: bool = False,
    metrics=None,
    backend: Optional[str] = None,
) -> RuntimeResult:
    """Execute ``specs`` with watchdogs, containment, retry, and journaling.

    ``workers=None`` consults ``COLORBARS_WORKERS`` (clamped to the cell
    count); ``policy=None`` builds a default whose watchdog comes from
    ``COLORBARS_CELL_TIMEOUT``.  ``journal`` is a path or :class:`RunJournal`;
    without ``resume`` an existing journal file is discarded first, with
    ``resume`` its cells are spliced into the results unrun.  Successful
    cells are byte-identical whatever the worker count or loop —
    resilience only changes what happens to the unsuccessful ones.

    ``observe=True`` records each executed cell into a cell-local tracer
    and registry, attached to the results (``trace``/``obs_metrics``) —
    and therefore carried by the journal, so resumed cells keep their
    original traces.  Passing a :class:`repro.obs.metrics.MetricsRegistry`
    as ``metrics`` implies ``observe``: every cell's export is merged into
    it, plus the runtime's own counters (cells completed/failed/retried/
    resumed, worker gauge).

    Pending cells run serially in this process when the resolved worker
    count is 1 and the policy needs no isolation (no watchdog, no chaos),
    and on the supervised pool (:func:`repro.perf.pool.run_pool`)
    otherwise; ``backend="pool"`` forces the pool.
    """
    if backend not in (None, "pool"):
        raise ConfigurationError(
            f"backend must be None or 'pool', got {backend!r}"
        )
    specs = list(specs)
    if metrics is not None:
        observe = True
    if policy is None:
        policy = RuntimePolicy(cell_timeout_s=default_cell_timeout())
    workers = resolve_workers(workers, cell_count=len(specs))
    if journal is not None and not isinstance(journal, RunJournal):
        journal = RunJournal(journal)

    journaled: Dict[str, LinkResult] = {}
    if journal is not None:
        if resume:
            journaled = journal.load()
        else:
            journal.discard()

    results: List[Optional[LinkResult]] = [None] * len(specs)
    resumed = 0
    pending: List[SweepCell] = []
    for index, spec in enumerate(specs):
        fingerprint = spec_fingerprint(spec)
        prior = journaled.get(fingerprint)
        if prior is not None:
            results[index] = prior
            resumed += 1
        else:
            pending.append(SweepCell(index, fingerprint, spec))

    if backend is None and workers == 1 and not policy.needs_isolation():
        ran, failures, retried = _run_serial(pending, policy, journal, observe)
    else:
        # Imported lazily: repro.perf.pool imports this module.
        from repro.perf import pool

        ran, failures, retried = pool.run_pool(
            pending, workers, policy, journal, observe
        )
    for index, result in ran.items():
        results[index] = result
    failures.sort(key=lambda failure: failure.index)

    if metrics is not None:
        metrics.gauge(M_SWEEP_WORKERS).set(workers)
        metrics.counter(M_CELLS_COMPLETED).inc(
            sum(1 for result in results if result is not None)
        )
        metrics.counter(M_CELLS_FAILED).inc(len(failures))
        metrics.counter(M_CELLS_RETRIED).inc(retried)
        metrics.counter(M_CELLS_RESUMED).inc(resumed)
        for result in results:
            exported = getattr(result, "obs_metrics", None)
            if exported:
                metrics.merge_export(exported)
    return RuntimeResult(
        results=results, failures=failures, resumed=resumed, workers=workers
    )


def resilient_fleet(
    devices: Sequence[DeviceProfile],
    workers: Optional[int] = None,
    policy: Optional[RuntimePolicy] = None,
    journal=None,
    resume: bool = False,
    **fleet_kwargs,
) -> FleetReport:
    """The §8 fleet broadcast through the resilient runtime.

    Failed member runs surface as ``FleetReport.failures`` (and per-member
    ``failure`` records) instead of aborting the whole broadcast — the
    deployment question §8 asks survives a flaky worker.
    """
    compare_dedicated = fleet_kwargs.get("compare_dedicated", True)
    specs = fleet_specs(devices, **fleet_kwargs)
    outcome = run_specs_resilient(
        specs, workers=workers, policy=policy, journal=journal, resume=resume
    )
    return fleet_report_from_results(
        devices,
        specs,
        outcome.results,
        compare_dedicated=compare_dedicated,
        failures=outcome.failures,
    )
