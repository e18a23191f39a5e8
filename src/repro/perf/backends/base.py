"""The sweep-backend contract: ``submit_shard`` / ``drain`` / ``close``.

A :class:`SweepBackend` is the execution engine behind a distributed sweep:
the driver (:mod:`repro.perf.backends.driver`) shards a sweep's pending
cells across the backend's parallel lanes, submits each shard, and drains
the per-cell outcomes.  Two implementations ship with the repo —

* ``inprocess`` (:mod:`repro.perf.backends.inprocess`) — serial, in the
  caller's process: the *reference* every other backend must match
  byte-for-byte;
* ``pool`` (:mod:`repro.perf.backends.pool`) — a supervised process
  pool on one host (watchdog, crash containment, retry).

The full backend-author contract — lifecycle, journal semantics, the
failure taxonomy, and how to prove byte-identity against ``inprocess`` —
is documented in ``docs/BACKENDS.md``; the obligations in one paragraph:

1. Execute **every** cell of every submitted shard, containing per-cell
   failures into :class:`~repro.exceptions.CellFailure` outcomes (cause
   ``crash``/``timeout``/``error``) instead of raising; apply the
   :class:`~repro.perf.runtime.RuntimePolicy`'s watchdog, retry, and
   chaos semantics yourself.
2. Append each completed cell to ``shard.journal()`` (the sweep's
   :class:`~repro.perf.runtime.RunJournal`) *as it finishes*, from the
   driver process — a killed sweep may only lose in-flight cells.
3. Never let execution order, lane assignment, or retries change a
   result: a cell is a pure function of its spec, so any backend's result
   table must be byte-identical to the ``inprocess`` reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from repro.exceptions import BackendError, CellFailure, ConfigurationError
from repro.link.simulator import LinkResult, RunSpec
from repro.perf.runtime import RunJournal, RuntimePolicy


@dataclass(frozen=True)
class ShardCell:
    """One sweep cell as a backend sees it: position, identity, and spec."""

    index: int
    fingerprint: str
    spec: RunSpec


@dataclass(frozen=True)
class Shard:
    """One unit of backend work: the cells assigned to one parallel lane.

    ``journal_path`` (when the sweep is journaled) is the sweep journal,
    where the backend must checkpoint this shard's completed cells; every
    shard of a sweep shares it.
    """

    shard_id: int
    cells: Tuple[ShardCell, ...]
    journal_path: Optional[str] = None

    def journal(self) -> Optional[RunJournal]:
        """The sweep's checkpoint journal, or ``None`` when unjournaled."""
        if self.journal_path is None:
            return None
        return RunJournal(self.journal_path)


@dataclass
class CellOutcome:
    """What one cell produced: a result, or a contained failure.

    Exactly one of ``result``/``failure`` is set; a backend that can
    produce neither for a submitted cell is violating the contract (the
    driver raises :class:`~repro.exceptions.BackendError` on the hole).
    """

    shard_id: int
    index: int
    fingerprint: str
    result: Optional[LinkResult] = None
    failure: Optional[CellFailure] = None


class SweepBackend:
    """Base class for sweep backends; subclasses implement :meth:`_drain`.

    Lifecycle: construct with a :class:`RuntimePolicy` (watchdog / retry /
    chaos knobs the backend must honor), ``submit_shard`` any number of
    shards, ``drain`` to execute them all and collect per-cell outcomes,
    repeat submit/drain as needed, then ``close`` exactly once (``close``
    is idempotent; a closed backend rejects further submits and drains).
    Backends are context managers: ``with make_backend("pool") as b: ...``.
    """

    #: Registry key; subclasses must set a unique non-empty name.
    name: str = ""

    def __init__(
        self,
        policy: Optional[RuntimePolicy] = None,
        lanes: int = 1,
        observe: bool = False,
    ) -> None:
        if int(lanes) != lanes or lanes < 1:
            raise ConfigurationError(
                f"backend lanes must be a positive integer, got {lanes!r}"
            )
        self.policy = policy if policy is not None else RuntimePolicy()
        self.lanes = int(lanes)
        self.observe = bool(observe)
        #: Retry attempts consumed across all drained cells (metrics).
        self.cells_retried = 0
        self._pending: List[Shard] = []
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def submit_shard(self, shard: Shard) -> int:
        """Queue one shard for the next :meth:`drain`; returns its id."""
        self._check_open("submit_shard")
        if not isinstance(shard, Shard):
            raise BackendError(
                f"submit_shard takes a Shard, got {type(shard).__name__}"
            )
        if any(existing.shard_id == shard.shard_id for existing in self._pending):
            raise BackendError(
                f"shard id {shard.shard_id} already submitted to this drain"
            )
        self._pending.append(shard)
        return shard.shard_id

    def drain(self) -> List[CellOutcome]:
        """Execute every submitted shard; return one outcome per cell.

        Outcome order is unspecified (the driver reorders by cell index);
        after ``drain`` returns, the backend is empty and ready for more
        submissions.
        """
        self._check_open("drain")
        shards, self._pending = self._pending, []
        if not shards:
            return []
        return self._drain(shards)

    def close(self) -> None:
        """Release workers/processes; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._close()

    def _check_open(self, operation: str) -> None:
        if self._closed:
            raise BackendError(
                f"{operation} on a closed {type(self).__name__}"
            )

    def __enter__(self) -> "SweepBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_options(
        cls,
        options: Dict[str, str],
        policy: Optional[RuntimePolicy] = None,
        workers: Optional[int] = None,
        observe: bool = False,
    ) -> "SweepBackend":
        """Build from parsed ``--backend`` options.

        The base implementation is for single-lane backends with no
        options; multi-lane subclasses override to honor ``workers=N``
        (spec option first, then the ``workers`` argument).
        """
        if options:
            raise ConfigurationError(
                f"backend {cls.name!r} takes no options, got {sorted(options)}"
            )
        return cls(policy=policy, observe=observe)

    # -- subclass hooks ----------------------------------------------------

    def _drain(self, shards: List[Shard]) -> List[CellOutcome]:
        raise BackendError(
            f"{type(self).__name__} does not implement _drain"
        )

    def _close(self) -> None:
        """Subclass teardown hook (default: nothing to release)."""


#: Canonical name -> backend class; the vocabulary of ``--backend NAME``.
BACKEND_REGISTRY: Dict[str, Type[SweepBackend]] = {}


def register_backend(cls: Type[SweepBackend]) -> Type[SweepBackend]:
    """Class decorator adding a backend to :data:`BACKEND_REGISTRY`."""
    if not cls.name:
        raise BackendError(f"backend class {cls.__name__} has no name")
    if cls.name in BACKEND_REGISTRY:
        raise BackendError(f"backend name {cls.name!r} registered twice")
    BACKEND_REGISTRY[cls.name] = cls
    return cls


def parse_backend_spec(spec: str) -> Tuple[str, Dict[str, str]]:
    """Split ``NAME[:key=value[,key=value...]]`` into (name, options).

    The grammar of every ``--backend`` flag: a registered backend name,
    optionally followed by comma-separated ``key=value`` options (e.g.
    ``pool:workers=2``).  Option validation is the backend's job;
    this only enforces the shape.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ConfigurationError(
            f"backend spec must be NAME[:OPTS], got {spec!r}"
        )
    name, separator, raw_options = spec.strip().partition(":")
    options: Dict[str, str] = {}
    if separator:
        for item in raw_options.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise ConfigurationError(
                    f"backend option must be key=value, got {item!r} in {spec!r}"
                )
            options[key.strip()] = value.strip()
    return name.strip(), options


def make_backend(
    spec: str,
    policy: Optional[RuntimePolicy] = None,
    workers: Optional[int] = None,
    observe: bool = False,
) -> SweepBackend:
    """Instantiate a registered backend from a ``NAME[:OPTS]`` spec.

    ``workers`` is the default lane count for backends that take one
    (``pool``); an explicit ``workers=`` in the spec's options
    wins over it.  ``inprocess`` accepts no options.
    """
    name, options = parse_backend_spec(spec)
    try:
        cls = BACKEND_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(BACKEND_REGISTRY))
        raise ConfigurationError(
            f"unknown backend {name!r}; known backends: {known}"
        ) from None
    return cls.from_options(
        options, policy=policy, workers=workers, observe=observe
    )
