"""Pluggable distributed sweep backends (``--backend NAME[:OPTS]``).

The package splits distribution into two halves: backends
(:mod:`~repro.perf.backends.base`) only execute shards of cells, while
the driver (:mod:`~repro.perf.backends.driver`) owns fingerprints,
sharding, resume, the sweep journal, and observability — so every backend,
including third-party ones (see ``docs/BACKENDS.md``), inherits the
same byte-identical sweep semantics.

Importing this package registers the two built-in backends
(``inprocess``, ``pool``) with
:func:`~repro.perf.backends.base.make_backend`.
"""

from repro.perf.backends.base import (
    BACKEND_REGISTRY,
    CellOutcome,
    Shard,
    ShardCell,
    SweepBackend,
    make_backend,
    parse_backend_spec,
    register_backend,
)
from repro.perf.backends.driver import (
    assemble_backend_trace,
    make_shards,
    run_specs_sharded,
)
from repro.perf.backends.inprocess import InProcessBackend
from repro.perf.backends.pool import PoolBackend

__all__ = [
    "BACKEND_REGISTRY",
    "CellOutcome",
    "InProcessBackend",
    "PoolBackend",
    "Shard",
    "ShardCell",
    "SweepBackend",
    "assemble_backend_trace",
    "make_backend",
    "make_shards",
    "parse_backend_spec",
    "register_backend",
    "run_specs_sharded",
]
