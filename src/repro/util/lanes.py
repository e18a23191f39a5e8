"""Lanes: run a recording's independent work items on this process's CPUs.

A *lane* is one thread working through a shared queue of items (a develop
chunk, a frame to preprocess).  The lane count is derived, never set: the
CPUs this process may use divided by the sweep cells it runs at once (1
in-process, the pool width in a pool worker, set by
:func:`set_concurrent_cells`).  :func:`run_lanes` makes the calling thread
one lane and runs the rest on an executor that lives for that call only,
so no lane thread is alive when a pool forks its workers (a forked child
inherits an executor whose threads do not exist, and deadlocks on it).
Each item must write only its own slice of the output, so the lane count
cannot move a byte.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")

#: Name prefix of every lane thread but the caller's.
THREAD_PREFIX = "colorbars-lane"

#: How many sweep cells run at once on this process's CPUs.
_CONCURRENT_CELLS = 1


def set_concurrent_cells(cells: int) -> None:
    """``cells`` sweep cells run at once on this process's CPUs (in a pool
    worker: the pool width)."""
    global _CONCURRENT_CELLS
    _CONCURRENT_CELLS = max(1, cells)


def lane_count() -> int:
    """Lanes this process may use: its CPUs per concurrent cell."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, cpus // _CONCURRENT_CELLS)


def _lane(work: Callable[[T], None], shared: Iterator[T]) -> None:
    """One lane: ``work`` items from ``shared`` until it runs dry."""
    for item in shared:
        work(item)


def run_lanes(work: Callable[[T], None], items: Sequence[T]) -> None:
    """Call ``work(item)`` for every item, on up to :func:`lane_count` lanes.

    The lanes take items from one shared iterator until it runs dry.  One
    item, or one lane, runs on the calling thread alone.  A lane's
    exception reaches the caller once every lane has stopped, so no lane
    thread is alive when this returns or raises.
    """
    lanes = min(lane_count(), len(items))
    shared = iter(items)
    if lanes <= 1:
        _lane(work, shared)
        return
    with ThreadPoolExecutor(
        max_workers=lanes - 1, thread_name_prefix=THREAD_PREFIX
    ) as executor:
        others = [executor.submit(_lane, work, shared) for _ in range(lanes - 1)]
        try:
            _lane(work, shared)
        finally:
            for other in others:
                other.result()
