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

A caller with other work can hand it to :func:`run_lanes` as
``meanwhile``: the calling thread runs it while the other lanes take
items, then joins them.  The session manager feeds one serving window
this way while the lanes convert the next.  :class:`Deferred` wraps such
a call so that its outcome, and whether it ran at all, stays apart from
the lanes' own failures.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Optional, Sequence, TypeVar

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


def lanes_for(items: int) -> int:
    """How many lanes :func:`run_lanes` runs for ``items`` items."""
    return max(1, min(lane_count(), items))


def _lane(work: Callable[[T], None], shared: Iterator[T]) -> None:
    """One lane: ``work`` items from ``shared`` until it runs dry."""
    for item in shared:
        work(item)


def run_lanes(
    work: Callable[[T], None],
    items: Sequence[T],
    meanwhile: Optional[Callable[[], object]] = None,
) -> None:
    """Call ``work(item)`` for every item, on up to :func:`lane_count` lanes.

    The lanes take items from one shared iterator until it runs dry.  One
    item, or one lane, runs on the calling thread alone.  ``meanwhile``,
    if given, runs once on the calling thread before it joins the lanes,
    so it overlaps the other lanes' items; with one lane or no items it
    runs first and the items follow.  An exception from ``meanwhile`` or
    from a lane reaches the caller once every lane has stopped, so no lane
    thread is alive when this returns or raises; one raised on the calling
    thread wins over the other lanes' own.
    """
    lanes = lanes_for(len(items))
    shared = iter(items)
    if lanes <= 1:
        if meanwhile is not None:
            meanwhile()
        _lane(work, shared)
        return
    with ThreadPoolExecutor(
        max_workers=lanes - 1, thread_name_prefix=THREAD_PREFIX
    ) as executor:
        others = [executor.submit(_lane, work, shared) for _ in range(lanes - 1)]
        # Leaving the block waits for every lane, also when this raises.
        if meanwhile is not None:
            meanwhile()
        _lane(work, shared)
        for other in others:
            other.result()


class Deferred:
    """A call that runs at most once and keeps its outcome for later.

    Calling the object runs the call the first time and never raises: an
    exception is kept.  :meth:`result` runs the call if it has not run
    yet, then returns its value or re-raises its exception.  As
    :func:`run_lanes`' ``meanwhile`` it cannot be mistaken for a failure
    of the lanes' work, and the caller still runs it if the lanes never
    started.
    """

    def __init__(self, call: Optional[Callable[[], object]]) -> None:
        self._call = call
        self._outcome: Optional[tuple] = None

    def __call__(self) -> None:
        if self._outcome is not None:
            return
        try:
            value = self._call() if self._call is not None else None
        except BaseException as exc:  # re-raised by result()
            self._outcome = (False, exc)
        else:
            self._outcome = (True, value)

    def result(self):
        self()
        ok, value = self._outcome
        if not ok:
            raise value
        return value
