"""Process-level chaos injectors: worker crashes, cell hangs, slow cells.

PR 2's frame-level injectors stress the *link*; these stress the *runtime*.
Each one fires inside a sweep worker immediately before a cell executes and
models one way a long-running fleet/grid run dies in practice:

* ``worker-crash`` — the worker process exits abruptly (OOM kill, segfault
  in a native dependency), which surfaces to the parent pool as
  ``BrokenProcessPool``;
* ``cell-hang`` — the cell blocks forever (deadlocked I/O, a wedged
  dependency), which only a watchdog deadline can clear;
* ``slow-cell`` — the cell is merely slow (CPU contention, throttling), and
  must complete normally as long as it stays under the deadline.

The frame-injector contract carries over (see :mod:`repro.faults.base`):

* **Zero is a no-op.**  ``intensity == 0.0`` never triggers, so a
  zero-intensity chaos run is byte-identical to a chaos-free run.
* **Seeded determinism.**  Whether a given ``(cell, attempt)`` triggers is
  a pure function of ``(chaos seed, injector name, cell index, attempt)``
  via :mod:`repro.util.rng` — two runs with the same seed strike the same
  cells on the same attempts, and a retried cell re-draws for its new
  attempt number, so bounded retry can deterministically outlast transient
  chaos.

Chaos objects are plain picklable values: the resilient runtime
(:mod:`repro.perf.runtime`) ships them to pool workers alongside each cell.
They are **never** applied to an in-process serial run — a ``worker-crash``
there would take the caller down with it — so the runtime forces process
isolation whenever chaos is configured.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Tuple, Type

from repro.exceptions import FaultInjectionError
from repro.faults.base import validate_intensity
from repro.util.rng import derive_rng, make_rng

#: Exit status a chaos-crashed worker dies with (distinctive in CI logs).
CHAOS_CRASH_EXIT_CODE = 77


class ProcessChaos:
    """Base class for process-level chaos; subclasses implement :meth:`_strike`.

    ``intensity`` is the per-``(cell, attempt)`` trigger probability;
    ``seed`` roots the deterministic trigger draws.
    """

    name: str = ""

    def __init__(self, intensity: float, seed: int = 0) -> None:
        self.intensity = validate_intensity(intensity, type(self).__name__)
        self.seed = int(seed)

    def trigger_draw(self, cell_index: int, attempt: int) -> float:
        """The uniform [0, 1) draw deciding whether this cell/attempt fires.

        Exposed so tests (and callers predicting chaos) can recompute the
        exact schedule: the draw depends only on ``(seed, name, cell_index,
        attempt)``, never on intensity or execution order.
        """
        rng = derive_rng(
            make_rng(self.seed),
            f"chaos:{self.name}:cell:{cell_index}:attempt:{attempt}",
        )
        return float(rng.random())

    def triggers(self, cell_index: int, attempt: int) -> bool:
        """Deterministically decide whether this ``(cell, attempt)`` fires."""
        if self.intensity == 0.0:
            return False
        return self.trigger_draw(cell_index, attempt) < self.intensity

    def before_cell(self, cell_index: int, attempt: int) -> None:
        """Called in the worker immediately before the cell executes."""
        if self.triggers(cell_index, attempt):
            self._strike(cell_index, attempt)

    def _strike(self, cell_index: int, attempt: int) -> None:
        raise FaultInjectionError(
            f"{type(self).__name__} does not implement _strike"
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(intensity={self.intensity}, seed={self.seed})"
        )


class WorkerCrashChaos(ProcessChaos):
    """The worker process dies abruptly, as an OOM kill or segfault would.

    ``os._exit`` skips every cleanup handler — the parent pool sees exactly
    what a hard kill produces (``BrokenProcessPool``), which is the case the
    runtime's crash containment must absorb.
    """

    name = "worker-crash"

    def _strike(self, cell_index: int, attempt: int) -> None:
        os._exit(CHAOS_CRASH_EXIT_CODE)


class CellHangChaos(ProcessChaos):
    """The cell blocks far beyond any reasonable deadline (a wedged worker).

    ``hang_s`` defaults to an hour — effectively forever next to any sane
    ``cell_timeout`` — so an un-watchdogged sweep visibly stalls while a
    watchdogged one cancels the cell and moves on.
    """

    name = "cell-hang"

    def __init__(
        self, intensity: float, seed: int = 0, hang_s: float = 3600.0
    ) -> None:
        super().__init__(intensity, seed=seed)
        if not hang_s > 0:
            raise FaultInjectionError(
                f"hang_s must be positive, got {hang_s!r}"
            )
        self.hang_s = float(hang_s)

    def _strike(self, cell_index: int, attempt: int) -> None:
        time.sleep(self.hang_s)


class SlowCellChaos(ProcessChaos):
    """The cell is delayed but completes: the watchdog must tolerate it.

    The delay scales with intensity (``max_delay_s`` at 1.0), mirroring the
    frame injectors' fixed-budget-scaled-damage rule; a slow cell under the
    deadline must produce byte-identical results to an undelayed run.
    """

    name = "slow-cell"

    def __init__(
        self, intensity: float, seed: int = 0, max_delay_s: float = 2.0
    ) -> None:
        super().__init__(intensity, seed=seed)
        if not max_delay_s > 0:
            raise FaultInjectionError(
                f"max_delay_s must be positive, got {max_delay_s!r}"
            )
        self.max_delay_s = float(max_delay_s)

    def _strike(self, cell_index: int, attempt: int) -> None:
        time.sleep(self.max_delay_s * self.intensity)


#: Canonical name -> chaos class, the vocabulary of ``--chaos NAME:INTENSITY``.
CHAOS_REGISTRY: Dict[str, Type[ProcessChaos]] = {
    chaos.name: chaos
    for chaos in (
        WorkerCrashChaos,
        CellHangChaos,
        SlowCellChaos,
    )
}


def make_chaos(name: str, intensity: float, seed: int = 0) -> ProcessChaos:
    """Instantiate a registered chaos injector by its canonical name."""
    try:
        cls = CHAOS_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(CHAOS_REGISTRY))
        raise FaultInjectionError(
            f"unknown chaos injector {name!r}; known injectors: {known}"
        ) from None
    return cls(intensity, seed=seed)


def parse_chaos_spec(spec: str, seed: int = 0) -> ProcessChaos:
    """Parse a ``NAME:INTENSITY`` CLI spec into a chaos instance."""
    name, separator, raw_intensity = spec.partition(":")
    if not separator or not name or not raw_intensity:
        raise FaultInjectionError(
            f"chaos spec must look like NAME:INTENSITY, got {spec!r}"
        )
    try:
        intensity = float(raw_intensity)
    except ValueError:
        raise FaultInjectionError(
            f"chaos intensity must be a number, got {raw_intensity!r} in {spec!r}"
        ) from None
    return make_chaos(name.strip(), intensity, seed=seed)


def parse_chaos_specs(specs, seed: int = 0) -> Tuple[ProcessChaos, ...]:
    """Parse a sequence of CLI chaos specs (order preserved)."""
    return tuple(parse_chaos_spec(spec, seed=seed) for spec in specs or ())
