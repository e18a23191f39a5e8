"""The serial in-process backend: the reference every backend must match.

Cells run one shard at a time, one cell at a time, in the caller's own
process — no pool, no workers, no scheduling freedom — so its result
table *defines* correct output for the sweep.  ``pool`` (and any
third-party backend; see ``docs/BACKENDS.md``) is proven by
byte-comparing against this one.

Because there is no process boundary, this backend cannot enforce a
watchdog deadline and must never host process chaos (a ``worker-crash``
would take the caller down); policies that need isolation are rejected at
construction.  Per-cell exceptions are still contained and retried per
the policy.  :func:`repro.perf.runtime.run_specs_resilient` runs every
one-worker sweep without a watchdog or chaos on this backend.
"""

from __future__ import annotations

import time
from typing import List

from repro.exceptions import CellFailure, ConfigurationError
from repro.perf.backends.base import (
    CellOutcome,
    Shard,
    SweepBackend,
    register_backend,
)
from repro.perf.runtime import RuntimePolicy, _annotate_trace, backoff_delay_s


@register_backend
class InProcessBackend(SweepBackend):
    """Serial reference backend (``--backend inprocess``); single lane."""

    name = "inprocess"

    def __init__(
        self, policy: RuntimePolicy = None, observe: bool = False
    ) -> None:
        super().__init__(policy=policy, lanes=1, observe=observe)
        if self.policy.needs_isolation():
            raise ConfigurationError(
                "the inprocess backend cannot enforce a watchdog or host "
                "process chaos (no process boundary); use the pool "
                "backend for policies that need isolation"
            )

    def _drain(self, shards: List[Shard]) -> List[CellOutcome]:
        outcomes: List[CellOutcome] = []
        for shard in shards:
            journal = shard.journal()
            for cell in shard.cells:
                attempt = 1
                while True:
                    try:
                        result = _annotate_trace(
                            cell.spec.execute(observe=self.observe),
                            cell.index,
                            attempt,
                        )
                    except Exception as exc:
                        if attempt < self.policy.max_attempts:
                            time.sleep(
                                backoff_delay_s(
                                    self.policy, cell.spec.seed, attempt + 1
                                )
                            )
                            attempt += 1
                            self.cells_retried += 1
                            continue
                        outcomes.append(
                            CellOutcome(
                                shard_id=shard.shard_id,
                                index=cell.index,
                                fingerprint=cell.fingerprint,
                                failure=CellFailure(
                                    fingerprint=cell.fingerprint,
                                    index=cell.index,
                                    cause="error",
                                    attempts=attempt,
                                    error_type=type(exc).__name__,
                                    message=str(exc),
                                ),
                            )
                        )
                        break
                    if journal is not None:
                        journal.append(cell.fingerprint, result)
                    outcomes.append(
                        CellOutcome(
                            shard_id=shard.shard_id,
                            index=cell.index,
                            fingerprint=cell.fingerprint,
                            result=result,
                        )
                    )
                    break
        return outcomes
