"""Golden digest of a small chaos soak.

One seeded soak that exercises every session role, every registered fault
injector, quarantine, idle eviction and admission rejection, reduced to a
sha256 over everything its report says.  Any change to how the soak feeds
sessions, injects faults or buffers frames must leave this digest alone.
"""

import hashlib

import pytest

from tests.conftest import make_tiny_device

from repro.faults import FAULT_REGISTRY
from repro.serve import (
    ROLE_CHAOS,
    ROLE_HEALTHY,
    ROLE_POISON,
    ROLE_STALL,
    ServePolicy,
    SoakSpec,
    run_soak,
)

_SPEC = SoakSpec(
    sessions=24,
    seed=3,
    duration_s=0.45,
    distinct_recordings=2,
    chaos_fraction=0.5,
    poison_fraction=0.1,
    stall_fraction=0.1,
)

#: Two fewer seats than sessions, so admission rejects the last two.
_POLICY = ServePolicy(max_sessions=22, max_queued_frames=8, idle_timeout_s=0.2)

_GOLDEN_SHA256 = "8d527e79babc85400484be879be4a7a3b21b031b5747dfcce80dd85f74fca544"


def _soak_digest(report) -> str:
    digest = hashlib.sha256()

    def add(value) -> None:
        data = value if isinstance(value, bytes) else repr(value).encode()
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)

    for outcome in report.outcomes:
        add(
            (
                outcome.session_id,
                outcome.role,
                outcome.state,
                outcome.frames_submitted,
                outcome.frames_dropped,
                outcome.peak_queue_depth,
                len(outcome.payloads),
            )
        )
        for payload in outcome.payloads:
            add(payload)
    for failure in report.failures:
        add(failure.describe())
    add(tuple(report.evicted))
    add(tuple(report.rejected))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden_report():
    return run_soak(_SPEC, device=make_tiny_device(), policy=_POLICY)


def test_soak_covers_every_role_injector_and_terminal_path(golden_report):
    roles = {o.role for o in golden_report.outcomes}
    assert roles == {ROLE_HEALTHY, ROLE_CHAOS, ROLE_POISON, ROLE_STALL}
    names = sorted(FAULT_REGISTRY)
    injected = {
        names[int(o.session_id.rsplit("-", 1)[1]) % len(names)]
        for o in golden_report.outcomes
        if o.role == ROLE_CHAOS
    }
    assert injected == set(names)
    assert golden_report.failures
    assert golden_report.evicted
    assert len(golden_report.rejected) == 2
    assert golden_report.goodput_bytes > 0


def test_soak_golden_digest(golden_report):
    assert _soak_digest(golden_report) == _GOLDEN_SHA256
