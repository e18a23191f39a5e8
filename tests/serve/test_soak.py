"""The chaos-soak gate (ISSUE 7 acceptance criterion).

200 concurrent sessions — healthy, chaotic, poison, and stalled — through
one :class:`SessionManager`: caps must hold, poison must quarantine as
structured records, stalls must evict, and every healthy session must
decode byte-identically to the same soak with chaos switched off.
"""

import math

import pytest

from tests.conftest import make_tiny_device

from repro.exceptions import ConfigurationError

from repro.serve import (
    ROLE_HEALTHY,
    ROLE_POISON,
    ROLE_STALL,
    STATE_CLOSED,
    STATE_EVICTED,
    STATE_QUARANTINED,
    ServePolicy,
    SoakSpec,
    run_soak,
)

_POLICY = ServePolicy(
    max_sessions=256,
    max_queued_frames=8,
    idle_timeout_s=0.2,
    quarantine_after=4,
)

_CHAOS_SPEC = SoakSpec(
    sessions=200,
    seed=11,
    duration_s=0.45,
    distinct_recordings=4,
    chaos_fraction=0.15,
    poison_fraction=0.1,
    stall_fraction=0.1,
    fault_intensity=0.3,
)


@pytest.fixture(scope="module")
def soak_device():
    return make_tiny_device()


@pytest.fixture(scope="module")
def chaos_report(soak_device):
    return run_soak(_CHAOS_SPEC, device=soak_device, policy=_POLICY)


@pytest.fixture(scope="module")
def calm_report(soak_device):
    calm = SoakSpec(
        sessions=_CHAOS_SPEC.sessions,
        seed=_CHAOS_SPEC.seed,
        duration_s=_CHAOS_SPEC.duration_s,
        distinct_recordings=_CHAOS_SPEC.distinct_recordings,
    )
    return run_soak(calm, device=soak_device, policy=_POLICY)


class TestChaosSoak:
    def test_every_session_reaches_a_terminal_state(self, chaos_report):
        assert len(chaos_report.outcomes) == 200
        assert chaos_report.rejected == []
        terminal = {STATE_CLOSED, STATE_EVICTED, STATE_QUARANTINED}
        for outcome in chaos_report.outcomes:
            assert outcome.state in terminal, outcome.session_id

    def test_queue_caps_never_exceeded(self, chaos_report):
        assert chaos_report.peak_queue_depth <= _POLICY.max_queued_frames
        for outcome in chaos_report.outcomes:
            assert outcome.peak_queue_depth <= _POLICY.max_queued_frames

    def test_poison_sessions_quarantined_as_structured_records(
        self, chaos_report
    ):
        poison = [
            o for o in chaos_report.outcomes if o.role == ROLE_POISON
        ]
        assert poison, "soak drew no poison sessions; adjust the seed"
        for outcome in poison:
            assert outcome.state == STATE_QUARANTINED
            assert outcome.failure is not None
            assert outcome.failure.cause == "poison"
            assert outcome.failure.error_type == "CameraError"
            assert outcome.failure.session_id == outcome.session_id
        quarantined_ids = [f.session_id for f in chaos_report.failures]
        for outcome in poison:
            assert outcome.session_id in quarantined_ids

    def test_stalled_sessions_evicted(self, chaos_report):
        stalled = [o for o in chaos_report.outcomes if o.role == ROLE_STALL]
        assert stalled, "soak drew no stalled sessions; adjust the seed"
        for outcome in stalled:
            assert outcome.state == STATE_EVICTED
            assert outcome.session_id in chaos_report.evicted

    def test_healthy_sessions_byte_identical_to_calm_soak(
        self, chaos_report, calm_report
    ):
        calm_payloads = {o.session_id: o.payloads for o in calm_report.outcomes}
        healthy = [
            o for o in chaos_report.outcomes if o.role == ROLE_HEALTHY
        ]
        assert healthy
        for outcome in healthy:
            assert outcome.state == STATE_CLOSED
            assert outcome.payloads == calm_payloads[outcome.session_id], (
                outcome.session_id
            )
        assert chaos_report.goodput_bytes <= calm_report.goodput_bytes

    def test_calm_soak_decodes_everywhere(self, calm_report):
        assert calm_report.failures == []
        assert calm_report.goodput_bytes > 0
        for outcome in calm_report.outcomes:
            assert outcome.state == STATE_CLOSED

    def test_soak_is_deterministic(self, soak_device, chaos_report):
        again = run_soak(_CHAOS_SPEC, device=soak_device, policy=_POLICY)
        assert again.as_dict() == chaos_report.as_dict()
        assert [o.payloads for o in again.outcomes] == [
            o.payloads for o in chaos_report.outcomes
        ]


class TestSoakSpecValidation:
    @pytest.mark.parametrize(
        "intensity", [2.0, 1.0 + 1e-9, -0.1, math.nan, math.inf, -math.inf]
    )
    def test_fault_intensity_outside_unit_interval_rejected(self, intensity):
        spec = SoakSpec(sessions=2, chaos_fraction=1.0, fault_intensity=intensity)
        with pytest.raises(ConfigurationError, match="fault_intensity"):
            spec.validate()
        # Rejected before the first session opens, even with no chaos role.
        calm = SoakSpec(sessions=2, fault_intensity=intensity)
        with pytest.raises(ConfigurationError, match="fault_intensity"):
            run_soak(calm)

    @pytest.mark.parametrize("intensity", [0.0, 0.3, 1.0])
    def test_fault_intensity_in_unit_interval_accepted(self, intensity):
        SoakSpec(chaos_fraction=1.0, fault_intensity=intensity).validate()
