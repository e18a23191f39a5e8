"""Process-chaos contracts: zero no-op, seeded determinism, parsing."""

import pytest

from repro.exceptions import FaultInjectionError
from repro.faults.chaos import (
    CHAOS_REGISTRY,
    CellHangChaos,
    SlowCellChaos,
    WorkerCrashChaos,
    make_chaos,
    parse_chaos_spec,
    parse_chaos_specs,
)


class TestRegistry:
    def test_registry_names(self):
        assert set(CHAOS_REGISTRY) == {
            "worker-crash",
            "cell-hang",
            "slow-cell",
        }

    def test_make_chaos_by_name(self):
        chaos = make_chaos("cell-hang", 0.5, seed=3)
        assert isinstance(chaos, CellHangChaos)
        assert chaos.intensity == 0.5
        assert chaos.seed == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown chaos"):
            make_chaos("coffee-spill", 0.5)


class TestTriggerContract:
    def test_zero_intensity_never_triggers(self):
        chaos = SlowCellChaos(0.0, seed=1)
        assert not any(
            chaos.triggers(cell, attempt)
            for cell in range(50)
            for attempt in (1, 2, 3)
        )

    def test_full_intensity_always_triggers(self):
        chaos = SlowCellChaos(1.0, seed=1)
        assert all(chaos.triggers(cell, 1) for cell in range(50))

    def test_draws_are_seed_deterministic(self):
        a = WorkerCrashChaos(0.5, seed=9)
        b = WorkerCrashChaos(0.5, seed=9)
        draws_a = [a.trigger_draw(cell, 1) for cell in range(20)]
        draws_b = [b.trigger_draw(cell, 1) for cell in range(20)]
        assert draws_a == draws_b

    def test_draws_independent_of_intensity(self):
        # Intensity thresholds the draw; it must not perturb the draw itself.
        mild = CellHangChaos(0.1, seed=4)
        harsh = CellHangChaos(0.9, seed=4)
        assert mild.trigger_draw(7, 2) == harsh.trigger_draw(7, 2)

    def test_attempts_redraw(self):
        # A retried cell gets a fresh draw, so retry can outlast chaos.
        chaos = WorkerCrashChaos(0.5, seed=0)
        draws = {chaos.trigger_draw(3, attempt) for attempt in range(1, 6)}
        assert len(draws) > 1

    def test_distinct_injectors_draw_differently(self):
        crash = WorkerCrashChaos(0.5, seed=0)
        hang = CellHangChaos(0.5, seed=0)
        assert crash.trigger_draw(0, 1) != hang.trigger_draw(0, 1)

    def test_zero_before_cell_is_inert(self):
        # Even the crash injector must be callable in-process at zero.
        WorkerCrashChaos(0.0, seed=0).before_cell(cell_index=0, attempt=1)


class TestValidation:
    @pytest.mark.parametrize("intensity", [-0.1, 1.5, float("nan")])
    def test_intensity_out_of_range_rejected(self, intensity):
        with pytest.raises(FaultInjectionError):
            WorkerCrashChaos(intensity)

    def test_nonpositive_hang_rejected(self):
        with pytest.raises(FaultInjectionError, match="hang_s"):
            CellHangChaos(0.5, hang_s=0.0)

    def test_nonpositive_delay_rejected(self):
        with pytest.raises(FaultInjectionError, match="max_delay_s"):
            SlowCellChaos(0.5, max_delay_s=-1.0)


class TestParsing:
    def test_parse_spec(self):
        chaos = parse_chaos_spec("worker-crash:0.25", seed=5)
        assert isinstance(chaos, WorkerCrashChaos)
        assert chaos.intensity == 0.25
        assert chaos.seed == 5

    @pytest.mark.parametrize("spec", ["worker-crash", ":0.5", "worker-crash:"])
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(FaultInjectionError, match="NAME:INTENSITY"):
            parse_chaos_spec(spec)

    def test_non_numeric_intensity_rejected(self):
        with pytest.raises(FaultInjectionError, match="must be a number"):
            parse_chaos_spec("cell-hang:lots")

    def test_parse_specs_preserves_order(self):
        first, second = parse_chaos_specs(
            ["slow-cell:0.1", "cell-hang:0.2"], seed=1
        )
        assert isinstance(first, SlowCellChaos)
        assert isinstance(second, CellHangChaos)

    def test_parse_specs_empty(self):
        assert parse_chaos_specs(None) == ()
        assert parse_chaos_specs([]) == ()
