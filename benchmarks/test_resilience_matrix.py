"""Resilience matrix — fault intensity x injector, goodput degradation.

Sweeps every registered fault injector over a shared intensity grid on the
Nexus 5 preset at 4-CSK (the configuration whose fault-free baseline decodes
every packet) and checks the graceful-degradation contract:

* **no crash** at any grid point — containment means a faulted session
  always returns a report;
* **zero is a no-op** — the 0.0 column of every injector matches the
  no-fault baseline byte for byte;
* **monotone degradation** — goodput is non-increasing in intensity.  This
  is structural, not statistical: injectors draw a fixed per-frame random
  budget and scale the damage, so a harder sweep cell damages a superset of
  what a milder one damaged (see repro/faults/base.py);
* **no cliffs** — goodput stays positive up to each injector's documented
  threshold (the "Fault model & degradation contract" section of DESIGN.md).

The documented thresholds deliberately sit one grid step inside the
measured cliff, so the bench fails if a receiver change makes degradation
meaningfully sharper.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.camera.devices import nexus_5
from repro.core.config import SystemConfig
from repro.faults import FAULT_REGISTRY, make_injector
from repro.link.simulator import LinkResult, RunSpec
from repro.perf.runtime import run_specs_resilient

INTENSITIES = (0.0, 0.1, 0.2, 0.35, 0.5)
SEED = 1
DURATION_S = 2.0

#: Goodput must remain positive at every intensity <= this, per injector
#: (the degradation contract DESIGN.md documents).  Injectors whose cliff
#: lies beyond the grid use the grid maximum.
CLIFF_THRESHOLDS = {
    "drift": 0.5,
    "frame-drop": 0.5,
    "occlusion": 0.2,
    "saturation": 0.5,
    "scanline-corruption": 0.35,
    "timing-jitter": 0.5,
}


def _spec(faults) -> RunSpec:
    device = nexus_5()
    config = SystemConfig(
        csk_order=4,
        symbol_rate=1000,
        design_loss_ratio=device.timing.gap_fraction,
        frame_rate=device.timing.frame_rate,
    )
    return RunSpec(
        config=config,
        device=device,
        simulated_columns=32,
        seed=SEED,
        faults=tuple(faults),
        duration_s=DURATION_S,
    )


MatrixResults = Dict[Tuple[str, float], LinkResult]


@pytest.fixture(scope="module")
def matrix() -> Tuple[LinkResult, MatrixResults]:
    # The whole fault x intensity grid (plus the no-fault baseline) runs
    # through the sweep runtime; COLORBARS_WORKERS parallelizes it.  Every
    # cell plans its own broadcast: there is no cross-cell plan cache.
    keys = [
        (name, intensity)
        for name in sorted(FAULT_REGISTRY)
        for intensity in INTENSITIES
    ]
    specs = [_spec([])] + [
        _spec([make_injector(name, intensity)]) for name, intensity in keys
    ]
    outcome = run_specs_resilient(specs)
    # The resilient runtime contains cell failures instead of raising, so
    # containment is now an explicit matrix assertion: no cell may fail.
    assert not outcome.degraded, outcome.failure_summary()
    baseline = outcome.results[0]
    cells: MatrixResults = dict(zip(keys, outcome.results[1:]))
    return baseline, cells


def test_resilience_matrix(matrix):
    baseline, cells = matrix

    print("\nResilience matrix — goodput (bps) by injector x intensity")
    header = "  injector             | " + " | ".join(
        f"{x:>5.2f}" for x in INTENSITIES
    )
    print(header)
    print("  " + "-" * (len(header) - 2))
    for name in sorted(FAULT_REGISTRY):
        row = " | ".join(
            f"{cells[(name, x)].metrics.goodput_bps:5.0f}" for x in INTENSITIES
        )
        print(f"  {name:<20} | {row}")

    assert baseline.metrics.goodput_bps > 0

    for name in sorted(FAULT_REGISTRY):
        series = [cells[(name, x)] for x in INTENSITIES]

        # Zero intensity is byte-identical to the no-fault baseline.
        zero = cells[(name, 0.0)]
        assert zero.metrics == baseline.metrics
        assert zero.report.payloads == baseline.report.payloads
        assert len(zero.fault_schedule) == 0

        # Containment: every grid point completed and produced a report.
        for result in series:
            assert result.report.packets_failed_fec == len(
                result.report.fec_failures
            )

        # Monotone, graceful degradation.
        goodputs = [r.metrics.goodput_bps for r in series]
        for lower, higher in zip(goodputs, goodputs[1:]):
            assert higher <= lower, (
                f"{name}: goodput rose with intensity ({goodputs})"
            )

        # No cliff to zero below the documented threshold.
        threshold = CLIFF_THRESHOLDS[name]
        for intensity, result in zip(INTENSITIES, series):
            if intensity <= threshold:
                assert result.metrics.goodput_bps > 0, (
                    f"{name}@{intensity}: goodput hit zero below the "
                    f"documented threshold {threshold}"
                )
