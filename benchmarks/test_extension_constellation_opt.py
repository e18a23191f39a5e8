"""Extension — camera-aware constellation optimization (§10 future work).

The paper closes with: "we plan to optimize the CSK constellation design to
minimize the inter-symbol interference."  This bench implements the
separation-maximizing half of that program and evaluates it end-to-end:
a 32-CSK constellation optimized for the Nexus 5's *received* chroma space
(via the balanced hill climb in ``repro.csk.optimizer``, with exposure,
white balance and sensor saturation modelled) runs against the standard
design on the full link at the stressed corner.

The result is itself a finding that supports the paper's framing: the
optimizer widens the static decision-space margin ~3x — a necessary
condition — but at the high-rate corner the link's errors are dominated by
*inter-symbol interference* (band-boundary mixing and residual timing
error), which point separation alone does not control.  That is exactly why
the paper's future work targets ISI rather than plain separation; the
optimizer here is the infrastructure such a design effort would start from.
"""

import pytest

from repro.camera.devices import nexus_5
from repro.core.config import SystemConfig
from repro.csk.constellation import design_constellation
from repro.csk.optimizer import (
    optimize_constellation,
    received_space_map,
    separation_report,
)
from repro.link.simulator import LinkSimulator
from repro.phy.led import typical_tri_led

ORDER = 32
RATE = 4000.0


def run_link(constellation, seed=29):
    device = nexus_5()
    config = SystemConfig(
        csk_order=ORDER,
        symbol_rate=RATE,
        design_loss_ratio=device.timing.gap_fraction,
        custom_constellation=constellation,
    )
    result = LinkSimulator(
        config, device, simulated_columns=32, seed=seed
    ).run(duration_s=2.5)
    return result.metrics


def test_extension_constellation_optimization():
    def run():
        led = typical_tri_led()
        device = nexus_5()
        mapper = received_space_map(device.response, led)
        standard = design_constellation(ORDER, led.gamut)
        optimized = optimize_constellation(
            ORDER, led.gamut, space_map=mapper, iterations=2500, seed=3
        )
        return {
            "standard_margin": separation_report(standard, mapper)[
                "decision_min_separation"
            ],
            "optimized_margin": separation_report(optimized, mapper)[
                "decision_min_separation"
            ],
            "standard_metrics": run_link(None),
            "optimized_metrics": run_link(optimized),
        }

    outcome = run()

    print("\nExtension — camera-aware constellation design (32-CSK @ 4 kHz)")
    print(
        f"  received-space min separation: "
        f"{outcome['standard_margin']:.2f} -> {outcome['optimized_margin']:.2f} dE"
    )
    std = outcome["standard_metrics"]
    opt = outcome["optimized_metrics"]
    print(f"  standard : SER={std.data_symbol_error_rate:.4f} "
          f"goodput={std.goodput_bps:.0f} bps "
          f"({std.packets_decoded}/{std.packets_seen} packets)")
    print(f"  optimized: SER={opt.data_symbol_error_rate:.4f} "
          f"goodput={opt.goodput_bps:.0f} bps "
          f"({opt.packets_decoded}/{opt.packets_seen} packets)")

    print(
        "  finding: the static margin is a necessary but not sufficient "
        "condition —\n  at this corner errors are ISI/alignment-bound, so "
        "separation alone does not\n  lower SER; the paper's future work "
        "targets ISI for this reason."
    )

    # The optimizer must widen the decision-space margin substantially —
    # the separation-maximizing half of the §10 program.
    assert outcome["optimized_margin"] > 1.3 * outcome["standard_margin"]
    # The optimized design must remain *usable* end-to-end (same error
    # regime, not a collapse): at this ISI-bound corner both designs sit in
    # the same SER band.
    assert opt.data_symbol_error_rate < 2.0 * max(
        std.data_symbol_error_rate, 0.02
    )
    # Both calibrate and decode through the full chain.
    assert opt.packets_seen > 10 and std.packets_seen > 10
