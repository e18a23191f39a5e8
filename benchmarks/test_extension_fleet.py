"""Extension — one transmitter, many phones (§8's closing observation).

"In practice, where a single ColorBars transmitter has to support different
smartphones, the achievable goodput remains bounded by the slowest (highest
inter-frame loss ratio) smartphone that needs to be supported."

The bench runs one shared broadcast (provisioned for the fleet's worst loss
ratio) against both paper phones, and each phone against a link provisioned
just for it.  Shape checks: the shared link costs the *better* receiver
goodput (extra parity it did not need), while the worst receiver loses
little — its loss ratio set the provisioning.
"""

import pytest

from repro.camera.devices import iphone_5s, nexus_5
from repro.link.multi import broadcast_to_fleet


def test_extension_fleet_provisioning():
    report = broadcast_to_fleet(
        [nexus_5(), iphone_5s()],
        csk_order=16,
        symbol_rate=3000,
        duration_s=2.5,
        compare_dedicated=True,
        seed=23,
    )

    print("\nExtension — fleet broadcast (16-CSK @ 3 kHz)")
    for line in report.summary_lines():
        print(" " + line)
    for member in report.members:
        print(
            f"  {member.device_name}: provisioning cost "
            f"{member.provisioning_cost_bps:+.0f} bps"
        )

    # The shared link provisions for the iPhone's loss ratio.
    assert report.worst_loss_ratio == pytest.approx(0.3727)

    by_name = {m.device_name: m for m in report.members}
    nexus = by_name["Nexus 5"]
    iphone = by_name["iPhone 5S"]

    # Everyone still decodes on the shared link.
    assert nexus.shared_metrics.goodput_bps > 0
    assert iphone.shared_metrics.goodput_bps > 0

    # The better receiver pays for the fleet: its dedicated link would
    # carry meaningfully more payload than the shared one.
    assert nexus.dedicated_metrics.goodput_bps > nexus.shared_metrics.goodput_bps

    # The worst receiver defines the provisioning, so a dedicated link
    # gains it comparatively little.
    nexus_gain = nexus.provisioning_cost_bps
    iphone_gain = iphone.provisioning_cost_bps
    assert iphone_gain < nexus_gain
