"""Table 1 — symbols received per second and average inter-frame loss ratio.

Paper values (Table 1):

    rate        1000 Hz  2000 Hz  3000 Hz  4000 Hz   avg loss
    Nexus 5      772.84  1506.11  2352.65  3060.67     0.2312
    iPhone 5S    640.55  1263.56  1887.73  2431.01     0.3727

The bench regenerates both rows from the simulated recordings: received
symbols per second are the receiver's detected bands per second, and the
loss ratio comes from the gap accounting.  Shape checks: the iPhone loses
more symbols than the Nexus at every rate, and both land near their
calibrated Table 1 ratios.
"""

import pytest

from benchmarks.conftest import RATES

PAPER_LOSS = {"Nexus 5": 0.2312, "iPhone 5S": 0.3727}


@pytest.fixture(scope="module")
def table1(full_sweep):
    rows = {}
    for device_name, cells in full_sweep.items():
        per_rate = {}
        losses = []
        for rate in RATES:
            # Use the 8-CSK column (any order shares the timing behaviour).
            result = cells.get((8, rate))
            if result is None:
                continue
            received_per_s = (
                result.report.symbols_detected / result.metrics.duration_s
            )
            per_rate[rate] = received_per_s
            losses.append(result.metrics.inter_frame_loss_ratio)
        rows[device_name] = (per_rate, sum(losses) / len(losses))
    return rows


def test_table1_interframe_loss(table1):
    print("\nTable 1 — symbols received per second / avg inter-frame loss ratio")
    print(f"{'device':>10} | " + " | ".join(f"{int(r)} Hz" for r in RATES) + " | avg loss (paper)")
    for device_name, (per_rate, avg_loss) in table1.items():
        cols = " | ".join(
            f"{per_rate.get(rate, float('nan')):7.1f}" for rate in RATES
        )
        print(
            f"{device_name:>10} | {cols} | {avg_loss:.4f} "
            f"(paper {PAPER_LOSS[device_name]:.4f})"
        )

    nexus_rates, nexus_loss = table1["Nexus 5"]
    iphone_rates, iphone_loss = table1["iPhone 5S"]

    # Loss ratios close to the Table 1 calibration points.
    assert nexus_loss == pytest.approx(PAPER_LOSS["Nexus 5"], abs=0.05)
    assert iphone_loss == pytest.approx(PAPER_LOSS["iPhone 5S"], abs=0.06)

    # iPhone receives fewer symbols per second at every rate.
    for rate in RATES:
        if rate in nexus_rates and rate in iphone_rates:
            assert iphone_rates[rate] < nexus_rates[rate]

    # Received symbols scale roughly as (1 - l) * S.
    for device_name, (per_rate, avg_loss) in table1.items():
        for rate, received in per_rate.items():
            assert received == pytest.approx((1 - avg_loss) * rate, rel=0.25)
