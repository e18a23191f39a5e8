"""Fig 10 — raw throughput vs symbol frequency per CSK order, both devices.

Paper observations (Figs 10a/10b):

* throughput grows with symbol frequency,
* without error correction, higher CSK orders yield higher raw throughput,
* the maxima at 32-CSK / 4 kHz are on the order of 11 Kbps (Nexus 5) and
  9 Kbps (iPhone 5S),
* the iPhone trails the Nexus despite its lower SER because its inter-frame
  loss ratio is much higher (Table 1).
"""

import pytest

from benchmarks.conftest import ORDERS, RATES, format_series_table


@pytest.fixture(scope="module")
def throughput_tables(full_sweep):
    return {
        device: {
            key: result.metrics.throughput_bps / 1000.0
            for key, result in cells.items()
        }
        for device, cells in full_sweep.items()
    }


def test_fig10_throughput(throughput_tables):
    for device, table in throughput_tables.items():
        print(
            "\n"
            + format_series_table(
                f"Fig 10 — raw throughput vs frequency ({device})", table, "kbps"
            )
        )

    for device, table in throughput_tables.items():
        # Throughput rises with frequency for every order that spans rates.
        for order in ORDERS:
            rates_present = [r for r in RATES if (order, r) in table]
            if len(rates_present) >= 2:
                assert table[(order, rates_present[-1])] > table[
                    (order, rates_present[0])
                ]

        # Higher order -> higher raw throughput at the fastest shared rate.
        at_4k = {o: table[(o, 4000.0)] for o in ORDERS if (o, 4000.0) in table}
        if 32 in at_4k and 4 in at_4k:
            assert at_4k[32] > at_4k[16] > at_4k[8] > at_4k[4]

    nexus = throughput_tables["Nexus 5"]
    iphone = throughput_tables["iPhone 5S"]

    # Peak throughput magnitudes: same order as the paper's 11 / 9 Kbps.
    nexus_peak = max(nexus.values())
    iphone_peak = max(iphone.values())
    assert 7.0 < nexus_peak < 16.0, f"Nexus peak {nexus_peak:.1f} kbps"
    assert 5.0 < iphone_peak < 13.0, f"iPhone peak {iphone_peak:.1f} kbps"

    # The loss-ratio asymmetry puts the iPhone below the Nexus.
    assert iphone_peak < nexus_peak
    for key in nexus:
        if key in iphone and key[1] >= 2000:
            assert iphone[key] < nexus[key] * 1.1
