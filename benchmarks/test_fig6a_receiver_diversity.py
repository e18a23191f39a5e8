"""Fig 6(a) — the same color symbols are perceived differently per camera.

The paper transmits the 8-CSK constellation and plots where each symbol
lands in the ab-plane for the Nexus 5 and iPhone 5S: the clusters differ
noticeably between the devices (different color filters, ISPs).  The bench
captures calibration packets with both simulated devices and reports the
per-symbol received chroma; shape checks: (i) within a device, the eight
symbols are well separated; (ii) across devices, the same symbol lands at a
noticeably different chroma (the motivation for §6 calibration).
"""

import numpy as np
import pytest

from repro.camera.devices import DeviceProfile, iphone_5s, nexus_5
from repro.core.config import SystemConfig
from repro.core.system import ColorBarsTransmitter, make_receiver
from repro.link.channel import ChannelConditions
from repro.link.workloads import text_payload
from repro.phy.waveform import EXTEND_CYCLE


def received_references(device, seed=0):
    config = SystemConfig(
        csk_order=8,
        symbol_rate=2000,
        design_loss_ratio=device.timing.gap_fraction,
    )
    transmitter = ColorBarsTransmitter(config)
    plan = transmitter.plan(text_payload(config.rs_params().k))
    waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
    profile = DeviceProfile(
        name=device.name,
        timing=device.timing,
        response=device.response,
        noise=device.noise,
        optics=ChannelConditions.paper_setup().make_optics(),
    )
    camera = profile.make_camera(simulated_columns=32, seed=seed)
    frames = camera.record(waveform, duration=1.5)
    receiver = make_receiver(config, device.timing)
    receiver.process_frames(frames)
    assert receiver.calibration.is_calibrated
    return receiver.calibration.references


def test_fig6a_receiver_diversity():
    def run():
        return {
            "Nexus 5": received_references(nexus_5()),
            "iPhone 5S": received_references(iphone_5s()),
        }

    refs = run()

    print("\nFig 6(a) — received chroma of the 8-CSK symbols per device")
    print("  symbol |    Nexus 5 (a, b)   |   iPhone 5S (a, b)")
    for index in range(8):
        n = refs["Nexus 5"][index]
        i = refs["iPhone 5S"][index]
        print(
            f"  {index:>6} | ({n[0]:7.1f}, {n[1]:7.1f}) | ({i[0]:7.1f}, {i[1]:7.1f})"
        )

    for device, table in refs.items():
        # Within a device, symbols stay separable (else CSK cannot work).
        deltas = table[:, np.newaxis, :] - table[np.newaxis, :, :]
        distances = np.sqrt((deltas**2).sum(axis=-1))
        np.fill_diagonal(distances, np.inf)
        assert distances.min() > 4.0, f"{device} symbols collapse"

    # Across devices, the same symbol lands in a noticeably different spot
    # for most of the constellation — the §6 calibration motivation.
    displacement = np.sqrt(
        ((refs["Nexus 5"] - refs["iPhone 5S"]) ** 2).sum(axis=-1)
    )
    print(f"  mean cross-device displacement: {displacement.mean():.1f} dE")
    assert displacement.mean() > 5.0
    assert (displacement > 2.3).sum() >= 5  # beyond a JND for most symbols
