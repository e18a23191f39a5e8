#!/usr/bin/env python3
"""Receiver-diversity study: how different cameras see the same symbols.

Reproduces the paper's §6 observations interactively: transmit the 8-CSK
constellation, capture it with a population of simulated devices (the two
paper phones plus synthetic ones), and print where each symbol lands in the
CIELab ab-plane per device — plus what happens to the symbol error rate when
calibration is turned off.

Usage::

    python examples/camera_diversity_study.py
"""

import numpy as np

from repro import SystemConfig, nexus_5, iphone_5s
from repro.camera.devices import DeviceProfile, generic_device
from repro.core.metrics import align_ground_truth, data_symbol_error_rate
from repro.core.system import ColorBarsTransmitter, make_receiver
from repro.csk.demodulator import KIND_DATA, nominal_calibration
from repro.link.channel import ChannelConditions
from repro.link.workloads import text_payload
from repro.phy.waveform import EXTEND_CYCLE
from repro.rx.detector import band_column


def capture_references(device: DeviceProfile, seed: int = 0):
    """Learned calibration references and the uncalibrated SER on a device."""
    config = SystemConfig(
        csk_order=8, symbol_rate=2000,
        design_loss_ratio=device.timing.gap_fraction,
    )
    transmitter = ColorBarsTransmitter(config)
    plan = transmitter.plan(text_payload(2 * config.rs_params().k))
    waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
    profile = DeviceProfile(
        name=device.name, timing=device.timing, response=device.response,
        noise=device.noise, optics=ChannelConditions.paper_setup().make_optics(),
    )
    camera = profile.make_camera(simulated_columns=32, seed=seed)
    frames = camera.record(waveform, duration=2.0)
    receiver = make_receiver(config, device.timing)
    report = receiver.process_frames(frames)
    matches = align_ground_truth(report.bands, plan.symbols, waveform)

    calibrated_ser = data_symbol_error_rate(matches)
    nominal = nominal_calibration(config.constellation, transmitter.modulator)
    data = matches.truth_kind == KIND_DATA
    chroma = band_column(report.bands, "lab")[matches.position[data], 1:]
    wrong = total = 0
    for band_chroma, truth_index in zip(chroma, matches.truth_index[data].tolist()):
        index, _ = nominal.match(band_chroma)
        total += 1
        wrong += int(index) != truth_index
    uncalibrated_ser = wrong / max(total, 1)
    refs = receiver.calibration.references if receiver.calibration.is_calibrated else None
    return refs, calibrated_ser, uncalibrated_ser


def main() -> None:
    devices = [
        nexus_5(),
        iphone_5s(),
        generic_device(loss_ratio=0.28, crosstalk=0.2, seed=5),
    ]
    all_refs = {}
    print("Per-device symbol chroma (8-CSK) and calibration value:\n")
    for device in devices:
        refs, cal_ser, uncal_ser = capture_references(device)
        all_refs[device.name] = refs
        print(f"{device.name}:")
        if refs is None:
            print("  (calibration did not complete)")
            continue
        for index, (a, b) in enumerate(refs):
            print(f"  symbol {index}: a={a:7.1f} b={b:7.1f}")
        print(f"  SER calibrated   = {cal_ser:.4f}")
        print(f"  SER uncalibrated = {uncal_ser:.4f}\n")

    names = [n for n, r in all_refs.items() if r is not None]
    if len(names) >= 2:
        first, second = all_refs[names[0]], all_refs[names[1]]
        displacement = np.sqrt(((first - second) ** 2).sum(axis=1))
        print(
            f"mean displacement of the same symbol between {names[0]} and "
            f"{names[1]}: {displacement.mean():.1f} dE "
            "(several JNDs: why §6 calibration exists)"
        )


if __name__ == "__main__":
    main()
