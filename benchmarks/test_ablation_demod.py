"""Ablation — the two demodulation design choices of §6-§7.

1. **CIELab vs RGB matching** (§6.1): the receiver classifies bands by
   chroma distance in the ab-plane.  The ablation reclassifies the same
   received bands by Euclidean distance in raw mean RGB instead; brightness
   variation leaks into the metric and errors rise.
2. **Calibration on vs off** (§6.2): with calibration off, bands are matched
   against the *nominal* constellation colors pushed through an ideal
   pipeline instead of the references learned from calibration packets; the
   device's color response mismatch turns into symbol errors.
"""

import numpy as np
import pytest

from repro.camera.devices import DeviceProfile, nexus_5
from repro.core.config import SystemConfig
from repro.core.metrics import align_ground_truth, data_symbol_error_rate
from repro.core.system import ColorBarsTransmitter, make_receiver
from repro.csk.demodulator import KIND_DATA, nominal_calibration
from repro.link.channel import ChannelConditions
from repro.link.workloads import text_payload
from repro.phy.waveform import EXTEND_CYCLE
from repro.rx.detector import band_column

ORDER = 16
RATE = 2000.0


@pytest.fixture(scope="module")
def recording():
    """One shared recording: frames, plan, waveform, calibrated receiver."""
    device = nexus_5()
    config = SystemConfig(
        csk_order=ORDER, symbol_rate=RATE,
        design_loss_ratio=device.timing.gap_fraction,
    )
    transmitter = ColorBarsTransmitter(config)
    plan = transmitter.plan(text_payload(3 * config.rs_params().k))
    waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
    profile = DeviceProfile(
        name=device.name,
        timing=device.timing,
        response=device.response,
        noise=device.noise,
        optics=ChannelConditions.paper_setup().make_optics(),
    )
    camera = profile.make_camera(simulated_columns=32, seed=13)
    frames = camera.record(waveform, duration=2.5)
    receiver = make_receiver(config, device.timing)
    report = receiver.process_frames(frames)
    return config, transmitter, plan, waveform, receiver, report


def classify_rgb(report, rgb_refs):
    """Reclassify every received band by raw-RGB nearest neighbor."""
    from repro.color.cielab import lab_to_xyz
    from repro.color.srgb import xyz_to_srgb

    decisions = []
    for band in report.bands:
        lab = band.lab
        if lab[0] < 12.0:
            decisions.append(("off", None))
            continue
        rgb = xyz_to_srgb(lab_to_xyz(lab))
        distances = np.sqrt(((rgb_refs - rgb) ** 2).sum(axis=1))
        decisions.append(("data", int(np.argmin(distances))))
    return decisions


def data_matches(report, matches):
    """``(lab, on-air index)`` of every aligned band whose on-air symbol
    carried data."""
    data = matches.truth_kind == KIND_DATA
    labs = band_column(report.bands, "lab")[matches.position[data]]
    return list(zip(labs, matches.truth_index[data].tolist()))


def _two_segment_matches(seed: int = 13):
    """A recording whose brightness changes midway (the phone moved back).

    Returns ``(train, test)`` ground-truth-aligned data matches: ``train``
    from the close segment, ``test`` from the farther (dimmer) one.  This is
    the scenario behind §6.1's CIELab choice — references learned at one
    brightness must still classify at another.
    """
    device = nexus_5()
    config = SystemConfig(
        csk_order=ORDER, symbol_rate=RATE,
        design_loss_ratio=device.timing.gap_fraction,
    )
    transmitter = ColorBarsTransmitter(config)
    plan = transmitter.plan(text_payload(3 * config.rs_params().k))
    waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
    segments = []
    for distance in (0.03, 0.045):
        profile = DeviceProfile(
            name=device.name, timing=device.timing, response=device.response,
            noise=device.noise,
            optics=ChannelConditions(distance_m=distance).make_optics(),
        )
        camera = profile.make_camera(simulated_columns=32, seed=seed)
        camera.enable_awb = True
        camera.auto_exposure.lock()  # hold exposure: only radiance changes
        frames = camera.record(waveform, duration=1.2)
        receiver = make_receiver(config, device.timing)
        report = receiver.process_frames(frames)
        matches = align_ground_truth(report.bands, plan.symbols, waveform)
        segments.append(data_matches(report, matches))
    return segments[0], segments[1]


def test_ablation_lab_vs_rgb_matching(recording):
    """Learn references at one brightness, classify at another.

    The §6.1 argument for CIELab's ab-plane is robustness: dropping the
    lightness dimension makes references immune to brightness changes
    between calibration time and data time (the phone moving, ambient
    shifting, AE retuning).  The comparison trains both matchers on a
    close-range segment and classifies a dimmer, farther segment — raw RGB
    references go stale with brightness, ab references do not.
    """
    train, test = _two_segment_matches()

    from repro.color.cielab import lab_to_xyz
    from repro.color.srgb import xyz_to_srgb

    def featurize(lab, space):
        if space == "rgb":
            return xyz_to_srgb(lab_to_xyz(lab))
        return lab[1:]  # ab-plane, lightness dropped

    results = {}
    for space in ("rgb", "ab"):
        dims = 3 if space == "rgb" else 2
        sums = np.zeros((ORDER, dims))
        counts = np.zeros(ORDER)
        for lab, truth in train:
            sums[truth] += featurize(lab, space)
            counts[truth] += 1
        refs = sums / np.maximum(counts[:, np.newaxis], 1)
        wrong = sum(
            int(
                np.argmin(
                    np.sqrt(((refs - featurize(lab, space)) ** 2).sum(axis=1))
                )
            )
            != truth
            for lab, truth in test
        )
        results[space] = wrong / max(len(test), 1)

    print("\nAblation — demodulation color space (16-CSK @ 2 kHz, Nexus 5)")
    print("  (references from the first fifth, classified on the rest)")
    print(f"  CIELab ab-plane matching SER: {results['ab']:.4f}")
    print(f"  raw RGB matching SER        : {results['rgb']:.4f}")
    assert results["ab"] <= results["rgb"] + 1e-9


def test_ablation_calibration_off(recording):
    config, transmitter, plan, waveform, receiver, report = recording

    matches = align_ground_truth(report.bands, plan.symbols, waveform)
    calibrated_ser = data_symbol_error_rate(matches)

    # Calibration-off ablation: match the same band chroma against nominal
    # references (ideal-pipeline constellation colors).
    nominal = nominal_calibration(config.constellation, transmitter.modulator)
    wrong = 0
    total = 0
    for lab, truth in data_matches(report, matches):
        indices, _ = nominal.match(lab[1:])
        total += 1
        if int(indices) != truth:
            wrong += 1
    uncalibrated_ser = wrong / max(total, 1)

    print("\nAblation — transmitter-assisted calibration (16-CSK @ 2 kHz)")
    print(f"  calibrated SER  : {calibrated_ser:.4f}")
    print(f"  uncalibrated SER: {uncalibrated_ser:.4f}")
    # Calibration must help substantially on a device with a skewed
    # color response.
    assert calibrated_ser < uncalibrated_ser
    assert uncalibrated_ser > 0.05
