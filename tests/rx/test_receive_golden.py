"""Golden receive outcomes: every band, payload and FEC failure, pinned.

The batch↔streaming gate compares two receive paths that share the
segment, detect, stitch and assembly code, so a change that moves a band
or a decision moves both paths together and that gate stays green.  These
digests pin the outcomes themselves: the sha256 of every received band's
bounds, ``lab`` bytes, ``mid_time`` repr and decision fields, then the
decoded payloads, then the reasons of the recorded FEC failures, for three
pinned recordings:

* a Nexus 5 8-CSK / 2 kHz cell decoded in one batch;
* an iPhone 5s 16-CSK / 3 kHz session streamed frame by frame with a table
  calibrated on another recording (the serving path);
* a small-camera recording damaged by occlusion and frame drops.

Field values are hashed through ``repr``, so a field that changes type
(a numpy scalar where a Python number was) changes a digest too.

The digests were computed before the band records, the preamble scan and
the codeword packing were rewritten for speed; every optimisation since
must reproduce them exactly.
"""

import copy
import hashlib

import numpy as np
import pytest

from repro.camera.devices import iphone_5s, nexus_5
from repro.core.config import SystemConfig
from repro.core.system import make_receiver
from repro.faults import make_injector
from repro.link.simulator import LinkSimulator
from repro.rx.streaming import StreamingReceiver

from tests.conftest import make_tiny_device

GOLDEN = {
    "nexus5-8csk-2khz-batch": (
        "9a0cc927e2690d1e5b6d6cf5a13cbc5f9d4595d52a08c2c16c04152d23faffe6"
    ),
    "iphone5s-16csk-3khz-stream": (
        "b79a8d80c1bf0ae8393848910c913b74f1d0ee5069b7509cd06655a1dc3fa197"
    ),
    "tiny-4csk-1khz-faults-batch": (
        "4a6bbfb27b360f66865eb8f24d8663483cb85419789c18db7ad403405249ebbf"
    ),
}


def _config(device, order, rate):
    return SystemConfig(
        csk_order=order,
        symbol_rate=rate,
        design_loss_ratio=device.timing.gap_fraction,
        frame_rate=device.timing.frame_rate,
    )


def _frames(config, device, seed, duration_s, columns=32, faults=()):
    simulator = LinkSimulator(
        config, device, simulated_columns=columns, seed=seed, faults=faults
    )
    _, frames, _ = simulator.record_session(duration_s=duration_s)
    return frames


def _receive_digest(report) -> str:
    digest = hashlib.sha256()
    for received in report.bands:
        band, decision = received.band, received.decision
        fields = (
            received.frame_index,
            band.row_start,
            band.row_stop,
            band.core_start,
            band.core_stop,
            received.mid_time,
            decision.kind.value,
            decision.index,
            decision.distance,
            decision.confident,
            decision.margin,
        )
        digest.update(repr(fields).encode())
        digest.update(np.ascontiguousarray(band.lab).tobytes())
    digest.update(b"payloads")
    for payload in report.payloads:
        digest.update(len(payload).to_bytes(4, "big") + payload)
    digest.update(b"fec")
    for failure in report.fec_failures:
        digest.update(repr((failure.first_frame, failure.reason)).encode())
    return digest.hexdigest()


def _nexus5_batch():
    device = nexus_5()
    config = _config(device, 8, 2000.0)
    frames = _frames(config, device, seed=31, duration_s=0.5, columns=48)
    return make_receiver(config, device.timing).process_frames(frames)


def _iphone5s_stream():
    device = iphone_5s()
    config = _config(device, 16, 3000.0)
    bootstrap = make_receiver(config, device.timing)
    bootstrap.process_frames(_frames(config, device, seed=41, duration_s=0.6))
    assert bootstrap.calibration.is_calibrated
    streaming = StreamingReceiver(
        make_receiver(
            config,
            device.timing,
            calibration=copy.deepcopy(bootstrap.calibration),
        )
    )
    for frame in _frames(config, device, seed=42, duration_s=0.6):
        streaming.feed(frame)
    streaming.finish()
    return streaming.report


def _tiny_faults_batch():
    device = make_tiny_device()
    config = _config(device, 4, 1000.0)
    faults = (make_injector("occlusion", 0.1), make_injector("frame-drop", 0.1))
    frames = _frames(config, device, seed=53, duration_s=1.0, faults=faults)
    return make_receiver(config, device.timing).process_frames(frames)


RECORDINGS = {
    "nexus5-8csk-2khz-batch": _nexus5_batch,
    "iphone5s-16csk-3khz-stream": _iphone5s_stream,
    "tiny-4csk-1khz-faults-batch": _tiny_faults_batch,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_receive_outcomes_match_golden(name):
    report = RECORDINGS[name]()
    assert report.bands, "the pinned recording must yield bands"
    assert _receive_digest(report) == GOLDEN[name]
