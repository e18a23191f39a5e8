"""The receive path carries band records, never band objects.

From :meth:`SymbolDetector.detect` to FEC each frame's bands stay one
packed record array (:class:`repro.rx.detector.FrameRecord`); the packet
fold reads its columns.  :class:`~repro.rx.detector.ReceivedBand` objects
are built only when a report's band log is read back.  This counts their
constructions over a calibrated decode, a bootstrap decode and a streaming
session: none, until ``report.bands`` is read.
"""

import pytest

from tests.rx.test_streaming_equivalence import _config, _recording

from repro.core.system import make_receiver
from repro.rx.detector import ReceivedBand
from repro.rx.streaming import StreamingReceiver


@pytest.fixture
def constructions(monkeypatch):
    """How many :class:`ReceivedBand` objects have been built so far."""
    built = []
    original = ReceivedBand.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(ReceivedBand, "__new__", counting_new)
    return built


@pytest.fixture
def setting(tiny_device):
    config = _config(tiny_device)
    return tiny_device, config, _recording(tiny_device, config, seed=3)


def _calibrated_receiver(device, config):
    receiver = make_receiver(config, device.timing)
    receiver.process_frames(_recording(device, config, seed=7))
    assert receiver.calibration.is_calibrated
    return receiver


def _assert_none_until_read(report, constructions):
    assert report.packets_decoded > 0
    assert constructions == []
    assert len(list(report.bands)) == report.symbols_detected > 0
    assert len(constructions) == report.symbols_detected


def test_counting_sees_a_construction(constructions):
    ReceivedBand(0, None, 0.0, None)
    assert constructions == [1]


def test_calibrated_decode_builds_no_band(setting, constructions):
    device, config, frames = setting
    receiver = _calibrated_receiver(device, config)
    constructions.clear()
    report = receiver.process_frames(frames)
    _assert_none_until_read(report, constructions)


def test_bootstrap_decode_builds_no_band(setting, constructions):
    device, config, frames = setting
    receiver = make_receiver(config, device.timing)
    assert not receiver.calibration.is_calibrated
    report = receiver.process_frames(frames)
    assert report.calibration_updates > 0
    _assert_none_until_read(report, constructions)


def test_streaming_session_builds_no_band(setting, constructions):
    device, config, frames = setting
    streaming = StreamingReceiver(_calibrated_receiver(device, config))
    constructions.clear()
    for frame in frames:
        streaming.feed(frame)
    streaming.finish()
    _assert_none_until_read(streaming.report, constructions)
