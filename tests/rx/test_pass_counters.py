"""Every receive pass counts from zero.

The assembler counters (preambles seen, packets dropped, symbols lost in
gaps) belong to one pass of the back half.  A receiver that decodes the
same recording again, serves a second streaming session, or bootstraps its
calibration before decoding must report the same counts as a single
decode pass of that recording.
"""

import pytest

from repro.camera.devices import nexus_5
from repro.core.system import make_receiver
from repro.rx.streaming import StreamingReceiver

from tests.rx.test_receive_golden import _config, _frames


@pytest.fixture(scope="module")
def nexus5():
    """The Nexus 5 8-CSK / 2 kHz recording of the receive golden test."""
    device = nexus_5()
    config = _config(device, 8, 2000.0)
    frames = _frames(config, device, seed=31, duration_s=0.5, columns=48)
    return config, device.timing, frames


def _stream(receiver, frames):
    streaming = StreamingReceiver(receiver)
    for frame in frames:
        streaming.feed(frame)
    streaming.finish()
    return streaming.report


def _pass_counters(receiver):
    stats = receiver.assembler.stats
    return (
        stats.preambles_seen,
        stats.data_packets_dropped_header,
        stats.calibration_packets_ok,
    )


class TestPassCountersStartFromZero:
    def test_repeated_decodes_lose_the_same_symbols(self, nexus5):
        config, timing, frames = nexus5
        receiver = make_receiver(config, timing)
        lost = [
            receiver.process_frames(frames).symbols_lost_in_gaps
            for _ in range(3)
        ]
        assert lost[0] > 0
        assert lost == [lost[0]] * 3

    def test_streaming_sessions_lose_the_same_symbols(self, nexus5):
        config, timing, frames = nexus5
        receiver = make_receiver(config, timing)
        batch = receiver.process_frames(frames).symbols_lost_in_gaps
        assert receiver.calibration.is_calibrated
        first = _stream(receiver, frames).symbols_lost_in_gaps
        second = _stream(receiver, frames).symbols_lost_in_gaps
        assert first == second == batch

    def test_bootstrap_pass_is_not_counted(self, nexus5):
        config, timing, frames = nexus5
        receiver = make_receiver(config, timing)
        receiver.process_frames(frames)
        cold_batch = _pass_counters(receiver)
        receiver.process_frames(frames)
        warm_batch = _pass_counters(receiver)
        buffering = make_receiver(config, timing)
        _stream(buffering, frames)
        cold_stream = _pass_counters(buffering)
        assert cold_batch == warm_batch == cold_stream == (14, 1, 4)
