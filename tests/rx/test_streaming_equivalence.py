"""The streaming↔batch byte-identity gate (ISSUE 7 acceptance criterion).

Feeding a recording frame by frame through :class:`StreamingReceiver` must
leave a :class:`ReceiverReport` byte-identical to a batch
``process_frames`` call on the same frames — with no faults, and under
every registered fault injector at nonzero intensity (mirroring the PR 3
serial↔parallel equivalence suite one layer down).  Also covers the
out-of-order lifecycle error paths: feed-after-finish and double-finish.
"""

import numpy as np
import pytest

from repro.camera.devices import generic_device
from repro.core.config import SystemConfig
from repro.core.system import make_receiver, make_streaming_receiver
from repro.exceptions import StreamingStateError
from repro.faults import make_injector
from repro.faults.injectors import FAULT_REGISTRY
from repro.link.simulator import LinkSimulator
from repro.rx.streaming import StreamingReceiver
from repro.serve.soak import PoisonFrame

#: Counter fields of ReceiverReport compared one by one (its band list holds
#: numpy payloads, so dataclass equality cannot be used wholesale).
_COUNTER_FIELDS = (
    "packets_decoded",
    "packets_failed_fec",
    "packets_seen",
    "calibration_updates",
    "calibration_rejected",
    "frames_processed",
    "symbols_detected",
    "symbols_lost_in_gaps",
)


def _config(tiny_device, order=4, rate=1000.0):
    return SystemConfig(
        csk_order=order,
        symbol_rate=rate,
        design_loss_ratio=tiny_device.timing.gap_fraction,
        frame_rate=tiny_device.timing.frame_rate,
    )


def _recording(tiny_device, config, seed=0, faults=(), duration_s=0.6):
    simulator = LinkSimulator(
        config,
        tiny_device,
        simulated_columns=32,
        seed=seed,
        faults=tuple(faults),
    )
    _, frames, _ = simulator.record_session(duration_s=duration_s)
    return frames


def assert_reports_identical(streamed, batch):
    assert streamed.payloads == batch.payloads
    for name in _COUNTER_FIELDS:
        assert getattr(streamed, name) == getattr(batch, name), name
    assert streamed.frame_failures == batch.frame_failures
    assert streamed.fec_failures == batch.fec_failures
    assert len(streamed.bands) == len(batch.bands)
    for ours, theirs in zip(streamed.bands, batch.bands):
        assert ours.frame_index == theirs.frame_index
        assert ours.mid_time == theirs.mid_time
        assert ours.to_char() == theirs.to_char()
        assert ours.decision.index == theirs.decision.index
        assert np.array_equal(ours.lab, theirs.lab)


def _stream(streaming: StreamingReceiver, frames):
    events = []
    for frame in frames:
        events.extend(streaming.feed(frame))
    events.extend(streaming.finish())
    return events


class TestStreamingEquivalence:
    def test_matches_batch_without_faults(self, tiny_device):
        config = _config(tiny_device)
        frames = _recording(tiny_device, config, seed=3)
        batch = make_receiver(config, tiny_device.timing).process_frames(frames)
        streaming = make_streaming_receiver(config, tiny_device.timing)
        events = _stream(streaming, frames)
        assert_reports_identical(streaming.report, batch)
        assert [e.payload for e in events if e.decoded] == batch.payloads
        assert [e.failure for e in events if not e.decoded] == batch.fec_failures

    @pytest.mark.parametrize("fault_name", sorted(FAULT_REGISTRY))
    def test_matches_batch_under_each_injector(self, tiny_device, fault_name):
        config = _config(tiny_device)
        frames = _recording(
            tiny_device, config, seed=5, faults=[make_injector(fault_name, 0.3)]
        )
        batch = make_receiver(config, tiny_device.timing).process_frames(frames)
        streaming = make_streaming_receiver(config, tiny_device.timing)
        _stream(streaming, frames)
        assert_reports_identical(streaming.report, batch)

    def test_unreadable_frame_matches_batch(self):
        """A frame whose pixels cannot be read is one contained failure on
        both paths; batch decode must not abort while grouping frames."""
        device = generic_device()
        config = _config(device)
        frames = _recording(device, config, seed=1, duration_s=0.5)
        frames[5] = PoisonFrame(5)
        batch = make_receiver(config, device.timing).process_frames(frames)
        streaming = make_streaming_receiver(config, device.timing)
        _stream(streaming, frames)
        assert_reports_identical(streaming.report, batch)
        assert [
            (f.frame_index, f.stage, f.error_type) for f in batch.frame_failures
        ] == [(5, "preprocess", "CameraError")]
        assert batch.packets_decoded > 0

    def test_calibrated_session_emits_at_codeword_close(self, tiny_device):
        # Bootstrap both receivers on one recording, then stream a second:
        # a calibrated session must decode live (events before finish), not
        # buffer, and still match batch byte for byte.
        config = _config(tiny_device)
        first = _recording(tiny_device, config, seed=7)
        second = _recording(tiny_device, config, seed=8)

        batch_receiver = make_receiver(config, tiny_device.timing)
        batch_receiver.process_frames(first)
        assert batch_receiver.calibration.is_calibrated
        batch = batch_receiver.process_frames(second)

        warmup = make_streaming_receiver(config, tiny_device.timing)
        assert warmup.buffering
        _stream(warmup, first)
        live = StreamingReceiver(warmup.receiver)
        assert not live.buffering

        fed_events = []
        for frame in second:
            fed_events.extend(live.feed(frame))
        assert fed_events, "no packet closed before finish()"
        live.finish()
        assert_reports_identical(live.report, batch)


class TestLifecycleErrors:
    def test_feed_after_finish_raises(self, tiny_device):
        config = _config(tiny_device)
        frames = _recording(tiny_device, config, seed=1, duration_s=0.4)
        streaming = make_streaming_receiver(config, tiny_device.timing)
        streaming.feed(frames[0])
        streaming.finish()
        with pytest.raises(StreamingStateError, match="finished"):
            streaming.feed(frames[0])

    def test_double_finish_raises(self, tiny_device):
        config = _config(tiny_device)
        streaming = make_streaming_receiver(config, tiny_device.timing)
        streaming.finish()
        with pytest.raises(StreamingStateError, match="twice"):
            streaming.finish()

    def test_finish_without_frames_is_empty(self, tiny_device):
        config = _config(tiny_device)
        streaming = make_streaming_receiver(config, tiny_device.timing)
        assert streaming.finish() == []
        assert streaming.report.frames_processed == 0
        assert streaming.report.payloads == []
