"""The report's band log reads back exactly the bands the detector made.

``ReceiverReport.bands`` keeps each frame's classified bands as one packed
record (:class:`repro.rx.detector.BandLog`), not as band objects.  Reading
it must give :class:`ReceivedBand` objects equal, field for field, to the
ones the detector's records read back as — on batch decode, on a
calibrated stream, and on a buffering session's ``finish()`` — and every
consumer that scores a report must score a plain band list the same way.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from tests.rx.test_streaming_equivalence import _config, _recording

from repro.core.metrics import align_ground_truth, compute_link_metrics
from repro.core.system import (
    ColorBarsTransmitter,
    make_receiver,
    make_streaming_receiver,
)
from repro.link.adapt import ReportWindowTracker
from repro.link.simulator import LinkSimulator
from repro.phy.waveform import EXTEND_CYCLE
from repro.csk.demodulator import DECISION_KINDS, NO_INDEX
from repro.rx.detector import BAND_RECORD, BandLog, band_column, received_bands
from repro.rx.receiver import ReceiverReport
from repro.rx.streaming import StreamingReceiver


class _CapturingDetector:
    """Wraps a receiver's detector and keeps every band it returns.

    Reads each frame of a returned run back through :func:`received_bands`,
    and checks the bands against the detector's inputs: the bounds and
    colors of the segmented bands, the decisions of the list-form
    demodulator on that frame alone, and ``mid_time`` computed in Python
    floats the way the frame's clock reads.  ``calls`` holds one entry per
    detected frame.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def detect(self, clocks, bands):
        result = self.inner.detect(clocks, bands)
        assert result.frame_indices == [clock.index for clock in clocks]
        assert len(result) == sum(len(frame) for frame in bands)
        for clock, frame, (frame_index, record) in zip(
            clocks, bands, result.frames()
        ):
            self.calls.append(self._check_frame(clock, frame, frame_index, record))
        return result

    def _check_frame(self, clock, bands, frame_index, record):
        received = received_bands(frame_index, record)
        segmented = bands.bands()
        assert len(received) == len(segmented)
        if segmented and self.inner.calibrated:
            decisions = self.inner.demodulator.decide_stream(bands.lab)
            assert [r.decision for r in received] == decisions
        half_exposure = float(clock.exposure.exposure_s / 2.0)
        for band, source in zip(received, segmented):
            assert band.frame_index == clock.index
            assert band.band[:4] == source[:4]
            assert band.lab.tobytes() == source.lab.tobytes()
            mid_time = (
                float(clock.start_time)
                + (source.core_start + source.core_stop - 1) / 2.0
                * float(clock.row_period)
                + half_exposure
            )
            assert band.mid_time.hex() == mid_time.hex()
        return received


def _key(band):
    """Every field of a received band, with floats and lab as exact bits."""
    decision = band.decision
    return (
        band.frame_index,
        band.band.row_start,
        band.band.row_stop,
        band.band.core_start,
        band.band.core_stop,
        band.lab.dtype.str,
        band.lab.tobytes(),
        band.mid_time.hex(),
        decision.kind,
        decision.index,
        decision.distance.hex(),
        decision.confident,
        None if decision.margin is None else decision.margin.hex(),
    )


def _assert_log_matches(log, detected):
    assert isinstance(log, BandLog)
    expected = [_key(band) for band in detected]
    assert [_key(band) for band in log] == expected
    assert len(log) == len(expected)
    for key in (0, 7, len(expected) // 2, -1, -len(expected)):
        assert _key(log[key]) == expected[key]
    windows = (slice(5, 41), slice(-30, None), slice(None, None, -7), slice(3, 3))
    for window in windows:
        assert [_key(band) for band in log[window]] == expected[window]
    with pytest.raises(IndexError):
        log[len(expected)]


def _last_pass(capturing, frames):
    """The detector results of the last classification pass over frames."""
    calls = capturing.calls[-len(frames):]
    return [band for call in calls for band in call]


@pytest.fixture
def setting(tiny_device):
    config = _config(tiny_device)
    return tiny_device, config, _recording(tiny_device, config, seed=3)


def _calibrated_receiver(tiny_device, config):
    receiver = make_receiver(config, tiny_device.timing)
    receiver.process_frames(_recording(tiny_device, config, seed=7))
    assert receiver.calibration.is_calibrated
    return receiver


def test_batch_decode_logs_the_detected_bands(setting):
    device, config, frames = setting
    receiver = make_receiver(config, device.timing)
    capturing = receiver.detector = _CapturingDetector(receiver.detector)
    report = receiver.process_frames(frames)
    assert report.packets_decoded > 0
    # An uncalibrated receiver classifies twice: bootstrap, then decode.
    assert len(capturing.calls) == 2 * len(frames)
    _assert_log_matches(report.bands, _last_pass(capturing, frames))


def test_calibrated_stream_logs_the_bands_the_fold_saw(setting):
    device, config, frames = setting
    receiver = _calibrated_receiver(device, config)
    capturing = receiver.detector = _CapturingDetector(receiver.detector)
    streaming = StreamingReceiver(receiver)
    assert not streaming.buffering
    for frame in frames:
        streaming.feed(frame)
    streaming.finish()
    assert streaming.report.packets_decoded > 0
    assert len(capturing.calls) == len(frames)
    _assert_log_matches(streaming.report.bands, _last_pass(capturing, frames))


def test_buffering_finish_logs_the_detected_bands(setting):
    device, config, frames = setting
    streaming = make_streaming_receiver(config, device.timing)
    receiver = streaming.receiver
    capturing = receiver.detector = _CapturingDetector(receiver.detector)
    assert streaming.buffering
    for frame in frames:
        streaming.feed(frame)
    streaming.finish()
    assert streaming.report.packets_decoded > 0
    _assert_log_matches(streaming.report.bands, _last_pass(capturing, frames))


def test_log_survives_a_pickle_round_trip(setting):
    device, config, frames = setting
    report = make_receiver(config, device.timing).process_frames(frames)
    restored = pickle.loads(pickle.dumps(report))
    assert [_key(band) for band in restored.bands] == [
        _key(band) for band in report.bands
    ]


def _streamed_log(device, config, frames):
    streaming = StreamingReceiver(_calibrated_receiver(device, config))
    for frame in frames:
        streaming.feed(frame)
    streaming.finish()
    return streaming.report.bands


def test_identical_decodes_pickle_to_identical_bytes(setting):
    """A band record's layout has padding; the log must not carry
    whatever bytes the allocator left there."""
    device, config, frames = setting
    batch = [
        make_receiver(config, device.timing).process_frames(frames).bands
        for _ in range(2)
    ]
    streamed = [_streamed_log(device, config, frames) for _ in range(2)]
    for first, second in (batch, streamed):
        assert len(first) > 0
        assert pickle.dumps(first) == pickle.dumps(second)
    named = np.zeros(BAND_RECORD.itemsize, dtype=bool)
    for dtype, offset in (field[:2] for field in BAND_RECORD.fields.values()):
        named[offset : offset + dtype.itemsize] = True
    assert not named.all()
    for log in (batch[0], streamed[0]):
        for record in log._records:
            raw = np.frombuffer(record.tobytes(), dtype=np.uint8)
            assert not raw.reshape(len(record), -1)[:, ~named].any()


def test_an_empty_log_reads_empty():
    log = ReceiverReport().bands
    assert len(log) == 0
    assert list(log) == []
    assert log[0:5] == []
    with pytest.raises(IndexError):
        log[0]


def _loop_margin(bands):
    """Mean defined margin, summed band object by band object."""
    total, count = 0.0, 0
    for band in bands:
        if band.decision.margin is not None:
            total += band.decision.margin
            count += 1
    return total / count if count else None


def _alignment_key(alignment):
    """Every column of a ground-truth alignment, as exact values."""
    return tuple(
        (column.dtype.str, column.tolist())
        for column in (
            alignment.position,
            alignment.kind,
            alignment.index,
            alignment.truth_kind,
            alignment.truth_index,
        )
    )


def test_columns_read_like_the_band_objects(setting):
    device, config, frames = setting
    log = make_receiver(config, device.timing).process_frames(frames).bands
    bands = list(log)
    assert len(bands) > 10
    for start in (0, 1, len(bands) // 2, len(bands) - 1, len(bands), len(bands) + 3):
        tail = bands[start:]
        expected = {
            "frame_index": [band.frame_index for band in tail],
            "mid_time": [band.mid_time for band in tail],
            "kind": [DECISION_KINDS.index(band.decision.kind) for band in tail],
            "index": [
                NO_INDEX if band.decision.index is None else band.decision.index
                for band in tail
            ],
            "margin": [band.decision.margin for band in tail],
        }
        for name, values in expected.items():
            for source in (log, bands):
                column = band_column(source, name, start)
                assert column.dtype == band_column(log, name).dtype
                read = column.tolist()
                if name == "margin":
                    read = [None if gap != gap else gap for gap in read]
                assert read == values
    assert band_column(log, "lab", 2).tolist() == [b.lab.tolist() for b in bands[2:]]
    assert band_column(ReceiverReport().bands, "lab").shape == (0, 3)


def test_a_plain_band_list_scores_like_the_log(tiny_device):
    config = _config(tiny_device)
    result = LinkSimulator(
        config, tiny_device, simulated_columns=32, seed=3
    ).run(duration_s=0.6)
    report = result.report
    assert isinstance(report.bands, BandLog)
    as_list = replace(report, bands=list(report.bands))
    waveform = ColorBarsTransmitter(config).waveform(
        result.plan, extend=EXTEND_CYCLE
    )

    scored = [
        align_ground_truth(r.bands, result.plan.symbols, waveform)
        for r in (report, as_list)
    ]
    assert _alignment_key(scored[0]) == _alignment_key(scored[1])
    assert len(scored[0]) == result.metrics.symbols_compared
    metrics = [
        compute_link_metrics(
            report=r,
            alignment=alignment,
            bits_per_symbol=config.bits_per_symbol,
            payload_bytes_per_packet=config.rs_params().k,
            duration_s=0.6,
        )
        for r, alignment in zip((report, as_list), scored)
    ]
    assert metrics[0] == metrics[1] == result.metrics
    assert report.delta_e_margin is not None
    assert report.delta_e_margin == as_list.delta_e_margin
    assert report.delta_e_margin == _loop_margin(report.bands)


def test_window_tracker_reads_the_log_like_a_list(setting):
    device, config, frames = setting
    streaming = StreamingReceiver(_calibrated_receiver(device, config))
    on_log, on_list = ReportWindowTracker(), ReportWindowTracker()
    windows, ends = [], [0]
    for position, frame in enumerate(frames, start=1):
        streaming.feed(frame)
        if position % 5 == 0:
            report = streaming.report
            as_list = replace(report, bands=list(report.bands))
            windows.append((on_log.take(report), on_list.take(as_list)))
            ends.append(len(report.bands))
    bands = list(streaming.report.bands)
    assert len(windows) > 2
    assert all(ours == theirs for ours, theirs in windows)
    assert any(ours.delta_e_margin is not None for ours, _ in windows)
    assert [ours.delta_e_margin for ours, _ in windows] == [
        _loop_margin(bands[start:stop]) for start, stop in zip(ends, ends[1:])
    ]
