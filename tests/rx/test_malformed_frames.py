"""Malformed frames become failure records, never crashes (property test).

Failures stay data: whatever frames a camera hands the receiver, only a
:class:`~repro.exceptions.ColorBarsError` may leave ``process_frames``,
``StreamingReceiver.feed``/``finish`` or ``SessionManager.submit_frame``/
``pump``, and a session the manager quarantines for an escaped exception
names a ``ColorBarsError`` too.  Frames are drawn over geometry (down to
one row or one column, zero rows), memory layout (Fortran order and
negative-stride views), pixel content, timing extremes and unreadable
pixel buffers, alone or spliced into a real recording so the stitch,
preamble and FEC stages see them.  Batch and streaming decode, calibrated
or not, must also record the same frame failures.
"""

import copy
import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.frame import CapturedFrame
from repro.core.config import SystemConfig
from repro.core.system import make_receiver, make_streaming_receiver
from repro.exceptions import ColorBarsError
from repro.link.simulator import LinkSimulator
from repro.rx.streaming import StreamingReceiver
from repro.serve import CAUSE_ERROR, PoisonFrame, SessionManager, VirtualClock

from tests.conftest import make_tiny_device

_COLS = 32
_LAYOUTS = (
    "C", "F", "rows-reversed", "cols-reversed", "both-reversed", "row-step"
)
_CONTENTS = ("real", "zeros", "saturated", "noise", "stripes")

#: Timing values: the recording's own scale plus the extremes of float64.
_TIMES = st.one_of(
    st.sampled_from([0.0, 1 / 30, -5.0, 1e9, 1e300, -1e300, 5e-324]),
    st.floats(),
)
_PERIODS = st.one_of(
    st.sampled_from([8.33e-5, 1e-5, 1.0, 5e-324, 1e300]), st.floats()
)


@functools.lru_cache(maxsize=None)
def _link():
    """A tiny-device recording and the calibration it bootstraps."""
    device = make_tiny_device()
    config = SystemConfig(
        csk_order=4,
        symbol_rate=1000.0,
        design_loss_ratio=device.timing.gap_fraction,
        frame_rate=device.timing.frame_rate,
    )
    simulator = LinkSimulator(config, device, simulated_columns=_COLS, seed=3)
    _, frames, _ = simulator.record_session(duration_s=0.6)
    bootstrap = make_receiver(config, device.timing)
    bootstrap.process_frames(frames)
    assert bootstrap.calibration.is_calibrated
    return config, device.timing, tuple(frames), bootstrap.calibration


def _colorbars_error_names():
    names, pending = set(), [ColorBarsError]
    while pending:
        cls = pending.pop()
        names.add(cls.__name__)
        pending.extend(cls.__subclasses__())
    return names


def _pixels(draw, position):
    frames = _link()[2]
    content = draw(st.sampled_from(_CONTENTS))
    if content == "real":
        base = frames[position % len(frames)].pixels
        top = draw(st.integers(0, base.shape[0]))
        bottom = draw(st.integers(top, base.shape[0]))
        left = draw(st.integers(0, _COLS - 1))
        right = draw(st.integers(left + 1, _COLS))
        pixels = base[top:bottom, left:right]
    else:
        rows, cols = draw(st.integers(0, 64)), draw(st.integers(1, 8))
        if content == "zeros":
            pixels = np.zeros((rows, cols, 3), np.uint8)
        elif content == "saturated":
            pixels = np.full((rows, cols, 3), 255, np.uint8)
        else:
            # "noise" varies every row; "stripes" holds each color 8 rows.
            run = 1 if content == "noise" else 8
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            colors = rng.integers(0, 256, (-(-rows // run), cols, 3), np.uint8)
            pixels = np.repeat(colors, run, axis=0)[:rows]
    layout = draw(st.sampled_from(_LAYOUTS))
    if layout == "F":
        return np.asfortranarray(pixels)
    if layout == "rows-reversed":
        return pixels[::-1]
    if layout == "cols-reversed":
        return pixels[:, ::-1]
    if layout == "both-reversed":
        return pixels[::-1, ::-1]
    if layout == "row-step":
        return pixels[::2]
    return pixels


@st.composite
def _frame(draw, position):
    """One malformed frame, or ``None`` when the frame cannot be built."""
    if draw(st.integers(0, 9)) == 0:
        return PoisonFrame(position)
    pixels = _pixels(draw, position)
    frames = _link()[2]
    real = frames[position % len(frames)]
    if draw(st.booleans()):
        start, period, exposure = (
            real.start_time, real.row_period, real.exposure.exposure_s
        )
    else:
        start, period, exposure = draw(_TIMES), draw(_PERIODS), draw(_PERIODS)
    try:
        return CapturedFrame(
            index=draw(st.one_of(st.just(position), st.integers(-(2**63), 2**63))),
            pixels=pixels,
            start_time=start,
            row_period=period,
            exposure=ExposureSettings(
                exposure_s=exposure,
                iso=draw(st.sampled_from([100.0, 5e-324, 1e300])),
            ),
        )
    except ColorBarsError:
        return None


@st.composite
def _recordings(draw):
    """A short run of malformed frames, or a real recording with 1-3 of
    its frames replaced."""
    real = list(_link()[2])
    if draw(st.booleans()):
        frames = real
        for _ in range(draw(st.integers(1, 3))):
            position = draw(st.integers(0, len(frames) - 1))
            frames[position] = draw(_frame(position))
    else:
        frames = [draw(_frame(i)) for i in range(draw(st.integers(1, 6)))]
    return [frame for frame in frames if frame is not None]


def _batch(receiver, frames):
    try:
        return receiver.process_frames(frames).frame_failures
    except ColorBarsError as exc:
        return type(exc).__name__


def _stream(streaming, frames):
    try:
        for frame in frames:
            streaming.feed(frame)
        streaming.finish()
    except ColorBarsError as exc:
        return type(exc).__name__
    return streaming.report.frame_failures


def _calibrated_receiver():
    config, timing, _, table = _link()
    receiver = make_receiver(config, timing)
    receiver.calibration = copy.deepcopy(table)
    receiver.demodulator.calibration = receiver.calibration
    return receiver


@settings(max_examples=40, deadline=None)
@given(_recordings())
def test_only_colorbars_errors_escape(frames):
    config, timing, _, _ = _link()

    batch = _batch(make_receiver(config, timing), frames)
    streamed = _stream(make_streaming_receiver(config, timing), frames)
    assert streamed == batch

    calibrated = _stream(StreamingReceiver(_calibrated_receiver()), frames)
    assert calibrated == _batch(_calibrated_receiver(), frames)

    manager = SessionManager(
        lambda _: make_streaming_receiver(config, timing), clock=VirtualClock()
    )
    manager.open_session("s")
    for frame in frames:
        try:
            manager.submit_frame("s", frame)
        except ColorBarsError:
            pass
    manager.pump()
    escaped = [f.error_type for f in manager.failures if f.cause == CAUSE_ERROR]
    assert set(escaped) <= _colorbars_error_names()
