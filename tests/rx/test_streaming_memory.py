"""What a streaming session keeps per fed frame.

An uncalibrated :class:`StreamingReceiver` buffers every fed frame's
segmentation until the bootstrap decode at ``finish()``.  The replay reads
only each frame's bands and clock (index, start time, row period,
exposure), so once the caller lets go of a fed frame its pixel array must
be collectable, and ``finish()`` must still equal the batch pass.

A calibrated (live) session decodes as it goes; its packet fold holds band
objects for the open window only, and its report logs each frame's bands
as one packed record, so what it retains per received band stays small
and flat however long it runs.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from tests.rx.test_streaming_equivalence import (
    _config,
    _recording,
    assert_reports_identical,
)

from repro.core.system import make_receiver, make_streaming_receiver
from repro.rx.streaming import StreamingReceiver
from repro.faults import FaultSchedule, make_injector
from repro.util.rng import make_rng


def _feed_private_copies(streaming, frames):
    """Feed a pixel copy of each frame; return weakrefs to the fed pixels."""
    refs = []
    for frame in frames:
        fed = replace(frame, pixels=frame.pixels.copy())
        refs.append(weakref.ref(fed.pixels))
        assert streaming.feed(fed) == []
        del fed
    return refs


@pytest.mark.parametrize("fault", [None, "occlusion", "scanline-corruption"])
def test_buffering_session_keeps_no_fed_pixels(tiny_device, fault):
    config = _config(tiny_device)
    frames = _recording(tiny_device, config, seed=4)
    if fault is not None:
        frames = make_injector(fault, 0.3).inject(
            frames, make_rng(8), FaultSchedule()
        )
    streaming = make_streaming_receiver(config, tiny_device.timing)
    assert streaming.buffering

    refs = _feed_private_copies(streaming, frames)
    gc.collect()
    assert streaming.buffering
    assert [ref() for ref in refs] == [None] * len(refs)

    streaming.finish()
    batch = make_receiver(config, tiny_device.timing).process_frames(frames)
    assert batch.packets_decoded > 0 or fault is not None
    assert_reports_identical(streaming.report, batch)


#: Bytes a live session may retain per received band: the report's packed
#: record (72 bytes) plus per-frame bookkeeping and the fold's window,
#: amortized.  A session that logged band objects retained ~510-525.
LIVE_BYTES_PER_BAND = 150


def _retained_bytes_per_band(receiver, frames):
    """Traced bytes a fresh live session holds after ``frames``, per band."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        streaming = StreamingReceiver(receiver)
        assert not streaming.buffering
        for frame in frames:
            streaming.feed(frame)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(streaming.report.bands)


def test_live_session_retains_a_small_flat_cost_per_band(tiny_device):
    config = _config(tiny_device)
    receiver = make_receiver(config, tiny_device.timing)
    receiver.process_frames(_recording(tiny_device, config, seed=7))
    assert receiver.calibration.is_calibrated
    short = _recording(tiny_device, config, seed=8, duration_s=1.2)
    long = _recording(tiny_device, config, seed=8, duration_s=3.6)
    # Warm every per-frame memo so neither measured session pays for one.
    _retained_bytes_per_band(receiver, short)

    per_band = [_retained_bytes_per_band(receiver, f) for f in (short, long)]
    assert per_band[0] <= LIVE_BYTES_PER_BAND, per_band
    # Flat: a 3x longer session costs no more per band (2% for allocator
    # noise); a log that grew superlinearly, or kept per-band objects
    # alive past the fold window, would not be.
    assert per_band[1] <= 1.02 * per_band[0], per_band
