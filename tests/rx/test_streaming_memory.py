"""A buffering streaming session holds frame clocks and bands, not pixels.

An uncalibrated :class:`StreamingReceiver` buffers every fed frame's
segmentation until the bootstrap decode at ``finish()``.  The replay reads
only each frame's bands and clock (index, start time, row period,
exposure), so once the caller lets go of a fed frame its pixel array must
be collectable, and ``finish()`` must still equal the batch pass.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from tests.rx.test_streaming_equivalence import (
    _config,
    _recording,
    assert_reports_identical,
)

from repro.core.system import make_receiver, make_streaming_receiver
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
