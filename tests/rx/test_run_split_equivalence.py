"""Detect and stitch give the same bytes however a recording splits into runs.

:meth:`SymbolDetector.detect` classifies a run of frames in one call and
:meth:`PacketAssembler.stitch_into` folds a run onto the stream in one
pass.  A buffered recording is one run per pass; a live stream is a run of
one frame per feed.  Detecting and stitching a recording as one run, as
runs of one frame and as seeded random splits must give byte-equal band
records, the same stitched ``chars`` and ``entries``, the same
:class:`AssemblerStats` and the same packets and calibration events —
through :meth:`PacketAssembler.stitch` and :class:`PacketFold` alike, in
bootstrap and calibrated mode, with and without injected faults.
"""

import dataclasses

import numpy as np
import pytest

from tests.rx.test_streaming_equivalence import _config, _recording

from repro.core.system import make_receiver
from repro.faults import make_injector
from repro.rx.assembler import PacketAssembler, PacketFold
from repro.rx.detector import BAND_RECORD, FrameRecord


def _splits(count, seed):
    """Run boundaries: one run, runs of one, and three seeded random splits."""
    rng = np.random.default_rng(seed)
    splits = {"one run": [0, count], "runs of one": list(range(count + 1))}
    for draw in range(3):
        size = rng.integers(1, count - 1)
        cuts = rng.choice(np.arange(1, count), size=size, replace=False)
        splits[f"random {draw}"] = [0, *sorted(cuts.tolist()), count]
    return splits


def _segmented(receiver, frames):
    segmented = [receiver._segment_frame(frame) for frame in frames]
    assert all(seg.failure is None for seg in segmented)
    return segmented


def _runs(receiver, segmented, bounds):
    detect = receiver.detector.detect
    return [
        detect(
            [seg.clock for seg in segmented[start:stop]],
            [seg.bands for seg in segmented[start:stop]],
        )
        for start, stop in zip(bounds, bounds[1:])
    ]


def _calibration_key(event):
    return (
        event.indices,
        event.symbol_chroma.tobytes(),
        None if event.white_chroma is None else event.white_chroma.tobytes(),
        event.frame_index,
    )


def _outcome(receiver, runs):
    """Everything detect and stitch produced from one split, as exact values."""
    joined = FrameRecord.join(runs)
    assembler = PacketAssembler(receiver.packetizer, receiver.symbol_rate)
    stream = assembler.stitch(runs)
    stitched_stats = dataclasses.asdict(assembler.stats)
    packets, calibrations = assembler.extract(stream)
    fold = PacketFold(receiver.packetizer, receiver.symbol_rate)
    folded = [packet for run in runs for packet in fold.push(run)] + fold.close()
    return {
        "frame_indices": joined.frame_indices,
        "counts": joined.counts,
        # Field by field: the aligned record's padding bytes are not data.
        **{
            f"record {name}": joined.record[name].tobytes()
            for name in BAND_RECORD.names
        },
        "chars": stream.chars,
        "entries": stream.entries.tobytes(),
        "stitch stats": stitched_stats,
        "packets": packets,
        "calibrations": [_calibration_key(event) for event in calibrations],
        "fold packets": folded,
        "fold calibrations": [_calibration_key(e) for e in fold.calibrations],
        "fold stats": dataclasses.asdict(fold.stats),
    }


def _calibrated(receiver, tiny_device, config):
    receiver.process_frames(_recording(tiny_device, config, seed=7))
    assert receiver.calibration.is_calibrated
    return receiver


@pytest.mark.parametrize(
    "calibrated", [False, True], ids=["bootstrap", "calibrated"]
)
@pytest.mark.parametrize(
    "seed, faults",
    [(3, ()), (11, ("frame-drop", "occlusion")), (5, ("timing-jitter",))],
    ids=["clean", "drop+occlusion", "jitter"],
)
def test_every_split_detects_and_stitches_the_same(
    tiny_device, calibrated, seed, faults
):
    config = _config(tiny_device)
    frames = _recording(
        tiny_device,
        config,
        seed=seed,
        faults=[make_injector(name, 0.3) for name in faults],
    )
    receiver = make_receiver(config, tiny_device.timing)
    if calibrated:
        _calibrated(receiver, tiny_device, config)
    segmented = _segmented(receiver, frames)
    outcomes = {
        name: _outcome(receiver, _runs(receiver, segmented, bounds))
        for name, bounds in _splits(len(segmented), seed).items()
    }
    reference = outcomes.pop("one run")
    assert sum(reference["counts"]) > 100
    assert reference["fold packets"] or reference["fold calibrations"]
    assert reference["stitch stats"]["gaps_inserted"] > 0
    for name, outcome in outcomes.items():
        for key, value in reference.items():
            assert outcome[key] == value, (name, key)
