"""Gap counts at exact rounding ties: ``int(round(dt / period)) - 1``.

The stitcher counts the symbols lost between two bands from their
``mid_time`` difference, in one vectorized pass per frame.  ``round`` rounds
half to even, so a difference of exactly 2.5 periods loses one symbol, not
the two a ``floor(x + 0.5)`` count would give.  These frames put the
difference exactly on x.5 (the symbol rate is a power of two, so every time
below is an exact binary fraction) and one ulp either side of it, across
frame boundaries and inside a frame, and check the gap markers and
``symbols_lost_in_gaps`` against the per-band Python count — through
:meth:`PacketAssembler.stitch_into` and :meth:`PacketFold.push` alike.
"""

import math

import numpy as np

from tests.rx.test_assembler import pack_frame

from repro.core.config import SystemConfig
from repro.phy.symbols import white_symbol
from repro.rx.assembler import PacketAssembler, PacketFold, SymbolStream

SYMBOL_RATE = 1024.0
PERIOD = 1.0 / SYMBOL_RATE

#: Cross-frame differences, in periods: exact ties with even and odd
#: integer parts (half-to-even and half-up disagree only on the even ones).
TIES = (0.5, 1.5, 2.5, 3.5, 4.5, 6.5, 10.5)


def _frame_times():
    """Band times per frame: ties, and one ulp below and above each."""
    frames = [[0.25, 0.25 + PERIOD]]
    last = frames[-1][-1]
    for ratio in TIES:
        for nudge in (None, -np.inf, np.inf):
            first = last + ratio * PERIOD
            if nudge is not None:
                first = float(np.nextafter(first, nudge))
            frames.append([first, first + PERIOD, first + 2 * PERIOD])
            last = frames[-1][-1]
    # Inside one frame: a band the segmenter lost between two that are
    # 2.5 periods apart.
    first = last + PERIOD
    frames.append([first, first + 2.5 * PERIOD, first + 3.5 * PERIOD])
    return frames


def _expected(frames):
    """Gap marker positions and counts, band by band in Python floats."""
    chars, lost, previous = [], [], None
    for times in frames:
        for time in times:
            if previous is not None:
                missing = int(round((time - previous) / PERIOD)) - 1
                if missing > 0:
                    chars.append("_")
                    lost.append(missing)
            chars.append("x")
            previous = time
    return "".join(chars), lost


def _records(frames):
    """One record per frame, each followed by a frame with no bands."""
    records = []
    for index, times in enumerate(frames):
        records.append(pack_frame(2 * index, [(t, white_symbol()) for t in times]))
        records.append(pack_frame(2 * index + 1, []))
    return records


def _packetizer():
    return SystemConfig(csk_order=8, symbol_rate=SYMBOL_RATE).make_packetizer()


def test_the_frames_hold_ties_half_up_would_miscount():
    frames = _frame_times()
    ratios = [
        (later[0] - earlier[-1]) / PERIOD
        for earlier, later in zip(frames, frames[1:])
    ]
    ratios += [(b - a) / PERIOD for a, b in zip(frames[-1], frames[-1][1:])]
    ties = [ratio for ratio in ratios if ratio % 1.0 == 0.5]
    assert len(ties) == len(TIES) + 1
    assert any(round(ratio) != math.floor(ratio + 0.5) for ratio in ties)
    assert any(0.0 < abs(ratio % 1.0 - 0.5) < 1e-9 for ratio in ratios)


def test_stitch_into_counts_ties_half_to_even():
    frames = _frame_times()
    chars, lost = _expected(frames)
    assembler = PacketAssembler(_packetizer(), SYMBOL_RATE)
    stream = SymbolStream()
    for record in _records(frames):
        assembler.stitch_into(stream, record)
    assert stream.chars == chars
    assert assembler.stats.gaps_inserted == len(lost)
    assert assembler.stats.symbols_lost_in_gaps == sum(lost)
    assert assembler.stats.max_gap_symbols == max(lost)


def test_fold_push_counts_ties_half_to_even():
    frames = _frame_times()
    _, lost = _expected(frames)
    fold = PacketFold(_packetizer(), SYMBOL_RATE)
    for record in _records(frames):
        assert fold.push(record) == []
    assert fold.close() == []
    assert fold.stats.gaps_inserted == len(lost)
    assert fold.stats.symbols_lost_in_gaps == sum(lost)
    assert fold.stats.max_gap_symbols == max(lost)
