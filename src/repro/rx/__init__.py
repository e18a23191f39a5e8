"""The ColorBars receiver chain (paper §7).

Per frame: convert to CIELab and drop lightness (step 1), reduce the 2-D
frame to one mean color per scanline (step 2), segment scanlines into color
bands and classify each band (symbol detection), then assemble packets
across frames — accounting for the symbols lost in each inter-frame gap —
and run Reed-Solomon decoding (step 3).
"""

from repro.rx.preprocess import (
    frame_to_scanline_lab,
    frames_to_scanline_lab,
)
from repro.rx.segmentation import Band, BandSegmenter
from repro.rx.detector import ReceivedBand, SymbolDetector
from repro.rx.assembler import PacketAssembler, ReceivedPacket
from repro.rx.receiver import ColorBarsReceiver, ReceiverReport

__all__ = [
    "frame_to_scanline_lab",
    "frames_to_scanline_lab",
    "Band",
    "BandSegmenter",
    "ReceivedBand",
    "SymbolDetector",
    "PacketAssembler",
    "ReceivedPacket",
    "ColorBarsReceiver",
    "ReceiverReport",
]
