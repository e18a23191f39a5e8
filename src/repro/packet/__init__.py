"""ColorBars packetization (paper §5-§6).

On-air packet layout::

    [delimiter "owo"] [flag] [size field] [body]

* data packets use the 5-symbol flag ``owowo``; the size field (3 data
  symbols) carries the Reed-Solomon codeword length in bytes; the body is the
  codeword's data symbols with illumination (white) symbols interleaved on a
  deterministic schedule,
* calibration packets use the 7-symbol flag ``owowowo`` followed by every
  constellation symbol in index order.

'o' is the LED-off dark symbol, 'w' the white illumination symbol — both
trivially separable from color data, which is what makes the preambles
detectable before any color calibration.
"""

from repro.packet.framing import (
    CALIBRATION_FLAG,
    DATA_FLAG,
    DELIMITER,
    PacketKind,
    preamble_symbols,
)
from repro.packet.packetizer import (
    PacketConfig,
    Packetizer,
    white_schedule,
)

__all__ = [
    "CALIBRATION_FLAG",
    "DATA_FLAG",
    "DELIMITER",
    "PacketKind",
    "preamble_symbols",
    "PacketConfig",
    "Packetizer",
    "white_schedule",
]
