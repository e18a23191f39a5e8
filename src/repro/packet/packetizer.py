"""Building on-air packets from Reed-Solomon codewords (paper §5).

The packetizer turns codeword bytes into the full logical symbol stream:
preamble, size field, and the body with illumination (white) symbols
interleaved on a deterministic schedule.  Because the schedule is a pure
function of ``(data_symbol_count, illumination_ratio)``, the receiver can
reconstruct which body slots were whites even when the tail of a packet was
lost in the inter-frame gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.csk.mapping import SymbolMapper
from repro.exceptions import PacketError, PacketTooLargeError
from repro.packet.framing import PacketKind, preamble_symbols
from repro.phy.symbols import LogicalSymbol, data_symbol, white_symbol
from repro.util.bitstream import bytes_to_bits
from repro.util.validation import require, require_probability


#: Size-field width from the paper: three data symbols.
SIZE_FIELD_SYMBOLS = 3


def white_schedule(num_data: int, illumination_ratio: float) -> List[bool]:
    """Slot layout for a body of ``num_data`` data symbols.

    Returns a boolean list over all body slots: ``True`` marks an
    illumination (white) slot.  With illumination ratio ``eta`` (the paper's
    useful-data share), the body holds ``round(num_data / eta)`` slots and
    whites are spread evenly by a Bresenham-style rule, so both ends compute
    the identical layout independently.
    """
    require(num_data >= 0, f"num_data must be >= 0, got {num_data}")
    require_probability(illumination_ratio, "illumination_ratio")
    require(illumination_ratio > 0, "illumination_ratio must be > 0")
    if num_data == 0:
        return []
    total = max(int(round(num_data / illumination_ratio)), num_data)
    whites = total - num_data
    layout: List[bool] = []
    accumulated = 0
    for slot in range(total):
        threshold_before = (slot * whites) // total
        threshold_after = ((slot + 1) * whites) // total
        is_white = threshold_after > threshold_before
        layout.append(is_white)
        accumulated += int(is_white)
    # The integer rule can drift by one at the end; patch deterministically.
    while accumulated < whites:
        layout.append(True)
        accumulated += 1
    return layout


@dataclass(frozen=True)
class PacketConfig:
    """Everything both ends must agree on to frame packets.

    ``illumination_ratio`` is eta from §5: the share of body slots carrying
    data (the remainder are white illumination symbols, per Fig. 3b).
    """

    illumination_ratio: float = 0.8
    size_field_symbols: int = SIZE_FIELD_SYMBOLS

    def __post_init__(self) -> None:
        require_probability(self.illumination_ratio, "illumination_ratio")
        require(self.illumination_ratio > 0, "illumination_ratio must be > 0")
        require(
            self.size_field_symbols >= 1,
            f"size_field_symbols must be >= 1, got {self.size_field_symbols}",
        )


class Packetizer:
    """Builds data and calibration packets for one constellation/mapper."""

    def __init__(self, mapper: SymbolMapper, config: PacketConfig) -> None:
        self.mapper = mapper
        self.config = config

    @property
    def bits_per_symbol(self) -> int:
        return self.mapper.bits_per_symbol

    @property
    def max_codeword_bytes(self) -> int:
        """Largest codeword length the size field can express."""
        return (1 << (self.bits_per_symbol * self.config.size_field_symbols)) - 1

    # -- TX ------------------------------------------------------------------

    def build_data_packet(self, codeword: bytes) -> List[LogicalSymbol]:
        """Assemble one data packet around a Reed-Solomon codeword."""
        if not codeword:
            raise PacketError("cannot packetize an empty codeword")
        if len(codeword) > self.max_codeword_bytes:
            raise PacketTooLargeError(
                f"codeword of {len(codeword)} bytes exceeds the "
                f"{self.config.size_field_symbols}-symbol size field limit "
                f"({self.max_codeword_bytes} bytes at "
                f"{self.bits_per_symbol} bits/symbol)"
            )
        symbols = preamble_symbols(PacketKind.DATA)
        symbols.extend(self._encode_size(len(codeword)))
        symbols.extend(self._build_body(codeword))
        return symbols

    def build_calibration_packet(self) -> List[LogicalSymbol]:
        """Preamble plus every constellation symbol in index order (§6.2)."""
        symbols = preamble_symbols(PacketKind.CALIBRATION)
        symbols.extend(
            data_symbol(i) for i in range(self.mapper.constellation.order)
        )
        return symbols

    def _encode_size(self, codeword_bytes: int) -> List[LogicalSymbol]:
        width = self.bits_per_symbol * self.config.size_field_symbols
        bits = [
            (codeword_bytes >> shift) & 1 for shift in range(width - 1, -1, -1)
        ]
        return self.mapper.bits_to_symbols(bits)

    def _build_body(self, codeword: bytes) -> List[LogicalSymbol]:
        data_symbols = self.mapper.bits_to_symbols(bytes_to_bits(codeword))
        layout = white_schedule(len(data_symbols), self.config.illumination_ratio)
        body: List[LogicalSymbol] = []
        iterator = iter(data_symbols)
        for is_white in layout:
            body.append(white_symbol() if is_white else next(iterator))
        return body

    # -- shared layout queries -------------------------------------------------

    def data_symbols_for_codeword(self, codeword_bytes: int) -> int:
        """DATA symbols a codeword of the given byte length occupies."""
        return self.mapper.symbols_for_payload(codeword_bytes * 8)

    def body_slots_for_codeword(self, codeword_bytes: int) -> int:
        """Total body slots (data + white) for a codeword length."""
        layout = white_schedule(
            self.data_symbols_for_codeword(codeword_bytes),
            self.config.illumination_ratio,
        )
        return len(layout)

    def body_layout(self, codeword_bytes: int) -> List[bool]:
        """The white/data slot layout of a data packet body."""
        return white_schedule(
            self.data_symbols_for_codeword(codeword_bytes),
            self.config.illumination_ratio,
        )

    def packet_length(self, codeword_bytes: int) -> int:
        """Total on-air symbols of a data packet, preamble included."""
        preamble = len(preamble_symbols(PacketKind.DATA))
        return (
            preamble
            + self.config.size_field_symbols
            + self.body_slots_for_codeword(codeword_bytes)
        )
