"""Property-based integration test: packets survive arbitrary gap bursts.

Fabricates the assembler's input directly from a packetizer's output,
drops random contiguous bursts of symbols (the inter-frame gap), and checks
that the reconstructed codeword + erasure positions always let the RS codec
recover the payload whenever the loss is within the code's budget — the §5
reliability contract, exercised over many random burst geometries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.rx.test_assembler import pack_frame

from repro.csk.constellation import design_constellation
from repro.csk.mapping import SymbolMapper
from repro.exceptions import UncorrectableBlockError
from repro.fec.reed_solomon import ReedSolomonCodec
from repro.packet.packetizer import PacketConfig, Packetizer
from repro.phy.led import typical_tri_led
from repro.rx.assembler import PacketAssembler

SYMBOL_RATE = 1000.0
PERIOD = 1.0 / SYMBOL_RATE


def make_stack(order=8, eta=0.8):
    gamut = typical_tri_led().gamut
    mapper = SymbolMapper(design_constellation(order, gamut))
    packetizer = Packetizer(mapper, PacketConfig(illumination_ratio=eta))
    assembler = PacketAssembler(packetizer, SYMBOL_RATE)
    return packetizer, assembler


def bands_for(symbols, drop):
    """Two frame records, split at the packet's middle, minus `drop`."""
    frames = {0: [], 1: []}
    for position, symbol in enumerate(symbols):
        if position in drop:
            continue
        frame_index = 0 if position < (len(symbols) // 2) else 1
        frames[frame_index].append((position * PERIOD + PERIOD / 2, symbol))
    return [pack_frame(0, frames[0]), pack_frame(1, frames[1])]


class TestBurstRecovery:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=30),
    )
    def test_burst_within_budget_recovers(self, seed, burst_len):
        """Any in-body burst the parity covers must decode exactly."""
        rng = np.random.default_rng(seed)
        packetizer, assembler = make_stack()
        codec = ReedSolomonCodec(40, 20)
        payload = bytes(rng.integers(0, 256, 20, dtype=np.uint8))
        codeword = codec.encode(payload)
        symbols = packetizer.build_data_packet(codeword)

        header_len = 8 + 3  # preamble + size field
        body_len = len(symbols) - header_len
        burst_len = min(burst_len, body_len - 1)
        if burst_len > 0:
            start = header_len + int(
                rng.integers(0, body_len - burst_len + 1)
            )
            drop = set(range(start, start + burst_len))
        else:
            drop = set()

        stream = assembler.stitch(bands_for(symbols, drop))
        packets, _ = assembler.extract(stream)
        assert len(packets) == 1
        packet = packets[0]
        assert packet.header_bytes == 40

        # Bits per data symbol = 3 -> bytes erased by the burst.
        if len(packet.erasure_positions) <= codec.num_parity:
            decoded = codec.decode(
                packet.codeword, packet.erasure_positions
            )
            assert decoded == payload
        else:
            with pytest.raises(UncorrectableBlockError):
                codec.decode(packet.codeword, packet.erasure_positions)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_unerased_bytes_always_faithful(self, seed):
        """Bytes outside the erasure set must match the codeword exactly."""
        rng = np.random.default_rng(seed)
        packetizer, assembler = make_stack(order=16)
        codec = ReedSolomonCodec(30, 16)
        payload = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
        codeword = codec.encode(payload)
        symbols = packetizer.build_data_packet(codeword)

        header_len = 8 + 3
        drop = {
            int(p)
            for p in rng.choice(
                np.arange(header_len, len(symbols)),
                size=min(6, len(symbols) - header_len),
                replace=False,
            )
        }
        stream = assembler.stitch(bands_for(symbols, drop))
        packets, _ = assembler.extract(stream)
        assert len(packets) == 1
        packet = packets[0]
        for index, byte in enumerate(packet.codeword):
            if index not in packet.erasure_positions:
                assert byte == codeword[index]
