"""Ablation — packet size around the paper's natural choice (§5).

The paper sets the packet to span one frame period plus one gap: small
packets can vanish entirely inside the gap; large packets amplify the cost
of a lost header.  The bench sweeps the payload (hence packet) size on a
frame/gap loss model and reports delivery efficiency per size; shape check:
the frame-period-scale packet is at or near the optimum.

The model is analytic over the symbol-timeline: packets are laid end to end
over repeating readout/gap windows, a packet survives if its preamble+header
fall inside a readout span and its body loses no more than the parity
budget.  This isolates the packetization geometry from camera noise.
"""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.packet.framing import PacketKind, preamble_symbols

RATE = 3000.0
FRAME_RATE = 30.0
LOSS = 0.2312
ETA = 0.8


def delivery_efficiency(packet_symbols, header_symbols, parity_symbol_budget):
    """Fraction of payload delivered for a given packet length (symbols).

    Packets are placed back to back over the frame/gap timeline; a packet
    delivers its payload iff (a) its first `header_symbols` symbols avoid
    the gap entirely and (b) at most `parity_symbol_budget` of its body
    symbols fall into gaps.
    """
    symbols_per_period = RATE / FRAME_RATE
    gap_len = LOSS * symbols_per_period
    period = symbols_per_period

    delivered = 0
    total = 0
    position = 0.0
    # Simulate enough packets for the phase to precess through the period.
    for _ in range(400):
        start = position
        header_end = start + header_symbols
        body_end = start + packet_symbols
        position = body_end

        def lost_between(a, b):
            lost = 0.0
            # Gaps occupy [k*period + (period - gap), (k+1)*period).
            k = int(a // period)
            while k * period < b:
                gap_start = k * period + (period - gap_len)
                gap_stop = (k + 1) * period
                lost += max(0.0, min(b, gap_stop) - max(a, gap_start))
                k += 1
            return lost

        total += 1
        if lost_between(start, header_end) > 0:
            continue  # preamble or header clipped: packet dropped
        if lost_between(header_end, body_end) > parity_symbol_budget:
            continue  # more body loss than the code can absorb
        delivered += 1
    return delivered / total


def test_ablation_packet_size():
    def run():
        config = SystemConfig(
            csk_order=16, symbol_rate=RATE, design_loss_ratio=LOSS,
            illumination_ratio=ETA,
        )
        packetizer = config.make_packetizer()
        params = config.rs_params()
        header = len(preamble_symbols(PacketKind.DATA)) + 3

        natural = packetizer.packet_length(params.n)
        # The paper sizes parity for exactly one gap per packet
        # (2t = 2*eta*C*L_S); that budget is FIXED, whatever the packet size.
        parity_bytes = params.parity
        parity_symbols = parity_bytes * 8 / config.bits_per_symbol / ETA

        outcomes = {}
        for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
            n_bytes = max(parity_bytes + 2, int(params.n * scale))
            packet_symbols = packetizer.packet_length(n_bytes)
            efficiency = delivery_efficiency(
                packet_symbols, header, parity_symbols
            )
            payload_share = (n_bytes - parity_bytes) / max(n_bytes, 1)
            # Net: delivered packets x payload share x airtime efficiency.
            airtime_share = (
                n_bytes * 8 / config.bits_per_symbol / ETA / packet_symbols
            )
            outcomes[scale] = (
                packet_symbols,
                efficiency,
                efficiency * payload_share * airtime_share,
            )
        return natural, outcomes

    natural, outcomes = run()

    symbols_per_period = RATE / FRAME_RATE
    print("\nAblation — packet size (16-CSK @ 3 kHz, Nexus 5 loss geometry)")
    print(f"  natural packet = {natural} symbols "
          f"(frame+gap period = {symbols_per_period:.0f} symbols)")
    print("  size x natural | symbols | delivery rate | net efficiency")
    for scale, (symbols, efficiency, net) in outcomes.items():
        print(
            f"  {scale:14.2f} | {symbols:7d} | {efficiency:13.2f} | {net:8.3f}"
        )

    # The paper-scale packet delivers a solid majority of packets.
    assert outcomes[1.0][1] > 0.5
    # Far larger packets collapse: they span several gaps but carry parity
    # for only one (the §5 "resultant data loss can be much larger" case).
    assert outcomes[4.0][1] < 0.5 * outcomes[1.0][1]
    # Far smaller packets waste airtime on headers and parity: their net
    # efficiency falls well below the natural size's.
    assert outcomes[0.25][2] < 0.5 * outcomes[1.0][2]
    # Note: 2x the natural size can look slightly better in this *noise-free*
    # geometry model because the parity rule's 2x margin covers a second gap;
    # in the real channel that margin is consumed by symbol errors (see
    # test_ablation_fec), which is why the paper sizes to one frame+gap.
    assert outcomes[2.0][1] <= outcomes[1.0][1] + 0.1
