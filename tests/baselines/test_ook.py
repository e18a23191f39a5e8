"""Unit tests for the OOK baseline modem."""

import numpy as np
import pytest

from repro.baselines.ook import OokModem
from repro.exceptions import ModulationError
from repro.phy.waveform import EXTEND_CYCLE


@pytest.fixture
def modem(led):
    return OokModem(led, symbol_rate=1000.0)


class TestModulate:
    def test_manchester_expansion(self, modem):
        waveform = modem.modulate(b"\xff", extend=EXTEND_CYCLE)
        assert waveform.num_symbols == 16  # 8 bits x 2 symbols

    def test_one_bit_pattern(self, modem):
        waveform = modem.modulate(b"\x80")
        # First bit 1 -> on, off; remaining bits 0 -> off, on.
        xyz = waveform.symbol_xyz
        assert xyz[0].sum() > 0 and np.allclose(xyz[1], 0)
        assert np.allclose(xyz[2], 0) and xyz[3].sum() > 0

    def test_no_long_idle_runs(self, modem):
        # Manchester coding guarantees a transition every bit: no run of
        # more than two equal states, so no perceivable flicker.
        waveform = modem.modulate(bytes([0x00] * 8))
        lit = waveform.symbol_xyz.sum(axis=1) > 0
        longest = run = 1
        for a, b in zip(lit, lit[1:]):
            run = run + 1 if a == b else 1
            longest = max(longest, run)
        assert longest <= 2

    def test_empty_payload_rejected(self, modem):
        with pytest.raises(ModulationError):
            modem.modulate(b"")

    def test_rate_limit(self, led):
        with pytest.raises(Exception):
            OokModem(led, symbol_rate=9000.0)


class TestDemodulate:
    def test_end_to_end_bits_recovered(self, led, tiny_device):
        modem = OokModem(led, symbol_rate=1000.0)
        payload = b"\xa5\x3c" * 4
        waveform = modem.modulate(payload, extend=EXTEND_CYCLE)
        camera = tiny_device.make_camera(simulated_columns=16, seed=0)
        frames = camera.record(waveform, duration=1.0)
        result = modem.demodulate_frames(
            frames, tiny_device.timing.rows_per_symbol(1000.0), 1.0
        )
        assert result.symbols_observed > 100
        # Raw OOK has no FEC, so sporadic bit errors are expected; the
        # payload's 16-bit prefix must still appear in the decoded stream
        # (the cyclic broadcast gives it many chances).
        from repro.util.bitstream import bytes_to_bits

        decoded = "".join(map(str, result.bits))
        pattern = "".join(map(str, bytes_to_bits(payload[:2])))
        assert pattern in decoded

    def test_throughput_positive(self, led, tiny_device):
        modem = OokModem(led, symbol_rate=1000.0)
        waveform = modem.modulate(b"test", extend=EXTEND_CYCLE)
        camera = tiny_device.make_camera(simulated_columns=16, seed=1)
        frames = camera.record(waveform, duration=0.5)
        result = modem.demodulate_frames(
            frames, tiny_device.timing.rows_per_symbol(1000.0), 0.5
        )
        assert result.throughput_bps > 0

    def test_bits_per_second_on_air(self, modem):
        # Manchester coding: two symbols per bit, half the symbol rate.
        waveform = modem.modulate(b"test")
        assert 32 / waveform.duration == pytest.approx(500.0)
