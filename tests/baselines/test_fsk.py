"""Unit tests for the FSK baseline modem."""

import pytest

from repro.baselines.fsk import FskModem
from repro.exceptions import ModulationError
from repro.phy.waveform import EXTEND_CYCLE


@pytest.fixture
def modem(led):
    return FskModem(led)


class TestConstruction:
    def test_bits_per_burst(self, modem):
        assert modem.bits_per_burst == 2

    def test_non_power_of_two_tones(self, led):
        with pytest.raises(ModulationError):
            FskModem(led, tones_hz=(1000.0, 1500.0, 2000.0))

    def test_tone_too_fast(self, led):
        with pytest.raises(Exception):
            FskModem(led, tones_hz=(1000.0, 6000.0))

    def test_on_air_rate_low(self, modem):
        """FSK's long bursts cap the on-air rate at the bytes/s scale the
        paper quotes for the prior work."""
        waveform = modem.modulate(b"test")
        assert 32 / waveform.duration < 300


class TestModulate:
    def test_burst_count(self, modem):
        waveform = modem.modulate(b"\xff")  # 8 bits -> 4 bursts
        expected_chips = 4 * int(
            (modem.burst_s + modem.guard_s) * modem.CHIP_RATE_HZ
        )
        assert waveform.num_symbols == expected_chips

    def test_empty_rejected(self, modem):
        with pytest.raises(ModulationError):
            modem.modulate(b"")

    def test_guard_intervals_dark(self, modem):
        waveform = modem.modulate(b"\x00")
        chips = waveform.symbol_xyz
        burst_chips = int(modem.burst_s * modem.CHIP_RATE_HZ)
        guard = chips[burst_chips : burst_chips + int(modem.guard_s * modem.CHIP_RATE_HZ)]
        assert guard.sum() == 0


class TestDemodulate:
    def test_end_to_end_rate_matches_prior_work(self, led, tiny_device):
        """Decoded FSK throughput must sit at the bytes-per-second scale of
        the paper's comparators (11.32 B/s and 1.25 B/s)."""
        modem = FskModem(led)
        payload = b"\x1b\xe5\x77"
        waveform = modem.modulate(payload, extend=EXTEND_CYCLE)
        camera = tiny_device.make_camera(simulated_columns=16, seed=2)
        frames = camera.record(waveform, duration=1.5)
        result = modem.demodulate_frames(frames, 1.5)
        assert result.bursts_observed > 5
        assert 0 < result.throughput_bps < 400

    def test_payload_bits_present(self, led, tiny_device):
        modem = FskModem(led)
        payload = b"\x6c"
        waveform = modem.modulate(payload, extend=EXTEND_CYCLE)
        camera = tiny_device.make_camera(simulated_columns=16, seed=3)
        frames = camera.record(waveform, duration=1.5)
        result = modem.demodulate_frames(frames, 1.5)
        from repro.util.bitstream import bytes_to_bits

        decoded = "".join(map(str, result.bits))
        pattern = "".join(map(str, bytes_to_bits(payload)))
        assert pattern in decoded
