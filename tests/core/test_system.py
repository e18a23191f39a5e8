"""Unit tests for the transmitter and receiver factory."""

import pytest

from repro.core.config import SystemConfig
from repro.core.system import ColorBarsTransmitter, make_receiver
from repro.exceptions import ConfigurationError
from repro.packet.framing import PacketKind, preamble_symbols
from repro.phy.waveform import EXTEND_CYCLE


@pytest.fixture
def config():
    return SystemConfig(csk_order=8, symbol_rate=1000, illumination_ratio=0.8)


@pytest.fixture
def transmitter(config):
    return ColorBarsTransmitter(config)


class TestPlan:
    def test_empty_payload_rejected(self, transmitter):
        with pytest.raises(ConfigurationError):
            transmitter.plan(b"")

    def test_one_packet_per_codeword(self, transmitter):
        k = transmitter.codec.k
        plan = transmitter.plan(bytes(3 * k))
        assert plan.data_packets == 3
        assert len(plan.codewords) == 3

    def test_partial_block_padded(self, transmitter):
        k = transmitter.codec.k
        plan = transmitter.plan(bytes(k + 1))
        assert plan.data_packets == 2

    def test_calibration_packets_present(self, transmitter):
        plan = transmitter.plan(bytes(transmitter.codec.k * 10))
        assert plan.calibration_packets >= 1

    def test_calibration_cadence(self, config):
        """Calibration packets recur roughly every S / rate symbols."""
        transmitter = ColorBarsTransmitter(config)
        plan = transmitter.plan(bytes(transmitter.codec.k * 30))
        spacing = config.symbol_rate / config.calibration_rate_hz
        expected = plan.num_symbols / spacing
        assert plan.calibration_packets == pytest.approx(expected, rel=0.5)

    def test_stream_symbols_consistent(self, transmitter):
        plan = transmitter.plan(bytes(transmitter.codec.k))
        # A calibration packet is its preamble plus one symbol per color.
        calibration_len = (
            len(preamble_symbols(PacketKind.CALIBRATION))
            + transmitter.config.csk_order
        )
        data_len = transmitter.packetizer.packet_length(transmitter.codec.n)
        assert plan.num_symbols == calibration_len + data_len


class TestWaveform:
    def test_waveform_from_plan(self, transmitter):
        plan = transmitter.plan(b"hello world")
        waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
        assert waveform.num_symbols == plan.num_symbols
        assert waveform.extend == EXTEND_CYCLE

    def test_waveform_from_bytes(self, transmitter):
        waveform = transmitter.waveform(b"payload bytes")
        assert waveform.num_symbols > 0

    def test_payload_bytes_per_packet(self, transmitter):
        assert transmitter.payload_bytes_per_packet() == transmitter.codec.k


class TestMakeReceiver:
    def test_receiver_matches_config(self, config, tiny_device):
        receiver = make_receiver(config, tiny_device.timing)
        assert receiver.codec.n == config.rs_params().n
        assert receiver.symbol_rate == config.symbol_rate

    def test_band_width_guard(self, config, tiny_device):
        """Configs whose bands fall under 10 rows must be rejected."""
        fast = SystemConfig(csk_order=8, symbol_rate=4000, illumination_ratio=0.8)
        with pytest.raises(Exception):
            make_receiver(fast, tiny_device.timing)
