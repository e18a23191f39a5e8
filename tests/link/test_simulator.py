"""Integration-grade tests for the link simulator on the fast tiny device."""

import pytest

from repro.core.config import SystemConfig
from repro.core.metrics import LinkMetrics
from repro.core.system import TransmissionPlan
from repro.link.simulator import LinkResult, LinkSimulator, sweep
from repro.link.workloads import text_payload
from repro.rx.receiver import ReceiverReport


@pytest.fixture
def config():
    return SystemConfig(
        csk_order=8, symbol_rate=1000, design_loss_ratio=0.25,
        illumination_ratio=0.8,
    )


class TestRun:
    def test_basic_run_delivers(self, config, tiny_device):
        simulator = LinkSimulator(config, tiny_device, seed=0)
        result = simulator.run(duration_s=2.0)
        assert result.metrics.packets_decoded > 0
        assert result.report.calibration_updates > 0
        assert result.metrics.goodput_bps > 0

    def test_loss_ratio_near_device(self, config, tiny_device):
        simulator = LinkSimulator(config, tiny_device, seed=0)
        result = simulator.run(duration_s=2.0)
        assert result.metrics.inter_frame_loss_ratio == pytest.approx(
            tiny_device.timing.gap_fraction, abs=0.06
        )

    def test_deterministic_given_seed(self, config, tiny_device):
        a = LinkSimulator(config, tiny_device, seed=5).run(duration_s=1.0)
        b = LinkSimulator(config, tiny_device, seed=5).run(duration_s=1.0)
        assert a.metrics.throughput_bps == b.metrics.throughput_bps
        assert a.report.payloads == b.report.payloads

    def test_payload_content_recovered(self, config, tiny_device):
        payload = text_payload(3 * config.rs_params().k, seed=9)
        simulator = LinkSimulator(config, tiny_device, seed=0)
        result = simulator.run(payload=payload, duration_s=3.0)
        recovered = result.recovered_broadcast()
        assert recovered == payload

    def test_delivered_payload_bytes(self, config, tiny_device):
        simulator = LinkSimulator(config, tiny_device, seed=0)
        result = simulator.run(duration_s=1.5)
        assert len(b"".join(result.report.payloads)) == (
            result.metrics.packets_decoded * result.config.rs_params().k
        )

    def test_invalid_duration(self, config, tiny_device):
        with pytest.raises(Exception):
            LinkSimulator(config, tiny_device).run(duration_s=0)


class TestRecoveredBroadcast:
    """Unit tests for LinkResult.recovered_broadcast's prefix matching.

    Each decoded payload is the k-byte prefix of its systematic codeword;
    these build a LinkResult by hand (no simulation) so the prefix logic is
    exercised in isolation.
    """

    @staticmethod
    def _result(codewords, payload, decoded_payloads):
        metrics = LinkMetrics(
            symbol_error_rate=0.0,
            data_symbol_error_rate=0.0,
            throughput_bps=0.0,
            goodput_bps=0.0,
            duration_s=1.0,
            symbols_compared=0,
            data_symbols_received=0,
            packets_decoded=len(decoded_payloads),
            packets_seen=len(decoded_payloads),
            inter_frame_loss_ratio=0.0,
        )
        plan = TransmissionPlan(
            symbols=[],
            codewords=codewords,
            payload=payload,
            calibration_packets=0,
            data_packets=len(codewords),
        )
        report = ReceiverReport(payloads=list(decoded_payloads))
        return LinkResult(
            config=None,
            device_name="unit",
            metrics=metrics,
            report=report,
            plan=plan,
        )

    def test_full_cycle_recovers_payload(self):
        # k=4, two parity bytes per codeword; payload split across 2 blocks.
        payload = b"colorbar"
        codewords = [b"colo\x01\x02", b"rbar\x03\x04"]
        result = self._result(
            codewords, payload, decoded_payloads=[b"rbar", b"colo", b"rbar"]
        )
        assert result.recovered_broadcast() == payload

    def test_missing_block_returns_none(self):
        payload = b"colorbar"
        codewords = [b"colo\x01\x02", b"rbar\x03\x04"]
        result = self._result(codewords, payload, decoded_payloads=[b"colo"])
        assert result.recovered_broadcast() is None

    def test_padding_trimmed_to_original_payload(self):
        # Payload shorter than the block grid: the tail block is padded on
        # air, and recovery must trim back to the original length.
        payload = b"color"
        codewords = [b"colo\x01\x02", b"r\x00\x00\x00\x03\x04"]
        result = self._result(
            codewords, payload, decoded_payloads=[b"colo", b"r\x00\x00\x00"]
        )
        assert result.recovered_broadcast() == payload


class TestPayloadBytesPerCodeword:
    """Regression: ``_k()`` must never fall back to the codeword length.

    A codeword is n bytes (payload plus parity); an early version derived
    the prefix length from ``len(codewords[0])``, which made every prefix
    unique-but-wrong and silently broke broadcast recovery whenever the
    code actually carried parity.
    """

    def test_config_rs_k_wins_over_codeword_length(self, config):
        result = TestRecoveredBroadcast._result(
            codewords=[b"colo\x01\x02"], payload=b"colo",
            decoded_payloads=[b"colo"],
        )
        result.config = config
        assert result._k() == config.rs_params().k
        assert result._k() != len(result.plan.codewords[0])

    def test_without_config_payload_length_is_k(self):
        # Decoded payloads are k bytes by definition of the systematic code.
        result = TestRecoveredBroadcast._result(
            codewords=[b"colo\x01\x02"], payload=b"colo",
            decoded_payloads=[b"colo"],
        )
        assert result._k() == 4

    def test_without_config_or_payloads_is_degenerate(self):
        result = TestRecoveredBroadcast._result(
            codewords=[b"colo\x01\x02"], payload=b"colo", decoded_payloads=[]
        )
        assert result._k() == 0
        assert result.recovered_broadcast() is None


class TestSweep:
    def test_sweep_skips_infeasible_rates(self, tiny_device):
        # The tiny sensor's bands drop below 10 rows above ~1.6 kHz.
        results = sweep(
            tiny_device,
            orders=(4,),
            symbol_rates=(1000.0, 4000.0),
            duration_s=0.5,
        )
        assert (4, 1000.0) in results
        assert (4, 4000.0) not in results

    def test_sweep_keys(self, tiny_device):
        results = sweep(
            tiny_device, orders=(4, 8), symbol_rates=(1000.0,), duration_s=0.5
        )
        assert set(results) == {(4, 1000.0), (8, 1000.0)}
