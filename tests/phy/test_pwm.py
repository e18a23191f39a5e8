"""Unit tests for the PWM driver model."""

import pytest

from repro.exceptions import ConfigurationError
from repro.phy.pwm import BEAGLEBONE_MAX_UPDATE_HZ, PwmChannel, PwmController


class TestPwmChannel:
    def test_quantization_steps(self):
        channel = PwmChannel(resolution_bits=2)  # 4 levels: 0, 1/3, 2/3, 1
        assert channel.quantize(0.5) == pytest.approx(2 / 3, abs=1e-9) or (
            channel.quantize(0.5) == pytest.approx(1 / 3, abs=1e-9)
        )
        assert channel.quantize(0.0) == 0.0
        assert channel.quantize(1.0) == 1.0

    def test_high_resolution_near_exact(self):
        channel = PwmChannel(resolution_bits=16)
        assert channel.quantize(0.123456) == pytest.approx(0.123456, abs=1e-4)

    def test_duty_out_of_range(self):
        channel = PwmChannel()
        with pytest.raises(ConfigurationError):
            channel.quantize(1.5)

    def test_invalid_resolution(self):
        with pytest.raises(ConfigurationError):
            PwmChannel(resolution_bits=0)


class TestPwmController:
    def test_three_channels(self):
        controller = PwmController()
        assert len(controller.channels) == 3

    def test_symbol_rate_limit(self):
        controller = PwmController()
        controller.check_symbol_rate(4000)
        with pytest.raises(ConfigurationError):
            controller.check_symbol_rate(BEAGLEBONE_MAX_UPDATE_HZ + 1)

    def test_quantize_duties(self):
        controller = PwmController(resolution_bits=2)
        assert controller.quantize_duties([0.0, 1 / 3, 1.0]) == pytest.approx(
            [0.0, 1 / 3, 1.0]
        )

    def test_quantize_duties_wrong_count(self):
        with pytest.raises(ConfigurationError):
            PwmController().quantize_duties([0.1, 0.2])
