"""Integration tests for the calibration lifecycle across recordings."""

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.system import ColorBarsTransmitter, make_receiver
from repro.link.workloads import text_payload
from repro.phy.waveform import EXTEND_CYCLE


@pytest.fixture
def link(tiny_device):
    config = SystemConfig(
        csk_order=8, symbol_rate=1000, design_loss_ratio=0.25,
        illumination_ratio=0.8,
    )
    transmitter = ColorBarsTransmitter(config)
    plan = transmitter.plan(text_payload(2 * config.rs_params().k))
    waveform = transmitter.waveform(plan, extend=EXTEND_CYCLE)
    return config, transmitter, plan, waveform


class TestCalibrationLifecycle:
    def test_cold_receiver_calibrates_from_stream(self, link, tiny_device):
        config, transmitter, plan, waveform = link
        camera = tiny_device.make_camera(simulated_columns=16, seed=0)
        frames = camera.record(waveform, duration=2.0)
        receiver = make_receiver(config, tiny_device.timing)
        assert not receiver.calibration.is_calibrated
        receiver.process_frames(frames)
        assert receiver.calibration.is_calibrated
        assert receiver.calibration.seen_count == 8

    def test_warm_receiver_decodes_immediately(self, link, tiny_device):
        """A receiver carrying calibration from a previous session decodes
        a new recording in a single pass."""
        config, transmitter, plan, waveform = link
        camera = tiny_device.make_camera(simulated_columns=16, seed=1)
        first = camera.record(waveform, duration=2.0)
        receiver = make_receiver(config, tiny_device.timing)
        receiver.process_frames(first)
        table = receiver.calibration

        # New session, same channel: reuse the table.
        camera2 = tiny_device.make_camera(simulated_columns=16, seed=2)
        second = camera2.record(waveform, duration=1.0)
        warm = make_receiver(config, tiny_device.timing, calibration=table)
        report = warm.process_frames(second)
        assert report.packets_decoded > 0

    def test_references_keep_updating(self, link, tiny_device):
        config, transmitter, plan, waveform = link
        camera = tiny_device.make_camera(simulated_columns=16, seed=3)
        frames = camera.record(waveform, duration=2.0)
        receiver = make_receiver(config, tiny_device.timing)
        report = receiver.process_frames(frames)
        # Bootstrap pass + decode pass both absorb calibration packets.
        assert report.calibration_updates >= 2
        assert receiver.calibration.updates_applied >= report.calibration_updates

    def test_separation_margin_reported(self, link, tiny_device):
        config, transmitter, plan, waveform = link
        camera = tiny_device.make_camera(simulated_columns=16, seed=4)
        frames = camera.record(waveform, duration=2.0)
        receiver = make_receiver(config, tiny_device.timing)
        receiver.process_frames(frames)
        refs = receiver.calibration.references
        distances = np.linalg.norm(refs[:, np.newaxis] - refs[np.newaxis], axis=-1)
        assert distances[~np.eye(len(refs), dtype=bool)].min() > 2.3
