"""The equalizer seam: round-trips and streaming calibration interaction.

The deconvolution equalizer sits between segmentation and classification,
so two properties keep the rest of the receive path honest about it:

* **Round-trips.**  With no mixing the equalizer is (numerically) the
  identity, and because the solve happens in linear RGB it commutes with
  any affine channel map ``c -> g*c + b`` — the gain/ambient family the
  calibration table absorbs and the ``drift`` injector applies.
* **Streaming.**  ``equalize=True`` threads through the streaming facade
  unchanged: reports stay byte-identical to batch and the calibration
  table keeps updating from equalized bands.
"""

import numpy as np

from repro.color.cielab import xyz_to_lab
from repro.color.srgb import linear_rgb_to_xyz
from repro.core.config import SystemConfig
from repro.core.system import make_receiver, make_streaming_receiver
from repro.link.simulator import LinkSimulator
from repro.rx.equalizer import deconvolve_frame

from tests.rx.test_equalizer import COLORS, grid_bands, synthetic_frame
from tests.rx.test_streaming_equivalence import assert_reports_identical


def _expected_lab(colors):
    return xyz_to_lab(linear_rgb_to_xyz(np.asarray(colors, dtype=float)))


class TestRoundTrips:
    def test_identity_no_mixing_preserves_band_colors(self):
        # One-row exposure: every scanline sees a single symbol, so the
        # equalizer must hand back the plateau colors it was given.
        frame = synthetic_frame(COLORS, exposure_rows=1)
        bands = deconvolve_frame(frame, grid_bands(len(COLORS)), smear_rows=1.0)
        recovered = bands.lab
        assert np.allclose(recovered[1:-1], _expected_lab(COLORS)[1:-1], atol=2.0)

    def test_affine_channel_commutes_with_equalization(self):
        # Applying gain + offset to the symbol colors before rendering must
        # come back out as exactly the transformed colors: the solve is
        # linear, so an affine channel passes through for the calibration
        # table to absorb afterwards.
        gain, offset = 0.6, 0.08
        transformed = np.clip(COLORS * gain + offset, 0.0, 1.0)
        frame = synthetic_frame(transformed, exposure_rows=14)
        bands = deconvolve_frame(frame, grid_bands(len(COLORS)), smear_rows=14.0)
        recovered = bands.lab
        assert np.allclose(
            recovered[1:-1], _expected_lab(transformed)[1:-1], atol=2.0
        )


class TestStreamingSeam:
    def _config(self, tiny_device):
        return SystemConfig(
            csk_order=4,
            symbol_rate=1000.0,
            design_loss_ratio=tiny_device.timing.gap_fraction,
            frame_rate=tiny_device.timing.frame_rate,
        )

    def _recording(self, tiny_device, config, seed=3):
        simulator = LinkSimulator(
            config, tiny_device, simulated_columns=32, seed=seed
        )
        _, frames, _ = simulator.record_session(duration_s=0.6)
        return frames

    def test_equalized_streaming_matches_equalized_batch(self, tiny_device):
        config = self._config(tiny_device)
        frames = self._recording(tiny_device, config)
        batch = make_receiver(
            config, tiny_device.timing, equalize=True
        ).process_frames(frames)
        streaming = make_streaming_receiver(
            config, tiny_device.timing, equalize=True
        )
        for frame in frames:
            streaming.feed(frame)
        streaming.finish()
        assert_reports_identical(streaming.report, batch)
        assert batch.packets_decoded > 0

    def test_calibration_table_updates_from_equalized_stream(self, tiny_device):
        # The equalizer rewrites band colors *before* calibration absorbs
        # them: a streaming session must still bootstrap its table and keep
        # folding calibration packets in across a second recording.
        config = self._config(tiny_device)
        streaming = make_streaming_receiver(
            config, tiny_device.timing, equalize=True
        )
        for frame in self._recording(tiny_device, config, seed=3):
            streaming.feed(frame)
        streaming.finish()
        receiver = streaming.receiver
        assert receiver.calibration.is_calibrated
        assert streaming.report.calibration_updates > 0
        first_updates = streaming.report.calibration_updates

        from repro.rx.streaming import StreamingReceiver

        live = StreamingReceiver(receiver)
        assert not live.buffering  # calibrated sessions stream live
        for frame in self._recording(tiny_device, config, seed=4):
            live.feed(frame)
        live.finish()
        assert live.report.calibration_updates > 0
        # The SER probe only exists because the equalized calibration
        # symbols were matched against the already-calibrated table.
        assert live.report.calibration_symbols_seen > 0
        assert live.report.ser_estimate is not None
        assert receiver.calibration.is_calibrated
        assert first_updates > 0
