"""The rolling-shutter sensor: scanline exposure, readout, inter-frame gap.

The sensor exposes and reads one scanline at a time (paper §2.1).  A frame
period ``1/F`` splits into the *readout* span — during which scanlines
sample the LED waveform — and the *inter-frame gap*, during which the ISP
processes the frame and every transmitted symbol is lost (§3.1 challenge 2,
Fig 2a).  The gap fraction is the device's inter-frame loss ratio ``l`` of
Table 1.

Capture pipeline per frame:

1. per-scanline exposure integration of the waveform (fast analytic windows),
2. scene optics (distance, ambient), device color response,
3. exposure/ISO gain, then vignetting: the Bayer mosaic sampled straight
   from the scanline rows and demosaiced (or, without the Bayer stage, the
   rows broadcast to 2-D),
4. sensor noise,
5. sRGB gamma + 8-bit quantization.

The number of *simulated* columns is configurable: the receiver averages
each scanline across columns anyway, so simulating a band of columns around
the image center preserves the statistics at a fraction of the cost; the
full-resolution geometry still defines timing and vignetting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.camera.auto_exposure import AutoExposure, ExposureSettings
from repro.camera.capture import (
    PIXEL_DTYPE,
    AWB_ROW_LUMINANCE_FLOOR,
    RecordingPlan,
    apply_channel_gain,
    apply_sensor_noise,
    develop_frame,
    develop_frames,
    draw_prnu_gain,
    encode_srgb_bytes,
    plan_recording,
    sensor_image,
)
from repro.camera.color_filter import ColorResponse
from repro.camera.frame import CapturedFrame
from repro.camera.noise import SensorNoise
from repro.camera.optics import Optics, cached_vignette_map
from repro.color.srgb import xyz_to_linear_rgb
from repro.exceptions import SensorTimingError
from repro.obs.schema import M_FRAMES_RECORDED, SPAN_CAPTURE
from repro.obs.trace import NULL_TRACER
from repro.phy.waveform import OpticalWaveform
from repro.util.rng import make_rng
from repro.util.validation import require, require_positive

#: Default engine for :meth:`RollingShutterCamera.record`.  ``"batched"``
#: develops the whole recording in chunked numpy passes; ``"reference"``
#: develops one frame at a time through the same kernels.  The two are
#: byte-identical (tests/camera/test_capture_equivalence.py); the reference
#: path exists as the equivalence oracle and a debugging aid.
DEFAULT_CAPTURE_PATH = "batched"

#: Valid values for ``capture_path``.
CAPTURE_PATHS = ("batched", "reference")


@dataclass(frozen=True)
class SensorTiming:
    """Rolling-shutter timing: resolution, frame rate, and gap fraction.

    ``gap_fraction`` is the inter-frame loss ratio ``l``: the gap lasts
    ``l / frame_rate`` and the readout ``(1 - l) / frame_rate``.
    """

    rows: int
    cols: int
    frame_rate: float
    gap_fraction: float

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise SensorTimingError(
                f"resolution must be positive, got {self.rows}x{self.cols}"
            )
        if self.frame_rate <= 0:
            raise SensorTimingError(
                f"frame_rate must be positive, got {self.frame_rate}"
            )
        if not 0 <= self.gap_fraction < 1:
            raise SensorTimingError(
                f"gap_fraction must be in [0, 1), got {self.gap_fraction}"
            )

    @property
    def frame_period(self) -> float:
        return 1.0 / self.frame_rate

    @property
    def readout_duration(self) -> float:
        """Time spent scanning rows within one frame period."""
        return (1.0 - self.gap_fraction) * self.frame_period

    @property
    def gap_duration(self) -> float:
        """The inter-frame dead time when transmitted symbols are lost."""
        return self.gap_fraction * self.frame_period

    @property
    def row_period(self) -> float:
        """Time between consecutive scanline exposures."""
        return self.readout_duration / self.rows

    def rows_per_symbol(self, symbol_rate: float) -> float:
        """Band width in scanlines at a symbol rate (Fig 3c's quantity)."""
        require_positive(symbol_rate, "symbol_rate")
        return 1.0 / (symbol_rate * self.row_period)

    def symbols_lost_per_gap(self, symbol_rate: float) -> float:
        """Expected symbols transmitted during one inter-frame gap."""
        require_positive(symbol_rate, "symbol_rate")
        return symbol_rate * self.gap_duration


class RollingShutterCamera:
    """A complete simulated phone camera.

    Parameters
    ----------
    timing:
        Rolling-shutter geometry/timing (device preset).
    response:
        The device's color response (receiver diversity).
    noise, optics:
        Sensor noise and lens models.
    auto_exposure:
        AE controller; ``None`` creates a default automatic one.
    simulated_columns:
        Columns actually rendered per frame (centered strip).  The receiver
        column-averages each scanline, so a strip preserves band statistics;
        noise after averaging is slightly pessimistic versus the full sensor,
        which only makes reproduced error rates conservative.
    radiometric_gain:
        Linear signal per (luminance x second x ISO/100).  The default is
        calibrated so the paper's close-range LED at the default emitter
        luminance reaches mid-exposure at the shortest shutter, as a bright
        close LED does on a real phone.
    enable_bayer:
        Route frames through the mosaic/demosaic stage (realistic edges).
    enable_awb:
        Automatic white balance: the ISP scales channel gains so the bright
        content of the frame averages to neutral (gray-world), adapting
        gradually across frames.  Phone pipelines always do this; it is why
        the LED's white symbols look white on any device even though each
        device's color *distortions* (crosstalk) remain — exactly the
        diversity picture of Fig 6(a).
    """

    def __init__(
        self,
        timing: SensorTiming,
        response: ColorResponse,
        noise: Optional[SensorNoise] = None,
        optics: Optional[Optics] = None,
        auto_exposure: Optional[AutoExposure] = None,
        simulated_columns: int = 64,
        radiometric_gain: float = 124.0,
        enable_bayer: bool = True,
        enable_awb: bool = True,
        awb_adapt_rate: float = 0.12,
        seed=None,
        capture_path: Optional[str] = None,
    ) -> None:
        require(
            0 < simulated_columns <= timing.cols,
            f"simulated_columns must be in (0, {timing.cols}], "
            f"got {simulated_columns}",
        )
        require_positive(radiometric_gain, "radiometric_gain")
        path = capture_path if capture_path is not None else DEFAULT_CAPTURE_PATH
        require(
            path in CAPTURE_PATHS,
            f"capture_path must be one of {CAPTURE_PATHS}, got {path!r}",
        )
        self.capture_path = path
        self.timing = timing
        self.response = response
        self.noise = noise if noise is not None else SensorNoise()
        self.optics = optics if optics is not None else Optics()
        self.auto_exposure = (
            auto_exposure if auto_exposure is not None else AutoExposure()
        )
        self.simulated_columns = simulated_columns
        self.radiometric_gain = radiometric_gain
        self.enable_bayer = enable_bayer
        self.enable_awb = enable_awb
        require(
            0 < awb_adapt_rate <= 1,
            f"awb_adapt_rate must be in (0, 1], got {awb_adapt_rate}",
        )
        self.awb_adapt_rate = awb_adapt_rate
        self._awb_gains = np.ones(3)
        self.rng = make_rng(seed)
        self._frame_index = 0
        # The vignette strip is geometry-only; computing it per frame would
        # dominate capture time on high-row-count sensors, so cache it.
        self._vignette_cache = self._compute_vignette_strip(
            timing.rows, simulated_columns
        )
        # Scene and color-response transforms are constant for the camera's
        # lifetime; hoisting them out of capture_frame saves a matrix build
        # and two optics evaluations per frame.
        self._response_matrix_t = self.response.effective_matrix.T
        self._scene_gain = self.optics.distance_gain()
        self._scene_ambient = self.optics.ambient_xyz()
        # float32 image-pipeline constants (see camera.capture): the
        # vignette strip cast once, its per-row mean (the scanline metering
        # basis), the squared read noise, and the lazily drawn PRNU fixed
        # pattern — a property of the silicon, drawn once per camera.
        self._vignette_f32 = np.ascontiguousarray(
            self._vignette_cache, dtype=PIXEL_DTYPE
        )
        self._vignette_f32.flags.writeable = False
        self._vignette_row_mean = self._vignette_cache.mean(axis=1)
        self._vignette_row_mean.flags.writeable = False
        self._read_noise_sq = PIXEL_DTYPE(self.noise.read_noise_electrons**2)
        self._prnu_gain: Optional[np.ndarray] = None

    # -- capture ---------------------------------------------------------

    def capture_frame(
        self,
        waveform: OpticalWaveform,
        start_time: float,
        settings: Optional[ExposureSettings] = None,
    ) -> CapturedFrame:
        """Capture one frame starting its first scanline at ``start_time``.

        With ``settings=None`` the AE controller's current settings are used
        and updated from the captured frame (automatic mode, as in the
        paper's evaluation); explicit settings model the manual sweeps of
        Figs 6(b)/6(c).
        """
        manual = settings is not None
        applied = settings if manual else self.auto_exposure.settings

        rows = self.timing.rows
        row_starts = start_time + np.arange(rows) * self.timing.row_period
        row_stops = row_starts + applied.exposure_s

        # 1. Scanline exposure integration of the transmitted waveform.
        scene_xyz = waveform.mean_xyz(row_starts, row_stops)
        # 2. Optics (distance attenuation plus ambient) and device color
        # response, from the hoisted invariants; the same arithmetic as
        # ColorResponse.scene_xyz_to_camera_linear.
        scene_xyz = scene_xyz * self._scene_gain + self._scene_ambient
        camera_linear = xyz_to_linear_rgb(scene_xyz) @ self._response_matrix_t

        # 3. Radiometric scaling to full-well units and float32 cast (the
        # image pipeline computes in float32 — see camera.capture).
        gain = (
            self.radiometric_gain
            * applied.exposure_s
            * (applied.iso / self.noise.reference_iso)
        )
        signal_rows = np.clip(camera_linear * gain, 0.0, None).astype(PIXEL_DTYPE)

        # 4. The rows under the vignette strip, through the CFA stage, then
        # sensor noise drawn in the canonical order (PRNU fixed pattern once
        # per camera, then shot, then row gains).
        signal = sensor_image(self, signal_rows)
        if self.noise.prnu > 0 and self._prnu_gain is None:
            self._prnu_gain = draw_prnu_gain(
                self.noise.prnu, rows, self.simulated_columns, self.rng
            )
        shot = self.rng.standard_normal(signal.shape, dtype=PIXEL_DTYPE)
        iso_gain = applied.iso / self.noise.reference_iso
        electrons = signal * PIXEL_DTYPE(
            self.noise.full_well_electrons / iso_gain
        )
        signal = np.clip(
            apply_sensor_noise(
                electrons,
                PIXEL_DTYPE(iso_gain / self.noise.full_well_electrons),
                self._read_noise_sq,
                shot,
                self._prnu_gain,
            ),
            0.0,
            1.0,
        )
        if self.noise.row_noise > 0:
            row_gain = (
                1.0 + self.rng.normal(0.0, self.noise.row_noise, (rows, 1, 3))
            ).astype(PIXEL_DTYPE)
            apply_channel_gain(signal, row_gain)
            np.clip(signal, 0.0, 1.0, out=signal)

        # 5. Automatic white balance (gray-world over bright content).
        if self.enable_awb:
            self._update_awb(signal)
            apply_channel_gain(signal, self._awb_gains.astype(PIXEL_DTYPE))
            np.clip(signal, 0.0, 1.0, out=signal)

        # 6. Gamma encode and quantize (in place: AE meters the linear
        # signal first).
        mean_level = float(signal.mean())
        pixels = encode_srgb_bytes(signal)

        frame = CapturedFrame(
            index=self._frame_index,
            pixels=pixels,
            start_time=start_time,
            row_period=self.timing.row_period,
            exposure=applied,
        )
        self._frame_index += 1

        if not manual:
            self.auto_exposure.observe_frame(mean_level, self.rng)
        return frame

    def record(
        self,
        waveform: OpticalWaveform,
        duration: float,
        start_time: float = 0.0,
        frame_jitter_s: float = 3e-4,
        tracer=None,
        metrics=None,
    ) -> List[CapturedFrame]:
        """Record video: frames at the frame rate, gaps between readouts.

        Mirrors the paper's receiver capturing "a continuous set of frames
        through video recording".  ``frame_jitter_s`` is the per-frame
        standard deviation of frame-start timing noise — real camera and
        transmitter oscillators drift relative to each other, which is what
        prevents the inter-frame gap from locking onto the same packet
        positions cycle after cycle (the paper leans on exactly this
        "unsynchronization", §5).

        ``tracer``/``metrics`` (see :mod:`repro.obs`) emit one ``capture``
        span per frame and count recorded frames; the no-op defaults keep
        the loop on the fast path.

        Recording runs the vectorized capture engine (:mod:`repro.camera.
        capture`): a sequential prologue threads jitter drift, AE, and AWB
        through scanline statistics in the canonical RNG draw order, then
        the image pipeline develops all frames in batched numpy passes
        (``capture_path="batched"``, the default) or one frame at a time
        through the same kernels (``"reference"``) — byte-identical by
        construction and pinned by the equivalence tests.
        """
        require_positive(duration, "duration")
        if frame_jitter_s < 0:
            raise SensorTimingError(
                f"frame_jitter_s must be >= 0, got {frame_jitter_s}"
            )
        tracer = tracer if tracer is not None else NULL_TRACER
        frames: List[CapturedFrame] = []
        rec = plan_recording(self, waveform, duration, start_time, frame_jitter_s)
        if rec is not None:
            if self.capture_path == "reference":
                for i in range(rec.frame_count):
                    with tracer.span(SPAN_CAPTURE, frame=i):
                        frames.append(
                            self._assemble_frame(rec, i, develop_frame(self, rec, i))
                        )
            else:
                pixels = develop_frames(self, rec)
                for i in range(rec.frame_count):
                    with tracer.span(SPAN_CAPTURE, frame=i):
                        frames.append(self._assemble_frame(rec, i, pixels[i]))
        if metrics is not None:
            metrics.counter(M_FRAMES_RECORDED).inc(len(frames))
        return frames

    def _assemble_frame(
        self, rec: RecordingPlan, index: int, pixels: np.ndarray
    ) -> CapturedFrame:
        frame = CapturedFrame(
            index=self._frame_index,
            pixels=pixels,
            start_time=float(rec.start_times[index]),
            row_period=self.timing.row_period,
            exposure=rec.settings[index],
        )
        self._frame_index += 1
        return frame

    # -- internals ---------------------------------------------------------

    def _update_awb(self, signal: np.ndarray) -> None:
        """Adapt white-balance gains from the frame's bright content.

        Gray-world over pixels above a brightness floor: the dominant bright
        stimulus (the LED's time-averaged near-white light) is steered to
        neutral.  Gains adapt with an EWMA so single frames of saturated
        color data cannot yank the balance.
        """
        luminance = signal.mean(axis=-1)
        # Gray-world over all lit pixels.  Dark rows (LED off) are excluded:
        # they carry only read noise and would bias the ratio estimate.  No
        # upper cut: a bright-subset estimate would skew toward the most
        # luminous colors when little white is on air.
        bright = signal[luminance >= 0.05]
        if bright.size == 0:
            return
        channel_means = bright.reshape(-1, 3).mean(axis=0)
        channel_means = np.maximum(channel_means, 1e-4)
        target = channel_means.mean()
        desired = target / channel_means
        desired = np.clip(desired, 0.25, 4.0)
        self._awb_gains = (
            (1 - self.awb_adapt_rate) * self._awb_gains
            + self.awb_adapt_rate * desired
        )

    def _update_awb_rows(self, row_rgb: np.ndarray) -> None:
        """Scanline-statistics AWB metering (the recording prologue's path).

        Same gray-world EWMA as :meth:`_update_awb`, metered on per-row mean
        RGB under the vignette row means — the decimated raw statistics a
        real ISP's 3A engine runs on — so recording never has to develop a
        frame before the next frame's control state is known.
        """
        luminance = row_rgb.mean(axis=-1)
        bright = row_rgb[luminance >= AWB_ROW_LUMINANCE_FLOOR]
        if bright.size == 0:
            return
        channel_means = np.maximum(bright.mean(axis=0), 1e-4)
        target = channel_means.mean()
        desired = np.clip(target / channel_means, 0.25, 4.0)
        self._awb_gains = (
            (1 - self.awb_adapt_rate) * self._awb_gains
            + self.awb_adapt_rate * desired
        )

    def _compute_vignette_strip(self, rows: int, cols: int) -> np.ndarray:
        """Vignetting over the simulated center strip of the full sensor.

        Only the strip's ``cols`` columns are evaluated, normalised by the
        full sensor geometry, so the strip is bit-identical to the centre
        slice of the full-sensor map without ever building it.  Strips come
        from the process-wide geometry memo
        (:func:`repro.camera.optics.cached_vignette_map`): sweep cells share
        device geometry, so only the first camera per strip computes one.
        """
        left = (self.timing.cols - cols) // 2
        return cached_vignette_map(
            self.optics, rows, self.timing.cols, left, left + cols
        )

