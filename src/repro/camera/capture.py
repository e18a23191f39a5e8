"""Whole-recording capture engine: pre-drawn noise plans and batched kernels.

The per-frame capture loop of early revisions spent most of its time in
Python/numpy dispatch over small arrays.  This module restructures a
recording so that everything *deterministic* runs as a handful of numpy
passes over a ``(frames, rows, cols, 3)`` block, while the inherently
*sequential* state — frame-jitter drift accumulation, the AE controller,
the AWB EWMA — is threaded through a cheap per-frame prologue that only
touches ``(rows, 3)`` scanline statistics.

The vectorized-capture contract (DESIGN.md §5i):

* **Canonical draw order.**  All randomness for a recording is drawn from
  the camera RNG up front, in one documented order: (1) frame jitter
  ``(F,)``, (2) AE drift ``(F,)``, (3) the PRNU fixed pattern
  ``(rows, cols, 3)`` — once per camera lifetime, (4) shot-noise normals
  ``(F, rows, cols, 3)``, (5) row-noise gains ``(F, rows, 1, 3)``.  Draw
  shapes depend only on the recording geometry and noise flags, never on
  signal values, so the order is reproducible by construction.
* **Sequential prologue.**  AE and AWB meter on per-scanline statistics
  (signal rows times the vignette row means) — the way a real ISP's
  statistics engine meters on decimated raw stats — so the settings chain
  ``settings[i+1] = f(settings[i], stats[i], drift[i])`` costs O(rows)
  per frame and never blocks the heavy image formation.
* **Batched image formation.**  The RGGB mosaic sampled straight from the
  photoelectron rows under the vignette strip (the three-channel broadcast
  image is only built with the Bayer stage off), the demosaic, the fused
  shot/read/PRNU noise kernel, the row-gain x AWB factor (applied one
  channel plane at a time) and the sRGB encode all run over the whole
  recording (chunked to bound memory).  The image pipeline computes in
  float32 — distribution-faithful for a sensor model whose output is
  8-bit — while all *timing* stays in float64.
* **Fast ↔ reference equivalence.**  :func:`develop_frames` (batched) and
  :func:`develop_frame` (one frame at a time) run one develop body on the
  same prologue arrays, indexed by a slice of frames or by one frame;
  every kernel is elementwise or per-frame-spatial, so the two paths
  produce byte-identical pixels.  The single-frame
  :meth:`~repro.camera.sensor.RollingShutterCamera.capture_frame` calls
  the same image and gain kernels (:func:`sensor_image`,
  :func:`apply_channel_gain`, :func:`encode_srgb_bytes`).
  ``RollingShutterCamera(capture_path="reference")`` keeps the slow path
  selectable; ``tests/camera/test_capture_equivalence.py`` pins the
  guarantee, and ``tests/camera/test_golden_digests.py`` pins the bytes
  both paths must produce.

Plans are memoized process-wide keyed on the *exact RNG state* plus the
draw-plan spec: sweep cells sharing a seed (paper grids, resilience sweeps)
draw their noise once, and a cache hit restores the generator to the same
end state a miss would have left, so cache state can never change results.
The memo is least-recently-used and keeps at most two plans and at most
128 MB (a larger plan is returned but not kept).  A miss evicts before it
draws, so a draw never coexists with the plan it displaces.  The second
slot may hold a plan that can never hit again (in a run of back-to-back
sweeps, the previous sweep's); a pool worker empties the memo it inherits
from its driver (:func:`start_pool_worker`).

Develop lanes: :func:`develop_frames` develops a recording's frame chunks
on the lanes of :mod:`repro.util.lanes` (one thread per CPU this process
may use, divided by the cells it runs at once), capped at the chunk count.
The chunk budget is split across the lanes, so the bytes in flight do not
grow while a frame fits in a lane's share (a chunk is never less than one
frame); each chunk writes its own slice of the output with unchanged
arithmetic, so the lane count cannot move a byte.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.camera.auto_exposure import ExposureSettings
from repro.camera.bayer import (
    demosaic_bilinear_nd,
    mosaic_from_rows,
    prepare_demosaic,
)
from repro.color.srgb import xyz_to_linear_rgb
from repro.exceptions import CameraError
from repro.util import lanes

#: Dtype of the batched image pipeline (timing stays float64).
PIXEL_DTYPE = np.float32

#: Row-luminance floor for the scanline gray-world AWB metering, matching
#: the pixel-level floor of the single-frame path.
AWB_ROW_LUMINANCE_FLOOR = 0.05

#: Frames are developed in chunks of at most this many float32 elements:
#: bounds peak RSS on phone-resolution recordings and keeps each chunk's
#: working set cache-resident (measured ~30% faster than one whole-recording
#: block on an 800-row, 64-column recording).  Chunking cannot change
#: results — every kernel is per-frame independent.  The budget is split
#: across the develop lanes (down to one frame per chunk).
_CHUNK_ELEMENTS = 480_000


# -- the draw plan ---------------------------------------------------------


@dataclass(frozen=True)
class DrawPlanSpec:
    """Everything that determines a recording's draw shapes and sigmas.

    Value-only and hashable: together with the RNG state it is the memo key
    for :func:`cached_capture_plan`.  ``drift_sigma`` is zero when AE is
    locked (no drift draws happen); ``prnu`` is zero when the camera's
    fixed pattern has already been drawn.
    """

    frame_count: int
    rows: int
    cols: int
    jitter_sigma: float
    drift_sigma: float
    prnu: float
    row_noise: float

    def __post_init__(self) -> None:
        if self.frame_count <= 0 or self.rows <= 0 or self.cols <= 0:
            raise CameraError(
                f"draw plan needs positive dimensions, got {self}"
            )

    @property
    def nbytes(self) -> int:
        """Bytes of the plan this spec draws, known before drawing it."""
        frames, rows, cols = self.frame_count, self.rows, self.cols
        pixel = np.dtype(PIXEL_DTYPE).itemsize
        total = 2 * frames * np.dtype(np.float64).itemsize  # jitter, drift
        total += frames * rows * cols * 3 * pixel  # shot
        if self.prnu > 0:
            total += rows * cols * 3 * pixel
        if self.row_noise > 0:
            total += frames * rows * 3 * pixel
        return total


class CaptureDrawPlan:
    """All RNG draws for one recording, in the canonical order.

    Arrays are read-only: plans are shared through the process-wide memo
    and must never be mutated by a consumer.
    """

    __slots__ = ("spec", "jitter", "drift", "prnu_gain", "shot", "row_gain")

    def __init__(
        self,
        spec: DrawPlanSpec,
        jitter: np.ndarray,
        drift: np.ndarray,
        prnu_gain: Optional[np.ndarray],
        shot: np.ndarray,
        row_gain: Optional[np.ndarray],
    ) -> None:
        self.spec = spec
        self.jitter = jitter
        self.drift = drift
        self.prnu_gain = prnu_gain
        self.shot = shot
        self.row_gain = row_gain
        for array in (jitter, drift, prnu_gain, shot, row_gain):
            if array is not None:
                array.flags.writeable = False


def draw_capture_plan(
    spec: DrawPlanSpec, rng: np.random.Generator
) -> CaptureDrawPlan:
    """Draw a recording's noise plan in the canonical order (see module doc)."""
    frames, rows, cols = spec.frame_count, spec.rows, spec.cols
    jitter = (
        rng.normal(0.0, spec.jitter_sigma, frames)
        if spec.jitter_sigma > 0
        else np.zeros(frames)
    )
    drift = (
        rng.normal(0.0, spec.drift_sigma, frames)
        if spec.drift_sigma > 0
        else np.zeros(frames)
    )
    prnu_gain = None
    if spec.prnu > 0:
        prnu_gain = draw_prnu_gain(spec.prnu, rows, cols, rng)
    shot = rng.standard_normal((frames, rows, cols, 3), dtype=PIXEL_DTYPE)
    row_gain = None
    if spec.row_noise > 0:
        row_gain = (
            1.0 + rng.normal(0.0, spec.row_noise, (frames, rows, 1, 3))
        ).astype(PIXEL_DTYPE)
    return CaptureDrawPlan(spec, jitter, drift, prnu_gain, shot, row_gain)


def draw_prnu_gain(
    prnu: float, rows: int, cols: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw the camera-lifetime PRNU fixed-pattern gain ``(rows, cols, 3)``.

    Photo-response non-uniformity is a property of the silicon, not of a
    frame: it is drawn once per camera (draw-order slot 3) and reused for
    every subsequent frame and recording.
    """
    gain = (1.0 + rng.normal(0.0, prnu, (rows, cols, 3))).astype(PIXEL_DTYPE)
    gain.flags.writeable = False
    return gain


#: Process-wide plan memo: (bit-generator state, spec) -> (plan, end state),
#: least recently used first.  Sweeps reuse one seed across cells, so every
#: cell after the first gets its draws for free; restoring the stored end
#: state on a hit makes the memo observationally invisible to the generator.
#: Two plans, not one: a session set-up that re-records two streams in turn
#: would otherwise miss on every stream.  The price is that the second slot
#: can keep a plan that never hits again: in back-to-back seeded sweeps it
#: holds the previous sweep's plan until the next miss evicts it.
_PLAN_CACHE: OrderedDict[Tuple, Tuple[CaptureDrawPlan, dict]] = OrderedDict()
_PLAN_CACHE_MAX_PLANS = 2
_PLAN_CACHE_MAX_BYTES = 128_000_000


def _plan_cache_key(spec: DrawPlanSpec, rng: np.random.Generator) -> Tuple:
    # ``repr`` of the state dict is deterministic: numpy builds it with a
    # fixed insertion order for a given bit generator.
    return (repr(rng.bit_generator.state), spec)


def cached_capture_plan(
    spec: DrawPlanSpec, rng: np.random.Generator
) -> CaptureDrawPlan:
    """Draw (or fetch) a plan; the RNG always ends in the post-draw state."""
    key = _plan_cache_key(spec, rng)
    hit = _PLAN_CACHE.get(key)
    if hit is not None:
        _PLAN_CACHE.move_to_end(key)
        plan, end_state = hit
        rng.bit_generator.state = end_state
        return plan
    nbytes = spec.nbytes
    keep = nbytes <= _PLAN_CACHE_MAX_BYTES
    # Evict before drawing, so the new plan is never drawn while the plan
    # it displaces is still held (no local may keep an evicted plan alive).
    while keep and _PLAN_CACHE and (
        len(_PLAN_CACHE) >= _PLAN_CACHE_MAX_PLANS
        or sum(kept.nbytes for _, kept in _PLAN_CACHE) + nbytes
        > _PLAN_CACHE_MAX_BYTES
    ):
        del _PLAN_CACHE[next(iter(_PLAN_CACHE))]
    plan = draw_capture_plan(spec, rng)
    if keep:
        _PLAN_CACHE[key] = (plan, rng.bit_generator.state)
    return plan


def start_pool_worker(concurrent_cells: int) -> None:
    """Set up a freshly forked pool worker's capture engine.

    The worker shares the CPUs with ``concurrent_cells`` pool-mates, so its
    develop lanes are its share of them.  The noise-plan memo it inherited
    holds the driver's plans (its warm-up recording's, say), which the
    worker's cells would only hit by chance; emptying it frees their pages.
    """
    lanes.set_concurrent_cells(concurrent_cells)
    _PLAN_CACHE.clear()


# -- the sequential prologue ----------------------------------------------


@dataclass
class RecordingPlan:
    """Per-frame deterministic state shared by both develop paths.

    Produced once per recording by :func:`plan_recording`; both the batched
    and the reference path read these arrays (float32 casts included), so
    no settings/gain value can ever differ between them.
    """

    frame_count: int
    start_times: np.ndarray        # (F,) float64
    settings: List[ExposureSettings]
    electron_rows: np.ndarray      # (F, rows, 3) float32, photoelectron-scaled
    awb_gains: Optional[np.ndarray]   # (F, 1, 1, 3) float32, None = AWB off
    electron_inv_scale: np.ndarray  # (F, 1, 1, 1) float32
    draws: CaptureDrawPlan


def plan_recording(
    camera,
    waveform,
    duration: float,
    start_time: float,
    frame_jitter_s: float,
) -> Optional[RecordingPlan]:
    """Run the sequential prologue: draws, timing, AE/AWB, row signals.

    Mutates the camera's AE controller and AWB gains exactly as the
    recording proceeds (this *is* the recording's control loop); returns
    ``None`` when the duration is too short for a single frame.
    """
    timing = camera.timing
    frame_count = int(duration * timing.frame_rate)
    if frame_count <= 0:
        return None

    rows = timing.rows
    cols = camera.simulated_columns
    noise = camera.noise
    ae = camera.auto_exposure
    auto = not ae.locked
    spec = DrawPlanSpec(
        frame_count=frame_count,
        rows=rows,
        cols=cols,
        jitter_sigma=frame_jitter_s,
        drift_sigma=ae.drift_sigma if auto else 0.0,
        prnu=noise.prnu if camera._prnu_gain is None else 0.0,
        row_noise=noise.row_noise,
    )
    draws = cached_capture_plan(spec, camera.rng)
    if spec.prnu > 0:
        camera._prnu_gain = draws.prnu_gain

    row_offsets = np.arange(rows) * timing.row_period
    vignette_row_mean = camera._vignette_row_mean

    start_times = np.empty(frame_count)
    settings: List[ExposureSettings] = []
    signal_rows = np.empty((frame_count, rows, 3))
    awb_gains = np.empty((frame_count, 3)) if camera.enable_awb else None
    iso_values = np.empty(frame_count)

    drift_t = 0.0
    for i in range(frame_count):
        if frame_jitter_s > 0:
            drift_t += float(draws.jitter[i])
        t0 = start_time + i * timing.frame_period + drift_t
        applied = ae.settings
        row_starts = t0 + row_offsets
        row_stops = row_starts + applied.exposure_s

        scene_xyz = waveform.mean_xyz(row_starts, row_stops)
        scene_xyz = scene_xyz * camera._scene_gain + camera._scene_ambient
        camera_linear = xyz_to_linear_rgb(scene_xyz) @ camera._response_matrix_t
        gain = (
            camera.radiometric_gain
            * applied.exposure_s
            * (applied.iso / noise.reference_iso)
        )
        rows_signal = np.clip(camera_linear * gain, 0.0, None)

        # Scanline metering basis: the row signal under the mean vignette of
        # its scanline — the exact per-row mean of the pre-mosaic image.
        row_rgb = rows_signal * vignette_row_mean[:, np.newaxis]
        if camera.enable_awb:
            camera._update_awb_rows(row_rgb)
            awb_gains[i] = camera._awb_gains
        if auto:
            metered = row_rgb * camera._awb_gains if camera.enable_awb else row_rgb
            mean_level = float(np.clip(metered, 0.0, 1.0).mean())
            ae.step(mean_level, float(draws.drift[i]))

        start_times[i] = t0
        settings.append(applied)
        signal_rows[i] = rows_signal
        iso_values[i] = applied.iso

    iso_gain = iso_values / noise.reference_iso
    scale = (noise.full_well_electrons / iso_gain).astype(PIXEL_DTYPE)
    inv_scale = (iso_gain / noise.full_well_electrons).astype(PIXEL_DTYPE)
    # The per-frame electron scale is folded into the row signal here: the
    # vignette multiply and the (linear) CFA roundtrip commute with a
    # per-frame scalar, so the develop kernels start directly from
    # photoelectron rows and skip one full-resolution multiply.
    electron_rows = signal_rows.astype(PIXEL_DTYPE)
    electron_rows *= scale[:, np.newaxis, np.newaxis]
    return RecordingPlan(
        frame_count=frame_count,
        start_times=start_times,
        settings=settings,
        electron_rows=electron_rows,
        awb_gains=(
            awb_gains.astype(PIXEL_DTYPE).reshape(frame_count, 1, 1, 3)
            if awb_gains is not None
            else None
        ),
        electron_inv_scale=inv_scale.reshape(frame_count, 1, 1, 1),
        draws=draws,
    )


# -- float32 kernels (shared verbatim by both develop paths) ---------------


def apply_sensor_noise(
    electrons: np.ndarray,
    inv_scale: np.ndarray,
    read_noise_sq: np.float32,
    shot: np.ndarray,
    prnu_gain: Optional[np.ndarray],
) -> np.ndarray:
    """Fused shot/read/PRNU noise: photoelectrons in, linear signal out.

    The Gaussian shot/read approximation uses one fused
    ``sqrt(electrons + read^2)`` standard deviation; ``shot`` holds the
    pre-drawn unit normals, ``prnu_gain`` the camera's fixed pattern.  The
    output is *unclipped* — the pipeline saturates exactly once, inside
    :func:`encode_srgb_bytes`.  Computes in place on ``electrons`` (every
    caller hands over a temporary) and returns it.
    """
    std = electrons + read_noise_sq
    np.sqrt(std, out=std)
    std *= shot
    electrons += std
    del std
    if prnu_gain is not None:
        electrons *= prnu_gain
    electrons *= inv_scale
    return electrons


def sensor_image(camera, row_signal: np.ndarray) -> np.ndarray:
    """The pre-noise image of scanline colors under the vignette strip.

    ``row_signal`` is ``(..., rows, 3)``.  With the Bayer stage on, the
    RGGB mosaic is sampled straight from the rows
    (:func:`~repro.camera.bayer.mosaic_from_rows`) and demosaiced, so the
    three-channel broadcast image is never built; with it off, the image is
    the broadcast itself.  Either way the result is ``(..., rows, cols, 3)``.
    """
    vignette = camera._vignette_f32
    if camera.enable_bayer:
        return demosaic_bilinear_nd(mosaic_from_rows(row_signal, vignette))
    return row_signal[..., :, np.newaxis, :] * vignette[:, :, np.newaxis]


def apply_channel_gain(signal: np.ndarray, gain: np.ndarray) -> None:
    """``signal *= gain`` in place, one channel plane at a time.

    ``gain`` is a small per-channel factor (``(..., 3)``, e.g. per-row gains
    ``(F, rows, 1, 3)`` or AWB gains ``(3,)``).  Multiplying plane by plane
    gives the same float32 products as the broadcast ``signal *= gain``
    without numpy's three-long inner loop over the channel axis.
    """
    for channel in range(3):
        plane = signal[..., channel]
        plane *= gain[..., channel]


def encode_srgb_bytes(linear: np.ndarray) -> np.ndarray:
    """Gamma-encode linear float32 and quantize to uint8 in one pass.

    Computes *in place* on ``linear`` (every caller hands over a
    temporary), starting with the clip to [0, 1] — the pipeline's single
    saturation point.  Only the linear-segment samples are set aside, as
    a mask and their already-encoded values.
    """
    x = np.clip(linear, 0.0, 1.0, out=linear)
    dark = x <= 0.0031308
    dark_srgb = x[dark] * 12.92
    np.power(x, 1.0 / 2.4, out=x)
    x *= 1.055
    x -= 0.055
    x[dark] = dark_srgb
    x *= 255.0
    np.round(x, out=x)
    return x.astype(np.uint8)


def _develop(camera, rec: RecordingPlan, index) -> np.ndarray:
    """Develop ``rec``'s frames at ``index`` (a frame or a slice) -> uint8.

    The one develop body of both paths: an integer index develops one
    ``(rows, cols, 3)`` frame, a slice a ``(frames, rows, cols, 3)`` block.
    Every kernel is elementwise or per-frame-spatial, so the two are
    byte-identical frame for frame.
    """
    draws = rec.draws
    signal = apply_sensor_noise(
        sensor_image(camera, rec.electron_rows[index]),
        rec.electron_inv_scale[index],
        camera._read_noise_sq,
        draws.shot[index],
        camera._prnu_gain,
    )
    row_gain = draws.row_gain
    if row_gain is not None and rec.awb_gains is not None:
        apply_channel_gain(signal, row_gain[index] * rec.awb_gains[index])
    elif row_gain is not None:
        apply_channel_gain(signal, row_gain[index])
    elif rec.awb_gains is not None:
        apply_channel_gain(signal, rec.awb_gains[index])
    return encode_srgb_bytes(signal)


def develop_frames(camera, rec: RecordingPlan) -> np.ndarray:
    """The batched path: all frames' pixels, ``(F, rows, cols, 3)`` uint8.

    Chunked over the frames axis to bound peak memory, and the chunks are
    developed on the lanes (:func:`repro.util.lanes.run_lanes`) with the
    chunk budget split between them.  Every kernel is per-frame independent
    and each chunk writes only its own frames, so neither the chunking nor
    the lanes can change a single byte.
    """
    rows, cols = camera.timing.rows, camera.simulated_columns
    frame_count = rec.frame_count
    chunk = max(1, _CHUNK_ELEMENTS // lanes.lane_count() // (rows * cols * 3))
    if chunk >= frame_count:
        return _develop(camera, rec, slice(0, frame_count))
    pixels = np.empty((frame_count, rows, cols, 3), dtype=np.uint8)
    if camera.enable_bayer:
        # Lanes only read the demosaic memo, so fill it before they start.
        prepare_demosaic(rows, cols, PIXEL_DTYPE)

    def develop_chunk(lo: int) -> None:
        hi = min(lo + chunk, frame_count)
        pixels[lo:hi] = _develop(camera, rec, slice(lo, hi))

    lanes.run_lanes(develop_chunk, range(0, frame_count, chunk))
    return pixels


def develop_frame(camera, rec: RecordingPlan, index: int) -> np.ndarray:
    """The reference path: one frame's pixels via the same develop body.

    Identical arithmetic to :func:`develop_frames` on the matching slice —
    the fast↔reference equivalence gate asserts byte equality.
    """
    return _develop(camera, rec, index)
