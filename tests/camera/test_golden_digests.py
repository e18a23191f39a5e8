"""Golden digests: the exact bytes a seeded recording must develop to.

The batched↔reference equivalence gates compare two develop paths that
share their kernels, so a kernel change that moves a byte moves both paths
together and those gates stay green.  These digests pin the bytes
themselves: the sha256 of (a) the pixels of a short seeded recording on a
small even-dimension device, (b) its ``frames_to_scanline_lab`` output and
(c) three single frames from ``capture_frame``, across every combination
of the Bayer stage, AWB and row noise.

The digests were computed before the cache-blocked develop and Lab
kernels landed; every optimisation since must reproduce them exactly.
Both capture paths must hit the same digest.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.camera import capture
from repro.camera.noise import SensorNoise
from repro.camera.optics import Optics
from repro.camera.sensor import RollingShutterCamera, SensorTiming
from repro.phy.symbols import data_symbol, off_symbol, white_symbol
from repro.phy.waveform import EXTEND_CYCLE
from repro.rx import preprocess
from repro.rx.preprocess import frames_to_scanline_lab
from repro.util import lanes as util_lanes

from tests.conftest import make_tiny_device

#: (bayer, awb, row_noise) -> (recording pixels, scanline Lab, capture_frame
#: pixels), each a sha256 hex digest prefix.
GOLDEN = {
    (True, True, True): ("137b11a09afd3eae", "7051e56980ea7701", "0278b4fa2b5e459f"),
    (True, True, False): ("bf5f8330c60e30db", "5f2a5e722fd4ecea", "87a4561740f87393"),
    (True, False, True): ("6857e997c21fb343", "0629375cd70131b6", "b46aa750e4303423"),
    (True, False, False): ("3eb3251ab1117b93", "e1ef460c13138ff9", "b4ab49bf402c42f5"),
    (False, True, True): ("2adfa168b97f2901", "d420acf8357281c4", "1cc29b0fe1d0ea7b"),
    (False, True, False): ("da944b0a9112df1d", "1025c24296337f5a", "1a6f4dbbd2f9632a"),
    (False, False, True): ("6df930d44d002e55", "2a5d7a8071a9d375", "b43fb3d40f2742a7"),
    (False, False, False): ("153163809df84720", "ab67a8f7b11308b6", "812b1d4459762446"),
}

CASES = list(itertools.product((True, False), repeat=3))

#: The golden device's frame geometry: rows x simulated columns x channels.
ROWS, COLS = 120, 16
FRAME_ELEMENTS = ROWS * COLS * 3


def _case_id(case):
    bayer, awb, row_noise = case
    return "-".join(
        (
            "bayer" if bayer else "nobayer",
            "awb" if awb else "noawb",
            "rownoise" if row_noise else "norownoise",
        )
    )


def _waveform(modulator):
    rng = np.random.default_rng(17)
    symbols = []
    for _ in range(300):
        draw = rng.random()
        if draw < 0.1:
            symbols.append(off_symbol())
        elif draw < 0.35:
            symbols.append(white_symbol())
        else:
            symbols.append(data_symbol(int(rng.integers(0, 8))))
    return modulator.waveform(symbols, extend=EXTEND_CYCLE)


def _camera(case, capture_path):
    bayer, awb, row_noise = case
    tiny = make_tiny_device()
    return RollingShutterCamera(
        timing=SensorTiming(rows=ROWS, cols=48, frame_rate=30.0, gap_fraction=0.25),
        response=tiny.response,
        noise=SensorNoise(row_noise=0.02 if row_noise else 0.0),
        optics=Optics(ambient_luminance=0.2),
        simulated_columns=COLS,
        enable_bayer=bayer,
        enable_awb=awb,
        seed=23,
        capture_path=capture_path,
    )


def _digest(arrays):
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(repr((array.dtype.str, array.shape)).encode())
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()[:16]


def recording_digests(case, modulator, capture_path="batched"):
    """(pixels, scanline Lab) digests of a 6-frame seeded recording."""
    camera = _camera(case, capture_path)
    frames = camera.record(_waveform(modulator), duration=0.2)
    assert len(frames) == 6
    pixels = _digest(frame.pixels for frame in frames)
    lab = _digest(frames_to_scanline_lab(frames))
    return pixels, lab


def capture_frame_digest(case, modulator):
    """Digest of three successive auto-exposed ``capture_frame`` frames."""
    camera = _camera(case, "batched")
    waveform = _waveform(modulator)
    period = camera.timing.frame_period
    return _digest(
        camera.capture_frame(waveform, index * period).pixels for index in range(3)
    )


@pytest.mark.parametrize("case", CASES, ids=_case_id)
@pytest.mark.parametrize("capture_path", ["batched", "reference"])
def test_recording_bytes_pinned(case, capture_path, modulator8):
    pixels, lab = recording_digests(case, modulator8, capture_path)
    assert (pixels, lab) == GOLDEN[case][:2]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_capture_frame_bytes_pinned(case, modulator8):
    assert capture_frame_digest(case, modulator8) == GOLDEN[case][2]


# Blocking and lanes are pure cache/memory/CPU knobs: no block size and no
# lane count, in develop or in preprocess, may move a byte.
BLOCKING_CASES = [(True, True, True), (False, False, False)]


def _chunked_digests(case, modulator, frames_per_chunk, lanes, monkeypatch):
    """Recording digests with ``frames_per_chunk`` frames per develop chunk
    on ``lanes`` lanes sharing the chunk budget."""
    monkeypatch.setattr(util_lanes, "lane_count", lambda: lanes)
    monkeypatch.setattr(
        capture, "_CHUNK_ELEMENTS", lanes * frames_per_chunk * FRAME_ELEMENTS
    )
    return recording_digests(case, modulator)


@pytest.mark.parametrize("case", BLOCKING_CASES, ids=_case_id)
@pytest.mark.parametrize("frames_per_chunk", [1, 3, 4, 6])
def test_develop_chunking_keeps_bytes(case, frames_per_chunk, monkeypatch, modulator8):
    """Develop chunks of one frame, of three (two even chunks), of four (a
    partial last chunk) and the whole 6-frame recording in one block, on
    one lane."""
    digests = _chunked_digests(case, modulator8, frames_per_chunk, 1, monkeypatch)
    assert digests == GOLDEN[case][:2]


@pytest.mark.parametrize("case", BLOCKING_CASES, ids=_case_id)
@pytest.mark.parametrize("frames_per_chunk", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("lanes", [2, 3])
def test_develop_lanes_keep_bytes(
    case, frames_per_chunk, lanes, monkeypatch, modulator8
):
    """The chunkings above, plus two-frame chunks (three chunks, which two
    lanes do not divide), on two and three lanes; four-frame chunks give
    three lanes only two chunks."""
    digests = _chunked_digests(
        case, modulator8, frames_per_chunk, lanes, monkeypatch
    )
    assert digests == GOLDEN[case][:2]


@pytest.mark.parametrize("case", BLOCKING_CASES, ids=_case_id)
@pytest.mark.parametrize("block_rows", [1, 7, ROWS])
def test_preprocess_row_blocking_keeps_bytes(case, block_rows, monkeypatch, modulator8):
    """Receive-side Lab blocks of one scanline, of 7 (smaller than a frame
    and not a divisor of its 120 rows) and of a whole frame."""
    monkeypatch.setattr(preprocess, "_BLOCK_ELEMENTS", block_rows * COLS * 3)
    assert recording_digests(case, modulator8) == GOLDEN[case][:2]


@pytest.mark.parametrize("case", BLOCKING_CASES, ids=_case_id)
@pytest.mark.parametrize("split", [(6,), (5, 1), (4, 2)], ids=str)
@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_preprocess_lanes_keep_bytes(case, split, lanes, monkeypatch, modulator8):
    """The recording's scanline Lab, preprocessed in batches of ``split``
    frames on one, two and three lanes: five frames on two or three lanes
    and four on three leave the lanes uneven shares."""
    frames = _camera(case, "batched").record(_waveform(modulator8), duration=0.2)
    monkeypatch.setattr(util_lanes, "lane_count", lambda: lanes)
    scanlines = []
    for lo, count in zip(np.cumsum((0,) + split), split):
        scanlines += frames_to_scanline_lab(frames[lo:lo + count])
    assert _digest(scanlines) == GOLDEN[case][1]
