"""The simulated vignette strip is the full-sensor map's centre, bit for bit.

Cameras evaluate the cos^4 vignette only over the columns they simulate,
normalised by the full sensor geometry.  The contract is *bit identity*
with the centre slice of :meth:`Optics.vignette_map` over the whole
sensor, which stays the reference; the point of the strip is the
footprint, pinned here with ``tracemalloc``.
"""

import tracemalloc

import numpy as np
import pytest

import repro.camera.optics as optics_module
from repro.camera.devices import generic_device, iphone_5s, nexus_5
from repro.camera.optics import Optics, cached_vignette_map
from repro.camera.sensor import RollingShutterCamera
from repro.exceptions import CameraError

from tests.conftest import make_tiny_device

STRIP_WIDTHS = (1, 2, 47, 48, 64)


@pytest.fixture
def isolated_memo(monkeypatch):
    """A private strip memo, so full-width strips are not kept process-wide."""
    monkeypatch.setattr(optics_module, "_VIGNETTE_CACHE", {})


class TestStripIdentity:
    @pytest.mark.parametrize(
        "factory",
        [nexus_5, iphone_5s, generic_device, make_tiny_device],
        ids=["nexus_5", "iphone_5s", "generic_device", "tiny"],
    )
    def test_camera_strip_is_centre_of_full_map(self, isolated_memo, factory):
        device = factory()
        rows, cols = device.timing.rows, device.timing.cols
        full = device.optics.vignette_map(rows, cols)
        for width in sorted({w for w in STRIP_WIDTHS if w <= cols} | {cols}):
            strip = device.make_camera(simulated_columns=width)._vignette_cache
            left = (cols - width) // 2
            assert strip.shape == (rows, width)
            assert strip.dtype == full.dtype
            assert np.array_equal(strip, full[:, left : left + width]), width

    def test_default_bounds_are_the_full_map(self):
        optics = Optics(field_angle_rad=0.5)
        assert np.array_equal(
            optics.vignette_map(30, 20, 0, 20), optics.vignette_map(30, 20)
        )

    @pytest.mark.parametrize(
        "start,stop", [(-1, 5), (5, 21), (5, 5), (6, 5), (20, 21)]
    )
    def test_bounds_outside_the_sensor_rejected(self, start, stop):
        with pytest.raises(CameraError, match="column strip"):
            Optics().vignette_map(10, 20, start, stop)
        with pytest.raises(CameraError, match="column strip"):
            cached_vignette_map(Optics(), 10, 20, start, stop)


class TestStripMemo:
    def test_cameras_share_one_strip_per_geometry(self, isolated_memo):
        device = make_tiny_device()
        first = device.make_camera(simulated_columns=16)._vignette_cache
        second = device.make_camera(simulated_columns=16)._vignette_cache
        other = device.make_camera(simulated_columns=32)._vignette_cache
        assert first is second
        assert other is not first
        assert not first.flags.writeable

    def test_nexus_camera_builds_only_its_strip(self):
        """A cold-memo Nexus 5 camera simulating 48 columns peaks under
        16 MB; evaluating the full 3264x2448 map would peak near 320 MB."""
        device = nexus_5()
        # A fresh optics value forces a memo miss without touching the memo.
        optics = Optics(field_angle_rad=0.3517)
        assert all(key[0] != optics for key in optics_module._VIGNETTE_CACHE)
        tracemalloc.start()
        try:
            RollingShutterCamera(
                timing=device.timing,
                response=device.response,
                noise=device.noise,
                optics=optics,
                simulated_columns=48,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"camera construction peaked at {peak} B"
