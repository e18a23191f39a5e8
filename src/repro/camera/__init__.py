"""Rolling-shutter camera simulator.

The simulation substitute for the paper's Nexus 5 / iPhone 5S receivers.
Scene light (an :class:`~repro.phy.waveform.OpticalWaveform`) is integrated
per scanline with the device's exposure window, pushed through a
device-specific color response (receiver diversity, §6), vignetting optics
(§7 Fig 8a), Bayer mosaic/demosaic, sensor noise, automatic exposure/ISO
(§6.2) and finally gamma encoding — producing the same 8-bit sRGB frames a
phone camera app would hand to the ColorBars receiver.

Rolling-shutter timing (readout duration vs. inter-frame gap) is calibrated
per device to the loss ratios of Table 1.
"""

from repro.camera.auto_exposure import AutoExposure, ExposureSettings
from repro.camera.color_filter import ColorResponse
from repro.camera.devices import (
    DeviceProfile,
    generic_device,
    iphone_5s,
    nexus_5,
)
from repro.camera.frame import CapturedFrame
from repro.camera.noise import SensorNoise
from repro.camera.optics import Optics
from repro.camera.sensor import RollingShutterCamera, SensorTiming

__all__ = [
    "AutoExposure",
    "ExposureSettings",
    "ColorResponse",
    "DeviceProfile",
    "generic_device",
    "iphone_5s",
    "nexus_5",
    "CapturedFrame",
    "SensorNoise",
    "Optics",
    "RollingShutterCamera",
    "SensorTiming",
]
