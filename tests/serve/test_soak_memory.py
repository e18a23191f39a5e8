"""Chaos costs a soak O(window) memory, not a recording's worth per session.

A chaotic session's damaged frames are injected one frame ahead of their
submission and dropped once fed, so at any moment a session holds at most
its queue plus one lookahead frame of injected pixels.  The traced peak of
an all-chaos soak may therefore exceed the same soak's calm peak by at most
``sessions x 2 x _FRAMES_PER_ROUND`` frames.
"""

import tracemalloc

from repro.camera.devices import generic_device
from repro.serve import SoakSpec, run_soak
from repro.serve.soak import _FRAMES_PER_ROUND


def _spec(chaos_fraction: float) -> SoakSpec:
    return SoakSpec(
        sessions=20,
        seed=1,
        duration_s=1.5,
        distinct_recordings=1,
        chaos_fraction=chaos_fraction,
    )


def _traced_peak(spec: SoakSpec) -> int:
    tracemalloc.reset_peak()
    run_soak(spec)
    return tracemalloc.get_traced_memory()[1]


def test_chaos_peak_bounded_by_queued_frames():
    # Warm the camera's noise-plan memo so neither measured soak pays for it.
    run_soak(SoakSpec(sessions=1, seed=1, duration_s=1.5, distinct_recordings=1))
    tracemalloc.start()
    try:
        calm = _traced_peak(_spec(0.0))
        chaos = _traced_peak(_spec(1.0))
    finally:
        tracemalloc.stop()
    spec = _spec(1.0)
    timing = generic_device().timing
    frame_bytes = timing.rows * spec.simulated_columns * 3
    bound = spec.sessions * 2 * _FRAMES_PER_ROUND * frame_bytes
    assert chaos - calm <= bound, (
        f"chaos soak peaks {(chaos - calm) / 1e6:.1f} MB above calm; "
        f"bound {bound / 1e6:.1f} MB"
    )
