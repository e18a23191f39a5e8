"""Fault-injection contract: injector protocol, schedule, intensity rules.

Injectors wrap the simulated recording between camera and receiver: each one
consumes a sequence of :class:`~repro.camera.frame.CapturedFrame` and yields a
(possibly shorter, possibly perturbed) stream of frames, recording exactly
what it did in a :class:`FaultSchedule` — the ground truth the robustness
tests assert against.

Every injector implements one generator, ``_stream``.  ``stream`` yields its
frames lazily, so a damaged copy exists only from the moment it is yielded
until its consumer lets go of it; ``inject`` is ``list(stream(...))``, for
callers that want the whole damaged recording at once.  A stream owns its
generator from its first frame until it is exhausted: it draws its random
budget when the first frame is requested and further draws as later frames
are, so two streams must never share a generator while both are live.
Chained injectors go through ``inject``, one after the other: each sizes
its budget by the length of the whole recording it is given.

Two contract rules make fault sweeps meaningful:

* **Zero is a no-op.**  ``stream`` and ``inject`` at ``intensity == 0.0``
  yield the input frames unchanged and draw nothing, so a zero-intensity run
  is byte-identical to a no-fault run.
* **Common random numbers.**  An injector draws a *fixed* per-frame random
  budget that does not depend on its intensity, then scales the damage
  deterministically.  Two runs that differ only in intensity therefore
  damage the same frames at the same places, just harder — which is what
  makes the resilience matrix's monotonic-degradation assertion structural
  rather than statistical.

All randomness flows through generators built by :mod:`repro.util.rng`
(``make_rng``/``derive_rng``); injectors never touch ``np.random`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.camera.frame import CapturedFrame
from repro.exceptions import FaultInjectionError


@dataclass(frozen=True)
class FaultEvent:
    """One recorded act of injected damage.

    ``magnitude`` is injector-specific (rows corrupted, gain applied, seconds
    of drift...); ``detail`` is a human-readable description of the same.
    """

    injector: str
    frame_index: int
    magnitude: float
    detail: str


@dataclass
class FaultSchedule:
    """Ground-truth log of everything every injector did to a recording."""

    events: List[FaultEvent] = field(default_factory=list)

    def record(
        self, injector: str, frame_index: int, magnitude: float, detail: str
    ) -> None:
        self.events.append(
            FaultEvent(
                injector=injector,
                frame_index=frame_index,
                magnitude=magnitude,
                detail=detail,
            )
        )

    def frames_affected(self, injector: Optional[str] = None) -> List[int]:
        """Sorted distinct frame indices touched (optionally by one injector)."""
        return sorted(
            {
                e.frame_index
                for e in self.events
                if injector is None or e.injector == injector
            }
        )

    def counts_by_injector(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.injector] = counts.get(event.injector, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.events)

    def summary(self) -> str:
        if not self.events:
            return "no faults injected"
        parts = [
            f"{name}={count}" for name, count in sorted(self.counts_by_injector().items())
        ]
        return (
            f"{len(self.events)} fault events over "
            f"{len(self.frames_affected())} frames ({', '.join(parts)})"
        )

    def span_attributes(self) -> Dict[str, object]:
        """Flat ``{key: value}`` attributes for an observability span.

        Shaped for :meth:`repro.obs.trace.Span.set` without this module
        importing ``obs`` (faults stay below the instrumented link layer):
        total event count, distinct frames touched, and a per-injector
        ``events.<name>`` count.
        """
        attributes: Dict[str, object] = {
            "events": len(self.events),
            "frames_affected": len(self.frames_affected()),
        }
        for name, count in sorted(self.counts_by_injector().items()):
            attributes[f"events.{name}"] = count
        return attributes


def validate_intensity(intensity: float, name: str) -> float:
    """Intensity knobs live in [0, 1]; anything else is a configuration bug."""
    value = float(intensity)
    if not np.isfinite(value) or not 0.0 <= value <= 1.0:
        raise FaultInjectionError(
            f"{name} intensity must be in [0, 1], got {intensity!r}"
        )
    return value


class FaultInjector:
    """Base class every injector extends.

    Subclasses set ``name`` and implement the generator :meth:`_stream`; the
    public :meth:`stream` enforces the zero-is-a-no-op contract so subclasses
    never need to special-case it.
    """

    name: str = ""

    def __init__(self, intensity: float) -> None:
        self.intensity = validate_intensity(intensity, type(self).__name__)

    def stream(
        self,
        frames: Sequence[CapturedFrame],
        rng: np.random.Generator,
        schedule: FaultSchedule,
    ) -> Iterator[CapturedFrame]:
        """Yield this fault's frames one at a time; record ground truth."""
        if self.intensity == 0.0:
            return iter(frames)
        return self._stream(frames, rng, schedule)

    def inject(
        self,
        frames: Sequence[CapturedFrame],
        rng: np.random.Generator,
        schedule: FaultSchedule,
    ) -> List[CapturedFrame]:
        """Apply this fault to a whole recording at once."""
        return list(self.stream(frames, rng, schedule))

    def _stream(
        self,
        frames: Sequence[CapturedFrame],
        rng: np.random.Generator,
        schedule: FaultSchedule,
    ) -> Iterator[CapturedFrame]:
        raise FaultInjectionError(
            f"{type(self).__name__} does not implement _stream"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(intensity={self.intensity})"
