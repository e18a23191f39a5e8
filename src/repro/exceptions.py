"""Exception hierarchy for the ColorBars reproduction.

Every error raised by this library derives from :class:`ColorBarsError`, so
callers can catch one type at an API boundary.  Subsystems raise the most
specific subclass that applies; the message always states which invariant was
violated and with which values.
"""

from __future__ import annotations

from dataclasses import dataclass


class ColorBarsError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ColorBarsError):
    """A configuration value is invalid or inconsistent with another value."""


class ColorSpaceError(ColorBarsError):
    """A color lies outside the representable range of a target color space."""


class GamutError(ColorSpaceError):
    """A chromaticity point lies outside the emitter's constellation triangle."""


class ConstellationError(ColorBarsError):
    """A CSK constellation is malformed (wrong size, duplicate symbols, ...)."""


class ModulationError(ColorBarsError):
    """The modulator was asked to encode data it cannot represent."""


class DemodulationError(ColorBarsError):
    """The demodulator could not map received samples onto symbols."""


class FECError(ColorBarsError):
    """Base class for forward-error-correction failures."""


class GaloisFieldError(FECError):
    """An operation on GF(2^8) elements was given out-of-range values."""


class ReedSolomonError(FECError):
    """Reed-Solomon encode/decode parameter or arithmetic failure."""


class UncorrectableBlockError(ReedSolomonError):
    """A codeword contained more errors/erasures than the code can correct."""


class PacketError(ColorBarsError):
    """Packet framing violated the ColorBars packet structure."""


class PacketTooLargeError(PacketError):
    """Payload exceeds what the 3-symbol size field can express."""


class FramingError(PacketError):
    """A received symbol stream could not be split into packets."""


class CameraError(ColorBarsError):
    """Camera simulator misconfiguration or capture failure."""


class SensorTimingError(CameraError):
    """Rolling-shutter timing parameters are inconsistent."""


class CalibrationError(ColorBarsError):
    """Receiver calibration state is missing or unusable."""


class LinkError(ColorBarsError):
    """End-to-end link simulation failed to produce a usable result."""


class FaultInjectionError(ColorBarsError):
    """A fault injector was misconfigured (bad spec, intensity out of range)."""


class AdaptationError(ColorBarsError):
    """The link-adaptation subsystem was misconfigured (empty ladder, a rung
    violating the flicker budget, an out-of-range hysteresis constant)."""


@dataclass(frozen=True)
class FrameFailure:
    """One contained per-frame receive failure (the graceful-degradation record).

    The receiver never lets a :class:`ColorBarsError` from one frame abort a
    session; instead the frame becomes a full-gap erasure and this record —
    which frame, which pipeline stage, which exception — lands on the
    :class:`~repro.rx.receiver.ReceiverReport`.
    """

    frame_index: int
    stage: str
    error_type: str
    message: str


@dataclass(frozen=True)
class CellFailure:
    """One contained sweep-cell failure (the resilient-runtime record).

    The resilient executor (:mod:`repro.perf.runtime`) never lets one cell
    kill a sweep; instead the cell's outcome becomes this record — which
    spec (by fingerprint), which position, why (cause taxonomy below), and
    after how many attempts — surfaced on sweep reports and the CLI.

    ``cause`` is one of:

    * ``"crash"`` — the worker process died (e.g. ``BrokenProcessPool``);
    * ``"timeout"`` — the cell exceeded its watchdog deadline and was killed;
    * ``"error"`` — the cell raised an exception in-process.
    """

    fingerprint: str
    index: int
    cause: str
    attempts: int
    error_type: str
    message: str

    def describe(self) -> str:
        return (
            f"cell {self.index} [{self.fingerprint[:12]}] {self.cause} "
            f"after {self.attempts} attempt(s): {self.error_type}: {self.message}"
        )


class StreamingStateError(ColorBarsError):
    """A streaming receiver was driven out of order (feed after finish, ...)."""


class ServeError(ColorBarsError):
    """Base class for session-service (``repro.serve``) errors."""


class AdmissionError(ServeError):
    """The session manager refused to admit a new session.

    ``reason`` is a stable machine-readable token (``"capacity"``,
    ``"duplicate"``, ...) surfaced alongside the human-readable message so
    callers can branch on the rejection cause without parsing text.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class SessionStateError(ServeError):
    """A session was addressed in a state that cannot serve the request
    (unknown id, already closed, ...)."""


@dataclass(frozen=True)
class SessionFailure:
    """One contained session failure (the session-service record).

    The :class:`~repro.serve.manager.SessionManager` never lets one poison
    session kill the service; instead the session is quarantined and its
    outcome becomes this record — which session, why (cause taxonomy below),
    and how far it got — mirroring :class:`CellFailure` one level up.

    ``cause`` is one of:

    * ``"poison"`` — repeated contained per-frame failures crossed the
      quarantine threshold (every frame fails inside the receiver);
    * ``"error"`` — an exception escaped the receiver itself (a bug or a
      frame object the pipeline cannot even start on).
    """

    session_id: str
    cause: str
    frames_fed: int
    consecutive_failures: int
    error_type: str
    message: str

    def describe(self) -> str:
        return (
            f"session {self.session_id!r} {self.cause} after "
            f"{self.frames_fed} frame(s) "
            f"({self.consecutive_failures} consecutive failure(s)): "
            f"{self.error_type}: {self.message}"
        )


class JournalError(ColorBarsError):
    """A sweep run journal is unreadable or violates its schema."""


class ObservabilityError(ColorBarsError):
    """The observability layer was misused (undeclared metric, bad export)."""


class TraceError(ObservabilityError):
    """A trace is malformed: unreadable file, bad record, dangling parent."""


class ToolingError(ColorBarsError):
    """A development tool (e.g. ``reprolint``) was misconfigured or misused."""


class LayeringError(ToolingError):
    """The declared import-layering graph is malformed (cycle, unknown layer)."""
