"""The ColorBars transmitter and the matching receiver factory.

:class:`ColorBarsTransmitter` implements the full TX chain of Fig 2(b):
payload bytes -> Reed-Solomon blocks -> packets (header + delimiter) -> CSK
symbols with illumination whites -> PWM-driven tri-LED waveform, with
calibration packets injected at the configured cadence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.camera.sensor import SensorTiming
from repro.core.config import SystemConfig
from repro.csk.modulator import CskModulator
from repro.exceptions import ConfigurationError
from repro.phy.symbols import LogicalSymbol
from repro.phy.waveform import EXTEND_CYCLE, OpticalWaveform
from repro.rx.receiver import ColorBarsReceiver
from repro.rx.streaming import StreamingReceiver


@dataclass
class TransmissionPlan:
    """The complete on-air schedule for one broadcast cycle.

    ``symbols`` is the cyclic symbol stream; ``codewords`` the RS codewords
    it carries (ground truth for evaluation); ``payload`` the original bytes.
    """

    symbols: List[LogicalSymbol]
    codewords: List[bytes]
    payload: bytes
    calibration_packets: int
    data_packets: int

    @property
    def num_symbols(self) -> int:
        return len(self.symbols)


class ColorBarsTransmitter:
    """Builds symbol schedules and optical waveforms from payload bytes."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.packetizer = config.make_packetizer()
        self.codec = config.make_codec()
        self.modulator = CskModulator(
            config.constellation, config.emitter, config.symbol_rate
        )

    # -- schedule construction ---------------------------------------------

    def plan(self, payload: bytes) -> TransmissionPlan:
        """Lay out one broadcast cycle for ``payload``.

        The payload is RS-encoded into codewords, each carried by one data
        packet; calibration packets are interleaved so that, at the symbol
        rate, they recur at the configured calibration rate (default 5 Hz).
        The cycle repeats for continuous broadcast.
        """
        if not payload:
            raise ConfigurationError("payload must not be empty")
        codewords = self.codec.encode_blocks(payload)
        symbols_between_calibrations = int(
            self.config.symbol_rate / self.config.calibration_rate_hz
        )

        symbols: List[LogicalSymbol] = []
        data_packets = 0
        calibration_packets = 0
        since_calibration = symbols_between_calibrations  # calibrate first

        for codeword in codewords:
            if since_calibration >= symbols_between_calibrations:
                calibration = self.packetizer.build_calibration_packet()
                symbols.extend(calibration)
                calibration_packets += 1
                since_calibration = len(calibration)
            packet = self.packetizer.build_data_packet(codeword)
            symbols.extend(packet)
            data_packets += 1
            since_calibration += len(packet)

        return TransmissionPlan(
            symbols=symbols,
            codewords=codewords,
            payload=payload,
            calibration_packets=calibration_packets,
            data_packets=data_packets,
        )

    def waveform(
        self, plan_or_payload, extend: str = EXTEND_CYCLE
    ) -> OpticalWaveform:
        """The on-air optical waveform for a plan (or payload bytes)."""
        if isinstance(plan_or_payload, TransmissionPlan):
            plan = plan_or_payload
        else:
            plan = self.plan(bytes(plan_or_payload))
        return self.modulator.waveform(plan.symbols, extend=extend)

    # -- capacity helpers ------------------------------------------------

    def payload_bytes_per_packet(self) -> int:
        """k: payload bytes carried per data packet."""
        return self.codec.k


def make_receiver(
    config: SystemConfig,
    timing: SensorTiming,
    **receiver_kwargs,
) -> ColorBarsReceiver:
    """Build the receiver matching a system config and a camera's timing.

    ``timing`` supplies the rows-per-symbol band width; extra keyword
    arguments pass through to :class:`ColorBarsReceiver` (thresholds etc.).
    """
    return ColorBarsReceiver(
        packetizer=config.make_packetizer(),
        codec=config.make_codec(),
        symbol_rate=config.symbol_rate,
        rows_per_symbol=timing.rows_per_symbol(config.symbol_rate),
        **receiver_kwargs,
    )


def make_streaming_receiver(
    config: SystemConfig,
    timing: SensorTiming,
    **receiver_kwargs,
) -> StreamingReceiver:
    """Build a streaming session receiver for a config and camera timing.

    Same contract as :func:`make_receiver` wrapped in the incremental
    facade: feed frames as they arrive, read the byte-identical report
    after ``finish()``.
    """
    return StreamingReceiver(make_receiver(config, timing, **receiver_kwargs))
