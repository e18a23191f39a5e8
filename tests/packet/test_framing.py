"""Unit tests for preamble framing and its detection by the receiver."""

import pytest

from repro.packet.framing import (
    CALIBRATION_FLAG,
    DATA_FLAG,
    DELIMITER,
    PacketKind,
    flag_for,
    preamble_symbols,
)
from repro.packet.packetizer import PacketConfig, Packetizer
from repro.rx.assembler import PacketAssembler


def skeleton(symbols):
    """The dark/lit skeleton the receiver scans: 'o' stays, all else 'x'."""
    return "".join("o" if c == "o" else "x" for c in symbols)


DATA_PREAMBLE = skeleton(DELIMITER + DATA_FLAG)
CALIBRATION_PREAMBLE = skeleton(DELIMITER + CALIBRATION_FLAG)


@pytest.fixture
def scan(mapper8):
    """Whole-stream scan with the receiver's preamble scanner."""
    assembler = PacketAssembler(Packetizer(mapper8, PacketConfig()), 1000.0)
    return lambda chars: assembler.make_scanner().scan(chars, final=True)


class TestConstants:
    def test_paper_sequences(self):
        assert DELIMITER == "owo"
        assert DATA_FLAG == "owowo"
        assert CALIBRATION_FLAG == "owowowo"

    def test_calibration_extends_data_flag(self):
        # The scanner's calibration-first rule relies on this.
        assert CALIBRATION_FLAG.startswith(DATA_FLAG)


class TestPreambleSymbols:
    def test_data_preamble_length(self):
        assert len(preamble_symbols(PacketKind.DATA)) == 8

    def test_calibration_preamble_length(self):
        assert len(preamble_symbols(PacketKind.CALIBRATION)) == 10

    def test_symbols_alternate(self):
        chars = [s.to_char() for s in preamble_symbols(PacketKind.DATA)]
        assert "".join(chars) == DELIMITER + DATA_FLAG

    def test_flag_for(self):
        assert flag_for(PacketKind.DATA) == DATA_FLAG
        assert flag_for(PacketKind.CALIBRATION) == CALIBRATION_FLAG


class TestFindPreambles:
    """Preamble detection through the receiver's ``PreambleScanner``."""

    def test_single_data_preamble(self, scan):
        matches = scan("xx" + DATA_PREAMBLE + "xxxx")
        assert matches == [(2, PacketKind.DATA)]
        body_start = matches[0][0] + len(DELIMITER + DATA_FLAG)
        assert body_start == 10

    def test_calibration_wins_longest_match(self, scan):
        # The data skeleton is a prefix of the calibration skeleton.
        assert CALIBRATION_PREAMBLE.startswith(DATA_PREAMBLE)
        assert scan(CALIBRATION_PREAMBLE + "xx") == [
            (0, PacketKind.CALIBRATION)
        ]

    def test_multiple_packets(self, scan):
        matches = scan(CALIBRATION_PREAMBLE + "x" * 8 + DATA_PREAMBLE + "xxx")
        assert [kind for _, kind in matches] == [
            PacketKind.CALIBRATION,
            PacketKind.DATA,
        ]

    def test_no_preamble_in_data(self, scan):
        assert scan("x" * 16) == []
        assert scan("xx_xxxx_xxx") == []
