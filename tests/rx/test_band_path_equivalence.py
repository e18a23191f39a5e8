"""The receive back half's fast helpers against their plain reference forms.

Each rewritten helper is checked against a test-local copy of the code it
replaced:

* the skip-ahead :class:`PreambleScanner` against the position-by-position
  scan, on random skeleton strings fed whole and in random splits, with and
  without a final flush;
* the integer-packing ``_slots_to_codeword`` against the bit-list packing,
  over random layouts, slot values, symbol widths and codeword lengths
  shorter and longer than the data slots;
* the band records (``Band``, ``SymbolDecision``, ``ReceivedBand``):
  immutable, picklable, without a per-instance ``__dict__``, and with
  unchanged properties and methods.
"""

import pickle
import random

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.csk.demodulator import DecisionKind, SymbolDecision
from repro.packet.framing import PacketKind
from repro.rx.assembler import PacketAssembler, PreambleScanner
from repro.rx.detector import ReceivedBand
from repro.rx.segmentation import Band
from repro.util.bitstream import bits_to_bytes, int_to_bits


class ReferenceScanner:
    """The position-by-position greedy scan the skip-ahead scan replaced."""

    def __init__(self, calibration, data):
        self.calibration = calibration
        self.data = data
        self.position = 0

    @staticmethod
    def _could_complete(chars, position, pattern):
        remaining = len(chars) - position
        return remaining < len(pattern) and pattern.startswith(chars[position:])

    def scan(self, chars, final):
        matches = []
        position = self.position
        while position < len(chars):
            if not final and (
                self._could_complete(chars, position, self.calibration)
                or (
                    not chars.startswith(self.calibration, position)
                    and self._could_complete(chars, position, self.data)
                )
            ):
                break
            if chars.startswith(self.calibration, position):
                matches.append((position, PacketKind.CALIBRATION))
                position += len(self.calibration)
            elif chars.startswith(self.data, position):
                matches.append((position, PacketKind.DATA))
                position += len(self.data)
            else:
                position += 1
        self.position = position
        return matches


def _assembler(order=8):
    config = SystemConfig(csk_order=order, symbol_rate=1000.0)
    return PacketAssembler(config.make_packetizer(), config.symbol_rate)


def _skeleton_pairs():
    """The packetizer's real skeletons, plus random pairs with other leads."""
    scanner = _assembler().make_scanner()
    pairs = [(scanner.calibration, scanner.data)]
    rng = random.Random(11)
    for _ in range(6):
        pairs.append(
            tuple(
                "".join(rng.choice("ox") for _ in range(rng.randint(1, 6)))
                for _ in range(2)
            )
        )
    return pairs


SKELETONS = _skeleton_pairs()
STRINGS_PER_PAIR = 2000 // len(SKELETONS) + 1


def _random_chars(rng, skeletons):
    """Random o/x/_ text, sometimes seeded with whole skeletons."""
    length = rng.randint(0, 200)
    pieces = []
    while sum(map(len, pieces)) < length:
        if rng.random() < 0.15:
            pieces.append(rng.choice(skeletons))
        else:
            pieces.append(rng.choice("oxx_x"))
    return "".join(pieces)[:length]


def _split_points(rng, length):
    count = min(length + 1, rng.randint(0, 8))
    cuts = sorted(rng.sample(range(length + 1), count))
    return cuts + [length]


class TestSkipAheadScanner:
    def test_leads_come_from_the_skeletons(self):
        assert PreambleScanner("xo", "oo")._leads == ("o", "x")
        assert PreambleScanner("ox", "oxo")._leads == ("o",)

    @pytest.mark.parametrize("seed", range(len(SKELETONS)))
    def test_whole_and_split_feeds_match_reference(self, seed):
        pair = SKELETONS[seed]
        rng = random.Random(seed)
        for _ in range(STRINGS_PER_PAIR):
            chars = _random_chars(rng, pair)
            for final in (False, True):
                fast, slow = PreambleScanner(*pair), ReferenceScanner(*pair)
                assert fast.scan(chars, final) == slow.scan(chars, final)
                assert fast.position == slow.position
            # Growing prefixes, as a streaming session feeds them, then an
            # optional end-of-stream flush.
            fast, slow = PreambleScanner(*pair), ReferenceScanner(*pair)
            for cut in _split_points(rng, len(chars)):
                prefix = chars[:cut]
                assert fast.scan(prefix, False) == slow.scan(prefix, False)
                assert fast.position == slow.position
            if rng.random() < 0.5:
                assert fast.scan(chars, True) == slow.scan(chars, True)
                assert fast.position == slow.position

    def test_cursor_beyond_text_is_kept(self):
        scanner = PreambleScanner("oxo", "oxxo")
        scanner.position = 5
        assert scanner.scan("xx", final=True) == []
        assert scanner.position == 5


def reference_slots_to_codeword(
    mapper, bits_per_symbol, slot_values, layout, codeword_bytes
):
    """The bit-list packing the integer packing replaced."""
    bits = []
    erased_bits = []
    for slot_index, is_white in enumerate(layout):
        value = slot_values[slot_index]
        if is_white:
            continue
        if value is None or value == "w":
            bits.extend([0] * bits_per_symbol)
            erased_bits.extend([True] * bits_per_symbol)
        else:
            label = mapper.label_of_index(int(value))
            bits.extend(int_to_bits(label, bits_per_symbol))
            erased_bits.extend([False] * bits_per_symbol)
    total_bits = codeword_bytes * 8
    bits = bits[:total_bits] + [0] * max(0, total_bits - len(bits))
    erased_bits = erased_bits[:total_bits] + [True] * max(
        0, total_bits - len(erased_bits)
    )
    codeword = bits_to_bytes(bits)
    erasures = sorted(
        {bit_index // 8 for bit_index, erased in enumerate(erased_bits) if erased}
    )
    return codeword, erasures


class TestIntegerCodewordPacking:
    @pytest.mark.parametrize("order", [4, 8, 16, 32])
    def test_matches_bit_list_packing(self, order):
        assembler = _assembler(order)
        mapper = assembler.packetizer.mapper
        bits_per_symbol = assembler.packetizer.bits_per_symbol
        assert bits_per_symbol == order.bit_length() - 1
        rng = random.Random(order)
        shorter = longer = 0
        for _ in range(300):
            slots = rng.randint(0, 60)
            layout = [rng.random() < 0.3 for _ in range(slots)]
            slot_values = [
                rng.choice([None, "w", rng.randrange(order), rng.randrange(order)])
                for _ in range(slots)
            ]
            data_bits = bits_per_symbol * layout.count(False)
            codeword_bytes = rng.randint(1, data_bits // 8 + 3)
            shorter += codeword_bytes * 8 < data_bits
            longer += codeword_bytes * 8 > data_bits
            assert assembler._slots_to_codeword(
                slot_values, layout, codeword_bytes
            ) == reference_slots_to_codeword(
                mapper, bits_per_symbol, slot_values, layout, codeword_bytes
            )
        assert shorter and longer


def _records():
    band = Band(3, 21, 6, 17, np.array([61.5, -12.25, 40.0]))
    decision = SymbolDecision(DecisionKind.DATA, 5, 1.5, True, 0.75)
    received = ReceivedBand(
        frame_index=4, band=band, mid_time=0.125, decision=decision
    )
    return {"band": band, "decision": decision, "received": received}


class TestRecordSemantics:
    @pytest.mark.parametrize("name", sorted(_records()))
    def test_immutable_and_dictless(self, name):
        record = _records()[name]
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("name", sorted(_records()))
    def test_pickle_round_trip(self, name):
        record = _records()[name]
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert repr(copy) == repr(record)

    def test_properties_and_methods(self):
        records = _records()
        band, received = records["band"], records["received"]
        assert band.width == 18
        assert np.array_equal(received.lab, band.lab)
        assert np.array_equal(received.chroma, [-12.25, 40.0])
        assert received.to_char() == "5"
        assert SymbolDecision(DecisionKind.OFF, None, 0.0, True).to_char() == "o"
        assert SymbolDecision(DecisionKind.WHITE, None, 2.0, True).to_char() == "w"
        assert SymbolDecision(DecisionKind.OFF, None, 0.0, True).margin is None
