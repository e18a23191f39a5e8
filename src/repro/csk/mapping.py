"""Bit-group <-> constellation-index mapping.

Each CSK symbol carries ``C = log2(M)`` bits (paper §3.2: "when 8CSK is used,
the bits are split into pieces of 3 bits and each piece is mapped to a color
symbol").  The mapper also offers a neighbor-aware index assignment that
reduces the bit errors caused by a symbol being confused with its nearest
chromaticity neighbor — a 2-D analogue of Gray coding.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.csk.constellation import Constellation
from repro.exceptions import ModulationError
from repro.phy.symbols import LogicalSymbol, data_symbol
from repro.util.bitstream import bits_to_int, chunk_bits


def _hamming(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def neighbor_aware_assignment(constellation: Constellation) -> List[int]:
    """Permutation ``labels[i] -> bit pattern`` lowering neighbor Hamming cost.

    Greedy construction: walk symbols in order of mutual proximity and give
    each the unused label closest (in Hamming distance) to the labels of its
    already-assigned nearest neighbors.  Not optimal — optimal 2-D Gray
    labeling is NP-hard — but measurably better than identity labeling, and
    deterministic.
    """
    points = constellation.as_array()
    order = constellation.order
    distances = np.hypot(
        points[:, 0:1] - points[:, 0][np.newaxis, :],
        points[:, 1:2] - points[:, 1][np.newaxis, :],
    )
    np.fill_diagonal(distances, np.inf)

    labels = [-1] * order
    used = set()
    # Seed: first symbol gets label 0.
    visit_order = [0]
    seen = {0}
    while len(visit_order) < order:
        # Next symbol: the unvisited one closest to any visited symbol.
        best, best_dist = -1, np.inf
        for candidate in range(order):
            if candidate in seen:
                continue
            dist = min(distances[candidate][v] for v in visit_order)
            if dist < best_dist:
                best, best_dist = candidate, dist
        visit_order.append(best)
        seen.add(best)

    for symbol in visit_order:
        neighbor_labels = [
            labels[other]
            for other in np.argsort(distances[symbol])[:3]
            if labels[other] >= 0
        ]
        if not neighbor_labels:
            label = 0 if 0 not in used else min(set(range(order)) - used)
        else:
            candidates = [c for c in range(order) if c not in used]
            label = min(
                candidates,
                key=lambda c: sum(_hamming(c, n) for n in neighbor_labels),
            )
        labels[symbol] = label
        used.add(label)
    return labels


class SymbolMapper:
    """Maps bit streams to DATA symbols and back for one constellation.

    With ``gray=True`` (default) the neighbor-aware labeling is used so that
    the most likely symbol confusions flip few bits; ``gray=False`` keeps the
    identity labeling for ablation studies.
    """

    def __init__(self, constellation: Constellation, gray: bool = True) -> None:
        self.constellation = constellation
        self.bits_per_symbol = constellation.bits_per_symbol
        if gray:
            assignment = neighbor_aware_assignment(constellation)
        else:
            assignment = list(range(constellation.order))
        #: symbol index -> bit label
        self._label_of_index = assignment
        #: bit label -> symbol index
        self._index_of_label = [0] * constellation.order
        for index, label in enumerate(assignment):
            self._index_of_label[label] = index

    def bits_to_symbols(self, bits: Sequence[int]) -> List[LogicalSymbol]:
        """Map a bit sequence to DATA symbols (zero-padded to a full symbol)."""
        symbols: List[LogicalSymbol] = []
        for group in chunk_bits(bits, self.bits_per_symbol):
            label = bits_to_int(group)
            symbols.append(data_symbol(self._index_of_label[label]))
        return symbols

    def label_of_index(self, index: int) -> int:
        """The bit label assigned to a constellation index."""
        if not 0 <= index < self.constellation.order:
            raise ModulationError(
                f"index {index} outside {self.constellation.order}-CSK "
                "constellation"
            )
        return self._label_of_index[index]

    def symbols_for_payload(self, payload_bits: int) -> int:
        """How many DATA symbols a payload of ``payload_bits`` bits needs."""
        if payload_bits < 0:
            raise ModulationError(f"payload_bits must be >= 0, got {payload_bits}")
        return -(-payload_bits // self.bits_per_symbol)
