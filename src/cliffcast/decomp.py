"""Exhaustive short pulse decompositions of the single-qubit Cliffords.

Search basis
------------
The compiler searches sequences over six effective rotations:

    X180, Y180, X90, X-90, Y90, Y-90

X-180 and Y-180 equal X180 and Y180 up to global phase, so including them
as separate search symbols would only duplicate every sequence; they are
kept out of the basis (they still exist as pulses for the five-primitive
rounds, where the drive sign matters for cross-driving).

A decomposition of Clifford c is a sequence of at most four basis pulses
whose left-to-right product equals c up to phase, excluding sequences in
which two adjacent pulses cancel (compose to the identity up to phase:
X90 followed by X-90, X180 followed by X180, and so on).  Such sequences
are reducible and can never improve a broadcast schedule.  The identity
Clifford is represented by the empty sequence (its dedicated I pulse is a
scheduling convention handled by the compiler, not a search symbol).

Optimal search
--------------
`sequence_products` is the one walk over the basis sequences: the Clifford
fired by every subset of every train.  The decompositions and the
compiler's train table (its covers and per-qubit firing choices) are both
read from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import _COMPOSE_TABLE, Pulse, _check_id, pulse_clifford_map

SEARCH_BASIS: tuple[Pulse, ...] = (
    Pulse.X180,
    Pulse.Y180,
    Pulse.X90,
    Pulse.XM90,
    Pulse.Y90,
    Pulse.YM90,
)

MAX_PULSES = 4

# Exhaustive count of decompositions per Clifford (lengths 0..4, basis and
# filter as above), frozen as a regression constant: 937 total, mean 39.04.
TOTAL_DECOMPOSITION_COUNT = 937


@dataclass(frozen=True)
class Decomposition:
    clifford: int
    pulses: tuple[Pulse, ...]

    def __len__(self) -> int:
        return len(self.pulses)


@lru_cache(maxsize=MAX_PULSES)
def sequence_products(length: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every basis-index sequence of the given length, in itertools.product
    order, paired with the Clifford fired by each non-empty subset of its
    positions: entry code - 1 is the ordered product of the positions whose
    bit is set in code (bit k = position k), so the last entry is the whole
    train.  Each code extends the code without its top bit by the top
    pulse, one compose-table gather over all sequences per code."""
    seqs = list(itertools.product(range(len(SEARCH_BASIS)), repeat=length))
    basis = np.array([pulse_clifford_map()[p] for p in SEARCH_BASIS])
    pulses = basis[np.array(seqs, dtype=np.intp)]
    prods = np.ones((len(seqs), 1 << length), dtype=_COMPOSE_TABLE.dtype)
    for code in range(1, 1 << length):
        top = code.bit_length() - 1
        prods[:, code] = _COMPOSE_TABLE[prods[:, code ^ (1 << top)], pulses[:, top]]
    return tuple(zip(seqs, (tuple(row.tolist()) for row in prods[:, 1:])))


@lru_cache(maxsize=1)
def _all_decompositions() -> dict[int, list[tuple[Pulse, ...]]]:
    """Lengths 0..MAX_PULSES, grouped by Clifford, ascending length then
    lexicographic by basis order.  A train is dropped when some adjacent
    pair of its pulses (subset code 3 << i) fires the identity."""
    table: dict[int, list[tuple[Pulse, ...]]] = {c: [] for c in range(1, 25)}
    table[1].append(())
    for length in range(1, MAX_PULSES + 1):
        for seq, prods in sequence_products(length):
            if any(prods[(3 << i) - 1] == 1 for i in range(length - 1)):
                continue
            table[prods[-1]].append(tuple(SEARCH_BASIS[i] for i in seq))
    return table


def enumerate_decompositions(a: int) -> list[Decomposition]:
    """Every way to realize Clifford a with at most four basis pulses."""
    _check_id(a)
    return [Decomposition(a, seq) for seq in _all_decompositions()[a]]


def decomposition_census() -> tuple[dict[int, int], float]:
    """Per-Clifford decomposition counts and their mean."""
    table = _all_decompositions()
    counts = {c: len(v) for c, v in table.items()}
    mean = sum(counts.values()) / 24.0
    return counts, mean
