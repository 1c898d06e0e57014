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
`train_products` lists every train of 1..4 basis pulses as a row of basis
indices, with the Clifford fired by each subset of it from the one subset
walk, `clifford._subset_products`, as two read-only arrays.  The
decompositions and the compiler's cover table (its covers and per-qubit
firing choices) are both read from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import Pulse, _check_id, _subset_products, clifford_of_pulses

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


@lru_cache(maxsize=1)
def train_products() -> tuple[np.ndarray, np.ndarray]:
    """(trains, prods), read-only, of every train of 1..MAX_PULSES basis
    pulses, in ascending length and then itertools.product order.
    trains[t] are the basis indices of train t, -1 past its end;
    prods[t, code - 1] is the ordered product of the positions whose bit
    is set in code (bit k = position k), so code 2**len - 1 is the whole
    train (clifford._subset_products).  A padded position is Clifford 0,
    so a subset reaching past a train's end fires 0."""
    trains = np.array([seq + (-1,) * (MAX_PULSES - n) for n in range(1, MAX_PULSES + 1)
                       for seq in itertools.product(range(len(SEARCH_BASIS)), repeat=n)])
    prods = _subset_products(np.array([*(clifford_of_pulses([p]) for p in SEARCH_BASIS), 0])[trains])
    trains.setflags(write=False)
    prods.setflags(write=False)
    return trains, prods


@lru_cache(maxsize=1)
def _all_decompositions() -> dict[int, list[tuple[Pulse, ...]]]:
    """Lengths 0..MAX_PULSES, grouped by Clifford, ascending length then
    lexicographic by basis order.  A train is dropped when some adjacent
    pair of its pulses (subset code 3 << i) fires the identity; a pair
    reaching past the train's end fires 0."""
    trains, prods = train_products()
    lengths = np.count_nonzero(trains >= 0, axis=1)
    whole = prods[np.arange(len(prods)), (1 << lengths) - 2]
    kept = (prods[:, [(3 << i) - 1 for i in range(MAX_PULSES - 1)]] != 1).all(axis=1)
    table: dict[int, list[tuple[Pulse, ...]]] = {c: [] for c in range(1, 25)}
    table[1].append(())
    for seq, c in zip(trains[kept].tolist(), whole[kept].tolist()):
        table[c].append(tuple(SEARCH_BASIS[i] for i in seq if i >= 0))
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
