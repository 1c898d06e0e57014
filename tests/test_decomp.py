import hashlib
import itertools

import numpy as np
import pytest

from cliffcast.clifford import Pulse, clifford_of_pulses, compose, pulse_clifford_map
from cliffcast.decomp import (
    MAX_PULSES,
    SEARCH_BASIS,
    TOTAL_DECOMPOSITION_COUNT,
    decomposition_census,
    enumerate_decompositions,
    sequence_products,
)
from oracles import verify_decomposition


# SHA-256 of repr([sequence_products(n) for n in 1..4]): every train and the
# Clifford fired by each subset of it, as plain ints, frozen.
SEQUENCE_PRODUCTS_DIGEST = "5e61af739923b567964bf01716bf392fb50fa3c65a66b317bedd60e3bce301de"


def test_sequence_products_are_frozen():
    tables = [sequence_products(n) for n in range(1, MAX_PULSES + 1)]
    assert [len(t) for t in tables] == [6**n for n in range(1, MAX_PULSES + 1)]
    assert all(type(c) is int for _, prods in tables[-1] for c in prods)
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == SEQUENCE_PRODUCTS_DIGEST


def test_identity_includes_empty():
    decs = enumerate_decompositions(1)
    assert decs[0].pulses == ()


def test_x180_short_decompositions():
    seqs = [d.pulses for d in enumerate_decompositions(4)]
    assert (Pulse.X180,) in seqs
    assert (Pulse.X90, Pulse.X90) in seqs


def test_every_decomposition_reverifies():
    for c in range(1, 25):
        for d in enumerate_decompositions(c):
            assert verify_decomposition(d)


def test_no_adjacent_cancelling_pair():
    cmap = pulse_clifford_map()
    for c in range(1, 25):
        for d in enumerate_decompositions(c):
            ids = [cmap[p] for p in d.pulses]
            for a, b in zip(ids, ids[1:]):
                assert compose(a, b) != 1


def test_ordering_ascending_length_then_lexicographic():
    index = {p: i for i, p in enumerate(SEARCH_BASIS)}
    for c in range(1, 25):
        keys = [
            (len(d.pulses), tuple(index[p] for p in d.pulses))
            for d in enumerate_decompositions(c)
        ]
        assert keys == sorted(keys)


def test_enumeration_matches_direct_brute_force():
    """Independent filtered brute force over the search basis must reproduce
    the module output exactly."""
    cmap = pulse_clifford_map()
    ids = [cmap[p] for p in SEARCH_BASIS]
    grouped: dict[int, list] = {c: [()] if c == 1 else [] for c in range(1, 25)}
    for length in range(1, MAX_PULSES + 1):
        for seq in itertools.product(range(len(SEARCH_BASIS)), repeat=length):
            if any(compose(ids[a], ids[b]) == 1 for a, b in zip(seq, seq[1:])):
                continue
            c = 1
            for k in seq:
                c = compose(c, ids[k])
            grouped[c].append(tuple(SEARCH_BASIS[k] for k in seq))
    for c in range(1, 25):
        assert [d.pulses for d in enumerate_decompositions(c)] == grouped[c]


def test_census_counts():
    counts, mean = decomposition_census()
    assert all(v >= 1 for v in counts.values())
    assert counts[1] >= 1
    assert sum(counts.values()) == TOTAL_DECOMPOSITION_COUNT
    assert 30 <= mean <= 46


def test_max_length_four():
    for c in range(1, 25):
        assert max(len(d.pulses) for d in enumerate_decompositions(c)) <= 4


def test_bad_id_rejected():
    with pytest.raises(ValueError):
        enumerate_decompositions(0)


@pytest.mark.parametrize("bad", [2.5, 2.0, "2"])
def test_non_integer_id_rejected(bad):
    """A float or string id is a ValueError, not a KeyError from the table
    or the decompositions of int(id); numpy integer ids are accepted."""
    with pytest.raises(ValueError):
        enumerate_decompositions(bad)
    assert enumerate_decompositions(np.int64(2)) == enumerate_decompositions(2)
