import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcast import clifford as cl
from cliffcast.clifford import (
    CANONICAL_UNITARIES,
    FIVE_PRIMITIVES,
    FIVE_PRIMITIVES_INVERTED,
    FIVE_PRIMITIVE_MASKS,
    FIVE_PRIMITIVE_MASKS_INVERTED,
    MINIMAL_DECOMPOSITIONS,
    Pulse,
    clifford_of_pulses,
    compose,
    five_primitive_mask,
    inverse,
    minimal_decomposition,
    pulse_unitary,
    recovery_clifford,
    sequence_unitary,
)
from cliffcast.sim import apply_pulse
from oracles import derive_inverted_masks, equal_up_to_phase, equatorial_rotation

I2 = np.eye(2)


def test_pulse_unitaries_are_unitary():
    for p in Pulse:
        u = pulse_unitary(p)
        assert np.allclose(u.conj().T @ u, I2, atol=1e-12)


def test_identity_pulse_is_identity():
    assert np.allclose(pulse_unitary(Pulse.I), I2)


@pytest.mark.parametrize("axis, angle, phase", [
    ("x", np.pi, 0.0), ("y", np.pi / 2, 0.0), ("x", -np.pi / 2, 0.3),
    ("y", 1.03 * np.pi, -0.1), ("x", 0.0, 0.2), ("i", 0.0, 0.0),
])
def test_rotation_unitary_is_memoised_and_read_only(axis, angle, phase):
    u = cl.rotation_unitary(axis, angle, phase)
    assert cl.rotation_unitary(axis, angle, phase) is u
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0
    expected = I2 if axis == "i" else equatorial_rotation(axis, angle, phase)
    assert np.max(np.abs(u - expected)) < 1e-15


def test_identity_rotation_is_the_shared_read_only_identity():
    assert cl.rotation_unitary("i", 0.0) is cl._I2
    assert cl.rotation_unitary("y", 0.0, 0.4) is cl._I2
    assert pulse_unitary(Pulse.I) is cl._I2
    assert not cl._I2.flags.writeable


# sha256 of every pulse_unitary, then of the sequence_unitary of each
# minimal decomposition, both five-primitive rounds and the empty sequence,
# recorded before rotation_unitary was memoised.
PULSE_PRODUCTS_DIGEST = "e905237e9f368203a340efafeea6657af2a971a557dd4bdbe6932c7a3a7b2f1a"


def test_pulse_products_are_pinned():
    """The products of the read-only rotations are unchanged, and fresh,
    writable arrays."""
    h = hashlib.sha256()
    for p in Pulse:
        h.update(pulse_unitary(p).tobytes())
    for pulses in [*MINIMAL_DECOMPOSITIONS.values(), FIVE_PRIMITIVES,
                   FIVE_PRIMITIVES_INVERTED, ()]:
        u = sequence_unitary(pulses)
        assert u.flags.writeable and u is not cl._I2
        h.update(u.tobytes())
    assert h.hexdigest() == PULSE_PRODUCTS_DIGEST


def test_identity_pulse_leaves_a_fresh_state():
    state = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    out = apply_pulse(state, Pulse.I)
    assert out is not state and out.flags.writeable
    out[0, 0] = 0.0
    assert state[0, 0] == 0.75


def test_x180_is_minus_i_sigma_x():
    u = pulse_unitary(Pulse.X180)
    assert np.allclose(np.diag(u), 0)
    assert np.allclose(u[0, 1], -1j) and np.allclose(u[1, 0], -1j)


def test_inverse_pulse_pairs_cancel():
    pairs = [
        (Pulse.X90, Pulse.XM90),
        (Pulse.Y90, Pulse.YM90),
        (Pulse.X180, Pulse.XM180),
        (Pulse.Y180, Pulse.YM180),
    ]
    for p, q in pairs:
        assert equal_up_to_phase(sequence_unitary([p, q]), I2)


def test_canonical_unitaries_pairwise_distinct():
    for i in range(24):
        for j in range(i + 1, 24):
            assert not equal_up_to_phase(
                CANONICAL_UNITARIES[i], CANONICAL_UNITARIES[j]
            ), (i + 1, j + 1)


def test_group_closure():
    for a in range(1, 25):
        for b in range(1, 25):
            assert 1 <= compose(a, b) <= 24


def test_identity_element_and_inverse_law():
    for k in range(1, 25):
        assert compose(1, k) == k
        assert compose(k, 1) == k
        assert compose(k, inverse(k)) == 1


def test_compose_order_convention():
    # X180 then Y180 is the Clifford listed as their product row
    assert compose(4, 7) == 10
    assert clifford_of_pulses([Pulse.X180, Pulse.Y180]) == 10


def test_clifford_of_pulses_examples():
    assert clifford_of_pulses([Pulse.I]) == 1
    assert clifford_of_pulses([Pulse.X90, Pulse.XM90]) == 1


# SHA-256 over the bytes of the int8 compose (25 x 25) and inverse (25)
# tables, recorded before the tables were built by one vectorised match.
GROUP_TABLES_DIGEST = "45ad301f1f07c452b53ffc45ee79f4b8680abb53f8af98e01a363de355fe7ac4"


def test_group_tables_frozen():
    assert cl._COMPOSE_TABLE.shape == (25, 25) and cl._INVERSE_TABLE.shape == (25,)
    h = hashlib.sha256()
    for table in (cl._COMPOSE_TABLE, cl._INVERSE_TABLE):
        assert table.dtype == np.int8
        h.update(table.tobytes())
    assert h.hexdigest() == GROUP_TABLES_DIGEST


def test_inverse_matches_matrix_inversion():
    for a in range(1, 25):
        inv_u = np.linalg.inv(CANONICAL_UNITARIES[a - 1])
        expected = None
        for c in range(1, 25):
            if equal_up_to_phase(inv_u, CANONICAL_UNITARIES[c - 1]):
                expected = c
                break
        assert inverse(a) == expected


def test_self_inverse_pi_rotations():
    assert inverse(1) == 1
    assert inverse(4) == 4
    assert inverse(7) == 7


def test_recovery_empty_sequence():
    assert recovery_clifford([]) == 1


def test_recovery_two_step():
    assert recovery_clifford([4, 7]) == inverse(10)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 24), min_size=1, max_size=100))
def test_recovery_returns_to_identity(seq):
    rec = recovery_clifford(seq)
    u = I2.astype(complex)
    for c in list(seq) + [rec]:
        u = CANONICAL_UNITARIES[c - 1] @ u
    assert abs(abs(np.trace(u)) - 2.0) < 1e-9


@pytest.mark.parametrize("m", [0, 1, 2, 3, 17, 800])
def test_batched_recovery_matches_scalar_rows(m):
    """A (k, m) array gives each row's recovery: the left-to-right fold of
    compose, inverted, and the 1-d call on that row.  No columns recover
    with the identity."""
    seqs = np.random.default_rng(m).integers(1, 25, size=(6, m))
    got = recovery_clifford(seqs)
    assert got.shape == (6,) and got.dtype == np.int64
    for row, rec in zip(seqs.tolist(), got.tolist()):
        acc = 1
        for c in row:
            acc = compose(acc, c)
        scalar = recovery_clifford(row)
        assert type(scalar) is int and rec == scalar == inverse(acc)
    if m == 0:
        assert got.tolist() == [1] * 6


@pytest.mark.parametrize("bad", [[0], [25, 3], [[1, 2], [3, 99]], [1.0, 2.0],
                                 [[[1]]], 4])
def test_recovery_rejects_bad_ids(bad):
    with pytest.raises(ValueError):
        recovery_clifford(bad)


def test_minimal_decomposition_rows():
    assert minimal_decomposition(1) == [Pulse.I]
    assert minimal_decomposition(18) == [Pulse.X90, Pulse.Y90, Pulse.X90]


def test_minimal_decompositions_reproduce_cliffords():
    for c in range(1, 25):
        assert clifford_of_pulses(MINIMAL_DECOMPOSITIONS[c]) == c


def test_clifford_of_pulses_takes_a_list_a_tuple_or_a_generator():
    """The memo is keyed by a tuple, so every iterable of the same pulses
    gives the same id: each minimal decomposition and every subset of both
    five-primitive rounds, as a list, a tuple and a single-use generator."""
    sequences = [MINIMAL_DECOMPOSITIONS[c] for c in range(1, 25)]
    for round_ in (FIVE_PRIMITIVES, FIVE_PRIMITIVES_INVERTED):
        sequences += [tuple(p for k, p in enumerate(round_) if m >> k & 1) for m in range(32)]
    for pulses in sequences:
        c = cl.match_unitary(sequence_unitary(pulses))
        assert clifford_of_pulses(list(pulses)) == clifford_of_pulses(tuple(pulses)) == c
        assert clifford_of_pulses(p for p in pulses) == c
    for c in range(1, 25):
        assert clifford_of_pulses(MINIMAL_DECOMPOSITIONS[c]) == c
        for round_, table in ((FIVE_PRIMITIVES, FIVE_PRIMITIVE_MASKS),
                              (FIVE_PRIMITIVES_INVERTED, FIVE_PRIMITIVE_MASKS_INVERTED)):
            fired = [p for p, b in zip(round_, table[c]) if b]
            assert clifford_of_pulses(iter(fired)) == clifford_of_pulses(fired) == c


def test_minimal_mean_length_is_1_875():
    total = sum(len(v) for v in MINIMAL_DECOMPOSITIONS.values())
    assert total / 24 == 1.875


def test_five_primitive_masks_reproduce_cliffords():
    for c in range(1, 25):
        mask = five_primitive_mask(c)
        fired = [p for p, b in zip(FIVE_PRIMITIVES, mask) if b]
        u = sequence_unitary(fired)
        assert equal_up_to_phase(u, CANONICAL_UNITARIES[c - 1]), c


def test_five_primitive_mask_rows():
    assert five_primitive_mask(1) == (0, 0, 0, 0, 0)
    assert five_primitive_mask(18) == (1, 1, 1, 0, 0)


def test_five_primitive_masks_distinct():
    masks = [five_primitive_mask(c) for c in range(1, 25)]
    assert len(set(masks)) == 24


def test_inverted_masks_reproduce_cliffords():
    for c in range(1, 25):
        mask = five_primitive_mask(c, inverted=True)
        fired = [p for p, b in zip(FIVE_PRIMITIVES_INVERTED, mask) if b]
        u = sequence_unitary(fired)
        assert equal_up_to_phase(u, CANONICAL_UNITARIES[c - 1]), c


def test_inverted_mask_table_regenerates():
    assert derive_inverted_masks() == FIVE_PRIMITIVE_MASKS_INVERTED


def test_inverted_round_inverts_normal_round():
    u = sequence_unitary(list(FIVE_PRIMITIVES) + list(FIVE_PRIMITIVES_INVERTED))
    assert equal_up_to_phase(u, I2)


def test_pulse_labels_round_trip_and_unknown_labels_are_rejected():
    assert [p.label for p in Pulse] == ["I", "X180", "Y180", "X90", "Y90",
                                        "X-180", "Y-180", "X-90", "Y-90"]
    for p in Pulse:
        assert Pulse.from_label(p.label) is p
    for label in ("X45", "x90", "", "Z180"):
        with pytest.raises(ValueError, match="unknown pulse label"):
            Pulse.from_label(label)


def test_pulses_hash_by_identity():
    """Members are singletons and hash as plain objects do, so a memo
    lookup of a fired pulse tuple never calls Enum's Python-level hash of
    the member's name; a pickled member still loads as itself."""
    assert Pulse.__hash__ is object.__hash__
    for p in Pulse:
        assert hash(p) == object.__hash__(p)
        assert pickle.loads(pickle.dumps(p)) is p


def test_bad_ids_rejected():
    with pytest.raises(ValueError):
        compose(0, 5)
    with pytest.raises(ValueError):
        inverse(25)
    with pytest.raises(ValueError):
        minimal_decomposition(-1)


@pytest.mark.parametrize("a, b", [(2.5, 3), (3, 2.0), ("2", 3)])
def test_compose_rejects_non_integer_ids(a, b):
    """A float or string id is a ValueError, not an IndexError from the
    compose table; numpy integer ids still compose."""
    with pytest.raises(ValueError):
        compose(a, b)
    assert compose(np.int64(2), np.uint8(3)) == compose(2, 3)
