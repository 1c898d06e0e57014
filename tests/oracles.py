"""Independent reference implementations used only by the tests.

brute_force_min_pulses implements the exhaustive merge search directly:
every per-qubit decomposition choice is merged over every pulse
interleaving (a pulse emitted for one qubit advances every qubit whose next
pulse matches).  None of the production shortcuts (coverage tiers, bounds,
phase splits, canonicalization) are used, so it is a genuinely independent
check of the optimal compiler, feasible for one or two qubits.

exact_census computes the mean minimum pulse count over all 24^n Clifford
tuples without any cliffcast code: its own rotation matrices, group
closure, coverage of every pulse train and surjection counts.

iterate_rate_equation iterates the leakage balance round by round.

lindblad_exchange propagates the full two-qubit density matrix under the
Lindblad equation (flip-flop coupling plus amplitude damping on each qubit)
with scipy's matrix exponential, taking plain floats and no cliffcast code.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from cliffcast.clifford import compose, pulse_clifford_map
from cliffcast.decomp import enumerate_decompositions


@lru_cache(maxsize=None)
def _merge_min(suffixes: tuple) -> int:
    """Fewest events completing all suffixes (tuples of Clifford ids of the
    remaining pulses); emitting a front pulse advances every matching qubit."""
    fronts = {s[0] for s in suffixes if s}
    if not fronts:
        return 0
    best = 99
    for p in fronts:
        advanced = tuple(
            sorted(s[1:] if (s and s[0] == p) else s for s in suffixes)
        )
        best = min(best, 1 + _merge_min(advanced))
    return best


def brute_force_min_pulses(combo) -> int:
    """Exhaustive minimum event count over all decomposition choices and
    interleavings; identity qubits contribute an empty pulse sequence."""
    cmap = pulse_clifford_map()
    per_qubit = []
    for c in combo:
        if c == 1:
            continue
        decs = [
            tuple(cmap[p] for p in d.pulses)
            for d in enumerate_decompositions(c)
            if d.pulses
        ]
        per_qubit.append(decs)
    if not per_qubit:
        return 0
    best = 99
    for choice in itertools.product(*per_qubit):
        longest = max(len(d) for d in choice)
        if longest >= best:
            continue
        best = min(best, _merge_min(tuple(sorted(choice))))
    return best


def iterate_rate_equation(m: int, kappa: float, t21: float, np_mean: float,
                          tp: float) -> float:
    """m-fold iteration of the leakage balance from zero population."""
    p2 = 0.0
    dt = tp * np_mean
    for _ in range(m):
        p2 = p2 + dt * kappa - (dt / t21) * p2
    return p2


def lindblad_exchange(j_over_2pi_khz: float, t1_a_ns: float, t1_b_ns: float,
                      t_ns: float) -> tuple[float, float]:
    """Excited populations (p1_a, p1_b) at t_ns, starting from |10>.

    The 4x4 density matrix is vectorized row by row, vec(A rho B) =
    kron(A, B^T) vec(rho), and propagated by expm of the 16x16 generator
    L = -i[H, .] + sum_k D[sqrt(1/T1_k) sigma-_k], with
    H = J (sigma+_a sigma-_b + sigma-_a sigma+_b) and J in rad/ns.
    t1 values may be math.inf.
    """
    j = 2 * math.pi * j_over_2pi_khz * 1e-6
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    eye2 = np.eye(2)
    lower_a, lower_b = np.kron(lower, eye2), np.kron(eye2, lower)
    h = j * (lower_a.conj().T @ lower_b + lower_b.conj().T @ lower_a)
    eye4 = np.eye(4)
    gen = -1j * (np.kron(h, eye4) - np.kron(eye4, h.T))
    for t1, op in ((t1_a_ns, lower_a), (t1_b_ns, lower_b)):
        c = math.sqrt(1.0 / t1) * op
        cdc = c.conj().T @ c
        gen += np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye4) - 0.5 * np.kron(eye4, cdc.T)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[2, 2] = 1.0  # index 2*a + b: qubit a excited, b ground
    rho = (expm(gen * t_ns) @ rho0.ravel()).reshape(4, 4)
    return (rho[2, 2] + rho[3, 3]).real, (rho[1, 1] + rho[3, 3]).real


# --- exact pulse-count census ---------------------------------------------
# Shares nothing with cliffcast: the Cliffords are the closure of six plain
# 2x2 rotation matrices, a target set's cost is the shortest pulse train
# that realizes every Clifford in it as the product of some firing subset,
# and the mean over all 24^n tuples is a sum over target sets weighted by
# surjection counts.


def _rotation(axis: str, quarter_turns: int) -> np.ndarray:
    """exp(-i theta sigma_axis / 2) with theta = quarter_turns * pi / 2."""
    sigma = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
             "y": np.array([[0, -1j], [1j, 0]], dtype=complex)}[axis]
    theta = quarter_turns * math.pi / 2
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * sigma


# X180, Y180, X90, X-90, Y90, Y-90
_ROTATIONS = [_rotation(a, q) for a, q in
              (("x", 2), ("y", 2), ("x", 1), ("x", -1), ("y", 1), ("y", -1))]


def _phase_free_key(u: np.ndarray) -> tuple:
    """Hashable key of a 2x2 unitary up to global phase: the matrix scaled
    so that its first sizeable entry is real and positive, then rounded."""
    flat = u.ravel()
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-6)[0]]
    return tuple(np.round(flat * (abs(lead) / lead), 6).tolist())


@lru_cache(maxsize=None)
def _clifford_group():
    """The group generated by the six rotations, as its table:
    table[c][p] is the element reached by applying rotation p after element
    c; element 0 is the identity."""
    elements = [np.eye(2, dtype=complex)]
    index = {_phase_free_key(elements[0]): 0}
    table = []
    for u in elements:  # grows while iterating: breadth-first closure
        row = []
        for r in _ROTATIONS:
            v = r @ u
            key = _phase_free_key(v)
            if key not in index:
                index[key] = len(elements)
                elements.append(v)
            row.append(index[key])
        table.append(row)
    return table


def _train_masks(length: int) -> set[int]:
    """Bitmask of the non-identity elements realizable by some firing subset,
    for every pulse train of the given length (bit c-1 marks element c)."""
    table = _clifford_group()
    masks = set()
    for train in itertools.product(range(len(_ROTATIONS)), repeat=length):
        mask = 0
        for fired in itertools.product((False, True), repeat=length):
            c = 0
            for p in itertools.compress(train, fired):
                c = table[c][p]
            if c:
                mask |= 1 << (c - 1)
        masks.add(mask)
    return masks


@lru_cache(maxsize=None)
def _census_cost_counts() -> tuple[tuple[int, ...], ...]:
    """counts[k][cost]: how many k-element sets of non-identity Cliffords
    cost that many pulses, over all 2^23 such sets."""
    bits = len(_clifford_group()) - 1
    assert bits == 23
    full = (1 << bits) - 1
    cost = np.zeros(1 << bits, dtype=np.uint8)
    for length in range(1, 5):
        covered = np.zeros(1 << bits, dtype=bool)
        covered[list(_train_masks(length))] = True
        for b in range(bits):  # every subset of a covered set is covered
            view = covered.reshape(-1, 2, 1 << b)
            view[:, 0, :] |= view[:, 1, :]
        cost[(cost == 0) & covered] = length
    # A five-pulse train realizes all 24 elements, so anything longer than
    # four pulses costs exactly five.
    assert full in _train_masks(5)
    cost[cost == 0] = 5
    # A round in which nothing fires (all identities) is charged one slot.
    cost[0] = 1
    size = np.zeros(1 << bits, dtype=np.int64)
    for b in range(bits):
        size[1 << b:2 << b] = size[:1 << b] + 1
    counts = np.bincount(size * 6 + cost, minlength=(bits + 1) * 6)
    return tuple(tuple(int(v) for v in row) for row in counts.reshape(bits + 1, 6))


def _surjections(n: int, k: int) -> int:
    """Number of n-tuples whose set of distinct entries is a given k-set."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))


def exact_census(n: int) -> Fraction:
    """Exact mean minimum pulses per round over all 24^n Clifford tuples.

    A tuple whose distinct non-identity elements form the set S costs
    cost(S) whether or not the identity also occurs; tuples with exactly
    the set S number surj(n, |S|), with S plus the identity surj(n, |S|+1).
    """
    total = 0
    count = 0
    for k, row in enumerate(_census_cost_counts()):
        tuples = _surjections(n, k) + _surjections(n, k + 1)
        count += sum(row) * tuples
        total += sum(c * v for c, v in enumerate(row)) * tuples
    assert count == 24**n
    return Fraction(total, count)
