"""Independent reference implementations used only by the tests.

brute_force_min_pulses implements the exhaustive merge search directly:
every per-qubit decomposition choice is merged over every pulse
interleaving (a pulse emitted for one qubit advances every qubit whose next
pulse matches).  None of the production shortcuts (the cover table, bounds,
phase splits, canonicalization) are used, so it is a genuinely independent
check of the optimal compiler, feasible for one or two qubits.

exact_census computes the mean minimum pulse count over all 24^n Clifford
tuples without any cliffcast code: its own rotation matrices, group
closure, coverage of every pulse train and surjection counts.
cost_distribution gives, from the same counts, the share of tuples at each
cost.

first_cover and plan_round plan one round at a time, the reference for
the batched planner (compiler.round_plans): one argmin over every train of
1..4 basis pulses, listed with itertools.product and each subset's
Clifford computed from its pulses' unitaries (not from
decomp.train_products), finds a round's first cover, and each qubit's
firing and each slot's pulse are read from that train one at a time.
first_cover is also the per-mask reference of the batched cost query and
of the compiler's cover table.  first_columns_scan is the first-column
query as one argmin over every cover column, the reference for the
compiler's half-mask lookup.

first_firing computes a compiled round from pulse unitaries alone: the
first train of a given length (lexicographic over the search basis) whose
subset products cover the targets, and for each qubit the first subset in
binary counting whose product is its target.  It shares no table with the
compiler.

verify_schedule re-checks a schedule event by event: its slot structure,
then each qubit's routed pulses, multiplied one at a time from rotation
matrices built from the pulse labels, against its target's minimal
decomposition up to phase.  It is the reference for Schedule.verify.
schedule_json_dict builds a schedule's JSON fields as a dict, so that
json.dumps(indent=2) is the reference for Schedule.to_json's bytes.
equal_up_to_phase is the tests' comparison of two 2x2 unitaries.

derive_inverted_masks regenerates the mirrored round's firing masks,
which the package derives from its compose table, by subset search over
pulse unitaries; verify_decomposition
re-checks one decomposition against the canonical unitaries.

iterate_rate_equation iterates the leakage balance round by round.

least_squares_exp and least_squares_leakage are scipy's bounded
trust-region least squares on the two fit models, written out without
cliffcast code: the decay fit with the start, box and tolerances the package
used before it fitted by variable projection, the leakage fit directly in
(kappa, T21), so that its errors see the plateau-rate correlation.

box_linear_fit solves the decay fit's inner problem at one fixed decay in
plain Python floats: the best (amplitude, offset) in their box, found by
pricing every KKT candidate from its residuals.  exp_fit_per_curve is the
decay fit as it ran one curve at a time, the bit-for-bit reference for the
batched fit.fit_exp_offsets.  exp_profile_every_point is the decay fit's
profile as it ran before the box was tested only at each curve's first
minimum: it tests every (curve, point) and prices the box edges at every
point outside, so it is the box-constrained cost everywhere, the
reference for fit._exp_profile at each curve's first minimum.

lindblad_exchange propagates the full two-qubit density matrix under the
Lindblad equation (flip-flop coupling plus amplitude damping on each qubit)
with scipy's matrix exponential, taking plain floats and no cliffcast code.

slot_transfer_matrix is one slot's 4x4 Pauli-transfer matrix, from the same
rotations and Kraus damping, the reference for the simulator's slot table.

slot_by_slot_benchmark is randomized benchmarking as the model states it:
one 2x2 density matrix per qubit, every pulse and its stray copies as
rotations, Kraus amplitude damping after every slot.  It takes schedules,
decompositions and recovery Cliffords from cliffcast but no code of
cliffcast.sim.

chain_product multiplies one stack of matrices pairwise, each level
halving it, later ones on the left.  benchmark_per_sequence is
sim._benchmark's pass as it ran before every sequence of a seed was
reduced at once and before a run was laid out from one draw per seed:
one draw and one recovery_clifford call per (seed, length) block, the
distinct rounds found from one row per qubit's ids rather than packed
keys, then one chain_product of each sequence's round channels, read
from the same round tables.  It is the bit-for-bit reference of the
batched reduction and the run layout, for p0, its seed scatter and the
four work counters.

round_channels builds any scheme's rounds as the simulator built them
before the fixed-train schemes read theirs from column tables: one
compiler.round_plans call, one lexsort of each qubit's packed slot
signature (1 + 2 * code + fired in a slot of the round, 0 past its end)
and one stacked product per slot.  It is the bit-for-bit reference of
sim._rounds for every scheme, the column tables' and the sequential
builder's.

allxy_staircase and amp_calibration rerun the diagnostic staircase and the
amplitude-calibration curve from the same rotations and damping, with no
code of cliffcast.sim: a drive phase error turns the y axis about z
(equatorial_rotation, also the reference for clifford.rotation_unitary),
and every calibration train restarts from the ground state.

allxy_per_pulse and amp_calibration_per_pulse are the two diagnostics as
they ran through cliffcast.sim's apply_pulse and relax before the
conjugations were hoisted: the staircase one apply_pulse call per distinct
pulse at each position and one relax, the calibration train one of each
per pulse.  They are the bit-for-bit references of simulate_allxy and
simulate_amp_calibration.

csv_text writes a CSV table value by value, one format call per float, the
reference for the CLI's one-operation writer.

cli_main_parse_args is cli.main with every line parsed by the top-level
parser's parse_args, whose subparser action runs the command's parser over
the rest of argv, then the same command.  It is the reference for main's
exit code, stdout and stderr on every argv, and it is also main's own path
for every line that cli._plain_args declines: help, usage errors and any
line that is not plain.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares

from cliffcast import cli, compiler, sim
from cliffcast.clifford import (
    CANONICAL_UNITARIES,
    FIVE_PRIMITIVE_MASKS,
    FIVE_PRIMITIVE_MASKS_INVERTED,
    FIVE_PRIMITIVES,
    FIVE_PRIMITIVES_INVERTED,
    MINIMAL_DECOMPOSITIONS,
    Pulse,
    clifford_of_pulses,
    compose,
    minimal_decomposition,
    recovery_clifford,
    sequence_unitary,
)
from cliffcast.decomp import SEARCH_BASIS, enumerate_decompositions
from cliffcast.fit import _AMPLITUDE_BOUNDS, _DECAY_BOUNDS, _OFFSET_BOUNDS, ExpFit
from cliffcast.sim import ALLXY_SEQUENCE, GROUND, apply_pulse, relax


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-9) -> bool:
    """Phase-insensitive 2x2 unitary equality: |tr(U^dag V)| == 2 within tol."""
    return abs(abs(np.trace(u.conj().T @ v)) - 2.0) < tol


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
    cmap = {p: clifford_of_pulses([p]) for p in Pulse}
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


@lru_cache(maxsize=None)
def _subset_cliffords(train: tuple) -> tuple[int, ...]:
    """The Clifford of every non-empty subset of the train, subset code
    order (bit k = pulse k), each from its pulses' unitaries."""
    return tuple(clifford_of_pulses([p for k, p in enumerate(train) if code >> k & 1])
                 for code in range(1, 1 << len(train)))


def first_firing(combo, length: int):
    """(train, fired slots per qubit) for the first train of the given
    length that covers every non-identity target; identity qubits fire
    nothing.  None when no train of that length covers them."""
    targets = {c for c in combo if c != 1}
    for train in itertools.product(SEARCH_BASIS, repeat=length):
        cliffs = _subset_cliffords(train)
        if targets <= set(cliffs):
            fired = [() if c == 1 else
                     tuple(k for k in range(length) if (cliffs.index(c) + 1) >> k & 1)
                     for c in combo]
            return train, fired
    return None


@lru_cache(maxsize=1)
def _cover_trains() -> tuple:
    """(trains, uncovered): every train (pulses, subset Cliffords) of 1..4
    basis pulses, in ascending length and then itertools.product order,
    and the bits of the non-identity Cliffords each one cannot fire, as an
    int64 array."""
    trains = [(train, _subset_cliffords(train)) for n in range(1, 5)
              for train in itertools.product(SEARCH_BASIS, repeat=n)]
    every = sum(1 << (c - 1) for c in range(2, 25))
    uncovered = [every & ~sum({1 << (c - 1) for c in prods}) for _, prods in trains]
    return trains, np.array(uncovered, dtype=np.int64)


def first_cover(mask: int) -> tuple | None:
    """The first train (pulses, subset Cliffords) of 1..4 basis pulses that
    misses none of the targets in the mask: the shortest and, among those,
    the lexicographically first cover.  None when no train of four pulses
    covers the mask."""
    trains, uncovered = _cover_trains()
    missed = uncovered & mask  # the targets each train cannot fire
    first = int(missed.argmin())
    return None if missed[first] else trains[first]


def first_columns_scan(masks, columns) -> np.ndarray:
    """Index of each target mask's first column (an int64 array) that
    misses no target, its AND with the mask being zero, by an argmin over
    every column, 64 masks at a time (a 64 x 151 temporary is 77 KB): the
    reference for compiler._first_columns on the cover table's columns."""
    masks = np.asarray(masks, dtype=np.int64)[:, None]
    return np.concatenate([(masks[s:s + 64] & columns).argmin(axis=1)
                           for s in range(0, len(masks) or 1, 64)])  # >= 1 chunk


def plan_round(combo, scheme: str, parity: int = 0) -> tuple:
    """(pulses, fires) of one round, as one row of compiler.round_plans: the
    pulse of each slot, None where no qubit fires, and each qubit's
    fired-slot bitmask, planned qubit by qubit."""
    def emitted(train, fires):
        fired = reduce(or_, fires, 0)
        return tuple(p if fired >> s & 1 else None for s, p in enumerate(train))

    def five(mirrored):
        table = FIVE_PRIMITIVE_MASKS_INVERTED if mirrored else FIVE_PRIMITIVE_MASKS
        fires = tuple(sum(b << s for s, b in enumerate(table[c])) for c in combo)
        return emitted(FIVE_PRIMITIVES_INVERTED if mirrored else FIVE_PRIMITIVES, fires), fires

    if scheme in ("minimal", "sequential"):
        pulses, fires = [], []
        for c in combo:  # a minimal round fires the identity's one I pulse
            steps = () if c == 1 and scheme == "sequential" else MINIMAL_DECOMPOSITIONS[c]
            fires.append(sum(1 << s for s in range(len(pulses), len(pulses) + len(steps))))
            pulses.extend(steps)
        return tuple(pulses), tuple(fires)
    if scheme in ("five-primitives", "five-primitives-symmetric"):
        return five(scheme != "five-primitives" and parity % 2 == 1)
    mask = sum({1 << (c - 1) for c in combo if c != 1})
    if mask == 0:
        return (), (0,) * len(combo)
    cover = first_cover(mask)
    if cover is None:
        return five(False)
    train, prods = cover
    fires = tuple(0 if c == 1 else prods.index(c) + 1 for c in combo)
    return emitted(train, fires), fires


def derive_inverted_masks() -> dict[int, tuple[int, ...]]:
    """Regenerate the inverted-round masks by exhaustive subset search.

    For each Clifford the first matching subset in binary counting order
    (bit 0 = first primitive) is chosen, which makes the table deterministic.
    """
    masks: dict[int, tuple[int, ...]] = {}
    for c in range(1, 25):
        target = CANONICAL_UNITARIES[c - 1]
        for code in range(32):
            bits = tuple((code >> i) & 1 for i in range(5))
            fired = [p for p, b in zip(FIVE_PRIMITIVES_INVERTED, bits) if b]
            if equal_up_to_phase(sequence_unitary(fired), target):
                masks[c] = bits
                break
        else:
            raise RuntimeError(f"no inverted-round subset found for Clifford {c}")
    return masks


def verify_decomposition(d) -> bool:
    """Re-check a decomposition against the canonical unitaries."""
    if not d.pulses:
        return d.clifford == 1
    return clifford_of_pulses(d.pulses) == d.clifford


def iterate_rate_equation(m: int, kappa: float, t21: float, np_mean: float,
                          tp: float) -> float:
    """m-fold iteration of the leakage balance from zero population."""
    p2 = 0.0
    dt = tp * np_mean
    for _ in range(m):
        p2 = p2 + dt * kappa - (dt / t21) * p2
    return p2


def least_squares_exp(m_values, y_values, weights, x0=None):
    """scipy's fit of y = a * p**m + b in the box a in [-2, 2], p in [1e-9, 1],
    b in [-1, 2], minimising sum((weights * residual)**2).

    Starts from x0 = (a, p, b) if given, else from offset = last sample,
    amplitude = first - last and the decay of a log-linear regression of
    |y - offset|, each clipped into the box.  Returns scipy's result, whose
    cost is half the sum and whose status is 0 when it stopped at its
    evaluation limit.
    """
    m = np.asarray(m_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if x0 is None:
        b0 = float(y[-1])
        a0 = float(y[0] - y[-1]) or 1e-3
        resid = np.abs(y - b0)
        good = resid > 1e-12
        p0 = 0.99
        if good.sum() >= 2:
            slope = np.polyfit(m[good], np.log(resid[good]), 1)[0]
            p0 = float(np.exp(np.clip(slope, -5.0, 0.0)))
        x0 = (min(max(a0, -2.0), 2.0), min(max(p0, 1e-6), 1.0 - 1e-9),
              min(max(b0, -1.0), 2.0))
    return least_squares(lambda x: (x[0] * x[1] ** m + x[2] - y) * weights,
                         x0=x0, bounds=([-2.0, 1e-9, -1.0], [2.0, 1.0, 2.0]),
                         method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-14)


def box_linear_fit(u: float, m_values, y_values, w2_values) -> tuple[float, float, float]:
    """The least sum(w2 * (a * exp(-u * m) + b - y)**2) over a in [-2, 2],
    b in [-1, 2] at fixed u, as (cost, a, b).

    The problem is convex, so its optimum is a KKT point: the unconstrained
    optimum where it lies in the box, else a point of an edge, that is one
    parameter on a bound and the other its 1-D optimum clipped, or a
    corner.  Every candidate is priced from its residuals with math.fsum.
    """
    u = float(u)
    m, y, w2 = ([float(v) for v in vs] for vs in (m_values, y_values, w2_values))
    x = [math.exp(-u * mi) for mi in m]
    sw = math.fsum(w2)

    def cost(a, b):
        return math.fsum(w * (a * xi + b - yi) ** 2 for w, xi, yi in zip(w2, x, y))

    def clip(v, lo, hi):
        return min(max(v, lo), hi)

    swxx = math.fsum(w * xi * xi for w, xi in zip(w2, x))
    candidates = [(a, b) for a in (-2.0, 2.0) for b in (-1.0, 2.0)]
    for a in (-2.0, 2.0):
        candidates.append((a, clip(math.fsum(w * (yi - a * xi) for w, xi, yi in zip(w2, x, y))
                                   / sw, -1.0, 2.0)))
    for b in (-1.0, 2.0):
        if swxx > 0:
            candidates.append((clip(math.fsum(w * xi * (yi - b) for w, xi, yi in zip(w2, x, y))
                                    / swxx, -2.0, 2.0), b))
    # The unconstrained optimum from sums centred on x - 1, taken by expm1.
    x1 = [math.expm1(-u * mi) for mi in m]
    x1bar = math.fsum(w * v for w, v in zip(w2, x1)) / sw
    ybar = math.fsum(w * yi for w, yi in zip(w2, y)) / sw
    dx = [v - x1bar for v in x1]
    sxx = math.fsum(w * d * d for w, d in zip(w2, dx))
    if sxx > 0:
        a = math.fsum(w * d * (yi - ybar) for w, d, yi in zip(w2, dx, y)) / sxx
        b = ybar - a * (1.0 + x1bar)
        if -2.0 <= a <= 2.0 and -1.0 <= b <= 2.0:
            candidates.append((a, b))
    return min((cost(a, b), a, b) for a, b in candidates)


def exp_profile_every_point(m, y, w2):
    """The profile of weighted curves at the lengths m (y and w2 one row per
    curve, or one curve): a function that gives, for each u = -log(decay),
    the cost of the best (amplitude, offset) in their box, with those two
    parameters.  u is a (curves, points) array, or one row of points for
    every curve.

    With x = exp(-u m), the unconstrained 2x2 optimum is a = sxy / sxx,
    b = ybar - a xbar (weighted means and centred sums; x - 1 is taken from
    expm1 so that the centring loses nothing near decay 1).  Any other
    (a, b) costs more by sxx (a - a_opt)**2 + sw (b + a xbar - ybar)**2.
    The optimum in the box is the unconstrained one where that lies inside,
    else the best of the four edges, each a 1-D problem solved by clipping.
    The edges are priced only at the (curve, point) pairs whose optimum
    leaves the box, so a grid that lies inside it everywhere skips them.
    The sums over y alone are taken once per curve, and every weighted sum
    is a stacked matrix-vector product with the curve's (lengths, 1) weights.
    """
    sw = w2.sum(axis=-1)[..., None, None]
    w2 = w2[..., None]
    ybar = y[..., None, :] @ w2 / sw
    dy = y[..., None, :] - ybar
    w2dy = w2 * dy.swapaxes(-1, -2)
    minus_m = -m
    a_lo, a_hi = _AMPLITUDE_BOUNDS
    b_lo, b_hi = _OFFSET_BOUNDS
    b_edges = np.array([[b_lo], [b_hi]])

    def profile(u):
        # Every sum keeps its trailing axis of 1: (curves, points, 1).
        x1 = np.expm1(u[..., None] * minus_m)
        x1bar = x1 @ w2 / sw
        dx = x1 - x1bar
        sxx = dx**2 @ w2
        sxy = dx @ w2dy
        positive = sxx > 0
        a_opt = np.divide(sxy, sxx, out=np.zeros(sxx.shape), where=positive)
        cost = ((a_opt * dx - dy) ** 2 @ w2)[..., 0]
        xbar = 1.0 + x1bar
        b_opt = ybar - a_opt * xbar
        # The amplitude box is symmetric, so |a| <= a_hi tests both its edges.
        inside = (positive & (np.abs(a_opt) <= a_hi) & (b_lo <= b_opt) & (b_opt <= b_hi))[..., 0]
        a_opt, b_opt = a_opt[..., 0], b_opt[..., 0]
        if np.count_nonzero(inside) == inside.size:
            return cost, (a_opt, b_opt)
        # Flat indices of the (curve, point) pairs outside, and their curves.
        j = np.flatnonzero(~inside)
        row = j // inside.shape[-1]
        sxx, sxy, xbar = sxx.take(j), sxy.take(j), xbar.take(j)
        sw_j, ybar_j = sw.take(row), ybar.take(row)
        # Candidates on the edges: a on each bound, then b.
        a = np.empty((4, sxx.size))
        b = np.empty((4, sxx.size))
        a[0], a[1], a[2:] = a_lo, a_hi, 0.0
        sx2 = sxx + sw_j * xbar**2
        np.divide(sxy + sw_j * xbar * (ybar_j - b_edges), sx2, out=a[2:], where=sx2 > 0)
        np.clip(a[2:], a_lo, a_hi, out=a[2:])
        b[2], b[3] = b_lo, b_hi
        np.clip(ybar_j - a[:2] * xbar, b_lo, b_hi, out=b[:2])
        excess = sw_j * (b + a * xbar - ybar_j) ** 2 + np.divide(
            (sxx * a - sxy) ** 2, sxx, out=np.zeros_like(a), where=sxx > 0)
        best = np.argmin(excess, axis=0)
        k = np.arange(sxx.size)
        cost.put(j, cost.take(j) + excess[best, k])
        a_opt.put(j, a[best, k])
        b_opt.put(j, b[best, k])
        return cost, (a_opt, b_opt)

    return profile



def exp_fit_per_curve(m_values, y_values, y_err=None) -> ExpFit:
    """fit.fit_exp_offset as it fitted one curve at a time, the reference for
    the batched fit.fit_exp_offsets: the same box, grid, zooms, zero-error
    rule and Jacobian errors, with every sum taken over one curve's 1-d
    arrays and each zoom's neighbours read one at a time."""
    m = np.asarray(m_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if m.ndim != 1 or m.shape != y.shape:
        raise ValueError("lengths and values must be 1-d and of equal length")
    if m.size < 4:
        raise ValueError("need at least 4 points to fit")
    if not (np.all(np.isfinite(m) & (m >= 0)) and np.all(np.isfinite(y))):
        raise ValueError("lengths must be finite and non-negative, values finite")
    if y_err is not None:
        y_err = np.asarray(y_err, dtype=float)
        if y_err.shape != y.shape:
            raise ValueError("y_err must match y_values")
        if not np.all(np.isfinite(y_err) & (y_err >= 0)):
            raise ValueError("y_err must be finite and not negative")
        y_err = np.where(y_err > 0, y_err, np.max(y_err[y_err > 0], initial=1.0))
    if np.all(np.abs(y - y[0]) <= 1e-12):
        return ExpFit(0.0, 1.0, float(np.mean(y)), (0.0, 0.0, 0.0), 0.0, ("decay",))

    w = 1.0 / y_err if y_err is not None else np.ones_like(y)
    w2 = w * w
    sw = w2.sum()
    ybar = w2 @ y / sw
    dy = y - ybar
    w2dy = w2 * dy
    (a_lo, a_hi), (p_lo, _), (b_lo, b_hi) = _AMPLITUDE_BOUNDS, _DECAY_BOUNDS, _OFFSET_BOUNDS
    b_edges = np.array([[b_lo], [b_hi]])

    def profile(u):
        x1 = np.expm1(-u[:, None] * m)
        x1bar = x1 @ w2 / sw
        dx = x1 - x1bar[:, None]
        sxx = dx**2 @ w2
        sxy = dx @ w2dy
        a_opt = np.divide(sxy, sxx, out=np.zeros_like(sxx), where=sxx > 0)
        cost = (a_opt[:, None] * dx - dy) ** 2 @ w2
        xbar = 1.0 + x1bar
        b_opt = ybar - a_opt * xbar
        linear = np.array([a_opt, b_opt])
        inside = ((sxx > 0) & (a_lo <= a_opt) & (a_opt <= a_hi)
                  & (b_lo <= b_opt) & (b_opt <= b_hi))
        if inside.all():
            return cost, linear
        j = np.flatnonzero(~inside)
        sxx, sxy, xbar = sxx[j], sxy[j], xbar[j]
        a = np.empty((4, j.size))
        b = np.empty((4, j.size))
        a[0], a[1], a[2:] = a_lo, a_hi, 0.0
        sx2 = sxx + sw * xbar**2
        np.divide(sxy + sw * xbar * (ybar - b_edges), sx2, out=a[2:], where=sx2 > 0)
        np.clip(a[2:], a_lo, a_hi, out=a[2:])
        b[2], b[3] = b_lo, b_hi
        np.clip(ybar - a[:2] * xbar, b_lo, b_hi, out=b[:2])
        excess = sw * (b + a * xbar - ybar) ** 2 + np.divide(
            (sxx * a - sxy) ** 2, sxx, out=np.zeros_like(a), where=sxx > 0)
        best = np.argmin(excess, axis=0)
        k = np.arange(j.size)
        cost[j] += excess[best, k]
        linear[:, j] = a[best, k], b[best, k]
        return cost, linear

    u_max = -math.log(p_lo)
    grid = np.concatenate([[0.0], np.geomspace(1e-6 / max(float(m.max()), 1.0), u_max, 63)])
    steps = np.linspace(0.0, 1.0, 33)
    cost, linear = profile(grid)
    for _ in range(8):
        i = int(np.argmin(cost))
        lo, t, hi = grid[max(i - 1, 0)], grid[i], grid[min(i + 1, grid.size - 1)]
        grid = np.concatenate([lo + (t - lo) * steps[:-1], t + (hi - t) * steps])
        cost, linear = profile(grid)
    i = int(np.argmin(cost))
    u, (a, b) = float(grid[i]), linear[:, i].tolist()

    p = math.exp(-u) if u < u_max else p_lo
    x = p**m
    resid = a * x + b - y
    jac = np.column_stack([x, a * m * p ** (m - 1.0), np.ones_like(m)]) * w[:, None]
    r = resid * w
    try:
        cov = np.linalg.inv(jac.T @ jac) * (float(r @ r) / max(m.size - 3, 1))
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), np.nan)
    err = np.sqrt(np.maximum(np.diag(cov), 0.0))
    at_bound = tuple(name for name, v, bounds in (("amplitude", a, _AMPLITUDE_BOUNDS),
                                                  ("decay", p, _DECAY_BOUNDS),
                                                  ("offset", b, _OFFSET_BOUNDS))
                     if v in bounds)
    return ExpFit(a, p, b, (float(err[0]), float(err[1]), float(err[2])),
                  float(np.sqrt(np.mean(resid**2))), at_bound)


def least_squares_leakage(m_values, p2_values, np_mean: float, tp_ns: float,
                          kappa0: float, t21_0: float):
    """scipy's fit of p2 = kappa * T21 * (1 - (1 - np_mean * tp / T21)**m)
    made directly in (kappa, T21), from (kappa0, t21_0).

    Returns (kappa, t21), their 1-sigma errors from scipy's Jacobian and the
    sum of squared residuals.
    """
    m = np.asarray(m_values, dtype=float)
    p2 = np.asarray(p2_values, dtype=float)
    dt = np_mean * tp_ns

    def residuals(x):
        kappa, t21 = x[0] * kappa0, x[1] * t21_0
        return kappa * t21 * (1.0 - (1.0 - dt / t21) ** m) - p2

    res = least_squares(residuals, [1.0, 1.0], xtol=1e-15, ftol=1e-15, gtol=1e-15)
    cost = float(res.fun @ res.fun)
    cov = np.linalg.inv(res.jac.T @ res.jac) * cost / (m.size - 2)
    scale = np.array([kappa0, t21_0])
    return tuple(res.x * scale), tuple(np.sqrt(np.diag(cov)) * scale), cost


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


_SIGMA = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
          "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
          "z": np.array([[1, 0], [0, -1]], dtype=complex)}


def _axis_rotation(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta sigma_axis / 2)."""
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * _SIGMA[axis]


def _rotation(axis: str, quarter_turns: int) -> np.ndarray:
    """exp(-i theta sigma_axis / 2) with theta = quarter_turns * pi / 2."""
    return _axis_rotation(axis, quarter_turns * math.pi / 2)


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


def cost_distribution(n: int) -> tuple[Fraction, ...]:
    """P(cost = c) for c = 1..5 over all 24^n Clifford tuples; the
    all-identity tuple is charged one slot, so it falls in c = 1."""
    tuples_by_cost = [0] * 6
    for k, row in enumerate(_census_cost_counts()):
        tuples = _surjections(n, k) + _surjections(n, k + 1)
        for c, sets in enumerate(row):
            tuples_by_cost[c] += sets * tuples
    assert tuples_by_cost[0] == 0
    return tuple(Fraction(t, 24**n) for t in tuples_by_cost[1:])


# --- schedule verification --------------------------------------------------


@lru_cache(maxsize=None)
def _label_rotation(label: str) -> np.ndarray:
    """The pulse a schedule label names ("X90", "Y-180", "I"), from its
    axis letter and angle in degrees."""
    if label == "I":
        return np.eye(2, dtype=complex)
    return _axis_rotation(label[0].lower(), math.radians(float(label[1:])))


def verify_schedule(schedule, combo) -> tuple | None:
    """None when the schedule is well formed and realizes the combination,
    else ("event", i) for its first malformed event (a mask without one
    entry per qubit, or a slot not after the previous event's and before
    n_slots) or ("qubit", q) for the first qubit whose routed pulses,
    multiplied one at a time, differ from its target up to phase: the
    target's minimal decomposition, multiplied from the same rotations."""
    last = -1
    for i, ev in enumerate(schedule.events):
        if len(ev.mask) != schedule.n_qubits or not last < ev.slot < schedule.n_slots:
            return "event", i
        last = ev.slot
    for q, c in enumerate(combo):
        u = target = np.eye(2, dtype=complex)
        for ev in schedule.events:
            if ev.mask[q]:
                u = _label_rotation(ev.pulse.label) @ u
        for p in MINIMAL_DECOMPOSITIONS[c]:
            target = _label_rotation(p.label) @ target
        if abs(abs(np.vdot(target, u)) - 2.0) > 1e-9:  # vdot: tr(target^dag u)
            return "qubit", q
    return None


def schedule_json_dict(schedule) -> dict:
    """The schedule's JSON fields as Schedule.to_json writes them, built as
    a dict for json.dumps."""
    return {
        "n_qubits": schedule.n_qubits,
        "scheme": schedule.scheme,
        "n_slots": schedule.n_slots,
        "slot_ns": {"total": 20.0, "pulse_ns": 16.0, "buffer_ns": 4.0},
        "events": [{"slot": ev.slot, "pulse": ev.pulse.label, "mask": [int(b) for b in ev.mask]}
                   for ev in schedule.events],
    }


# --- slot-by-slot benchmarking ----------------------------------------------


def _damp(rho: np.ndarray, dt: float, t1: float) -> np.ndarray:
    """Amplitude damping by its Kraus operators."""
    if math.isinf(t1):
        return rho
    decay = math.exp(-dt / t1)
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(decay)]])
    k1 = np.array([[0.0, math.sqrt(1.0 - decay)], [0.0, 0.0]])
    return k0 @ rho @ k0.T + k1 @ rho @ k1.T


def slot_transfer_matrix(label: str | None, scale: float, slot_ns: float,
                         t1_ns: float) -> np.ndarray:
    """R[i, j] = tr(P_i L(P_j)) / 2 for the Paulis (I, X, Y, Z) and the slot
    L: the labelled pulse ("X90", "Y-180"; None or "I" for no rotation) at
    scale times its angle, then Kraus damping for slot_ns."""
    if label in (None, "I"):
        u = np.eye(2)
    else:
        u = _axis_rotation(label[0].lower(), math.radians(float(label[1:])) * scale)
    paulis = [np.eye(2), _SIGMA["x"], _SIGMA["y"], _SIGMA["z"]]
    return np.array([[np.trace(p @ _damp(u @ q @ u.conj().T, slot_ns, t1_ns)).real / 2
                      for q in paulis] for p in paulis])


def _round_slots(combo: tuple, scheme: str, parity: int) -> list:
    """One entry per time slot: None, or (pulse, mask) over the driven qubits.
    In the single-qubit minimal scheme the identity waits one empty slot."""
    if scheme == "minimal":
        (c,) = combo
        return [None] if c == 1 else [(p, (True,)) for p in minimal_decomposition(c)]
    sched = compiler.compile_scheme(combo, scheme, round_parity=parity)
    slots = [None] * sched.n_slots
    for ev in sched.events:
        slots[ev.slot] = (ev.pulse, ev.mask)
    return slots


def slot_by_slot_benchmark(models, n_driven: int, scheme: str, m_values,
                           n_seeds: int, rng_seed: int) -> tuple[np.ndarray, float]:
    """Seed-averaged ground populations, shape (n_qubits, len(m_values)),
    and the mean slots per round.

    Each seed draws from its own Philox stream, spawned from rng_seed, one
    (n_driven, m) block of Clifford ids per length; the recovery round
    comes last.  A routed qubit rotates by its over_ratio, every other
    qubit (the never-routed ones past n_driven too) by its cross_ratio.
    """
    n = len(models)
    p0 = np.zeros((n, len(m_values)))
    slots = rounds = 0
    ground = np.array([[1, 0], [0, 0]], dtype=complex)
    for child in np.random.SeedSequence(rng_seed).spawn(n_seeds):
        rng = np.random.Generator(np.random.Philox(child))
        for im, m in enumerate(m_values):
            seqs = rng.integers(1, 25, size=(n_driven, m))
            combos = [tuple(int(c) for c in seqs[:, k]) for k in range(m)]
            combos.append(tuple(recovery_clifford(row) for row in seqs))
            rhos = [ground] * n
            for k, combo in enumerate(combos):
                for entry in _round_slots(combo, scheme, k % 2):
                    for q, model in enumerate(models):
                        if entry is not None and entry[0].axis != "i":
                            pulse, mask = entry
                            routed = q < n_driven and mask[q]
                            scale = model.over_ratio if routed else model.cross_ratio
                            u = _axis_rotation(pulse.axis, pulse.angle * scale)
                            rhos[q] = u @ rhos[q] @ u.conj().T
                        rhos[q] = _damp(rhos[q], model.slot_ns, model.t1_ns)
                    slots += 1
                rounds += 1
            p0[:, im] += [rho[0, 0].real for rho in rhos]
    return p0 / n_seeds, slots / rounds


def chain_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0] for a non-empty stack (k, ..., d, d),
    multiplied pairwise: each level halves the stack, later ones on the left."""
    while len(mats) > 1:
        k = len(mats)
        pairs = mats[1:k:2] @ mats[0:k - 1:2]
        mats = np.concatenate([pairs, mats[k - 1:]]) if k & 1 else pairs
    return mats[0]


def round_channels(models: tuple, scheme: str, ids: np.ndarray,
                   parity: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, channels, n_slots) of k rounds, given as rows of Clifford ids
    and their parities: channels[rows[r, q]] is qubit q's channel in round
    r, and n_slots[r] the round's slot count.  Qubits past ids' columns are
    never routed.  One compiler.round_plans call plans the rounds, one
    lexsort of the packed slot signatures finds the distinct ones, and
    those are built together, each slot left-multiplied from the identity
    on."""
    kinds, slots = sim._slot_table(models)
    codes, fired, n_slots = compiler.round_plans(ids, scheme, parity)
    k, width = codes.shape
    n = len(kinds)
    routed = np.zeros((k, n, width), dtype=np.intp)
    routed[:, :fired.shape[1]] = fired
    packed = np.where(np.arange(width) < n_slots[:, None], 1 + 2 * codes, 0)[:, None] + routed
    words = -(-width // sim._SIGNATURE_SLOTS)
    keys = np.empty((1 + words, k * n), dtype=np.int64)
    keys[0] = np.tile(kinds, k)
    for w in range(words):
        part = packed[..., w * sim._SIGNATURE_SLOTS:(w + 1) * sim._SIGNATURE_SLOTS]
        keys[1 + w] = (part @ sim._SIGNATURE_POWERS[:part.shape[-1]]).ravel()
    firsts, inverse = sim._unique_columns(keys)
    r, q = np.divmod(firsts, n)
    count = n_slots[r]
    channels = np.broadcast_to(np.eye(4), (len(firsts), 4, 4)).copy()
    for s in range(int(count.max())):
        on = np.flatnonzero(s < count)
        channels[on] = slots[kinds[q[on]], codes[r[on], s], routed[r[on], q[on], s]] @ channels[on]
    return inverse.reshape(k, n), channels, n_slots


def benchmark_per_sequence(models, n_driven: int, scheme: str, m_values, n_seeds: int,
                           rng_seed: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(p0, p0_stderr, (rounds, slots, distinct_rounds, qubit_channels)) of
    sim._benchmark's run, one sequence at a time: one recovery_clifford call
    per (seed, length) block of draws and one chain_product per sequence,
    over the round tables that the run reads."""
    models = tuple(models)
    blocks = []
    for rng in sim._spawn_rngs(rng_seed, n_seeds):
        for m in m_values:
            seqs = rng.integers(1, 25, size=(n_driven, m))
            blocks.append(np.column_stack([seqs, recovery_clifford(seqs)]).T)
    ids = np.concatenate(blocks)
    index = np.concatenate([np.arange(m + 1) for m in m_values] * n_seeds)
    periods = 2 if scheme == "five-primitives-symmetric" else 1
    parity = index & 1 if periods == 2 else np.zeros_like(index)
    if periods * 24**n_driven <= len(ids):
        rows, channels, n_slots = sim._every_round(models, scheme, n_driven)
        inverse = parity * 24**n_driven + (ids - 1) @ 24 ** np.arange(n_driven)
    else:
        firsts, inverse = sim._unique_columns(np.vstack([parity, ids.T]))
        rows, channels, n_slots = sim._rounds(models, scheme, ids[firsts], parity[firsts])
    used = np.bincount(inverse, minlength=len(rows))
    p0_sum = np.zeros((len(models), len(m_values)))
    p0_sumsq = np.zeros((len(models), len(m_values)))
    start = 0
    for _ in range(n_seeds):
        for im, m in enumerate(m_values):
            channel = chain_product(channels[rows[inverse[start:start + m + 1]]])
            start += m + 1
            val = (1.0 + (channel @ sim._GROUND_VECTOR)[:, 3, 0]) / 2
            p0_sum[:, im] += val
            p0_sumsq[:, im] += val * val
    work = (len(ids), int(used @ n_slots), int(np.count_nonzero(used)),
            int(np.count_nonzero(np.bincount(rows[used > 0].ravel()))))
    return p0_sum / n_seeds, sim._seed_stderr(p0_sum, p0_sumsq, n_seeds), work


# --- diagnostic sequences --------------------------------------------------

# The standard 21-pair AllXY list, first pulse first: X and Y are pi
# rotations, x and y half-pi rotations, I the identity (an idle slot).
ALLXY_PAIRS = "II XX YY XY YX xI yI xy yx xY yX Xy Yx xX Xx yY Yy XI YI xx yy".split()


def equatorial_rotation(axis: str, theta: float, phase_rad: float) -> np.ndarray:
    """exp(-i theta sigma_axis / 2) with the x or y axis turned by phase_rad
    about z."""
    turn = _axis_rotation("z", phase_rad)
    return turn @ _axis_rotation(axis, theta) @ turn.conj().T


def _drive(label: str, over_ratio: float, phase_rad: float) -> np.ndarray:
    """One drive pulse at over_ratio times its nominal angle; a y pulse's
    axis is the y axis turned by phase_rad about z."""
    theta = (math.pi if label.isupper() else math.pi / 2) * over_ratio
    if label in "Xx":
        return _axis_rotation("x", theta)
    return equatorial_rotation("y", theta, phase_rad)


def _excited_population(rotations, slot_ns: float, t1_ns: float) -> float:
    """P1 at the end of a train from the ground state: one slot per entry,
    its rotation (None for an idle slot) and then one slot of damping."""
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    for u in rotations:
        if u is not None:
            rho = u @ rho @ u.conj().T
        rho = _damp(rho, slot_ns, t1_ns)
    return rho[1, 1].real


def allxy_staircase(over_ratio: float, phase_rad: float, t1_ns: float,
                    slot_ns: float = 20.0) -> np.ndarray:
    """P1 after each pair of the diagnostic staircase."""
    return np.array([_excited_population(
        [None if p == "I" else _drive(p, over_ratio, phase_rad) for p in pair],
        slot_ns, t1_ns) for pair in ALLXY_PAIRS])


def amp_calibration(over_ratio: float, n_max: int, t1_ns: float,
                    slot_ns: float = 20.0) -> np.ndarray:
    """P1 after one half-pi x pulse and 2N pi x pulses, for N = 0..n_max,
    each train run on its own."""
    x90, x180 = _drive("x", over_ratio, 0.0), _drive("X", over_ratio, 0.0)
    return np.array([_excited_population([x90] + [x180] * (2 * n), slot_ns, t1_ns)
                     for n in range(n_max + 1)])


def allxy_per_pulse(over_ratio: float, phase_rad: float, t1_ns: float,
                    slot_ns: float = 20.0) -> np.ndarray:
    """simulate_allxy's staircase, one apply_pulse call per distinct pulse
    on the rows that carry it at each position, then one relax."""
    states = np.array([GROUND] * len(ALLXY_SEQUENCE))
    for position in (0, 1):
        pulses = [pair[position] for pair in ALLXY_SEQUENCE]
        for p in dict.fromkeys(pulses):
            rows = [i for i, q in enumerate(pulses) if q is p]
            phase = phase_rad if p.axis == "y" else 0.0
            scale = over_ratio if p is not Pulse.I else 1.0
            states[rows] = apply_pulse(states[rows], p, scale, phase)
        states = relax(states.transpose(1, 2, 0), slot_ns, t1_ns).transpose(2, 0, 1)
    return states[:, 1, 1].real.copy()


def amp_calibration_per_pulse(over_ratio: float, n_max: int, t1_ns: float,
                              slot_ns: float = 20.0) -> np.ndarray:
    """simulate_amp_calibration's P1, one apply_pulse and one relax call per
    pulse of the one train."""
    p1 = np.empty(n_max + 1)
    state = relax(apply_pulse(GROUND, Pulse.X90, over_ratio), slot_ns, t1_ns)
    p1[0] = state[1, 1].real
    for n in range(1, n_max + 1):
        for _ in range(2):
            state = relax(apply_pulse(state, Pulse.X180, over_ratio), slot_ns, t1_ns)
        p1[n] = state[1, 1].real
    return p1


# --- CSV output -------------------------------------------------------------


def csv_text(rows, header) -> str:
    """The CLI's CSV table written value by value: a float as
    format(x, '.9g'), anything else as str."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(float(v), ".9g") if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def cli_main_parse_args(argv=None) -> int:
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    conflict = cli._conflicting_flags(args)
    if conflict:
        parser.error(conflict)
    try:
        cli._write_outputs(args.func(args))
    except cli.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return cli.EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_VALIDATION
    except MemoryError:
        print("error: the input is too large for memory", file=sys.stderr)
        return cli.EXIT_VALIDATION
    return cli.EXIT_OK
