"""Broadcast-driven qubits: density-matrix slots, benchmarked as Pauli-transfer matrices.

Model: uncoupled two-level qubits, instantaneous unitary pulses, and
amplitude damping (T1 only) for one fixed slot duration after every slot.
Dephasing is deliberately not modeled: long random x/y pulse sequences
dynamically decouple it, and a plain dephasing term does not reproduce the
observed decay curves.  When a pulse event fires, masked qubits receive the
nominal rotation scaled by their over-driving ratio, and every unmasked
qubit receives the same rotation axis scaled by its cross-driving ratio
(stray drive through imperfect isolation).  Slots in which nothing fires
(identity slots, empty five-primitive slots) pass time only.

Benchmarking never propagates density matrices slot by slot.  The qubits
are uncoupled and every slot is a fixed linear channel, so a round acts on
each qubit as one 4x4 Pauli-transfer matrix, applied to the qubit's Pauli
vector (1, x, y, z).  That matrix depends only on the qubit's model and its
slot signature: the pulse of each slot of the round plan
(compiler.round_plans) and the slots the qubit fires, and is built once,
as a product of the model's slot matrices.  A round of every scheme but
sequential plays one fixed train (a column of compiler._column_table), so
a model's matrix in it is one of 49 minimal, 438 five-primitive or 1,473
compiled (column, fired subset) pairs, built once per register; a
sequential run builds its own signatures'.  The slot matrices are built
from apply_pulse and relax, the diagnostics from the rotations apply_pulse
conjugates by (_conjugation) and the damping relax applies (_damping), so
those stay the only definition of the physics.

Randomness: one counter-based Philox generator per seed, spawned from the
root seed via SeedSequence, so seeds are independent and reproducible and
could be evaluated concurrently; averaging accumulates in seed order to
keep results bit-identical run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import compiler
from .clifford import _COMPOSE_TABLE, Pulse, _check_int, recovery_clifford, rotation_unitary
from .compiler import (
    RB_SCHEMES,
    SCHEME_COMPILED,
    SCHEME_FIVE_SYMMETRIC,
    SCHEME_MINIMAL,
    SCHEME_SEQUENTIAL,
    SLOT_PULSES,
)

GROUND = np.array([[1, 0], [0, 0]], dtype=complex)


@dataclass(frozen=True)
class QubitModel:
    """Simulation parameters for one qubit.

    t1_ns may be math.inf for a lossless qubit.  cross_ratio is the rotation
    fraction felt when unmasked; over_ratio scales every masked rotation.
    """

    t1_ns: float = math.inf
    slot_ns: float = compiler.SLOT_NS
    cross_ratio: float = 0.0
    over_ratio: float = 1.0

    def __post_init__(self):
        # Each check is false for NaN, so NaN is rejected with the field.
        if not self.t1_ns > 0:
            raise ValueError("t1_ns must be positive (math.inf allowed)")
        if not 0 < self.slot_ns < math.inf:
            raise ValueError("slot_ns must be positive and finite")
        if not 0.0 <= self.cross_ratio < 1.0:
            raise ValueError("cross_ratio must be in [0, 1)")
        if not 0 <= self.over_ratio * math.pi < math.inf:
            raise ValueError("over_ratio must be >= 0, with a finite rotation angle")


@dataclass
class RBCurve:
    m_values: tuple[int, ...]
    p0: np.ndarray
    p1: np.ndarray
    seeds: int
    p0_stderr: np.ndarray | None = None  # seed-scatter standard error per point


@dataclass
class RBResult:
    """Benchmarking curves with the work that produced them.

    rounds and slots count every simulated round and time slot;
    distinct_rounds counts the run's different rounds, and qubit_channels
    the different per-qubit slot signatures behind them.  All four depend
    on the run's inputs alone.
    """

    scheme: str
    curves: list[RBCurve]
    n_seeds: int
    rng_seed: int
    rounds: int
    slots: int
    distinct_rounds: int
    qubit_channels: int

    @property
    def mean_slots_per_round(self) -> float:
        return self.slots / self.rounds


def apply_pulse(state: np.ndarray, p: Pulse, angle_scale: float = 1.0,
                phase_rad: float = 0.0) -> np.ndarray:
    """Conjugate the state by the pulse rotation with a scaled angle.

    phase_rad offsets the rotation axis within the equatorial plane (drive
    phase error).  Identity pulses and zero scales leave the state alone.
    state may be a stack (..., 2, 2): every matrix gets the same rotation.
    """
    u, u_h = _conjugation(p, angle_scale, phase_rad)  # checks the inputs for every pulse
    return state.copy() if p is Pulse.I or angle_scale == 0.0 else u @ state @ u_h


def _conjugation(p: Pulse, angle_scale: float, phase_rad: float) -> tuple[np.ndarray, np.ndarray]:
    """(u, u^dagger as a view), apply_pulse's checked rotation: state -> u @ state @ u^dagger."""
    if not 0 <= angle_scale * math.pi < math.inf:
        raise ValueError(f"angle_scale must be >= 0, with a finite angle, got {angle_scale!r}")
    if not math.isfinite(phase_rad):
        raise ValueError(f"phase_rad must be finite, got {phase_rad!r}")
    u = rotation_unitary(p.axis, p.angle * angle_scale, phase_rad)
    return u, u.conj().T


def relax(state: np.ndarray, dt: float, t1: float) -> np.ndarray:
    """Amplitude damping for duration dt with relaxation time t1.

    Exact Kraus channel: excited population decays by exp(-dt/t1),
    coherences by exp(-dt/2 t1).  The first two axes of state are the 2x2
    ones, so a stack (2, 2, ...) is damped matrix by matrix, bit for bit.
    """
    if not dt >= 0:
        raise ValueError(f"dt must be >= 0, got {dt!r}")
    if not t1 > 0:
        raise ValueError(f"t1 must be > 0 (math.inf allowed), got {t1!r}")
    if dt == 0 or math.isinf(t1):
        return state.copy()
    return _damping(dt, t1)(state)


def _damping(dt: float, t1: float):
    """relax's damping for dt > 0 and a finite t1, its factors computed once."""
    decay = math.exp(-dt / t1)
    eta = math.sqrt(decay)
    def damp(state: np.ndarray) -> np.ndarray:
        out = np.empty_like(state)
        out[0, 0] = state[0, 0] + (1.0 - decay) * state[1, 1]
        out[1, 1] = decay * state[1, 1]
        out[0, 1] = eta * state[0, 1]
        out[1, 0] = eta * state[1, 0]
        return out
    return damp


# --- benchmarking channels ------------------------------------------------
# A qubit's state is its Pauli vector (1, x, y, z), rho = (I + xX + yY + zZ)/2,
# so p0 = (1 + z)/2.  Every slot acts on it as a fixed real 4x4
# Pauli-transfer matrix R[i, j] = tr(P_i L(P_j))/2, built once per model by
# pushing the stacked Pauli matrices through apply_pulse (once per slot
# pulse and scale) and relax (once), and a round acts as the product of its
# slots' matrices.
#
# One benchmarking pass (_benchmark) serves a whole run.  It draws every
# sequence first, one (n_driven, m) block per seed and length in the
# seeds' Philox order, reduces all of them at once over the compose table
# and inverts the products in one recovery_clifford call.  A run that
# draws at least as many rounds as exist (24^n_driven, twice that for the
# symmetric scheme) reads them from _every_round, built once per register,
# scheme and driven count, by round index; any other finds its distinct
# rounds with one lexsort of their parities and ids.  Both read their
# channels through _rounds, from one of two sources: _column_channels for
# a fixed-train round, by its column and each qubit's fired subset, and
# _sequential_channels for a sequential one, which plans the rounds in one
# compiler._sequential_plans call, finds the distinct packed per-qubit
# slot signatures with one lexsort and builds them together, one stacked
# 4x4 product per slot.  Last, one seed at a time, the seed's round
# channels are gathered in _block_plan's order and every sequence is
# multiplied at once (_chain_products), each pairwise as it would be
# multiplied alone, and applied to the ground state.

_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_GROUND_VECTOR = np.array([[1.0], [0.0], [0.0], [1.0]])  # a column: x = y = 0, z = 1


def _slot_matrices(model: QubitModel) -> np.ndarray:
    """slots[code, routed] of one model (_slot_table), each slot's R[i, j]."""
    pushed = np.array([[apply_pulse(_PAULIS, p or Pulse.I, scale)
                        for scale in (model.cross_ratio, model.over_ratio)] for p in SLOT_PULSES])
    images = relax(np.moveaxis(pushed, (-2, -1), (0, 1)), model.slot_ns, model.t1_ns)
    return np.einsum("iab,bacrj->crij", _PAULIS, images).real / 2


# A qubit's slot signature packs each slot of its sequential round as its
# index 2 * code + fired among _slot_table's slots[kind], 0 only past the
# round's end, 5 bits a slot and 12 slots per int64 word, after its kind.
_SIGNATURE_SLOTS = 12
_SIGNATURE_POWERS = 32 ** np.arange(_SIGNATURE_SLOTS, dtype=np.int64)


@lru_cache(maxsize=64)
def _slot_table(models: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(kinds, slots) of a register, both read-only.

    kinds[q] is the index of qubit q's model among the register's distinct
    models, and slots[k, code, routed] (_slot_matrices, one stacked push per
    model) is one slot on a qubit of the k-th: code 0 an empty slot, code i
    the i-th Pulse; routed 0 is the stray drive at its cross_ratio, 1 its
    own over_ratio.
    """
    distinct: dict = {}
    kinds = np.array([distinct.setdefault(m, len(distinct)) for m in models])
    slots = np.array([_slot_matrices(m) for m in distinct])
    kinds.flags.writeable = slots.flags.writeable = False
    return kinds, slots


def _sequential_channels(models: tuple, ids: np.ndarray) -> tuple:
    """(rows, channels, n_slots) of k sequential rounds, given as rows of
    Clifford ids, one per model (0 for a qubit that fires nothing):
    channels[rows[r, q]] is qubit q's channel in round r, and n_slots[r] the
    round's slot count.  One compiler._sequential_plans call plans the
    rounds, one lexsort of the packed slot signatures finds the distinct
    ones, and those are built together, each slot left-multiplied from the
    identity on."""
    kinds, slots = _slot_table(models)
    codes, fired, n_slots = compiler._sequential_plans(ids)
    k, n, width = fired.shape
    packed = 2 * codes[:, None] + fired
    words = -(-width // _SIGNATURE_SLOTS)
    keys = np.empty((1 + words, k * n), dtype=np.int64)
    keys[0] = np.tile(kinds, k)
    for w in range(words):
        part = packed[..., w * _SIGNATURE_SLOTS:(w + 1) * _SIGNATURE_SLOTS]
        keys[1 + w] = (part @ _SIGNATURE_POWERS[:part.shape[-1]]).ravel()
    firsts, inverse = _unique_columns(keys)
    r, q = np.divmod(firsts, n)
    count = n_slots[r]
    slots = slots.reshape(len(slots), -1, 4, 4)
    channels = np.broadcast_to(np.eye(4), (len(firsts), 4, 4)).copy()
    for s in range(int(count.max())):
        on = np.flatnonzero(s < count)
        channels[on] = slots[kinds[q[on]], packed[r[on], q[on], s]] @ channels[on]
    return inverse.reshape(k, n), channels, n_slots


@lru_cache(maxsize=64)
def _column_channels(models: tuple, scheme: str) -> tuple:
    """(pairs, channels, lengths) of a register's rounds of a fixed-train
    scheme, read-only.  A qubit's channel in such a round depends only on
    its model kind, the round's compiler._column_table column and the
    subset of the column's slots that it fires: channels[pairs[k, col, c]]
    is the channel of a qubit of the k-th kind (_slot_table) with Clifford
    id c in a round of column col, one of 1,473 (column, fired subset)
    pairs per kind compiled (about 189 KB), 438 five-primitive and 49
    minimal, and lengths[col] the column's slot count.  Each is built slot
    by slot, left-multiplied from the identity on, 256 pairs at a time so
    as to hold little beside the table."""
    _, slots = _slot_table(models)
    lengths, codes, fired = compiler._column_table(scheme)
    width = codes.shape[1]
    subsets = fired @ (1 << np.arange(width))
    distinct, pairs = np.unique(np.arange(len(codes))[:, None] << width | subsets,
                                return_inverse=True)
    channels = np.empty((len(slots), len(distinct), 4, 4))
    for start in range(0, len(distinct), 256):
        chunk, part = distinct[start:start + 256], channels[:, start:start + 256]
        column = chunk >> width
        part[:] = np.eye(4)
        for s in range(width):
            on = np.flatnonzero(s < lengths[column])
            part[:, on] = slots[:, codes[column[on], s], chunk[on] >> s & 1] @ part[:, on]
    pairs = pairs.reshape(subsets.shape) + len(distinct) * np.arange(len(slots))[:, None, None]
    channels = channels.reshape(-1, 4, 4)
    pairs.flags.writeable = channels.flags.writeable = False
    return pairs, channels, lengths


def _rounds(models: tuple, scheme: str, ids: np.ndarray,
            parity: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, channels, n_slots) of k rounds, given as rows of Clifford ids
    and their parities, as _sequential_channels builds a sequential run's;
    every other scheme's are read from _column_channels by round column.
    Qubits past ids' columns read Clifford id 0, which fires nothing."""
    kinds, _ = _slot_table(models)
    padded = np.zeros((len(ids), len(kinds)), dtype=ids.dtype)
    padded[:, :ids.shape[1]] = ids
    if scheme == SCHEME_SEQUENTIAL:
        return _sequential_channels(models, padded)
    # Both five-primitive schemes read one column table, so they share its channels.
    table = compiler.SCHEME_FIVE if scheme == SCHEME_FIVE_SYMMETRIC else scheme
    pairs, channels, lengths = _column_channels(models, table)
    columns = compiler._columns(ids, scheme, parity)
    return pairs[kinds, columns[:, None], padded], channels, lengths[columns]


@lru_cache(maxsize=64)
def _every_round(models: tuple, scheme: str, n_driven: int) -> tuple:
    """_rounds of every round of n_driven qubits, at both parities for the
    symmetric scheme, read-only.  The round of Clifford ids id_q at a
    parity is row parity * 24^n_driven + sum_q (id_q - 1) * 24^q."""
    periods = 2 if scheme == SCHEME_FIVE_SYMMETRIC else 1
    parity, code = np.divmod(np.arange(periods * 24**n_driven), 24**n_driven)
    ids = 1 + code[:, None] // 24 ** np.arange(n_driven) % 24
    tables = _rounds(models, scheme, ids, parity)
    for array in tables:
        array.flags.writeable = False
    return tables


@lru_cache(maxsize=64)
def _block_plan(lengths: tuple) -> tuple:
    """(src, levels) of sequences of these lengths laid end to end, read-only:
    src lists the positions of each sequence's power-of-two blocks, counted
    from its start, largest blocks first.  levels[j] is (keep, first, later):
    at level j the stack's first keep entries pair up, and the rest are
    finished blocks of 2^j of the sequences first, which have no smaller
    blocks, then of those later."""
    lengths = np.array(lengths)
    bits = np.arange(int(lengths.max()).bit_length())
    starts = (np.cumsum(lengths) - lengths)[:, None] + (lengths[:, None] >> bits + 1 << bits + 1)
    has, lower = lengths[:, None] >> bits & 1 > 0, lengths[:, None] & (1 << bits) - 1 > 0
    split = [(np.flatnonzero(has[:, j] & ~lower[:, j]), np.flatnonzero(has[:, j] & lower[:, j]))
             for j in bits]
    src = np.concatenate([(starts[np.concatenate(split[j]), j, None] + np.arange(1 << j)).ravel()
                          for j in bits[::-1]])
    for array in (src, *(a for pair in split for a in pair)):
        array.flags.writeable = False
    return src, tuple((2 * int(np.sum(lengths >> j + 1)), *split[j]) for j in bits)


def _chain_products(lengths: tuple, gather, op) -> np.ndarray:
    """Each sequence's product, later entries on the left, paired level by
    level: gather(src) stacks sequences of these lengths in _block_plan's
    order, op(later, earlier) multiplies, each joins its blocks smallest first."""
    src, levels = _block_plan(lengths)
    stack = gather(src)
    out = np.empty((len(lengths),) + stack.shape[1:], dtype=stack.dtype)
    for keep, first, later in levels:
        out[first] = stack[keep:keep + len(first)]
        if len(later):
            out[later] = op(out[later], stack[keep + len(first):])
        stack = op(stack[1:keep:2], stack[0:keep:2])
    return out


def _spawn_rngs(rng_seed: int, n_seeds: int):
    children = np.random.SeedSequence(_check_int(rng_seed, "rng_seed", 0)).spawn(n_seeds)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _seed_stderr(total: np.ndarray, total_sq: np.ndarray, n_seeds: int) -> np.ndarray:
    """Standard error of the seed mean from running sums."""
    if n_seeds < 2:
        return np.zeros_like(total)
    var = (total_sq - total**2 / n_seeds) / (n_seeds - 1)
    return np.sqrt(np.maximum(var, 0.0) / n_seeds)


def _unique_columns(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first column of each distinct column, index of each column's
    distinct one) of a 2-d int array: one lexsort and a comparison of
    sorted neighbours."""
    order = np.lexsort(keys)
    new = np.ones(len(order), dtype=bool)
    np.any(keys[:, order[1:]] != keys[:, order[:-1]], axis=0, out=new[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _benchmark(models: list, n_driven: int, scheme: str, m_values, n_seeds: int,
               rng_seed: int) -> RBResult:
    """The benchmarking pass behind run_rb and run_idle_crossdrive.

    The first n_driven qubits run independent random sequences as in
    run_rb; the remaining ones are never routed, so they feel every pulse
    only through their cross_ratio.  The pass is described with the
    benchmarking channels above.
    """
    if scheme not in RB_SCHEMES:
        raise ValueError(f"scheme must be one of {RB_SCHEMES}, got {scheme!r}")
    _check_int(n_seeds, "n_seeds", 1)
    m_values = tuple(_check_int(m, "sequence length") for m in m_values)
    if not m_values:
        raise ValueError("need at least one sequence length")
    if any(m < 1 for m in m_values):
        raise ValueError("sequence lengths must be >= 1")
    models = tuple(models)
    if not models:
        raise ValueError("need at least one qubit model")
    n = len(models)

    # Every round of the run, one row of Clifford ids each, sequence after
    # sequence in seed order; the recovery round ends each sequence.
    draws = np.concatenate([rng.integers(1, 25, size=(n_driven, m))
                            for rng in _spawn_rngs(rng_seed, n_seeds) for m in m_values], axis=1).T
    # Each sequence's product, recovered as a sequence of one Clifford.
    product = _chain_products(m_values * n_seeds, lambda src: draws[src],
                              lambda later, earlier: _COMPOSE_TABLE[earlier, later])
    recovery = recovery_clifford(product.reshape(-1, 1)).reshape(product.shape)
    ids = np.insert(draws, np.cumsum(m_values * n_seeds), recovery, axis=0)
    # Only the symmetric five-primitive scheme alternates with the round
    # index; the other schemes share one channel per combination.
    index = np.concatenate([np.arange(m + 1) for m in m_values] * n_seeds)
    periods = 2 if scheme == SCHEME_FIVE_SYMMETRIC else 1
    parity = index & 1 if periods == 2 else np.zeros_like(index)

    # A run that draws at least as many rounds as exist reads them all from
    # one table; any other reads only its distinct rounds.  inverse[i] is
    # the row of rows (each qubit's index into channels) and n_slots that
    # holds round i.
    if periods * 24**n_driven <= len(ids):
        rows, channels, n_slots = _every_round(models, scheme, n_driven)
        inverse = parity * 24**n_driven + (ids - 1) @ 24 ** np.arange(n_driven)
    else:
        firsts, inverse = _unique_columns(np.vstack([parity, ids.T]))
        rows, channels, n_slots = _rounds(models, scheme, ids[firsts], parity[firsts])
    used = np.bincount(inverse, minlength=len(rows))

    p0_sum = np.zeros((n, len(m_values)))
    p0_sumsq = np.zeros((n, len(m_values)))
    for start in range(0, len(ids), len(ids) // n_seeds):
        # One seed at a time, so only its rounds' channels are ever gathered.
        channel = _chain_products(tuple(m + 1 for m in m_values),
                                  lambda src: channels[rows[inverse[start + src]]], np.matmul)
        val = (1.0 + (channel @ _GROUND_VECTOR)[..., 3, 0]).T / 2
        p0_sum += val
        p0_sumsq += val * val
    p0 = p0_sum / n_seeds
    p0_err = _seed_stderr(p0_sum, p0_sumsq, n_seeds)
    curves = [
        RBCurve(m_values=m_values, p0=p0[q].copy(), p1=1.0 - p0[q], seeds=n_seeds,
                p0_stderr=p0_err[q].copy())
        for q in range(n)
    ]
    return RBResult(
        scheme=scheme,
        curves=curves,
        n_seeds=n_seeds,
        rng_seed=rng_seed,
        rounds=len(ids),
        slots=int(used @ n_slots),
        distinct_rounds=int(np.count_nonzero(used)),
        qubit_channels=int(np.count_nonzero(np.bincount(rows[used > 0].ravel()))),
    )


def run_rb(models, scheme: str, m_values, n_seeds: int, rng_seed: int) -> RBResult:
    """Randomized benchmarking with per-qubit independent Clifford sequences.

    For every seed and sequence length m, each qubit gets m uniform Cliffords
    plus its own recovery Clifford; rounds are compiled with the chosen
    scheme (the symmetric five-primitive scheme alternates parity with the
    round index), and each round applies its cached per-qubit transfer
    matrix.  Returns seed-averaged ground and excited populations per
    qubit, with the rounds and slots simulated.
    """
    models = list(models)
    if scheme == SCHEME_MINIMAL and len(models) != 1:
        raise ValueError("minimal scheme runs single-qubit benchmarking only")
    return _benchmark(models, len(models), scheme, m_values, n_seeds, rng_seed)


def run_idle_crossdrive(models, scheme: str, m_values, n_seeds: int,
                        rng_seed: int) -> RBResult:
    """Cross-driving of an undriven qubit during single-qubit benchmarking.

    models = (driven, idle).  The driven qubit runs the scheme with its own
    random sequences; the idle qubit's routing stays off, so it only feels
    each emitted pulse scaled by its cross_ratio.  Curve 0 is the driven
    qubit, curve 1 the idle one.
    """
    models = list(models)
    if len(models) != 2:
        raise ValueError("expected exactly (driven, idle) models")
    if scheme in (SCHEME_SEQUENTIAL, SCHEME_COMPILED):
        raise ValueError(
            "idle cross-drive runs use the minimal or five-primitive schemes"
        )
    return _benchmark(models, 1, scheme, m_values, n_seeds, rng_seed)


# --- diagnostic sequences -------------------------------------------------

# The 21 two-pulse diagnostic pairs with their ideal excited-state
# populations (a 0 / 0.5 / 1 staircase on an ideally tuned qubit).
ALLXY_SEQUENCE: tuple[tuple[Pulse, Pulse, float], ...] = (
    (Pulse.I, Pulse.I, 0.0),
    (Pulse.X180, Pulse.X180, 0.0),
    (Pulse.Y180, Pulse.Y180, 0.0),
    (Pulse.X180, Pulse.Y180, 0.0),
    (Pulse.Y180, Pulse.X180, 0.0),
    (Pulse.X90, Pulse.I, 0.5),
    (Pulse.Y90, Pulse.I, 0.5),
    (Pulse.X90, Pulse.Y90, 0.5),
    (Pulse.Y90, Pulse.X90, 0.5),
    (Pulse.X90, Pulse.Y180, 0.5),
    (Pulse.Y90, Pulse.X180, 0.5),
    (Pulse.X180, Pulse.Y90, 0.5),
    (Pulse.Y180, Pulse.X90, 0.5),
    (Pulse.X90, Pulse.X180, 0.5),
    (Pulse.X180, Pulse.X90, 0.5),
    (Pulse.Y90, Pulse.Y180, 0.5),
    (Pulse.Y180, Pulse.Y90, 0.5),
    (Pulse.X180, Pulse.I, 1.0),
    (Pulse.Y180, Pulse.I, 1.0),
    (Pulse.X90, Pulse.X90, 1.0),
    (Pulse.Y90, Pulse.Y90, 1.0),
)
# Each position's pulses (a row of _ALLXY_CODES) as indices into _ALLXY_PULSES.
_ALLXY_PULSES = (Pulse.I, Pulse.X180, Pulse.Y180, Pulse.X90, Pulse.Y90)
_ALLXY_CODES = np.array([[_ALLXY_PULSES.index(p) for p in pair[:2]] for pair in ALLXY_SEQUENCE]).T


def simulate_allxy(over_ratio: float = 1.0, phase_rad: float = 0.0,
                   t1_ns: float = math.inf,
                   slot_ns: float = compiler.SLOT_NS) -> np.ndarray:
    """Excited-state population after each of the 21 two-pulse pairs.

    over_ratio scales every non-identity rotation angle (amplitude error);
    phase_rad offsets the axis of y pulses (drive phase error).  The pairs
    run as one (21, 2, 2) stack: each position conjugates its firing rows by
    a gathered table of _conjugation rotations, then damps all by one relax.
    """
    QubitModel(t1_ns=t1_ns, slot_ns=slot_ns, over_ratio=over_ratio)  # validates
    units = np.array([_conjugation(p, over_ratio, phase_rad if p.axis == "y" else 0.0)[0]
                      for p in _ALLXY_PULSES])
    states = np.array([GROUND] * len(ALLXY_SEQUENCE))
    for codes in _ALLXY_CODES:
        on = (codes > 0) & (over_ratio != 0)  # I and zero drive leave a row alone
        u = units[codes[on]]
        states[on] = u @ states[on] @ u.conj().transpose(0, 2, 1)
        states = relax(states.transpose(1, 2, 0), slot_ns, t1_ns).transpose(2, 0, 1)
    return states[:, 1, 1].real.copy()


def allxy_ideal() -> np.ndarray:
    return np.array([ideal for _, _, ideal in ALLXY_SEQUENCE])


def simulate_amp_calibration(over_ratio: float, n_max: int = 49,
                             t1_ns: float = math.inf,
                             slot_ns: float = compiler.SLOT_NS) -> tuple[np.ndarray, np.ndarray]:
    """P1 versus N for the half-pulse-then-2N-pi-pulses amplitude check.

    The qubit starts in the ground state, gets one X90 and then 2N X180
    pulses, all scaled by over_ratio: ideally P1 stays at one half, and
    over- or under-driving tilts the initial slope up or down.  One pass
    reads P1 after the X90 and every second X180 (the train for N is a
    prefix of N + 1's), each X180 one conjugation by a hoisted _conjugation
    and, for finite T1, relax's damping with its factors hoisted (_damping).
    """
    QubitModel(t1_ns=t1_ns, slot_ns=slot_ns, over_ratio=over_ratio)  # validates
    if not over_ratio > 0:
        raise ValueError("over_ratio must be > 0")
    _check_int(n_max, "n_max", 1)
    p1 = np.empty(n_max + 1)
    state = relax(apply_pulse(GROUND, Pulse.X90, over_ratio), slot_ns, t1_ns)
    p1[0] = state[1, 1].real
    u, u_h = _conjugation(Pulse.X180, over_ratio, 0.0)
    damp = (lambda s: s) if t1_ns == math.inf else _damping(slot_ns, t1_ns)
    for n in range(1, n_max + 1):
        for _ in range(2):
            state = damp(u @ state @ u_h)
        p1[n] = state[1, 1].real
    return np.arange(n_max + 1), p1


# --- two-qubit exchange ---------------------------------------------------


@dataclass(frozen=True)
class ExchangeParams:
    """Residual exchange coupling between two qubits.

    j_over_2pi_khz is the coupling J/2pi in kHz; t1 values in ns
    (math.inf allowed).
    """

    j_over_2pi_khz: float
    t1_a_ns: float = math.inf
    t1_b_ns: float = math.inf

    def __post_init__(self):
        if not 0 <= self.j_over_2pi_khz < math.inf:
            raise ValueError("j_over_2pi_khz must be finite and >= 0")
        if not (self.t1_a_ns > 0 and self.t1_b_ns > 0):
            raise ValueError("t1 values must be positive")

    @property
    def j_rad_per_ns(self) -> float:
        return 2 * math.pi * self.j_over_2pi_khz * 1e3 * 1e-9

    @property
    def swap_return_ns(self) -> float:
        """Time pi/J after which the initial excitation returns."""
        return math.pi / self.j_rad_per_ns


def exchange_swap(params: ExchangeParams, t_grid_ns):
    """Excitation swapping between two coupled qubits, starting from
    (excited, ground).

    Amplitude damping only moves population from the single-excitation
    block {|10>, |01>} down to |00>, so the two excited populations are
    |psi_a|^2 and |psi_b|^2 for psi(t) = exp(-iHt)|10> under the
    non-Hermitian block Hamiltonian
        H = J (flip-flop) - (i/2) diag(1/T1a, 1/T1b).
    With tau = tr(H)/2 and w^2 = J^2 - ((1/T1a - 1/T1b)/4)^2, the traceless
    part squares to (H - tau)^2 = w^2, which gives the exact propagator
        exp(-iHt) = exp(-i tau t) [cos(wt) I - i t sinc(wt) (H - tau)]
    with sinc(x) = sin(x)/x.  It needs no eigenvectors, so the exceptional
    point w = 0 is an ordinary input; for w^2 < 0 (damping outweighs
    coupling) cos and sinc become cosh and sinh(x)/x, whose growth is
    moved into the decay envelope so that long times cannot overflow.
    Returns (t_grid_ns, p1_a, p1_b) with the 1-d grid sorted.  A coupling or
    damping rate whose square overflows, or a grid so long that the phase
    w t does, raises ValueError naming that input.
    """
    t = np.asarray(t_grid_ns, dtype=float)
    if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)) or t.min() < 0:
        raise ValueError("t_grid_ns must be a non-empty 1-d grid, finite and non-negative")
    t = np.sort(t, kind="stable")

    j = params.j_rad_per_ns
    gamma_a, gamma_b = 1.0 / params.t1_a_ns, 1.0 / params.t1_b_ns
    for name, value, rate in (("j_over_2pi_khz", params.j_over_2pi_khz, j),
                              ("t1_a_ns", params.t1_a_ns, gamma_a),
                              ("t1_b_ns", params.t1_b_ns, gamma_b)):
        if not math.isfinite(rate * rate):
            raise ValueError(f"{name} = {value!r} is out of range: its rate squared overflows")
    delta = (gamma_a - gamma_b) / 4
    w2 = j * j - delta * delta
    w = math.sqrt(abs(w2))
    if not math.isfinite(w * float(t[-1])):
        raise ValueError(f"t_grid_ns reaches {float(t[-1])!r} ns, at which the phase w t overflows")
    wt = w * t
    rate = (gamma_a + gamma_b) / 4  # |exp(-i tau t)| = exp(-rate t)
    if w2 >= 0:
        cos_wt = np.cos(wt)
        t_sinc = t * np.sinc(wt / math.pi)
    else:  # rate >= w: cosh(wt) and sinh(wt)/w, each scaled by exp(-wt)
        rate -= w
        cos_wt = (1.0 + np.exp(-2.0 * wt)) / 2.0
        t_sinc = t * np.divide(-np.expm1(-2.0 * wt), 2.0 * wt,
                               out=np.ones_like(wt), where=wt > 0)
    with np.errstate(over="ignore"):  # rate t past the float range decays to exp(-inf) = 0
        envelope = np.exp(-rate * t)
    # psi = exp(-i tau t) [cos(wt) - i t sinc(wt) (H - tau)] (1, 0)
    psi_a = envelope * (cos_wt - delta * t_sinc)
    psi_b = envelope * j * t_sinc  # up to the phase -i
    return t, psi_a**2, psi_b**2
