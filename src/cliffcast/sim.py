"""Density-matrix simulation of broadcast-driven qubits.

Model: uncoupled two-level qubits, instantaneous unitary pulses, and
amplitude damping (T1 only) for one fixed slot duration after every slot.
Dephasing is deliberately not modeled: long random x/y pulse sequences
dynamically decouple it, and a plain dephasing term does not reproduce the
observed decay curves.  When a pulse event fires, masked qubits receive the
nominal rotation scaled by their over-driving ratio, and every unmasked
qubit receives the same rotation axis scaled by its cross-driving ratio
(stray drive through imperfect isolation).  Slots in which nothing fires
(identity slots, empty five-primitive slots) pass time only.

Benchmarking never propagates density matrices slot by slot: since the
qubits are uncoupled and every slot is a fixed linear channel, each round
is one cached 4x4 Pauli-transfer matrix per qubit, applied to the qubit's
Pauli vector (1, x, y, z).  The matrices are built from apply_pulse and
relax, so those two functions stay the only definition of the physics.

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
from .clifford import Pulse, minimal_decomposition, recovery_clifford, rotation_unitary
from .compiler import (
    SCHEME_COMPILED,
    SCHEME_FIVE,
    SCHEME_FIVE_SYMMETRIC,
    SCHEME_SEQUENTIAL,
)

SCHEME_MINIMAL = "minimal"

RB_SCHEMES = (
    SCHEME_MINIMAL,
    SCHEME_SEQUENTIAL,
    SCHEME_FIVE,
    SCHEME_FIVE_SYMMETRIC,
    SCHEME_COMPILED,
)

GROUND = np.array([[1, 0], [0, 0]], dtype=complex)
EXCITED = np.array([[0, 0], [0, 1]], dtype=complex)


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
        if not self.t1_ns > 0:
            raise ValueError("t1_ns must be positive (math.inf allowed)")
        if not self.slot_ns > 0:
            raise ValueError("slot_ns must be positive")
        if not 0.0 <= self.cross_ratio < 1.0:
            raise ValueError("cross_ratio must be in [0, 1)")
        if self.over_ratio < 0:
            raise ValueError("over_ratio must be >= 0")


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
    distinct_rounds counts the different round channels the run used,
    which is how many a round cache that starts empty builds.
    """

    scheme: str
    curves: list[RBCurve]
    n_seeds: int
    rng_seed: int
    rounds: int
    slots: int
    distinct_rounds: int

    @property
    def mean_slots_per_round(self) -> float:
        return self.slots / self.rounds


def apply_pulse(state: np.ndarray, p: Pulse, angle_scale: float = 1.0,
                phase_rad: float = 0.0) -> np.ndarray:
    """Conjugate the state by the pulse rotation with a scaled angle.

    phase_rad offsets the rotation axis within the equatorial plane (drive
    phase error).  Identity pulses and zero scales leave the state alone.
    """
    if p is Pulse.I or angle_scale == 0.0:
        return state.copy()
    if angle_scale < 0:
        raise ValueError("angle_scale must be >= 0")
    u = rotation_unitary(p.axis, p.angle * angle_scale, phase_rad)
    return u @ state @ u.conj().T


def relax(state: np.ndarray, dt: float, t1: float) -> np.ndarray:
    """Amplitude damping for duration dt with relaxation time t1.

    Exact Kraus channel: excited population decays by exp(-dt/t1),
    coherences by exp(-dt/2 t1).
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if dt == 0 or math.isinf(t1):
        return state.copy()
    decay = math.exp(-dt / t1)
    eta = math.sqrt(decay)
    out = np.empty_like(state)
    out[0, 0] = state[0, 0] + (1.0 - decay) * state[1, 1]
    out[1, 1] = decay * state[1, 1]
    out[0, 1] = eta * state[0, 1]
    out[1, 0] = eta * state[1, 0]
    return out


# --- benchmarking channels ------------------------------------------------
# A qubit's state is its Pauli vector (1, x, y, z), rho = (I + xX + yY + zZ)/2,
# so p0 = (1 + z)/2.  Every slot acts on it as a fixed real 4x4
# Pauli-transfer matrix R[i, j] = tr(P_i L(P_j))/2, built once by pushing the
# four Pauli matrices through apply_pulse and relax, and a round acts as the
# product of its slots' matrices.

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_GROUND_VECTOR = np.array([[1.0], [0.0], [0.0], [1.0]])  # a column: x = y = 0, z = 1


def _transfer_matrix(pulse: Pulse | None, scale: float, model: QubitModel) -> np.ndarray:
    """One slot on one qubit: the pulse at the given scale (None for an
    empty slot), then relaxation for the slot duration."""
    images = []
    for p in _PAULIS:
        if pulse is not None and scale != 0.0:
            p = apply_pulse(p, pulse, scale)
        images.append(relax(p, model.slot_ns, model.t1_ns))
    return np.einsum("iab,jba->ij", _PAULIS, images).real / 2


@lru_cache(maxsize=64)
def _slot_channels(models: tuple) -> dict:
    """The transfer matrices of one slot on every qubit.  An empty slot
    (key None) has shape (n_qubits, 4, 4); a pulse has shape
    (2, n_qubits, 4, 4), index 0 for a qubit that is not routed (stray
    drive at its cross_ratio) and 1 for a routed one (its over_ratio)."""
    per_model = {
        m: {pulse: [_transfer_matrix(pulse, m.cross_ratio, m),
                    _transfer_matrix(pulse, m.over_ratio, m)] for pulse in Pulse}
        for m in set(models)
    }
    table = {None: np.array([_transfer_matrix(None, 0.0, m) for m in models])}
    for pulse in Pulse:
        table[pulse] = np.stack([per_model[m][pulse] for m in models], axis=1)
    for channels in table.values():
        channels.flags.writeable = False
    return table


def _round_events(combo: tuple, scheme: str, parity: int) -> list:
    """One entry per time slot of a round: None when nothing fires, else
    (pulse, mask) with one bool per driven qubit."""
    if scheme == SCHEME_MINIMAL:
        if len(combo) != 1:
            raise ValueError("minimal scheme is single-qubit")
        # The identity Clifford occupies one empty slot (its I pulse).
        if combo[0] == 1:
            return [None]
        return [(p, (True,)) for p in minimal_decomposition(combo[0])]
    sched = compiler.compile_scheme(combo, scheme, round_parity=parity)
    slots: list = [None] * sched.n_slots
    for ev in sched.events:
        slots[ev.slot] = (ev.pulse, ev.mask)
    return slots


@lru_cache(maxsize=200_000)
def _round_channel(combo: tuple, scheme: str, parity: int,
                   models: tuple) -> tuple[np.ndarray, int]:
    """Transfer matrices of one round, shape (n_qubits, 4, 4), and its slot
    count.  Qubits past the combination's length are never routed."""
    slots = _round_events(combo, scheme, parity)
    table = _slot_channels(models)
    qubits = np.arange(len(models))
    routed = np.zeros(len(models), dtype=np.intp)
    out = np.tile(np.eye(4), (len(models), 1, 1))
    for entry in slots:
        if entry is None:
            channels = table[None]
        else:
            pulse, mask = entry
            routed[:len(mask)] = mask
            channels = table[pulse][routed, qubits]
        out = channels @ out
    out.flags.writeable = False
    return out, len(slots)


def _spawn_rngs(rng_seed: int, n_seeds: int):
    children = np.random.SeedSequence(rng_seed).spawn(n_seeds)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _seed_stderr(total: np.ndarray, total_sq: np.ndarray, n_seeds: int) -> np.ndarray:
    """Standard error of the seed mean from running sums."""
    if n_seeds < 2:
        return np.zeros_like(total)
    var = (total_sq - total**2 / n_seeds) / (n_seeds - 1)
    return np.sqrt(np.maximum(var, 0.0) / n_seeds)


def _benchmark(models: list, n_driven: int, scheme: str, m_values, n_seeds: int,
               rng_seed: int) -> RBResult:
    """The benchmarking loop behind run_rb and run_idle_crossdrive.

    The first n_driven qubits run independent random sequences as in
    run_rb; the remaining ones are never routed, so they feel every pulse
    only through their cross_ratio.  Each round applies its cached
    transfer matrices to the stacked Pauli vectors of all qubits.
    """
    if scheme not in RB_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    m_values = tuple(int(m) for m in m_values)
    if any(m < 1 for m in m_values):
        raise ValueError("sequence lengths must be >= 1")
    models = tuple(models)
    n = len(models)
    # Only the symmetric five-primitive scheme alternates with the round
    # index; the other schemes share one channel per combination.
    parities = (0, 1) if scheme == SCHEME_FIVE_SYMMETRIC else (0, 0)
    ground = np.repeat(_GROUND_VECTOR[None], n, axis=0)

    p0_sum = np.zeros((n, len(m_values)))
    p0_sumsq = np.zeros((n, len(m_values)))
    slot_count = 0
    round_count = 0
    used = {}  # (combo, parity) -> (channel, n_slots) of the rounds this run met
    for rng in _spawn_rngs(rng_seed, n_seeds):
        for im, m in enumerate(m_values):
            seqs = rng.integers(1, 25, size=(n_driven, m)).tolist()
            combos = list(zip(*seqs))
            combos.append(tuple(recovery_clifford(seq) for seq in seqs))
            states = ground  # (n_qubits, 4, 1): one Pauli column per qubit
            for k, combo in enumerate(combos):
                parity = parities[k & 1]
                step = used.get((combo, parity))
                if step is None:
                    step = used[combo, parity] = _round_channel(combo, scheme, parity, models)
                states = step[0] @ states
                slot_count += step[1]
            round_count += len(combos)
            val = (1.0 + states[:, 3, 0]) / 2
            p0_sum[:, im] += val
            p0_sumsq[:, im] += val * val
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
        rounds=round_count,
        slots=slot_count,
        distinct_rounds=len(used),
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
    (Pulse.I, Pulse.X90, 0.5),
    (Pulse.I, Pulse.Y90, 0.5),
    (Pulse.X90, Pulse.Y90, 0.5),
    (Pulse.Y90, Pulse.X90, 0.5),
    (Pulse.X90, Pulse.Y180, 0.5),
    (Pulse.Y90, Pulse.X180, 0.5),
    (Pulse.Y180, Pulse.Y90, 0.5),
    (Pulse.X180, Pulse.X90, 0.5),
    (Pulse.X90, Pulse.X180, 0.5),
    (Pulse.X180, Pulse.X90, 0.5),
    (Pulse.Y90, Pulse.Y180, 0.5),
    (Pulse.Y180, Pulse.Y90, 0.5),
    (Pulse.I, Pulse.X180, 1.0),
    (Pulse.I, Pulse.Y180, 1.0),
    (Pulse.X90, Pulse.X90, 1.0),
    (Pulse.Y90, Pulse.Y90, 1.0),
)


def simulate_allxy(over_ratio: float = 1.0, phase_rad: float = 0.0,
                   t1_ns: float = math.inf,
                   slot_ns: float = compiler.SLOT_NS) -> np.ndarray:
    """Excited-state population after each of the 21 two-pulse pairs.

    over_ratio scales every non-identity rotation angle (amplitude error);
    phase_rad offsets the axis of y pulses (drive phase error).
    """
    out = np.empty(len(ALLXY_SEQUENCE))
    for i, (first, second, _) in enumerate(ALLXY_SEQUENCE):
        state = GROUND.copy()
        for p in (first, second):
            phase = phase_rad if p.axis == "y" else 0.0
            scale = over_ratio if p is not Pulse.I else 1.0
            state = apply_pulse(state, p, scale, phase)
            state = relax(state, slot_ns, t1_ns)
        out[i] = state[1, 1].real
    return out


def allxy_ideal() -> np.ndarray:
    return np.array([ideal for _, _, ideal in ALLXY_SEQUENCE])


def simulate_amp_calibration(over_ratio: float, n_max: int = 49,
                             t1_ns: float = math.inf,
                             slot_ns: float = compiler.SLOT_NS) -> tuple[np.ndarray, np.ndarray]:
    """P1 versus N for the half-pulse-then-2N-pi-pulses amplitude check.

    The qubit starts in the ground state, gets one X90 and then 2N X180
    pulses, all scaled by over_ratio.  On an ideally driven qubit P1 stays
    at one half for every N; over-driving tilts the initial slope positive,
    under-driving negative.
    """
    if over_ratio <= 0:
        raise ValueError("over_ratio must be > 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n_values = np.arange(n_max + 1)
    p1 = np.empty(n_max + 1)
    for n in n_values:
        state = GROUND.copy()
        state = apply_pulse(state, Pulse.X90, over_ratio)
        state = relax(state, slot_ns, t1_ns)
        for _ in range(2 * int(n)):
            state = apply_pulse(state, Pulse.X180, over_ratio)
            state = relax(state, slot_ns, t1_ns)
        p1[n] = state[1, 1].real
    return n_values, p1


def initial_slope(p1: np.ndarray) -> float:
    return float(p1[1] - p1[0])


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
        if self.j_over_2pi_khz < 0:
            raise ValueError("coupling must be >= 0")
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
    Returns (t_grid_ns, p1_a, p1_b) with the grid sorted.
    """
    t = np.asarray(sorted(float(x) for x in t_grid_ns))
    if t.size == 0 or t[0] < 0:
        raise ValueError("t_grid_ns must be non-empty and non-negative")

    j = params.j_rad_per_ns
    gamma_a, gamma_b = 1.0 / params.t1_a_ns, 1.0 / params.t1_b_ns
    delta = (gamma_a - gamma_b) / 4
    w2 = j * j - delta * delta
    w = math.sqrt(abs(w2))
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
    envelope = np.exp(-rate * t)
    # psi = exp(-i tau t) [cos(wt) - i t sinc(wt) (H - tau)] (1, 0)
    psi_a = envelope * (cos_wt - delta * t_sinc)
    psi_b = envelope * j * t_sinc  # up to the phase -i
    return t, psi_a**2, psi_b**2
