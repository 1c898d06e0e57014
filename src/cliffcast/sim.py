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
    Schedule,
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
    scheme: str
    curves: list[RBCurve]
    mean_slots_per_round: float
    n_seeds: int
    rng_seed: int


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


# --- slot programs --------------------------------------------------------
# A slot program is a list with one entry per time slot: None for an empty
# slot, else (pulse, mask) with mask a tuple of bools per qubit.


def _schedule_slots(sched: Schedule) -> tuple:
    slots: list = [None] * sched.n_slots
    for ev in sched.events:
        slots[ev.slot] = (ev.pulse, ev.mask)
    return tuple(slots)


def _minimal_round_slots(c: int) -> tuple:
    """Single-qubit minimal-set round: the identity Clifford occupies one
    empty slot (its I pulse), other Cliffords one slot per pulse."""
    if c == 1:
        return (None,)
    return tuple((p, (True,)) for p in minimal_decomposition(c))


@lru_cache(maxsize=200_000)
def _round_slots_cached(combo: tuple, scheme: str, parity: int, n_idle: int) -> tuple:
    if scheme == SCHEME_MINIMAL:
        if len(combo) != 1:
            raise ValueError("minimal scheme is single-qubit")
        slots = _minimal_round_slots(combo[0])
    else:
        sched = compiler.compile_scheme(combo, scheme, round_parity=parity)
        slots = _schedule_slots(sched)
    if n_idle:
        idle = (False,) * n_idle
        slots = tuple(None if s is None else (s[0], s[1] + idle) for s in slots)
    return slots


def _round_slots(combo, scheme: str, round_index: int, n_idle: int) -> tuple:
    """Slot program of one round; n_idle never-routed qubits are appended
    to every mask."""
    return _round_slots_cached(tuple(combo), scheme, round_index % 2, n_idle)


def _simulate_slots(slots, models, states):
    for entry in slots:
        if entry is not None:
            pulse, mask = entry
            for q, model in enumerate(models):
                scale = model.over_ratio if mask[q] else model.cross_ratio
                if scale != 0.0:
                    states[q] = apply_pulse(states[q], pulse, scale)
        for q, model in enumerate(models):
            states[q] = relax(states[q], model.slot_ns, model.t1_ns)
    return states


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
    only through their cross_ratio.
    """
    if scheme not in RB_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    m_values = tuple(int(m) for m in m_values)
    if any(m < 1 for m in m_values):
        raise ValueError("sequence lengths must be >= 1")
    n = len(models)
    n_idle = n - n_driven

    p0_sum = np.zeros((n, len(m_values)))
    p0_sumsq = np.zeros((n, len(m_values)))
    slot_count = 0
    round_count = 0
    for rng in _spawn_rngs(rng_seed, n_seeds):
        for im, m in enumerate(m_values):
            seqs = rng.integers(1, 25, size=(n_driven, m))
            combos = [tuple(int(seqs[q, k]) for q in range(n_driven)) for k in range(m)]
            combos.append(tuple(recovery_clifford(seqs[q]) for q in range(n_driven)))
            states = [GROUND.copy() for _ in range(n)]
            for k, combo in enumerate(combos):
                slots = _round_slots(combo, scheme, k, n_idle)
                _simulate_slots(slots, models, states)
                slot_count += len(slots)
                round_count += 1
            for q in range(n):
                val = states[q][0, 0].real
                p0_sum[q, im] += val
                p0_sumsq[q, im] += val * val
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
        mean_slots_per_round=slot_count / round_count,
        n_seeds=n_seeds,
        rng_seed=rng_seed,
    )


def run_rb(models, scheme: str, m_values, n_seeds: int, rng_seed: int) -> RBResult:
    """Randomized benchmarking with per-qubit independent Clifford sequences.

    For every seed and sequence length m, each qubit gets m uniform Cliffords
    plus its own recovery Clifford; rounds are compiled with the chosen
    scheme (the symmetric five-primitive scheme alternates parity with the
    round index) and simulated slot by slot.  Returns seed-averaged ground
    and excited populations per qubit.
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
