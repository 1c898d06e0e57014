import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcast import clifford, fit, sim
from cliffcast.clifford import Pulse, recovery_clifford
from cliffcast.compiler import RB_SCHEMES
from cliffcast.sim import (
    ALLXY_SEQUENCE,
    GROUND,
    ExchangeParams,
    QubitModel,
    allxy_ideal,
    apply_pulse,
    exchange_swap,
    relax,
    run_idle_crossdrive,
    run_rb,
    simulate_allxy,
    simulate_amp_calibration,
)
from oracles import (
    ALLXY_PAIRS,
    allxy_per_pulse,
    allxy_staircase,
    amp_calibration,
    amp_calibration_per_pulse,
    benchmark_per_sequence,
    chain_product,
    lindblad_exchange,
    round_channels,
    slot_by_slot_benchmark,
    slot_transfer_matrix,
)


def assert_valid_state(rho, tol=1e-9):
    assert abs(np.trace(rho).real - 1.0) < tol
    assert np.allclose(rho, rho.conj().T, atol=tol)
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() > -tol


def test_ground_pi_pulse_excites():
    rho = apply_pulse(GROUND, Pulse.X180)
    assert rho[1, 1].real == pytest.approx(1.0, abs=1e-12)


def test_zero_scale_is_identity():
    for p in Pulse:
        rho = apply_pulse(GROUND, p, angle_scale=0.0)
        assert np.allclose(rho, GROUND)


def test_cross_drive_angle():
    rho = apply_pulse(GROUND, Pulse.X180, angle_scale=0.0076)
    expected = math.sin(0.0076 * math.pi / 2) ** 2
    assert rho[1, 1].real == pytest.approx(expected, rel=1e-9)


EXCITED = np.array([[0, 0], [0, 1]], dtype=complex)


def test_relax_t1_point():
    rho = relax(EXCITED, dt=1.0, t1=1.0)
    assert rho[1, 1].real == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_relax_zero_dt():
    rho = relax(EXCITED, dt=0.0, t1=5.0)
    assert np.allclose(rho, EXCITED)


def test_relax_coherence_half_rate():
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    rho = relax(plus, dt=2.0, t1=1.0)
    assert abs(rho[0, 1]) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


def test_relax_damps_a_stack_as_each_matrix():
    """relax damps any array whose first two axes are the 2x2 ones, bit for
    bit as it damps each matrix alone, and still rejects a negative dt."""
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(2, 2, 7)) + 1j * rng.normal(size=(2, 2, 7))
    for dt, t1 in ((20.0, 1e4), (3.5, 40.0), (0.0, 1e4), (20.0, math.inf)):
        damped = relax(stack, dt, t1)
        for k in range(7):
            assert damped[..., k].tobytes() == relax(stack[..., k].copy(), dt, t1).tobytes()
    with pytest.raises(ValueError, match="dt"):
        relax(stack, -1.0, 1e4)
    with pytest.raises(ValueError, match="dt"):
        relax(GROUND, -1e-12, 1e4)


def test_apply_pulse_rejects_a_negative_scale():
    with pytest.raises(ValueError, match="angle_scale"):
        apply_pulse(GROUND, Pulse.X90, -0.5)


@pytest.mark.parametrize("pulse, angle_scale, phase_rad, name", [
    (Pulse.X90, math.nan, 0.0, "angle_scale"),
    (Pulse.X90, math.inf, 0.0, "angle_scale"),
    (Pulse.X180, 1e308, 0.0, "angle_scale"),  # the angle overflows
    (Pulse.X90, -math.inf, 0.0, "angle_scale"),
    (Pulse.I, -0.5, 0.0, "angle_scale"),
    (Pulse.Y90, 1.0, math.nan, "phase_rad"),
    (Pulse.Y90, 1.0, math.inf, "phase_rad"),
    (Pulse.X90, 1.0, -math.inf, "phase_rad"),
    (Pulse.I, 1.0, math.nan, "phase_rad"),
])
def test_apply_pulse_rejects_what_a_qubit_model_rejects(pulse, angle_scale, phase_rad, name):
    """For every pulse, the identity too, a scale must be >= 0 with a finite
    angle and a phase finite, as QubitModel requires; the error names the
    argument."""
    with pytest.raises(ValueError, match=f"^{name} "):
        apply_pulse(GROUND, pulse, angle_scale, phase_rad)


@pytest.mark.parametrize("dt, t1, name", [
    (20.0, -5.0, "t1"),
    (20.0, 0.0, "t1"),
    (20.0, math.nan, "t1"),
    (20.0, -math.inf, "t1"),
    (math.nan, 1e4, "dt"),
    (math.nan, math.inf, "dt"),
    (-math.inf, 1e4, "dt"),
])
def test_relax_rejects_what_a_qubit_model_rejects(dt, t1, name):
    """t1 must be > 0 (inf allowed) and dt >= 0, neither NaN, as QubitModel
    requires of its T1 and slot length; the error names the argument."""
    with pytest.raises(ValueError, match=f"^{name} "):
        relax(EXCITED, dt, t1)


def test_relax_accepts_the_limits():
    assert relax(EXCITED, math.inf, 1e4).tobytes() == GROUND.tobytes()
    assert relax(EXCITED, math.inf, math.inf).tobytes() == EXCITED.tobytes()


@pytest.mark.parametrize("models", [
    (QubitModel(),),
    (QubitModel(t1_ns=10_000.0, cross_ratio=0.0076, over_ratio=1.02),
     QubitModel(t1_ns=800.0, slot_ns=33.3, cross_ratio=0.0, over_ratio=0.0)),
    (QubitModel(t1_ns=2_500.0, slot_ns=7.0, cross_ratio=0.4, over_ratio=2.7),
     QubitModel(), QubitModel(t1_ns=2_500.0, slot_ns=7.0, cross_ratio=0.4, over_ratio=2.7)),
])
def test_slot_table_matches_the_transfer_matrix_oracle(models):
    """Every slot matrix of a register, routed and stray, for each distinct
    model: lossless and damped qubits, zero ratios, other slot lengths."""
    kinds, slots = sim._slot_table(models)
    assert slots.shape == (len(set(models)), len(sim.SLOT_PULSES), 2, 4, 4)
    for q, model in enumerate(models):
        for code, pulse in enumerate(sim.SLOT_PULSES):
            for routed, scale in enumerate((model.cross_ratio, model.over_ratio)):
                want = slot_transfer_matrix(pulse and pulse.label, scale, model.slot_ns,
                                            model.t1_ns)
                got = slots[kinds[q], code, routed]
                assert np.max(np.abs(got - want)) <= 1e-15


def test_slot_table_pushes_one_stack_per_model(monkeypatch):
    """Each distinct model's slots take one apply_pulse call per slot pulse
    and scale and one relax call, through the module's globals, so that a
    tracer that swaps them sees every call."""
    calls = {"apply_pulse": 0, "relax": 0}
    for name in calls:
        def counted(*args, _f=getattr(sim, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(sim, name, counted)
    models = (QubitModel(t1_ns=9e3), QubitModel(over_ratio=1.1), QubitModel(t1_ns=9e3))
    sim._slot_table.__wrapped__(models)
    assert calls == {"apply_pulse": 2 * 2 * len(sim.SLOT_PULSES), "relax": 2}


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(list(Pulse)), min_size=1, max_size=20),
    st.floats(0.0, 2.0),
    st.floats(10.0, 1e5),
)
def test_states_stay_physical(pulses, scale, t1):
    rho = GROUND.copy()
    for p in pulses:
        rho = apply_pulse(rho, p, scale)
        rho = relax(rho, 20.0, t1)
    assert_valid_state(rho)


def test_qubit_model_validation():
    with pytest.raises(ValueError):
        QubitModel(t1_ns=0.0)
    with pytest.raises(ValueError):
        QubitModel(cross_ratio=1.5)
    with pytest.raises(ValueError):
        QubitModel(slot_ns=-1.0)
    for bad in ({"over_ratio": math.nan}, {"over_ratio": math.inf},
                {"slot_ns": math.nan}, {"slot_ns": math.inf}, {"t1_ns": math.nan}):
        with pytest.raises(ValueError):
            QubitModel(**bad)


@pytest.mark.parametrize(
    "scheme,n",
    [
        ("minimal", 1),
        ("sequential", 2),
        ("five-primitives", 2),
        ("five-primitives-symmetric", 2),
        ("compiled", 2),
    ],
)
def test_noiseless_rb_returns_to_ground(scheme, n):
    models = [QubitModel() for _ in range(n)]
    res = run_rb(models, scheme, m_values=[1, 5, 20], n_seeds=3, rng_seed=2)
    for curve in res.curves:
        assert np.all(np.abs(curve.p0 - 1.0) < 1e-9)
        assert np.all(np.abs(curve.p0 + curve.p1 - 1.0) < 1e-9)


def test_rb_determinism():
    models = [QubitModel(t1_ns=15_000.0)]
    a = run_rb(models, "minimal", [1, 8, 64], n_seeds=5, rng_seed=9)
    b = run_rb(models, "minimal", [1, 8, 64], n_seeds=5, rng_seed=9)
    assert np.array_equal(a.curves[0].p0, b.curves[0].p0)
    assert a.mean_slots_per_round == b.mean_slots_per_round


def test_rb_seed_changes_curve():
    models = [QubitModel(t1_ns=15_000.0)]
    a = run_rb(models, "minimal", [64], n_seeds=5, rng_seed=9)
    b = run_rb(models, "minimal", [64], n_seeds=5, rng_seed=10)
    assert not np.array_equal(a.curves[0].p0, b.curves[0].p0)


def test_minimal_scheme_single_qubit_only():
    with pytest.raises(ValueError):
        run_rb([QubitModel(), QubitModel()], "minimal", [4], 1, 0)


@pytest.mark.parametrize("models, m_values, n_seeds, match", [
    ([QubitModel()], [4], 0, "n_seeds"),
    ([QubitModel()], [4, 0], 1, "lengths"),
    ([], [4], 1, "model"),
])
def test_benchmark_rejects_empty_runs(models, m_values, n_seeds, match):
    with pytest.raises(ValueError, match=match):
        run_rb(models, "compiled", m_values, n_seeds, 0)


@pytest.mark.parametrize("m_values", [[], (), np.array([], dtype=int)])
def test_benchmark_rejects_no_sequence_lengths(m_values):
    with pytest.raises(ValueError, match="at least one sequence length"):
        run_rb([QubitModel(t1_ns=1e4)], "minimal", m_values, 1, 0)
    with pytest.raises(ValueError, match="at least one sequence length"):
        run_idle_crossdrive([QubitModel(t1_ns=1e4)] * 2, "minimal", m_values, 1, 0)


@pytest.mark.parametrize("kwargs, name", [
    ({"m_values": [2.5, 3.9]}, "sequence length"),
    ({"m_values": [np.float64(4)]}, "sequence length"),
    ({"n_seeds": 1.5}, "n_seeds"),
    ({"rng_seed": 1.5}, "rng_seed"),
])
def test_benchmark_rejects_non_integer_counts(kwargs, name):
    """A float count raises a ValueError that names it, instead of being
    truncated (lengths) or failing inside numpy (seeds)."""
    args = {"m_values": [2, 3], "n_seeds": 1, "rng_seed": 1, **kwargs}
    with pytest.raises(ValueError, match=name):
        run_rb([QubitModel(t1_ns=1e4)], "minimal", **args)
    with pytest.raises(ValueError, match=name):
        run_idle_crossdrive([QubitModel(t1_ns=1e4)] * 2, "minimal", **args)


def test_benchmark_takes_numpy_integer_counts():
    models = [QubitModel(t1_ns=1e4)]
    want = run_rb(models, "minimal", [2, 3], 2, 1)
    got = run_rb(models, "minimal", np.array([2, 3]), np.int64(2), np.int32(1))
    assert got.curves[0].m_values == (2, 3)
    assert all(type(m) is int for m in got.curves[0].m_values)
    assert got.curves[0].p0.tobytes() == want.curves[0].p0.tobytes()


# Every model feature the transfer matrices must carry: relaxation and its
# absence, stray drive on unrouted qubits, over- and under-driving, and a
# slot length other than the default.
_LOSSY = QubitModel(t1_ns=6_000.0, cross_ratio=0.02, over_ratio=1.03)
_LOSSLESS = QubitModel(cross_ratio=0.015, over_ratio=0.96)
_SLOW = QubitModel(t1_ns=12_000.0, slot_ns=30.0, cross_ratio=0.0076)

CHANNEL_CASES = {
    "minimal": (run_rb, "minimal", [_LOSSY]),
    "sequential": (run_rb, "sequential", [_LOSSY, _LOSSLESS]),
    "five-primitives": (run_rb, "five-primitives", [_LOSSLESS, _SLOW]),
    "five-primitives-symmetric": (run_rb, "five-primitives-symmetric",
                                  [_LOSSY, _SLOW]),
    "compiled": (run_rb, "compiled", [_LOSSY, _LOSSLESS, _SLOW]),
    "idle-minimal": (run_idle_crossdrive, "minimal", [_LOSSY, _SLOW]),
    "idle-five-primitives-symmetric": (run_idle_crossdrive,
                                       "five-primitives-symmetric",
                                       [_LOSSLESS, _LOSSY]),
}


# (rounds, slots, distinct_rounds, qubit_channels) of each run below, as the
# per-round loop counted them before the batched pass.
WORK_COUNTS = {
    "minimal": (270, 505, 24, 24),
    "sequential": (270, 1006, 215, 430),
    "five-primitives": (270, 1350, 215, 223),
    "five-primitives-symmetric": (270, 1350, 242, 320),
    "compiled": (270, 958, 270, 571),
    "idle-minimal": (270, 505, 24, 48),
    "idle-five-primitives-symmetric": (270, 1350, 48, 94),
    "17-compiled": (32, 160, 32, 72),
    "17-five-primitives-symmetric": (32, 160, 32, 139),
}


def _work(res):
    return res.rounds, res.slots, res.distinct_rounds, res.qubit_channels


@pytest.mark.parametrize("case", list(CHANNEL_CASES))
def test_channel_benchmark_matches_slot_by_slot_oracle(case):
    run, scheme, models = CHANNEL_CASES[case]
    m_values = (1, 2, 5, 17, 60)
    res = run(models, scheme, m_values, n_seeds=3, rng_seed=41)
    n_driven = 1 if run is run_idle_crossdrive else len(models)
    p0, slots_per_round = slot_by_slot_benchmark(models, n_driven, scheme, m_values,
                                                 3, 41)
    got = np.array([c.p0 for c in res.curves])
    assert np.max(np.abs(got - p0)) < 1e-12
    assert res.mean_slots_per_round == slots_per_round
    assert res.rounds == 3 * sum(m + 1 for m in m_values)
    assert _work(res) == WORK_COUNTS[case]


# The surface-code register size, with every model feature on some qubit.
_SEVENTEEN = [(_LOSSY, _LOSSLESS, _SLOW)[q % 3] for q in range(17)]


@pytest.mark.parametrize("scheme", ["compiled", "five-primitives-symmetric"])
def test_seventeen_qubits_match_slot_by_slot_oracle(scheme):
    m_values = (1, 3, 9)
    res = run_rb(_SEVENTEEN, scheme, m_values, n_seeds=2, rng_seed=17)
    p0, slots_per_round = slot_by_slot_benchmark(_SEVENTEEN, 17, scheme, m_values, 2, 17)
    got = np.array([c.p0 for c in res.curves])
    assert np.max(np.abs(got - p0)) < 1e-12
    assert res.mean_slots_per_round == slots_per_round
    # 17 qubits take two 13-qubit words of the round code.
    assert _work(res) == WORK_COUNTS[f"17-{scheme}"]


_README_QUBITS = [QubitModel(t1_ns=10_000.0, cross_ratio=0.0076), QubitModel(t1_ns=10_000.0)]
_README_M = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 800)
_THREE = [_LOSSY, _LOSSLESS, _SLOW]

# Runs on both sides of _benchmark's table choice: the README register,
# three qubits at 8 and 16 seeds and single driven qubits draw every round
# that exists (the every-round table); short runs and 8 compiled qubits
# draw fewer (the per-run table).
FROZEN_RUNS = [
    *[(run_rb, scheme, _README_QUBITS, _README_M, 1, 7)
      for scheme in ("sequential", "five-primitives", "five-primitives-symmetric", "compiled")],
    *[(run_rb, scheme, _THREE, _README_M, 8, 3)
      for scheme in ("sequential", "five-primitives-symmetric", "compiled")],
    (run_rb, "five-primitives-symmetric", _THREE, _README_M, 16, 3),
    (run_rb, "compiled", _README_QUBITS, (1, 4, 16), 2, 5),
    (run_rb, "compiled", [QubitModel(t1_ns=10_000.0, cross_ratio=0.0076)] * 8,
     (1, 2, 4, 8, 16, 32, 64, 128), 2, 11),
    (run_rb, "minimal", [_LOSSY], (1, 8, 64), 2, 9),
    (run_idle_crossdrive, "minimal", [_LOSSY, _SLOW], (1, 8, 64), 2, 9),
    (run_idle_crossdrive, "five-primitives-symmetric", [_LOSSLESS, _LOSSY], (1, 8, 64), 2, 9),
]

# sha256 of p0, p0_stderr and the work counters of FROZEN_RUNS, as the
# round memo on the slot table computed them.
FROZEN_DIGEST = "390394e2b0bb524b10e76afdcc6ebee04838d974666996e0b627ccfa79753242"


def test_benchmark_bytes_are_frozen():
    h = hashlib.sha256()
    for run, scheme, models, m_values, n_seeds, rng_seed in FROZEN_RUNS:
        res = run(models, scheme, m_values, n_seeds, rng_seed)
        for curve in res.curves:
            h.update(curve.p0.tobytes())
            h.update(curve.p0_stderr.tobytes())
        h.update(np.array(_work(res), dtype=np.int64).tobytes())
    assert h.hexdigest() == FROZEN_DIGEST


# Lengths with 1, repeats, odd and non-power-of-two lengths and, on each
# table path, one above 1024; (run, models, lengths, seeds) per path.  The
# every-round runs draw at least as many rounds as exist, the others fewer.
_PER_SEQUENCE_PATHS = {
    "every-round": lambda scheme: (
        (run_rb, [_LOSSY], (1, 3, 3, 7, 1025), 2) if scheme == "minimal" else
        (run_rb, [_LOSSY, _SLOW], (1, 3, 3, 7, 100, 1500), 1)),
    "distinct": lambda scheme: (
        (run_rb, [_LOSSY], (1, 3, 3), 1) if scheme == "minimal" else
        (run_rb, _THREE, (1, 1, 2, 5, 6, 33, 1100), 3)),
    "idle-every-round": lambda scheme: (
        run_idle_crossdrive, [_LOSSLESS, _LOSSY], (1, 2, 2, 9, 31, 1030), 2),
    "idle-distinct": lambda scheme: (run_idle_crossdrive, [_SLOW, _LOSSY], (1, 2, 2), 1),
}
_PER_SEQUENCE_CASES = [(scheme, path) for path in _PER_SEQUENCE_PATHS for scheme in RB_SCHEMES
                       if not path.startswith("idle")
                       or scheme in ("minimal", "five-primitives-symmetric")]


@pytest.mark.parametrize("scheme,path", _PER_SEQUENCE_CASES)
def test_benchmark_is_the_per_sequence_loop(scheme, path):
    """Every sequence of a seed reduced at once gives the p0 and p0_stderr
    bytes and the work counters of one chain_product per sequence, on both
    sides of the table choice, for every scheme and 1 to 3 seeds."""
    run, models, m_values, n_seeds = _PER_SEQUENCE_PATHS[path](scheme)
    n_driven = 1 if run is run_idle_crossdrive else len(models)
    res = run(models, scheme, m_values, n_seeds, 2701)
    p0, p0_err, work = benchmark_per_sequence(models, n_driven, scheme, m_values, n_seeds, 2701)
    periods = 2 if scheme == "five-primitives-symmetric" else 1
    assert (periods * 24**n_driven <= res.rounds) == path.endswith("every-round")
    assert [c.p0.tobytes() for c in res.curves] == [row.tobytes() for row in p0]
    assert [c.p0_stderr.tobytes() for c in res.curves] == [row.tobytes() for row in p0_err]
    assert _work(res) == work


_SPECIAL_LENGTHS = sorted({v for k in range(12) for v in (2**k - 1, 2**k, 2**k + 1)} - {0})


def test_chain_products_reduce_as_chain_product_and_recovery_clifford():
    """The block plan's level-by-level reduction of sequences laid end to
    end gives each sequence's chain_product to the byte, and, over the
    compose table, each one's recovery_clifford, for seeded length tuples in
    1..2100 with powers of two and their neighbours."""
    rng = np.random.default_rng(2701)
    for _ in range(12):
        lengths = tuple(int(v) for v in rng.choice(
            np.concatenate([_SPECIAL_LENGTHS, rng.integers(1, 2101, 8)]), rng.integers(1, 7)))
        starts = np.cumsum((0,) + lengths)
        # Gaussian 4x4 of variance 1/4: long products neither overflow nor underflow.
        mats = rng.normal(0.0, 0.5, size=(starts[-1], 2, 4, 4))
        got = sim._chain_products(lengths, lambda src: mats[src], np.matmul)
        for s in range(len(lengths)):
            assert got[s].tobytes() == chain_product(mats[starts[s]:starts[s + 1]]).tobytes()
        ids = rng.integers(1, 25, size=(starts[-1], 3))
        got = sim._chain_products(lengths, lambda src: ids[src],
                                  lambda later, earlier: clifford._COMPOSE_TABLE[earlier, later])
        for s in range(len(lengths)):
            want = recovery_clifford(ids[starts[s]:starts[s + 1]].T)
            assert clifford._INVERSE_TABLE[got[s]].tolist() == want.tolist(), lengths
    plan = sim._block_plan(lengths)
    assert plan is sim._block_plan(lengths)
    src, levels = plan
    assert sorted(src.tolist()) == list(range(starts[-1]))
    assert not any(a.flags.writeable for a in (src, *(a for level in levels for a in level[1:])))


def test_round_codes_do_not_wrap_at_the_word_boundary():
    """Two 17-qubit rounds whose base-24 codes differ by exactly 2^63 stay
    distinct: in one int64 word, doubled for the parity bit, both codes
    would be 0, but a round's key is its parity and ids, one row each."""
    digits = [2**63 // 24**i % 24 for i in range(14)]
    a = [d + 1 for d in digits] + [1] * 3
    b = [1] * 17
    ids = np.array([a, b, a, b])
    firsts, inverse = sim._unique_columns(np.vstack([np.zeros(4, np.int64), ids.T]))
    assert sorted(firsts.tolist()) == [0, 1]
    assert inverse[0] == inverse[2] != inverse[1] == inverse[3]


def test_qubit_channel_cache_grows_by_signature_not_by_round():
    """On 8 compiled qubits nearly every round is a new combination, but
    their qubits share few slot signatures, so far fewer channels are built
    than there are qubit rounds."""
    models = [QubitModel(t1_ns=10_000.0, cross_ratio=0.0076)] * 8
    m_values = (1, 2, 4, 8, 16, 32, 64, 128)
    for rng_seed in (11, 12):
        res = run_rb(models, "compiled", m_values, n_seeds=2, rng_seed=rng_seed)
        assert res.distinct_rounds >= 0.95 * res.rounds
        assert 0 < res.qubit_channels < res.distinct_rounds * len(models) / 2


@pytest.mark.parametrize("scheme", RB_SCHEMES)
def test_every_round_table_matches_rounds_built_alone(scheme):
    """The every-round table gives a run's rounds the channels and slot
    counts that building only those rounds gives (oracles.round_channels),
    bit for bit, with an undriven third qubit, or two on the one-qubit
    minimal scheme."""
    models = (_LOSSY, _SLOW, _LOSSLESS)
    n_driven = 1 if scheme == "minimal" else 2
    rng = np.random.default_rng(3)
    ids = rng.integers(1, 25, size=(300, n_driven))
    parity = np.zeros(300, int)
    if scheme == "five-primitives-symmetric":
        parity = rng.integers(0, 2, 300)
    rows, channels, n_slots = sim._every_round(models, scheme, n_driven)
    index = parity * 24**n_driven + (ids - 1) @ 24 ** np.arange(n_driven)
    alone_rows, alone_channels, alone_slots = round_channels(models, scheme, ids, parity)
    assert channels[rows[index]].tobytes() == alone_channels[alone_rows].tobytes()
    assert n_slots[index].tobytes() == alone_slots.tobytes()
    assert not any(array.flags.writeable for array in (rows, channels, n_slots))


def test_benchmark_builds_every_round_only_when_it_draws_as_many(monkeypatch):
    """A run that draws at least as many rounds as exist reads all of them
    once; a shorter one reads only its distinct rounds."""
    read = []

    def counted(models, scheme, ids, parity, _f=sim._rounds):
        read.append(len(ids))
        return _f(models, scheme, ids, parity)
    monkeypatch.setattr(sim, "_rounds", counted)
    sim._every_round.cache_clear()
    models = [_LOSSY, _SLOW]
    run_rb(models, "five-primitives-symmetric", (1, 4, 16), 2, 5)
    short = run_rb(models, "five-primitives-symmetric", (1, 4, 16), 2, 5)
    readme = run_rb(models, "five-primitives-symmetric", _README_M, 1, 5)
    run_rb(models, "five-primitives-symmetric", _README_M, 1, 6)
    assert read == [short.distinct_rounds, short.distinct_rounds, 2 * 24**2]
    assert readme.rounds >= 2 * 24**2 > readme.distinct_rounds


_COLUMN_SCHEMES = ("five-primitives", "five-primitives-symmetric", "compiled")


def test_column_channels_match_rounds_built_alone():
    """Rounds of each fixed-train scheme read from its column table get the
    channels and slot counts that building their slot signatures gives
    (oracles.round_channels), bit for bit: 1..17 qubits of mixed models, up
    to two of them idle (past ids' columns), identity targets, either
    parity, all-identity rounds and five-primitive rounds, and one minimal
    qubit with up to two idle.  An all-identity round reads one row per
    qubit at both parities."""
    rng = np.random.default_rng(24)
    for scheme in (*_COLUMN_SCHEMES, "minimal"):
        fallbacks = idle = 0
        for n in (1, 2, 3) * 4 if scheme == "minimal" else range(1, 18):
            models = tuple(_THREE[k] for k in rng.integers(0, 3, n))
            driven = 1 if scheme == "minimal" else n - int(rng.integers(0, min(n, 3)))
            ids = rng.integers(1, 25, size=(200, driven))
            ids[rng.random(ids.shape) < 0.2] = 1
            ids[:4] = 1
            parity = rng.integers(0, 2, len(ids))
            parity[:4] = [0, 1, 0, 1]
            rows, channels, n_slots = sim._rounds(models, scheme, ids, parity)
            alone_rows, alone_channels, alone_slots = round_channels(models, scheme, ids, parity)
            assert channels[rows].tobytes() == alone_channels[alone_rows].tobytes()
            assert n_slots.tobytes() == alone_slots.tobytes()
            assert (rows[:4] == rows[0]).all()
            assert n_slots[:4].tolist() == [{"compiled": 0, "minimal": 1}.get(scheme, 5)] * 4
            fallbacks += np.count_nonzero(n_slots == 5)
            idle += n - driven
        assert (fallbacks > 1000 or scheme == "minimal") and idle > 10, scheme


@pytest.mark.parametrize("models,m_values", [
    ([QubitModel(t1_ns=10_000.0, cross_ratio=0.0076)] * 8, (1, 2, 4, 8, 16, 32, 64, 128)),
    (_THREE * 3, (1, 4, 16)),
], ids=["eight-alike", "nine-mixed"])
def test_compiled_runs_read_the_table_and_count_as_signatures(monkeypatch, models, m_values):
    """A run of a fixed-train scheme that draws fewer rounds than exist
    never builds its rounds, and gives the p0 bytes and work counters of
    building their slot signatures (oracles.round_channels)."""
    def unused(*args):
        raise AssertionError("_sequential_channels called")
    for scheme in _COLUMN_SCHEMES:
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_sequential_channels", unused)
            res = run_rb(models, scheme, m_values, n_seeds=2, rng_seed=31)
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_rounds", round_channels)
            built = run_rb(models, scheme, m_values, n_seeds=2, rng_seed=31)
        assert _work(res) == _work(built), scheme
        assert [c.p0.tobytes() for c in res.curves] == [c.p0.tobytes() for c in built.curves]


def test_minimal_idle_runs_read_the_table(monkeypatch):
    """A minimal cross-drive run that draws fewer rounds than exist (18 of
    24) reads its rounds from the minimal column table, never building
    them, with the p0 bytes and work counters of building their slot
    signatures (oracles.round_channels)."""
    def unused(*args):
        raise AssertionError("_sequential_channels called")
    with monkeypatch.context() as patch:
        patch.setattr(sim, "_sequential_channels", unused)
        res = run_idle_crossdrive([_LOSSY, _SLOW], "minimal", (1, 2, 3), 2, 31)
    with monkeypatch.context() as patch:
        patch.setattr(sim, "_rounds", round_channels)
        built = run_idle_crossdrive([_LOSSY, _SLOW], "minimal", (1, 2, 3), 2, 31)
    assert res.rounds == 18 and _work(res) == _work(built)
    assert [c.p0.tobytes() for c in res.curves] == [c.p0.tobytes() for c in built.curves]


def test_column_channel_tables_are_read_only_and_small():
    """Each fixed-train scheme's per-register table: 151 compiled columns
    of 1,473 (column, fired subset) pairs, 64 five-primitive columns
    (parity and union of fired slots) of 438 for either five-primitive
    scheme, and 25 minimal columns (one per Clifford id, column 0 unused)
    of 49."""
    shapes = {"compiled": ((3, 151, 25), (3 * 1473, 4, 4)),
              "five-primitives": ((3, 64, 25), (3 * 438, 4, 4)),
              "five-primitives-symmetric": ((3, 64, 25), (3 * 438, 4, 4)),
              "minimal": ((3, 25, 25), (3 * 49, 4, 4))}
    for scheme in shapes:
        pairs, channels, lengths = sim._column_channels(tuple(_THREE), scheme)
        assert (pairs.shape, channels.shape) == shapes[scheme]
        assert lengths.shape == pairs.shape[1:2]
        assert channels.nbytes / 3 < 200_000
        ids = np.array([[2]] if scheme == "minimal" else [[2, 13]])
        rows, gathered, _ = sim._rounds(tuple(_THREE), scheme, ids, np.array([1]))
        assert rows.shape == (1, 3)
        assert not any(a.flags.writeable for a in (pairs, channels, lengths, gathered))


def test_five_primitive_schemes_share_one_channel_table():
    """Both five-primitive schemes read the one five-primitive column table,
    so a register run on both builds and keeps its channels once."""
    sim._column_channels.cache_clear()
    ids, parity = np.array([[2, 13], [1, 1]]), np.array([0, 1])
    normal, symmetric = (sim._rounds(tuple(_THREE), scheme, ids, parity)
                         for scheme in ("five-primitives", "five-primitives-symmetric"))
    assert normal[1] is symmetric[1]
    assert (normal[0][0] == symmetric[0][0]).all()
    assert sim._column_channels.cache_info().currsize == 1


def test_wide_runs_retain_no_state():
    """Runs on fresh seeds keep nothing once they return: their compiled
    rounds are read from the per-register cover-column table
    (_column_channels), which the first run builds, and nothing a run
    builds for itself outlives it."""
    models = [QubitModel(t1_ns=10_000.0, cross_ratio=0.0076)] * 8
    m_values = (1, 2, 4, 8, 16, 32, 64, 128)
    run_rb(models, "compiled", m_values, n_seeds=2, rng_seed=0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for rng_seed in range(1, 21):
            run_rb(models, "compiled", m_values, n_seeds=2, rng_seed=rng_seed)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.1e6


def test_twenty_four_sequential_qubits_match_slot_by_slot_oracle():
    """Sequential rounds on 24 qubits take about 46 slots, so each qubit's
    slot signature spans several words and its fired slots overflow one
    int64 bitmask."""
    models = [(_LOSSY, _LOSSLESS, _SLOW)[q % 3] for q in range(24)]
    res = run_rb(models, "sequential", (1, 3), n_seeds=2, rng_seed=24)
    p0, slots_per_round = slot_by_slot_benchmark(models, 24, "sequential", (1, 3), 2, 24)
    got = np.array([c.p0 for c in res.curves])
    assert np.max(np.abs(got - p0)) < 1e-12
    assert res.mean_slots_per_round == slots_per_round > 3 * sim._SIGNATURE_SLOTS


def test_idle_crossdrive_checks_its_register_and_scheme():
    with pytest.raises(ValueError, match="driven, idle"):
        run_idle_crossdrive([QubitModel()] * 3, "minimal", [4], 1, 0)
    for scheme in ("sequential", "compiled"):
        with pytest.raises(ValueError, match="minimal or five-primitive"):
            run_idle_crossdrive([QubitModel()] * 2, scheme, [4], 1, 0)


def test_idle_crossdrive_zero_ratio_stays_ground():
    driven = QubitModel(t1_ns=20_000.0)
    idle = QubitModel(t1_ns=20_000.0, cross_ratio=0.0)
    res = run_idle_crossdrive([driven, idle], "minimal", [1, 16, 128], 4, 3)
    assert np.all(res.curves[1].p1 < 1e-9)


def test_idle_crossdrive_builds_up_under_minimal_set():
    driven = QubitModel(t1_ns=10_000.0)
    idle = QubitModel(t1_ns=10_000.0, cross_ratio=0.0076)
    res = run_idle_crossdrive(
        [driven, idle], "minimal", [16, 128, 400, 800], n_seeds=8, rng_seed=4
    )
    assert res.curves[1].p1.max() > 0.05


def test_allxy_ideal_staircase():
    p1 = simulate_allxy()
    ideal = allxy_ideal()
    assert np.allclose(p1, ideal, atol=1e-12)
    counts = {0.0: 5, 0.5: 12, 1.0: 4}
    values, freq = np.unique(ideal, return_counts=True)
    assert dict(zip(values.tolist(), freq.tolist())) == counts


def test_allxy_pairs_are_the_standard_distinct_pairs():
    labels = {Pulse.I: "I", Pulse.X180: "X", Pulse.Y180: "Y", Pulse.X90: "x",
              Pulse.Y90: "y"}
    pairs = [(first, second) for first, second, _ in ALLXY_SEQUENCE]
    assert len(pairs) == 21 and len(set(pairs)) == 21
    assert [labels[a] + labels[b] for a, b in pairs] == ALLXY_PAIRS


def test_allxy_overrotation_signature():
    p1 = simulate_allxy(over_ratio=1.1)
    # identity pair untouched, double-pi pairs deviate from zero
    assert p1[0] == pytest.approx(0.0, abs=1e-12)
    assert p1[1] > 1e-3
    assert p1[3] > 1e-3


def test_allxy_phase_error_shifts_mixed_axis_pairs():
    p1 = simulate_allxy(phase_rad=0.1)
    ideal = allxy_ideal()
    # pure-x pairs keep their ideal values; quarter-turn x/y combinations
    # pick up a shift proportional to the axis misalignment
    assert p1[1] == pytest.approx(ideal[1], abs=1e-12)
    assert abs(p1[7] - ideal[7]) > 1e-3
    assert abs(p1[8] - ideal[8]) > 1e-3


def test_amp_calibration_flat_at_nominal():
    _, p1 = simulate_amp_calibration(1.0, n_max=20)
    assert np.allclose(p1, 0.5, atol=1e-9)


@pytest.mark.parametrize("ratio", [0.98, 0.99, 1.01, 1.02])
def test_amp_calibration_slope_sign(ratio):
    _, p1 = simulate_amp_calibration(ratio, n_max=20)
    assert math.copysign(1.0, p1[1] - p1[0]) == math.copysign(1.0, ratio - 1.0)


def test_amp_calibration_guards():
    for over_ratio in (0.0, -0.0):
        with pytest.raises(ValueError, match="over_ratio"):
            simulate_amp_calibration(over_ratio)


def test_amp_calibration_rejects_a_non_integer_train_count():
    with pytest.raises(ValueError, match="n_max"):
        simulate_amp_calibration(1.01, n_max=3.5)
    n, p1 = simulate_amp_calibration(1.01, n_max=np.int64(3))
    assert p1.tobytes() == simulate_amp_calibration(1.01, n_max=3)[1].tobytes()


@pytest.mark.parametrize("t1_ns", [math.inf, 10_000.0, 800.0])
@pytest.mark.parametrize("over_ratio, phase_rad",
                         [(1.0, 0.0), (0.95, 0.0), (1.07, 0.2), (1.0, -0.3), (0.9, 2.5)])
def test_allxy_matches_oracle(over_ratio, phase_rad, t1_ns):
    p1 = simulate_allxy(over_ratio=over_ratio, phase_rad=phase_rad, t1_ns=t1_ns)
    expected = allxy_staircase(over_ratio, phase_rad, t1_ns)
    assert np.max(np.abs(p1 - expected)) < 1e-12


@pytest.mark.parametrize("t1_ns", [math.inf, 10_000.0, 800.0])
@pytest.mark.parametrize("over_ratio", [0.97, 1.0, 1.01, 1.03, 1.5])
def test_amp_calibration_matches_oracle(over_ratio, t1_ns):
    n_values, p1 = simulate_amp_calibration(over_ratio, n_max=20, t1_ns=t1_ns)
    assert n_values.tolist() == list(range(21))
    assert np.max(np.abs(p1 - amp_calibration(over_ratio, 20, t1_ns))) < 1e-12


def test_slot_length_reaches_both_diagnostics():
    allxy = simulate_allxy(over_ratio=1.02, phase_rad=0.1, t1_ns=900.0, slot_ns=35.0)
    assert np.max(np.abs(allxy - allxy_staircase(1.02, 0.1, 900.0, slot_ns=35.0))) < 1e-12
    _, calib = simulate_amp_calibration(1.02, n_max=9, t1_ns=900.0, slot_ns=35.0)
    assert np.max(np.abs(calib - amp_calibration(1.02, 9, 900.0, slot_ns=35.0))) < 1e-12


# Drive strengths for the diagnostics' per-pulse references: zero drive of
# either sign, a subnormal one, under- and over-driving.
DIAGNOSTIC_OVERS = (0.0, -0.0, 1e-320, 0.97, 1.5)


@pytest.mark.parametrize("over_ratio", DIAGNOSTIC_OVERS)
def test_allxy_is_the_per_pulse_staircase(over_ratio):
    """simulate_allxy gives allxy_per_pulse's bytes at seeded phase errors,
    lossless and finite T1, and slot lengths other than 20 ns."""
    rng = np.random.default_rng(2601)
    for t1_ns in (math.inf, *rng.uniform(50.0, 1e5, 3)):
        for slot_ns in (20.0, *rng.uniform(1.0, 60.0, 2)):
            for phase_rad in (0.0, *rng.normal(0.0, 0.5, 2)):
                want = allxy_per_pulse(over_ratio, phase_rad, t1_ns, slot_ns)
                got = simulate_allxy(over_ratio, phase_rad, t1_ns, slot_ns)
                assert got.tobytes() == want.tobytes(), (t1_ns, slot_ns, phase_rad)


@pytest.mark.parametrize("over_ratio", [o for o in DIAGNOSTIC_OVERS if o > 0])
def test_amp_calibration_is_the_per_pulse_train(over_ratio):
    """simulate_amp_calibration gives amp_calibration_per_pulse's bytes for
    trains of 1 to 200 pulse pairs (seeded), lossless and finite T1, and
    slot lengths other than 20 ns."""
    rng = np.random.default_rng(2602)
    for t1_ns in (math.inf, *rng.uniform(50.0, 1e5, 2)):
        for slot_ns in (20.0, float(rng.uniform(1.0, 60.0))):
            for n_max in (1, 2, *rng.integers(3, 200, 2).tolist(), 200):
                want = amp_calibration_per_pulse(over_ratio, n_max, t1_ns, slot_ns)
                n_values, got = simulate_amp_calibration(over_ratio, n_max, t1_ns, slot_ns)
                assert n_values.tolist() == list(range(n_max + 1))
                assert got.tobytes() == want.tobytes(), (t1_ns, slot_ns, n_max)


# sha256 of the calibration curves (n as int64, then P1) over the grid below,
# n_max 49, as the per-N train loop computed them before the one-pass loop.
CALIBRATION_DIGEST = "8d9c7300cdf59a0a9f3321ce81b8e4c47a07d2fcfed57625c70298ef3af6b039"


def test_amp_calibration_bytes_are_pinned():
    h = hashlib.sha256()
    for over_ratio in (0.97, 0.99, 1.0, 1.01, 1.03):
        for t1_ns in (math.inf, 10_000.0, 800.0):
            n_values, p1 = simulate_amp_calibration(over_ratio, n_max=49, t1_ns=t1_ns)
            h.update(n_values.astype(np.int64).tobytes())
            h.update(p1.tobytes())
    assert h.hexdigest() == CALIBRATION_DIGEST


# sha256 of the staircase arrays over the (over, phase, T1) grid below, as
# the pair-by-pair loop computed them before the pairs were pushed as one
# stack.
ALLXY_DIGEST = "d413754ff804bed9b59e9f9a2b064c65464e28a2ae5d410cdbad7da1d76ab174"


def test_allxy_bytes_are_pinned():
    h = hashlib.sha256()
    for over_ratio in (0.0, 0.97, 1.0, 1.03):
        for phase_rad in (0.0, 0.1, -0.3):
            for t1_ns in (math.inf, 10_000.0, 800.0):
                h.update(simulate_allxy(over_ratio, phase_rad, t1_ns).tobytes())
    assert h.hexdigest() == ALLXY_DIGEST


def test_exchange_full_swap_and_return():
    params = ExchangeParams(j_over_2pi_khz=36.0)
    t_return = params.swap_return_ns
    grid = [0.0, t_return / 2.0, t_return]
    _, p1a, p1b = exchange_swap(params, grid)
    assert p1a[0] == pytest.approx(1.0, abs=1e-12)
    assert p1a[1] == pytest.approx(0.0, abs=1e-6)
    assert p1b[1] == pytest.approx(1.0, abs=1e-6)
    assert p1a[2] == pytest.approx(1.0, abs=1e-6)


def test_exchange_conserves_excitation_without_damping():
    params = ExchangeParams(j_over_2pi_khz=36.0)
    grid = np.linspace(0.0, 20_000.0, 41)
    _, p1a, p1b = exchange_swap(params, grid)
    assert np.all(np.abs(p1a + p1b - 1.0) < 1e-9)


def test_exchange_decay_constant_between_t1s():
    params = ExchangeParams(
        j_over_2pi_khz=36.0, t1_a_ns=7_000.0, t1_b_ns=14_000.0
    )
    grid = np.linspace(0.0, 30_000.0, 61)
    t, p1a, p1b = exchange_swap(params, grid)
    total = p1a + p1b
    f = fit.fit_exp_offset(t, total)
    tau = -1.0 / math.log(f.decay)
    assert 7_000.0 < tau < 14_000.0


# J/2pi in kHz at which J equals |1/T1a - 1/T1b| / 4 for T1 = 7 and 14 us:
# the exceptional point, where the decaying block Hamiltonian has one
# eigenvector only.
_EXCEPTIONAL_KHZ = (1 / 7_000.0 - 1 / 14_000.0) / 4 / (2 * math.pi) * 1e6

EXCHANGE_CASES = {
    "lossless": ((36.0, math.inf, math.inf), np.linspace(0.0, 20_000.0, 41)),
    "uncoupled": ((0.0, 7_000.0, 14_000.0), np.linspace(0.0, 30_000.0, 61)),
    "damped": ((36.0, 7_000.0, 14_000.0), np.linspace(0.0, 30_000.0, 61)),
    "exceptional": ((_EXCEPTIONAL_KHZ, 7_000.0, 14_000.0),
                    np.linspace(0.0, 30_000.0, 61)),
    "overdamped": ((36.0, 10.0, math.inf), np.linspace(0.0, 30_000.0, 61)),
}


@pytest.mark.parametrize("case", sorted(EXCHANGE_CASES))
def test_exchange_matches_lindblad_oracle(case):
    (khz, t1a, t1b), grid = EXCHANGE_CASES[case]
    params = ExchangeParams(khz, t1a, t1b)
    grid = np.append(grid, params.swap_return_ns) if khz > 0 else grid
    t, p1a, p1b = exchange_swap(params, grid)
    expected = np.array([lindblad_exchange(khz, t1a, t1b, ti) for ti in t])
    assert np.max(np.abs(p1a - expected[:, 0])) < 1e-12
    assert np.max(np.abs(p1b - expected[:, 1])) < 1e-12


def test_exchange_validation():
    with pytest.raises(ValueError):
        ExchangeParams(j_over_2pi_khz=-1.0)
    params = ExchangeParams(j_over_2pi_khz=36.0)
    with pytest.raises(ValueError):
        exchange_swap(params, [])
    with pytest.raises(ValueError):
        exchange_swap(params, [0.0, -1.0])


def test_interleaved_idle_fidelity_scale():
    """Alternating another qubit's rounds with a reference sequence measures
    the idling fidelity; it should sit at the relaxation limit for the time
    the other qubit's pulses take (stray drive only degrades it slightly)."""
    m_grid = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 800)
    t1 = 9_000.0
    ref = run_rb([QubitModel(t1_ns=t1)], "minimal", m_grid, n_seeds=30,
                 rng_seed=23)
    f_ref = fit.fit_exp_offset(ref.curves[0].m_values, ref.curves[0].p0,
                               y_err=ref.curves[0].p0_stderr)
    models = [QubitModel(t1_ns=t1), QubitModel(t1_ns=t1, cross_ratio=0.0076)]
    inter = run_rb(models, "sequential", m_grid, n_seeds=30, rng_seed=29)
    f_int = fit.fit_exp_offset(inter.curves[1].m_values, inter.curves[1].p0,
                               y_err=inter.curves[1].p0_stderr)
    f_gate = fit.interleaved_gate_fidelity(f_int.decay, f_ref.decay)
    ratio = f_int.decay / f_ref.decay
    sigma = 0.5 * ratio * math.hypot(f_int.stderr[1] / f_int.decay,
                                     f_ref.stderr[1] / f_ref.decay)
    # relaxation during the other qubit's rounds (identity rounds are free
    # in the sequential scheme, hence 44/24 slots per round)
    predicted = fit.t1_limit_fidelity(t1, 20.0, 44.0 / 24.0)
    assert 0.998 < f_gate < 0.9992
    assert abs(f_gate - predicted) < 4 * sigma
