import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcast import fit, sim
from cliffcast.clifford import Pulse
from cliffcast.sim import (
    ALLXY_SEQUENCE,
    EXCITED,
    GROUND,
    ExchangeParams,
    QubitModel,
    allxy_ideal,
    apply_pulse,
    exchange_swap,
    initial_slope,
    relax,
    run_idle_crossdrive,
    run_rb,
    simulate_allxy,
    simulate_amp_calibration,
)
from oracles import lindblad_exchange, slot_by_slot_benchmark


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


def test_work_counters_match_a_fresh_round_cache():
    """distinct_rounds is what the round cache builds when it starts empty."""
    models = [_LOSSY, _LOSSLESS]
    sim._round_channel.cache_clear()
    res = run_rb(models, "five-primitives-symmetric", (1, 4, 16, 64), n_seeds=2,
                 rng_seed=5)
    info = sim._round_channel.cache_info()
    assert (info.hits, info.misses) == (0, res.distinct_rounds)
    assert res.rounds == 2 * (2 + 5 + 17 + 65)
    assert res.slots == 5 * res.rounds
    again = run_rb(models, "five-primitives-symmetric", (1, 4, 16, 64), n_seeds=2,
                   rng_seed=5)
    assert sim._round_channel.cache_info().hits == res.distinct_rounds
    assert again.distinct_rounds == res.distinct_rounds


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
    assert math.copysign(1.0, initial_slope(p1)) == math.copysign(1.0, ratio - 1.0)


def test_amp_calibration_guards():
    with pytest.raises(ValueError):
        simulate_amp_calibration(0.0)


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
