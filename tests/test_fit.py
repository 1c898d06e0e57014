import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from cliffcast.fit import (
    FitError,
    PopCalib,
    extract_populations,
    fidelity_from_decay,
    fit_exp_offset,
    fit_leakage,
    interleaved_gate_fidelity,
    leakage_model,
    rate_step,
    signal_forward_model,
    t1_limit_fidelity,
)
from oracles import iterate_rate_equation


def test_exp_fit_noiseless_roundtrip():
    m = np.arange(1, 200, 5, dtype=float)
    y = 0.5 * 0.999**m + 0.5
    f = fit_exp_offset(m, y)
    assert f.amplitude == pytest.approx(0.5, abs=1e-6)
    assert f.decay == pytest.approx(0.999, abs=1e-6)
    assert f.offset == pytest.approx(0.5, abs=1e-6)


def test_exp_fit_constant_data():
    m = np.arange(10, dtype=float)
    f = fit_exp_offset(m, np.full(10, 0.5))
    assert f.amplitude == 0.0
    assert f.decay == 1.0
    assert f.offset == pytest.approx(0.5)


def test_exp_fit_noisy_recovery_within_three_sigma():
    rng = np.random.default_rng(12)
    m = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 800], dtype=float)
    truth = 0.5 * 0.996**m + 0.5
    n_rep = 50
    draws = rng.binomial(200, np.clip(truth, 0, 1), size=(n_rep, m.size)) / 200.0
    y = draws.mean(axis=0)
    err = draws.std(axis=0, ddof=1) / math.sqrt(n_rep)
    f = fit_exp_offset(m, y, y_err=err)
    assert abs(f.decay - 0.996) < 3 * f.stderr[1]


def test_exp_fit_requires_points():
    with pytest.raises(ValueError):
        fit_exp_offset([1, 2, 3], [1.0, 0.9, 0.8])


def test_fidelity_from_decay_limits():
    assert fidelity_from_decay(1.0) == 1.0
    assert fidelity_from_decay(1e-12) == pytest.approx(0.5, abs=1e-9)
    assert fidelity_from_decay(0.9964) == pytest.approx(0.9982, abs=1e-12)


def test_t1_limit_fidelity_reference_value():
    assert t1_limit_fidelity(10_000.0, 20.0, 1.875) == pytest.approx(
        0.998751, abs=5e-7
    )


def test_t1_limit_fidelity_limits_and_monotonicity():
    assert t1_limit_fidelity(math.inf, 20.0, 1.875) == 1.0
    f1 = t1_limit_fidelity(5_000.0, 20.0, 1.875)
    f2 = t1_limit_fidelity(10_000.0, 20.0, 1.875)
    f3 = t1_limit_fidelity(50_000.0, 20.0, 1.875)
    assert f1 < f2 < f3 < 1.0


def test_t1_limit_exponent_multiplicativity():
    a, b = 1.7, 2.3
    lhs = t1_limit_fidelity(9_000.0, 20.0, a * b)
    rhs = t1_limit_fidelity(9_000.0, 20.0, a) ** b
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_leakage_model_boundaries():
    assert leakage_model(0, 4.1e-6, 40_000.0, 1.875, 20.0) == 0.0
    asym = leakage_model(1e9, 4.1e-6, 40_000.0, 1.875, 20.0)
    assert asym == pytest.approx(4.1e-6 * 40_000.0, rel=1e-9)


def test_rate_step_fixed_point():
    kappa, t21, np_mean, tp = 4.1e-6, 40_000.0, 1.875, 20.0
    p2_star = kappa * t21
    assert rate_step(p2_star, kappa, t21, np_mean, tp) == pytest.approx(
        p2_star, rel=1e-12
    )


def test_rate_step_first_step():
    kappa, t21, np_mean, tp = 4.1e-6, 40_000.0, 1.875, 20.0
    assert rate_step(0.0, kappa, t21, np_mean, tp) == pytest.approx(
        tp * np_mean * kappa, rel=1e-12
    )


@pytest.mark.parametrize("kappa", [1.3e-6, 4.1e-6])
def test_closed_form_matches_iterated_rate_equation(kappa):
    """The closed form is the exact m-fold solution of the per-round
    balance, so it agrees with the iteration to rounding."""
    t21, np_mean, tp = 40_000.0, 1.875, 20.0
    for m in (1, 10, 100, 800):
        closed = leakage_model(m, kappa, t21, np_mean, tp)
        iterated = iterate_rate_equation(m, kappa, t21, np_mean, tp)
        assert iterated == pytest.approx(closed, rel=1e-12)


def test_leakage_model_rejects_round_longer_than_t21():
    with pytest.raises(ValueError):
        leakage_model(10, 4.1e-6, 37.5, 1.875, 20.0)


def test_fit_leakage_roundtrip():
    np_mean, tp = 1.875, 20.0
    m = np.array([1, 5, 10, 25, 50, 100, 200, 400, 800], dtype=float)
    for kappa, t21 in ((4.1e-6, 40_000.0), (1.3e-6, 25_000.0)):
        p2 = leakage_model(m, kappa, t21, np_mean, tp)
        lf = fit_leakage(m, p2, np_mean, tp)
        assert lf.kappa == pytest.approx(kappa, rel=1e-3)
        assert lf.t21_ns == pytest.approx(t21, rel=1e-3)
        assert not lf.unidentifiable


@pytest.mark.parametrize("np_mean,tp", [(0.0, 20.0), (-1.875, 20.0), (1.875, 0.0),
                                        (1.875, -20.0), (math.nan, 20.0)])
def test_fit_leakage_rejects_nonpositive_round_length(np_mean, tp):
    m = np.array([1, 5, 10, 25, 50, 100, 200, 400, 800], dtype=float)
    p2 = leakage_model(m, 4.1e-6, 40_000.0, 1.875, 20.0)
    with pytest.raises(ValueError, match="positive"):
        fit_leakage(m, p2, np_mean, tp)


def test_fit_leakage_flat_zero():
    m = np.arange(1, 10, dtype=float)
    lf = fit_leakage(m, np.zeros(9), 1.875, 20.0)
    assert lf.kappa == 0.0
    assert lf.unidentifiable


def test_unidentifiable_leakage_fit_evaluates_to_zero():
    lf = fit_leakage(range(1, 10), np.zeros(9), 1.875, 20.0)
    assert np.array_equal(lf([1, 2]), [0.0, 0.0])


def test_leakage_model_without_relaxation_grows_linearly():
    kappa, np_mean, tp = 4.1e-6, 1.875, 20.0
    for m in (1, 10, 800):
        iterated = iterate_rate_equation(m, kappa, math.inf, np_mean, tp)
        assert leakage_model(m, kappa, math.inf, np_mean, tp) == pytest.approx(
            iterated, rel=1e-12)


@pytest.mark.parametrize("t21", [5_000.0, 20_000.0])
def test_fit_leakage_stderr_matches_direct_fit(t21):
    """kappa and T21 errors equal those of a fit made directly in (kappa,
    T21) on the same noisy data, which sees the plateau-rate correlation."""
    np_mean, tp, kappa = 1.875, 20.0, 1.0e-6
    m = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 800], dtype=float)
    clean = leakage_model(m, kappa, t21, np_mean, tp)
    rng = np.random.default_rng(31)
    p2 = clean + rng.normal(0.0, 1e-4 * clean.max(), m.size)
    lf = fit_leakage(m, p2, np_mean, tp)

    scale = np.array([1e-6, 1e4])  # fit in units of order one

    def residuals(x):
        return leakage_model(m, x[0] * scale[0], x[1] * scale[1], np_mean, tp) - p2

    res = least_squares(residuals, [lf.kappa / scale[0], lf.t21_ns / scale[1]],
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    variance = float(res.fun @ res.fun) / (m.size - 2)
    cov = np.linalg.inv(res.jac.T @ res.jac) * variance
    direct = np.sqrt(np.diag(cov)) * scale
    assert lf.stderr == pytest.approx(tuple(direct), rel=1e-3)


def test_extract_populations_pure_states():
    v0, v1, v2 = 1.0, 0.2, -0.3
    assert extract_populations(
        PopCalib(v0, v1, v2, s=v0, s_prime=v1)
    ) == pytest.approx((1.0, 0.0, 0.0))
    assert extract_populations(
        PopCalib(v0, v1, v2, s=v2, s_prime=v2)
    ) == pytest.approx((0.0, 0.0, 1.0))


def test_extract_populations_example_roundtrip():
    v0, v1, v2 = 1.0, 0.2, -0.3
    p = (0.7, 0.25, 0.05)
    s, sp = signal_forward_model(v0, v1, v2, *p)
    assert extract_populations(PopCalib(v0, v1, v2, s, sp)) == pytest.approx(p)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)
def test_extract_populations_forward_inverse_identity(a, b, v0, v1, v2):
    p0 = a
    p1 = (1.0 - a) * b
    p2 = 1.0 - p0 - p1
    det = (v0 - v2) ** 2 - (v1 - v2) ** 2
    if abs(det) < 1e-6:
        return
    s, sp = signal_forward_model(v0, v1, v2, p0, p1, p2)
    got = extract_populations(PopCalib(v0, v1, v2, s, sp))
    assert got == pytest.approx((p0, p1, p2), abs=1e-9)


def test_extract_populations_singular_rejected():
    with pytest.raises(ValueError):
        extract_populations(PopCalib(0.5, 0.5, 0.1, 0.4, 0.4))


def test_interleaved_fidelity_values():
    assert interleaved_gate_fidelity(0.998, 0.998) == 1.0
    assert interleaved_gate_fidelity(0.996, 0.998) == pytest.approx(
        0.998998, abs=1e-6
    )


def test_interleaved_fidelity_flags_unphysical():
    with pytest.warns(UserWarning):
        interleaved_gate_fidelity(0.999, 0.99)


def test_interleaved_fidelity_guards():
    with pytest.raises(ValueError):
        interleaved_gate_fidelity(0.0, 0.9)
