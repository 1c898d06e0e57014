import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcast import fit
from cliffcast.fit import (
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
from cliffcast.sim import QubitModel, run_rb
from oracles import (
    box_linear_fit,
    iterate_rate_equation,
    least_squares_exp,
    least_squares_leakage,
)

README_M = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 800)
README_QUBITS = (QubitModel(t1_ns=10000.0, cross_ratio=0.0076), QubitModel(t1_ns=10000.0))
WIDE_QUBITS = (QubitModel(t1_ns=10000.0, cross_ratio=0.0076),) * 8
WIDE_M = (1, 2, 4, 8, 16, 32, 64, 128)


def _weights(y_err):
    """The fitter's weights: 1 / y_err, zero errors replaced by the largest."""
    y_err = np.asarray(y_err, dtype=float)
    return 1.0 / np.where(y_err > 0, y_err, np.max(y_err[y_err > 0], initial=1.0))


def _cost(params, m, y, weights):
    a, p, b = params
    return float(np.sum(((a * p ** np.asarray(m, dtype=float) + b - y) * weights) ** 2))


def _stderr(res):
    """scipy's 1-sigma errors: inv(J^T J) * |r|^2 / dof at its solution."""
    dof = res.fun.size - res.x.size
    return tuple(np.sqrt(np.diag(np.linalg.inv(res.jac.T @ res.jac) * 2 * res.cost / dof)))


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


def test_exp_fit_small_clean_decay_is_not_flat():
    """A decay of amplitude 4e-6 on an offset of 0.5 is not flat data: the
    flat test takes no tolerance relative to the offset."""
    m = np.arange(1, 129, dtype=float)
    f = fit_exp_offset(m, 0.5 + 4e-6 * 0.9**m)
    assert f.decay == pytest.approx(0.9, abs=1e-6)
    assert f.amplitude == pytest.approx(4e-6, rel=1e-4)
    assert f.at_bound == ()


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


@pytest.mark.parametrize("m,y", [([1, 2, 4, 8], [1.0, math.nan, 0.8, 0.7]),
                                 ([1, 2, math.inf, 8], [1.0, 0.9, 0.8, 0.7]),
                                 ([-8, 1, 2, 4], [1.0, 0.9, 0.8, 0.7])])
@pytest.mark.parametrize("fitter", [fit_exp_offset,
                                    lambda m, y: fit_leakage(m, y, 1.875, 20.0)])
def test_fits_reject_invalid_curves(fitter, m, y):
    with pytest.raises(ValueError, match="finite and non-negative"):
        fitter(m, y)


@pytest.mark.parametrize("m,y", [([1, 2, 4, 8], [1.0, 0.9, 0.8]),
                                 ([[1, 2], [4, 8]], [[1.0, 0.9], [0.8, 0.7]])])
@pytest.mark.parametrize("fitter", [fit_exp_offset,
                                    lambda m, y: fit_leakage(m, y, 1.875, 20.0)])
def test_fits_reject_curves_of_the_wrong_shape(fitter, m, y):
    with pytest.raises(ValueError, match="1-d and of equal length"):
        fitter(m, y)


def test_exp_fit_rejects_errors_of_the_wrong_shape():
    m, y = [1, 2, 4, 8], [1.0, 0.9, 0.8, 0.7]
    for y_err in ([0.1, 0.1, 0.1], [[0.1] * 4]):
        with pytest.raises(ValueError, match="y_err must match"):
            fit_exp_offset(m, y, y_err)


@pytest.mark.parametrize("y_err", [[math.inf] * 4, [0.1, math.nan, 0.1, 0.1],
                                   [0.1, 0.1, -math.inf, 0.1]])
def test_exp_fit_rejects_non_finite_errors(y_err):
    """A non-finite error is rejected like a non-finite value, not turned
    into a NaN offset or replaced by the largest error."""
    with pytest.raises(ValueError, match="y_err must be finite"):
        fit_exp_offset([1, 2, 4, 8], [1.0, 0.9, 0.8, 0.7], y_err)


def test_exp_fit_evaluates_its_model():
    f = fit.ExpFit(amplitude=0.5, decay=0.9, offset=0.25, stderr=(0.0, 0.0, 0.0),
                   residual_rms=0.0)
    assert f(0) == 0.75
    assert f([1, 2]).tolist() == [0.5 * 0.9 + 0.25, 0.5 * 0.9**2 + 0.25]


@pytest.mark.parametrize("scheme", ["sequential", "compiled", "five-primitives-symmetric"])
@pytest.mark.parametrize("rng_seed", [7, 11, 13])
def test_exp_fit_matches_scipy_on_readme_curves(scheme, rng_seed):
    """On the README benchmarking curves (30 seeds, weighted) the decay is
    scipy's within 1e-9, the weighted cost no higher than scipy's, and the
    standard errors those of scipy's Jacobian."""
    for curve in run_rb(README_QUBITS, scheme, README_M, 30, rng_seed).curves:
        w = _weights(curve.p0_stderr)
        ref = least_squares_exp(curve.m_values, curve.p0, w)
        assert ref.success
        f = fit_exp_offset(curve.m_values, curve.p0, y_err=curve.p0_stderr)
        assert f.at_bound == ()
        assert f.decay == pytest.approx(ref.x[1], abs=1e-9)
        assert (_cost((f.amplitude, f.decay, f.offset), curve.m_values, curve.p0, w)
                <= ref.cost * 2 * (1 + 1e-10))
        assert f.stderr == pytest.approx(_stderr(ref), rel=1e-3)


def test_exp_fit_returns_the_box_optimum():
    """Eight qubits, lengths 1..32, unweighted: several optima lie on the box
    (offset -1, amplitude 2).  The fit returns them, as scipy does, and flags
    the parameters that ended there."""
    on_box = set()
    for curve in run_rb(WIDE_QUBITS, "compiled", WIDE_M[:6], 1, 7).curves:
        ones = np.ones(len(curve.m_values))
        ref = least_squares_exp(curve.m_values, curve.p0, ones)
        f = fit_exp_offset(curve.m_values, curve.p0)
        assert (_cost((f.amplitude, f.decay, f.offset), curve.m_values, curve.p0, ones)
                <= ref.cost * 2 * (1 + 1e-10))
        assert 0 < f.decay < 1
        assert ("amplitude" in f.at_bound) == (abs(f.amplitude) == 2.0)
        assert ("offset" in f.at_bound) == (f.offset in (-1.0, 2.0))
        on_box.update(f.at_bound)
    assert on_box == {"amplitude", "offset"}


def test_exp_fit_where_scipy_hits_its_evaluation_limit():
    """A weighted 2-seed curve on which scipy stops at its evaluation limit
    (the benchmark's recorded failure) now fits: scipy, started from the
    result, finds no lower cost."""
    curve = run_rb(WIDE_QUBITS, "compiled", WIDE_M, 2, 319).curves[3]
    w = _weights(curve.p0_stderr)
    stalled = least_squares_exp(curve.m_values, curve.p0, w)
    assert stalled.status == 0
    f = fit_exp_offset(curve.m_values, curve.p0, y_err=curve.p0_stderr)
    assert f.at_bound == ()
    cost = _cost((f.amplitude, f.decay, f.offset), curve.m_values, curve.p0, w)
    assert cost < stalled.cost * 2
    polished = least_squares_exp(curve.m_values, curve.p0, w,
                                 x0=(f.amplitude, f.decay, f.offset))
    assert cost <= polished.cost * 2 * (1 + 1e-10)


def _pinned_curves():
    """Weighted and unweighted eight-qubit compiled curves, the box-optimum
    curves above, and eight noisy synthetic decays."""
    for seed in range(1, 7):
        for c in run_rb(WIDE_QUBITS, "compiled", WIDE_M, 2, seed).curves:
            yield c.m_values, c.p0, None
            yield c.m_values, c.p0, c.p0_stderr
    for c in run_rb(WIDE_QUBITS, "compiled", WIDE_M[:6], 1, 7).curves:
        yield c.m_values, c.p0, None
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2019)))
    m = np.array([0, 1, 3, 10, 30, 100, 300, 1000], dtype=float)
    for a, p, b in rng.uniform((-1.5, 0.9, -0.5), (1.5, 1.0, 1.5), size=(8, 3)):
        yield m, a * p**m + b + rng.normal(0, 0.01, m.size), None


# SHA-256 over the ExpFit fields (five floats' bytes, then the at_bound
# names) of the 112 fits of _pinned_curves, recorded before the profile's
# per-curve sums were taken once per fit.
EXP_FIT_DIGEST = "d929561b9149bfd1d4761594caa8a35c6b1ce579361e7bf7c9816d1f0c94e340"


def test_exp_fit_bytes_are_pinned():
    h = hashlib.sha256()
    fits = 0
    for m, y, err in _pinned_curves():
        f = fit_exp_offset(m, y, y_err=err)
        h.update(np.array([f.amplitude, f.decay, f.offset, *f.stderr,
                           f.residual_rms]).tobytes())
        h.update(",".join(f.at_bound).encode())
        fits += 1
    assert fits == 112
    assert h.hexdigest() == EXP_FIT_DIGEST


def _oracle_curves():
    """The unweighted box-optimum curves, and two weighted eight-qubit curves."""
    for c in run_rb(WIDE_QUBITS, "compiled", WIDE_M[:6], 1, 7).curves:
        yield c.m_values, c.p0, np.ones(len(c.m_values))
    for c in run_rb(WIDE_QUBITS, "compiled", WIDE_M, 2, 3).curves[:2]:
        yield c.m_values, c.p0, _weights(c.p0_stderr) ** 2


def test_exp_profile_matches_the_box_oracle():
    """At u near 0 and on the first grid, where some optima leave the box
    and some do not, the profile's cost is the oracle's within 1e-12
    relative and its (amplitude, offset) the oracle's within 1e-12.  At
    u = 0 the optimum is not unique, so there its parameters are priced."""
    for m, y, w2 in _oracle_curves():
        m, y = np.asarray(m, dtype=float), np.asarray(y, dtype=float)
        u = np.concatenate([[0.0, 1e-12, 1e-9, 1e-7], fit._first_decay_grid(float(m.max()))])
        cost, (a, b) = fit._exp_profile(m, y, w2)(u)
        inside = 0
        for i, ui in enumerate(u):
            ref_cost, ref_a, ref_b = box_linear_fit(ui, m, y, w2)
            assert cost[i] == pytest.approx(ref_cost, rel=1e-12, abs=0.0)
            if ui == 0.0:
                assert ref_cost == pytest.approx(float(w2 @ (a[i] + b[i] - y) ** 2), rel=1e-12)
                continue
            assert a[i] == pytest.approx(ref_a, abs=1e-12)
            assert b[i] == pytest.approx(ref_b, abs=1e-12)
            inside += abs(ref_a) < 2.0 and -1.0 < ref_b < 2.0
        assert 0 < inside < u.size - 1


def test_exp_fit_digest_reaches_the_box_edges_on_zoomed_grids(monkeypatch):
    """Counts the zoomed grids (every grid after a fit's first) on which some
    point's best (amplitude, offset) lies on the box: the grids whose
    optimum leaves the box at some point, so the profile prices the edges.
    The pinned fits must keep reaching them, so that EXP_FIT_DIGEST covers
    both the in-box and the edge branch of the profile."""
    zoomed_on_box = 0
    exp_profile = fit._exp_profile

    def counting_profile(m, y, w2):
        profile, grids = exp_profile(m, y, w2), itertools.count()

        def counted(u):
            nonlocal zoomed_on_box
            cost, linear = profile(u)
            a, b = linear
            on_box = np.any((np.abs(a) == 2.0) | (b == -1.0) | (b == 2.0))
            zoomed_on_box += bool(next(grids) and on_box)
            return cost, linear

        return counted

    monkeypatch.setattr(fit, "_exp_profile", counting_profile)
    for m, y, err in _pinned_curves():
        fit_exp_offset(m, y, y_err=err)
    assert zoomed_on_box > 0
    assert zoomed_on_box == 48


def test_fidelity_from_decay_limits():
    assert fidelity_from_decay(1.0) == 1.0
    assert fidelity_from_decay(1e-12) == pytest.approx(0.5, abs=1e-9)
    assert fidelity_from_decay(0.9964) == pytest.approx(0.9982, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, -0.1, 1.0 + 1e-12, math.nan])
def test_fidelity_from_decay_rejects_a_decay_outside_its_range(p):
    with pytest.raises(ValueError, match="decay must be in"):
        fidelity_from_decay(p)


@pytest.mark.parametrize("t1, tp, np_mean, match", [
    (10_000.0, 0.0, 1.875, "tp_ns and np_mean"),
    (10_000.0, 20.0, -1.0, "tp_ns and np_mean"),
    (0.0, 20.0, 1.875, "t1_ns"),
    (-5.0, 20.0, 1.875, "t1_ns"),
])
def test_t1_limit_fidelity_guards(t1, tp, np_mean, match):
    with pytest.raises(ValueError, match=match):
        t1_limit_fidelity(t1, tp, np_mean)


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


@pytest.mark.parametrize("params", [(-1e-6, 4e4, 1.875, 20.0), (4.1e-6, 0.0, 1.875, 20.0),
                                    (4.1e-6, 4e4, -1.875, 20.0), (4.1e-6, 4e4, 1.875, -20.0)])
def test_leakage_model_rejects_negative_parameters(params):
    with pytest.raises(ValueError, match="must be positive"):
        leakage_model(10, *params)


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
                                        (1.875, -20.0), (math.nan, 20.0),
                                        (math.inf, 20.0), (1.875, math.inf)])
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


def test_fit_leakage_zero_plateau_is_flat_zero():
    lf = fit_leakage([0, 25, 50, 75, 100], [0.0, -1e-6, -2e-6, -1e-6, -3e-6], 1.875, 20.0)
    assert (lf.kappa, lf.t21_ns, lf.stderr, lf.unidentifiable) == (0.0, math.inf,
                                                                   (0.0, 0.0), True)


def test_fit_leakage_undetermined_fits_are_rejected():
    with pytest.raises(ValueError, match="two distinct positive lengths"):
        fit_leakage([0, 5, 5, 5], [0.0, 0.1, 0.2, 0.1], 1.875, 20.0)
    with pytest.raises(ValueError, match="overflows"):
        fit_leakage([0, 1, 2, 3], [0.0, 0.1, 0.2, 0.2], 1.875, 1e308)


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
    _, direct, _ = least_squares_leakage(m, p2, np_mean, tp, lf.kappa, lf.t21_ns)
    assert lf.stderr == pytest.approx(direct, rel=1e-3)


@pytest.mark.parametrize("kappa,t21,seed", [(1.0e-6, 5000.0, 31), (1.0e-6, 20000.0, 31),
                                            (0.5e-6, 12000.0, 5), (2.0e-6, 8000.0, 6)])
def test_fit_leakage_matches_scipy(kappa, t21, seed):
    """kappa, T21 and their errors equal those of scipy's direct (kappa, T21)
    fit, started from the truth, and the cost is no higher than scipy's."""
    np_mean, tp = 1.875, 20.0
    m = np.arange(0.0, 1001.0, 25.0)
    clean = leakage_model(m, kappa, t21, np_mean, tp)
    p2 = clean + np.random.default_rng(seed).normal(0.0, 1e-4 * clean.max(), m.size)
    lf = fit_leakage(m, p2, np_mean, tp)
    values, errors, cost = least_squares_leakage(m, p2, np_mean, tp, kappa, t21)
    assert (lf.kappa, lf.t21_ns) == pytest.approx(values, rel=1e-3)
    assert lf.stderr == pytest.approx(errors, rel=1e-3)
    assert float(np.sum((lf(m) - p2) ** 2)) <= cost * (1 + 1e-10)


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
