import collections
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcast import fit
from cliffcast.fit import (
    ExpFit,
    PopCalib,
    extract_populations,
    fidelity_from_decay,
    fit_exp_offset,
    fit_exp_offsets,
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
    exp_fit_per_curve,
    exp_profile_every_point,
    iterate_rate_equation,
    least_squares_exp,
    least_squares_leakage,
)

README_M = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 800)
README_QUBITS = (QubitModel(t1_ns=10000.0, cross_ratio=0.0076), QubitModel(t1_ns=10000.0))
WIDE_QUBITS = (QubitModel(t1_ns=10000.0, cross_ratio=0.0076),) * 8
WIDE_M = (1, 2, 4, 8, 16, 32, 64, 128)


def _weights(y_err):
    """The fitter's weights: 1 / y_err, a zero error replaced by max(1, the
    largest error), so weight 1 beside errors below 1."""
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
    """Constant data, and a decay whose values all lie within 1e-12 of its
    first value, are flat: amplitude 0, decay 1."""
    near = np.arange(1, 129, dtype=float)
    for m, y in ((np.arange(10, dtype=float), np.full(10, 0.5)),
                 (near, 0.5 + 1e-13 * 0.9**near)):
        f = fit_exp_offset(m, y)
        assert f.amplitude == 0.0
        assert f.decay == 1.0
        assert f.offset == pytest.approx(0.5)


def test_exp_fit_small_clean_decay_is_not_flat():
    """A decay of amplitude 4e-6 on an offset of 0.5 is not flat data: the
    flat test takes no tolerance relative to the offset.  Nor is one of
    amplitude 1e-11, whose values leave 1e-12 of the first."""
    m = np.arange(1, 129, dtype=float)
    for amplitude in (4e-6, 1e-11):
        f = fit_exp_offset(m, 0.5 + amplitude * 0.9**m)
        assert f.decay == pytest.approx(0.9, abs=1e-6)
        assert f.amplitude == pytest.approx(amplitude, rel=1e-4)
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


def test_exp_fit_rejects_negative_errors():
    """A negative error is rejected (before: silently replaced like a zero),
    and so is a nonzero error whose weight 1 / y_err**2 overflows or
    underflows (before: a NaN offset, amplitude and decay on their bounds)."""
    with pytest.raises(ValueError, match="y_err must be finite and not negative"):
        fit_exp_offset([1, 2, 4, 8], [1.0, 0.9, 0.8, 0.7], [0.1, -0.1, 0.1, 0.1])
    m = np.array([1, 2, 4, 8, 16, 32], dtype=float)
    for y_err in ([1e-3, 1e-3, 1e-200, 1e-3, 1e-3, 1e-3], [1e200] * 6):
        with pytest.raises(ValueError, match=r"must lie in \[1e-100, 1e100\]"):
            fit_exp_offset(m, 0.5 * 0.98**m + 0.5, y_err)


def test_exp_fit_with_standard_errors_that_are_not_finite_names_its_curve():
    """Errors spanning a wide range inside [1e-100, 1e100] leave the
    decay undetermined (before: stderr (nan, nan, nan) with no flag).  The
    fit raises and names the curve's row of y_values, counted across the
    flat curve before it, which is not fitted.  Behind an rb curve whose
    first minimum leaves the box, its box edges are priced too: an edge
    too far to price costs inf (before: RuntimeWarning, overflow)."""
    m = np.array([1, 2, 4, 8, 16, 32], dtype=float)
    y = 0.5 * 0.98**m + 0.5
    y_err = [1e-100, 1e100, 1e-3, 1e-3, 1e-3, 1e-3]
    with pytest.raises(ValueError, match="^curve 1: decay fit standard errors are not finite"):
        fit_exp_offsets(m, [np.full(6, 0.7), y], [[1e-3] * 6, y_err])
    with pytest.raises(ValueError, match="^curve 0: "):
        fit_exp_offset(m, y, y_err)
    rb = run_rb([QubitModel(t1_ns=10_000.0), QubitModel(t1_ns=9_000.0)], "compiled",
                m.astype(int), 2, 3).curves[0]
    with pytest.raises(ValueError, match="^curve 1: "):
        fit_exp_offsets(m, [rb.p0, y], [rb.p0_stderr, y_err])


def test_exp_fit_zero_error_takes_one_or_the_largest_error():
    """A zero error beside positive ones is replaced by max(1, the largest
    error): beside errors below 1 the point gets weight 1, beside larger
    ones the largest error's weight."""
    m, y = [1, 2, 4, 8, 16], [0.98, 0.95, 0.9, 0.82, 0.7]
    for zero, replaced in (([0.0, 0.01, 0.02, 0.0, 0.03], [1.0, 0.01, 0.02, 1.0, 0.03]),
                           ([2.0, 0.0, 3.0, 1.5, 0.5], [2.0, 3.0, 3.0, 1.5, 0.5])):
        assert fit_exp_offset(m, y, zero) == fit_exp_offset(m, y, replaced)
        assert _weights(zero).tolist() == [1 / e for e in replaced]


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


def _fit_bytes(f) -> tuple:
    return (np.array([f.amplitude, f.decay, f.offset, *f.stderr, f.residual_rms]).tobytes(),
            f.at_bound)


def _batches():
    """(lengths, curves, errors or None) batches for the batched fit: the
    unweighted eight-qubit box-optimum curves with a flat row and noisy
    synthetic decays, and weighted two-seed curves with a flat row, a row
    of zero errors and zero errors beside largest errors below and above 1
    (so a batch-wide largest error would change some rows)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(23)))
    m = np.array(WIDE_M[:6], dtype=float)
    y = [c.p0 for c in run_rb(WIDE_QUBITS, "compiled", WIDE_M[:6], 1, 7).curves]
    y.append(np.full(m.size, 0.625))
    for a, p, b in rng.uniform((-1.5, 0.5, -0.5), (1.5, 1.0, 1.5), size=(6, 3)):
        y.append(a * p**m + b + rng.normal(0, 0.02, m.size))
    yield m, np.array(y), None
    for seed in (3, 5):
        curves = run_rb(WIDE_QUBITS, "compiled", WIDE_M, 2, seed).curves
        y = np.array([c.p0 for c in curves])
        err = np.array([c.p0_stderr for c in curves])
        y[6] = 0.875
        err[1] = 0.0
        err[2, ::3] = 0.0
        err[3, ::2] = 0.0
        err[3, 1] = 2.5
        yield np.array(WIDE_M, dtype=float), y, err


def test_batched_exp_fit_is_the_per_curve_fit_bit_for_bit():
    """fit_exp_offsets equals the per-curve oracle field for field, bit for
    bit, and so does each row's one-row call.  The batches reach the box
    edges, hold flat rows and zero errors, and fit weighted and unweighted;
    each fitted curve ends on its own decay, so the rows zoomed apart."""
    at_bound, flat, weighted = set(), 0, 0
    for m, y, err in _batches():
        fits = fit_exp_offsets(m, y, err)
        assert len(fits) == len(y)
        for f, row, e in zip(fits, y, [None] * len(y) if err is None else err):
            assert _fit_bytes(f) == _fit_bytes(exp_fit_per_curve(m, row, e))
            assert _fit_bytes(f) == _fit_bytes(fit_exp_offset(m, row, e))
            at_bound.update(f.at_bound)
            flat += f.amplitude == 0.0 and f.decay == 1.0
        decays = [f.decay for f in fits if f.decay != 1.0]
        assert len(set(decays)) == len(decays) > 5
        weighted += err is not None and bool(np.any(err == 0))
    assert {"amplitude", "offset", "decay"} <= at_bound
    assert flat == 3 and weighted == 2


def test_batch_with_one_sloped_row_is_its_one_row_call_bit_for_bit():
    """A batch whose other rows are flat fits its one sloped row alone: in
    each place beside two flat rows, weighted and unweighted, that row
    equals its one-row call and the per-curve oracle bit for bit, and the
    flat rows keep their flat fit."""
    flat = ExpFit(0.0, 1.0, 0.75, (0.0, 0.0, 0.0), 0.0, ("decay",))
    curves = [(c.m_values, c.p0, e) for c in run_rb(WIDE_QUBITS, "compiled", WIDE_M, 2, 3).curves[:2]
              for e in (None, c.p0_stderr)]
    curves += [(c.m_values, c.p0, None)
               for c in run_rb(WIDE_QUBITS, "compiled", WIDE_M[:6], 1, 7).curves[:2]]
    fitted = 0
    for m, curve, e in curves:
        for row in range(3):
            y = np.full((3, len(m)), 0.75)
            y[row] = curve
            err = None if e is None else np.full(y.shape, 0.01)
            if e is not None:
                err[row] = e
            fits = fit_exp_offsets(m, y, err)
            assert _fit_bytes(fits[row]) == _fit_bytes(exp_fit_per_curve(m, curve, e))
            assert _fit_bytes(fits[row]) == _fit_bytes(fit_exp_offset(m, curve, e))
            assert fits[:row] + fits[row + 1:] == [flat, flat]
            fitted += fits[row].decay != 1.0
    assert fitted == 6 * 3


def test_stacked_covariance_falls_back_per_curve():
    """One singular curve in a stack makes inv raise for the whole stack;
    each curve then gets its own covariance, the regular ones to the bit,
    the singular one all nan."""
    rng = np.random.default_rng(4)
    jac = rng.normal(size=(3, 8, 3))
    jac[1, :, 2] = jac[1, :, 0]
    resid = rng.normal(size=(3, 8))
    cov = fit._covariance(jac, resid)
    for k in (0, 2):
        assert cov[k].tobytes() == fit._covariance(jac[k], resid[k]).tobytes()
    assert np.isnan(cov[1]).all()


def test_batched_exp_fit_checks_its_arrays():
    m = [1, 2, 4, 8]
    y = np.array([[1.0, 0.9, 0.8, 0.7], [0.9, 0.85, 0.8, 0.78]])
    assert fit_exp_offsets(m, np.empty((0, 4))) == []
    with pytest.raises(ValueError, match="1-d and of equal length"):
        fit_exp_offsets(m, y[0])
    with pytest.raises(ValueError, match="1-d and of equal length"):
        fit_exp_offsets(m, y[:, :3])
    with pytest.raises(ValueError, match="y_err must match"):
        fit_exp_offsets(m, y, np.full(4, 0.1))
    with pytest.raises(ValueError, match="y_err must be finite and not negative"):
        fit_exp_offsets(m, y, [[0.1] * 4, [0.1, -0.1, 0.1, 0.1]])
    with pytest.raises(ValueError, match="finite and non-negative"):
        fit_exp_offsets(m, [y[0], [0.9, math.nan, 0.8, 0.7]])


def _oracle_curves():
    """The unweighted box-optimum curves, and two weighted eight-qubit curves."""
    for c in run_rb(WIDE_QUBITS, "compiled", WIDE_M[:6], 1, 7).curves:
        yield c.m_values, c.p0, np.ones(len(c.m_values))
    for c in run_rb(WIDE_QUBITS, "compiled", WIDE_M, 2, 3).curves[:2]:
        yield c.m_values, c.p0, _weights(c.p0_stderr) ** 2


def test_exp_profile_matches_the_box_oracle():
    """At u near 0 and on the first grid, where some optima leave the box
    and some do not, the every-point profile's cost is the oracle's within
    1e-12 relative and its (amplitude, offset) the oracle's within 1e-12.
    At u = 0 the optimum is not unique, so there its parameters are priced.
    The program's profile gives the oracle's cost and parameters at each
    curve's first minimum, and no cost there above the oracle's anywhere."""
    for m, y, w2 in _oracle_curves():
        m, y = np.asarray(m, dtype=float), np.asarray(y, dtype=float)
        u = np.concatenate([[0.0, 1e-12, 1e-9, 1e-7], fit._first_decay_grid(float(m.max()))])
        cost, (a, b) = exp_profile_every_point(m, y, w2)(u)
        inside = 0
        ref = [box_linear_fit(ui, m, y, w2) for ui in u]
        for i, (ui, (ref_cost, ref_a, ref_b)) in enumerate(zip(u, ref)):
            assert cost[i] == pytest.approx(ref_cost, rel=1e-12, abs=0.0)
            if ui == 0.0:
                assert ref_cost == pytest.approx(float(w2 @ (a[i] + b[i] - y) ** 2), rel=1e-12)
                continue
            assert a[i] == pytest.approx(ref_a, abs=1e-12)
            assert b[i] == pytest.approx(ref_b, abs=1e-12)
            inside += abs(ref_a) < 2.0 and -1.0 < ref_b < 2.0
        assert 0 < inside < u.size - 1
        cost, (best,), ((a,), (b,)) = fit._exp_profile(m, y[None], w2[None])(u)
        ref_cost, ref_a, ref_b = ref[best]
        assert cost[0, best] == pytest.approx(ref_cost, rel=1e-12, abs=0.0)
        assert cost[0, best] <= min(r[0] for r in ref) * (1 + 1e-12)
        assert a == pytest.approx(ref_a, abs=1e-12)
        assert b == pytest.approx(ref_b, abs=1e-12)


def _watch_exp_profile(monkeypatch, watch):
    """Make every decay fit call watch(m, y, w2, u, grid, out) on each grid u
    its profile is given, grid counting a fit's grids from 0, its first, and
    out being the profile's (cost, best, (a, b)) on u, with a and b as
    arrays.  A lone curve, fitted without the batch axis, is watched as a
    one-row batch."""
    exp_profile = fit._exp_profile

    def watched_profile(m, y, w2):
        profile, grids = exp_profile(m, y, w2), itertools.count()

        def watched(u):
            out = profile(u)
            cost, best, linear = out
            rows, weights = y, w2
            if y.ndim == 1:
                rows, weights, cost, best = y[None], w2[None], cost[None], np.reshape(best, 1)
            watch(m, rows, weights, u, next(grids),
                  (cost, best, tuple(np.reshape(v, best.shape) for v in linear)))
            return out

        return watched

    monkeypatch.setattr(fit, "_exp_profile", watched_profile)


def test_exp_profile_is_the_every_point_profile_at_each_first_minimum(monkeypatch):
    """On every grid, first and zoomed, of the pinned fits and the batches,
    the profile gives the every-point profile's first-minimum index, and
    its cost and (amplitude, offset) there bit for bit, and elsewhere no
    cost above the every-point profile's: the box is tested at each curve's
    first minimum alone, and that is all _minimise_profile reads."""
    grids = collections.Counter()

    def watch(m, y, w2, u, grid, out):
        cost, best, (a, b) = out
        ref_cost, (ref_a, ref_b) = exp_profile_every_point(m, y, w2)(u)
        rows = np.arange(len(y))
        assert best.tolist() == ref_cost.argmin(axis=1).tolist()
        for mine, ref in ((cost[rows, best], ref_cost), (a, ref_a), (b, ref_b)):
            assert mine.tobytes() == ref[rows, best].tobytes()
        assert np.all(cost <= ref_cost)
        grids[grid > 0] += 1

    _watch_exp_profile(monkeypatch, watch)
    for m, y, err in _pinned_curves():
        fit_exp_offset(m, y, y_err=err)
    for m, y, err in _batches():
        fit_exp_offsets(m, y, err)
    assert grids == {False: 112 + 3, True: 8 * (112 + 3)}


def test_exp_fit_digest_reaches_the_box_edges_on_zoomed_grids(monkeypatch):
    """Counts the first and the zoomed grids (every grid after a fit's
    first) on which the profile prices the box edges: the grids where some
    curve's first least unconstrained cost leaves the box.  Only the edge
    pricing calls np.take_along_axis, so fit's numpy is swapped for one that
    notes those calls.  The pinned fits must keep reaching both kinds of
    grid, so that EXP_FIT_DIGEST covers the in-box branch and the edge
    branch of the profile on each."""
    pricing, priced = [], collections.Counter()

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def take_along_axis(self, *args):
            pricing.append(args)
            return np.take_along_axis(*args)

    def watch(m, y, w2, u, grid, out):
        priced[grid > 0] += bool(pricing)
        pricing.clear()

    monkeypatch.setattr(fit, "np", Numpy())
    _watch_exp_profile(monkeypatch, watch)
    for m, y, err in _pinned_curves():
        fit_exp_offset(m, y, y_err=err)
    assert priced[False] > 0 and priced[True] > 0
    assert priced == {False: 6, True: 48}


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


def _leakage_curves():
    """Seeded leakage curves: 18 noisy saturation curves over kappa, T21 and
    two noise levels, then a non-positive curve and a flat-zero one."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4242)))
    m = np.array([0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 800], dtype=float)
    for kappa, t21 in itertools.product((0.5e-6, 1e-6, 4.1e-6), (5_000.0, 12_000.0, 40_000.0)):
        clean = leakage_model(m, kappa, t21, 1.875, 20.0)
        for noise in (1e-4, 3e-2):
            yield m, clean + rng.normal(0.0, noise * clean.max(), m.size)
    yield m, -np.abs(rng.normal(0.0, 1e-6, m.size))
    yield m, np.zeros(m.size)


# SHA-256 over the LeakageFit fields (six floats' bytes, then the
# unidentifiable flag) of the 20 fits of _leakage_curves, recorded before
# a lone curve's fit dropped its batch axis.
LEAKAGE_FIT_DIGEST = "c8eba4d80fc7d5602bb7d36346cc9163bab487c15e43e26d41cc20df0f482beb"


def test_leakage_fit_bytes_are_pinned():
    h = hashlib.sha256()
    fits = [fit_leakage(m, p2, 1.875, 20.0) for m, p2 in _leakage_curves()]
    for f in fits:
        h.update(np.array([f.kappa, f.t21_ns, f.np_mean, f.tp_ns, *f.stderr]).tobytes())
        h.update(bytes([f.unidentifiable]))
    assert len(fits) == 20
    assert [f.unidentifiable for f in fits] == [False] * 18 + [True] * 2
    assert h.hexdigest() == LEAKAGE_FIT_DIGEST


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
