"""Analysis kernels: decay fits, fidelity relations, leakage, populations.

Both least-squares fitters use variable projection (separable least
squares; Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973).  Each model
is linear in all its parameters but one, so for every value of that one the
linear parameters are solved in closed form inside their box, and the
remaining 1-D cost is minimised on a fixed grid that is zoomed a fixed
number of times (the decay fit caches its first grid, and tests its box
only at each curve's first minimum, as an edge only adds to a cost).  The
fits need only numpy, take a fixed number of steps, and always return the
box-constrained optimum, so identical data always yields identical
parameters and no fit fails for want of convergence.

fit_exp_offsets fits a (curves, lengths) array in one batched pass, each
curve zooming around its own best point and a zero error taking max(1, the
largest error of its own curve), so a curve's fit is the same to the bit in
any batch; fit_exp_offset and the leakage fit are one-row calls.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class ExpFit:
    """y = amplitude * decay**m + offset.

    residual_rms is the unweighted RMS of the residuals; at_bound names the
    parameters ("amplitude", "decay", "offset") that ended on a bound of
    the fit's box.
    """

    amplitude: float
    decay: float
    offset: float
    stderr: tuple[float, float, float]
    residual_rms: float
    at_bound: tuple[str, ...] = ()

    def __call__(self, m):
        return self.amplitude * self.decay ** np.asarray(m, dtype=float) + self.offset


@dataclass
class LeakageFit:
    """p2[m] = kappa * t21 * (1 - (1 - np_mean * tp / t21)**m), see
    leakage_model.

    kappa is the leakage rate in the model's native units (population per
    nanosecond of aggregated pulse time); t21 the upper-state relaxation
    time in ns.  unidentifiable marks flat-zero data where only kappa = 0
    is meaningful.
    """

    kappa: float
    t21_ns: float
    np_mean: float
    tp_ns: float
    stderr: tuple[float, float]
    unidentifiable: bool = False

    def __call__(self, m):
        return leakage_model(np.asarray(m, dtype=float), self.kappa, self.t21_ns,
                             self.np_mean, self.tp_ns)


@dataclass(frozen=True)
class PopCalib:
    """Signal levels for the three lowest states plus the two measured
    signals (without and with the final swap pulse)."""

    v0: float
    v1: float
    v2: float
    s: float
    s_prime: float


# The box of fit_exp_offset, and the bounds of fit_leakage's parameters
# (its rate has no upper bound).
_AMPLITUDE_BOUNDS = (-2.0, 2.0)
_DECAY_BOUNDS = (1e-9, 1.0)
_OFFSET_BOUNDS = (-1.0, 2.0)
_PLATEAU_BOUNDS = (0.0, 1.0)
_RATE_MIN = 1e-12

# Points of the first 1-D grid and of each zoom; a zoom narrows the interval
# around the best point 32-fold, so eight take it below 1e-12 of its start.
# Zoomed point k lies _ZOOM_AT[k] of the way between the points at
# _ZOOM_ENDS[n][:, i, k] of the n-point grid before, whose best point is i:
# (i - 1, i) for the lower 32, (i, i + 1) for the upper 33, clipped (uint8,
# so that both tables take 17 KB).
_GRID_POINTS = 64
_ZOOMS = 8
_HALF = _GRID_POINTS // 2
_ZOOM_STEPS = np.linspace(0.0, 1.0, _HALF + 1)
_ZOOM_AT = np.concatenate([_ZOOM_STEPS[:-1], _ZOOM_STEPS])
_ZOOM_ENDS = {n: np.clip(np.arange(n)[:, None]
                         + np.repeat([[-1, 0], [0, 1]], [_HALF, _HALF + 1], axis=1)[:, None],
                         0, n - 1).astype(np.uint8)
              for n in (_GRID_POINTS, _GRID_POINTS + 1)}


def _minimise_profile(profile, grid: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Minimise a 1-D cost for several curves, given at once for sorted points.

    grid is a (curves, points) array, or one row of points for every curve.
    profile(t) returns the costs at the points t, a (curves, points) array,
    the index of each curve's first least cost, and the linear parameters
    solved there, a tuple of (curves,) arrays.  Each curve's best point is
    kept and the interval between its neighbours re-gridded, _ZOOMS times,
    so no curve's cost rises from one grid to the next.  Returns each
    curve's best point and its linear parameters.
    """
    _, best, linear = profile(grid)
    rows = np.arange(best.size)
    for _ in range(_ZOOMS):
        ends = _ZOOM_ENDS[grid.shape[-1]][:, best]
        ends = grid[rows[:, None], ends] if grid.ndim == 2 else grid[ends]
        grid = ends[0] + (ends[1] - ends[0]) * _ZOOM_AT
        _, best, linear = profile(grid)
    return grid[rows, best], linear


def _curve(m_values, y_values, ndim: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """A curve to fit as float arrays: 1-d lengths, and values of ndim
    dimensions (one row per curve) as long as the lengths, at least 4
    points, finite values at finite non-negative lengths."""
    m = np.asarray(m_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if m.ndim != 1 or y.ndim != ndim or y.shape[-1:] != m.shape:
        raise ValueError("lengths and values must be 1-d and of equal length")
    if m.size < 4:
        raise ValueError("need at least 4 points to fit")
    if not (np.all(np.isfinite(m) & (m >= 0)) and np.all(np.isfinite(y))):
        raise ValueError("lengths must be finite and non-negative, values finite")
    return m, y


def _covariance(jac: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """Parameter covariance inv(J^T J) * |r|^2 / dof at a least-squares
    optimum, for one curve or a stack of them along the leading axes (all
    nan for a curve whose J^T J is singular)."""
    n_points, n_params = jac.shape[-2:]
    variance = resid[..., None, :] @ resid[..., None] / max(n_points - n_params, 1)
    try:
        return np.linalg.inv(jac.swapaxes(-1, -2) @ jac) * variance
    except np.linalg.LinAlgError:
        if jac.ndim > 2:
            return np.array([_covariance(j, r) for j, r in zip(jac, resid)])
        return np.full((n_params, n_params), np.nan)


def _exp_profile(m, y, w2):
    """The profile of weighted curves at the lengths m (y and w2 one row per
    curve): a function that gives, for the u = -log(decay) of a
    (curves, points) array or of one row for every curve, the cost of the
    best (amplitude, offset) in their box, and each curve's first least
    cost's index with those two parameters there.

    With x = exp(-u m), the unconstrained 2x2 optimum is a = sxy / sxx,
    b = ybar - a xbar (weighted means and centred sums; x - 1 is taken from
    expm1 so that the centring loses nothing near decay 1).  Any other
    (a, b) costs more by sxx (a - a_opt)**2 + sw (b + a xbar - ybar)**2.
    The optimum in the box is the unconstrained one where that lies inside,
    else the best of the four edges, each a 1-D problem solved by clipping.
    The box is tested only at each curve's first least unconstrained cost:
    an edge adds a non-negative excess to a cost, so a first minimum inside
    (with sxx > 0) is also the first least cost in the box, with the same
    (a, b).  The edges are priced, at every point, only on a grid where some
    curve's first minimum leaves the box; elsewhere a point outside keeps
    its lower unconstrained cost.  The sums over y alone are taken once per
    curve, and every weighted sum is a stacked matrix-vector product with
    the curve's (lengths, 1) weights.
    """
    sw = w2.sum(axis=-1)[..., None, None]
    w2 = w2[..., None]
    ybar = y[..., None, :] @ w2 / sw
    dy = y[..., None, :] - ybar
    w2dy = w2 * dy.swapaxes(-1, -2)
    minus_m = -m
    a_lo, a_hi = _AMPLITUDE_BOUNDS
    b_lo, b_hi = _OFFSET_BOUNDS
    b_edges = np.array([b_lo, b_hi])[:, None, None, None]

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
        first = cost.argmin(axis=1)
        # A call fits a handful of curves: test the box at each first minimum
        # (flat indices at) in Python floats.
        at = first + np.arange(0, cost.size, cost.shape[1])
        a_at, s_at, x_at = (v.take(at).tolist() for v in (a_opt, sxx, x1bar))
        b_at = [yb - a * (1.0 + x) for yb, a, x in zip(ybar.flat, a_at, x_at)]
        if all(s > 0 and abs(a) <= a_hi and b_lo <= b <= b_hi for s, a, b in zip(s_at, a_at, b_at)):
            return cost, first, (np.array(a_at), np.array(b_at))
        # Some first minimum leaves the box: price each point's best in it,
        # the unconstrained optimum if inside, else the cheapest edge.
        xbar = 1.0 + x1bar
        a = np.empty((5,) + sxx.shape)
        a[0], a[1], a[2], a[3:] = a_opt, a_lo, a_hi, 0.0
        sx2 = sxx + sw * xbar**2
        np.divide(sxy + sw * xbar * (ybar - b_edges), sx2, out=a[3:], where=sx2 > 0)
        np.clip(a[3:], a_lo, a_hi, out=a[3:])
        b = np.empty_like(a)
        b[0], b[3], b[4] = ybar - a_opt * xbar, b_lo, b_hi
        np.clip(ybar - a[1:3] * xbar, b_lo, b_hi, out=b[1:3])
        with np.errstate(over="ignore"):  # an edge too far to price costs inf: it never wins
            excess = sw * (b + a * xbar - ybar) ** 2 + np.divide(
                (sxx * a - sxy) ** 2, sxx, out=np.zeros_like(a), where=positive)
        # The amplitude box is symmetric, so |a| <= a_hi tests both its edges.
        inside = positive & (np.abs(a_opt) <= a_hi) & (b_lo <= b[0]) & (b[0] <= b_hi)
        excess[0] = np.where(inside, 0.0, np.inf)
        pick = excess.argmin(axis=0)[None]
        cost = cost + np.take_along_axis(excess, pick, 0)[0, ..., 0]
        first = cost.argmin(axis=1)
        at = first + np.arange(0, cost.size, cost.shape[1])
        return cost, first, tuple(np.take_along_axis(v, pick, 0).take(at) for v in (a, b))

    return profile


@lru_cache(maxsize=16)
def _first_decay_grid(m_max: float) -> np.ndarray:
    """u = 0, then geometric from 1e-6 / m_max to -log 1e-9 (read-only)."""
    grid = np.concatenate([[0.0], np.geomspace(1e-6 / m_max, -math.log(_DECAY_BOUNDS[0]),
                                               _GRID_POINTS - 1)])
    grid.flags.writeable = False
    return grid


def fit_exp_offset(m_values, y_values, y_err=None) -> ExpFit:
    """Weighted least-squares fit of y = a * p**m + b in the box
    a in [-2, 2], p in [1e-9, 1], b in [-1, 2]: the one-curve call of
    fit_exp_offsets, which describes the fit."""
    y_err = None if y_err is None else np.asarray(y_err, dtype=float)[None]
    return fit_exp_offsets(m_values, np.asarray(y_values, dtype=float)[None], y_err)[0]


def fit_exp_offsets(m_values, y_values, y_err=None) -> list[ExpFit]:
    """Weighted least-squares fits of y = a * p**m + b in the box
    a in [-2, 2], p in [1e-9, 1], b in [-1, 2], one per row of the
    (curves, lengths) array y_values, all at the lengths m_values, in one
    batched pass.

    For each u = -log p the weighted 2x2 problem for (a, b) is solved
    exactly in its box, and u is found on a grid over [0, -log 1e-9]
    zoomed around each curve's best point.  The result is the
    box-constrained optimum also where it lies on the box; at_bound names
    the parameters that ended there.  Standard errors come from the
    analytic Jacobian at the optimum.  A curve whose values all lie within
    1e-12 of its first short-circuits to amplitude 0, decay 1.  Points are
    weighted by 1 / y_err (one row per curve), a zero error taking max(1,
    the largest error of its curve): beside errors below 1, as p0 standard
    errors are, such a point gets weight 1.  A negative error is a
    ValueError, and so are a nonzero one outside [1e-100, 1e100], whose
    weight could overflow or underflow, and fewer than 3 distinct lengths,
    which cannot fix three parameters, and so is a fit whose standard errors
    are not finite, named by its row.  A curve fits to the bit as it does alone.
    """
    m, y = _curve(m_values, y_values, ndim=2)
    if (distinct := len(set(m.tolist()))) < 3:
        raise ValueError(f"need at least 3 distinct lengths to fit a decay, got {distinct}")
    if y_err is None:
        w = np.ones_like(y)
    else:
        y_err = np.asarray(y_err, dtype=float)
        if y_err.shape != y.shape:
            raise ValueError("y_err must match y_values")
        if not np.all(np.isfinite(y_err) & (y_err >= 0)):
            raise ValueError("y_err must be finite and not negative")
        if np.any((y_err > 0) & ((y_err < 1e-100) | (y_err > 1e100))):
            raise ValueError("a nonzero y_err must lie in [1e-100, 1e100], so that its weight "
                             "1 / y_err**2 neither overflows nor underflows")
        w = 1.0 / np.where(y_err > 0, y_err, np.max(y_err, axis=1, keepdims=True, initial=1.0))
    sloped = np.logical_or.reduce(np.abs(y - y[:, :1]) > 1e-12, axis=1)
    rows = np.flatnonzero(sloped)
    fits = iter(_fit_decays(m, y[rows], w[rows], rows) if rows.size else ())
    return [next(fits) if s else ExpFit(0.0, 1.0, float(np.mean(row)), (0.0, 0.0, 0.0), 0.0,
                                        ("decay",))
            for s, row in zip(sloped.tolist(), y)]


def _fit_decays(m, y, w, rows) -> list[ExpFit]:
    """fit_exp_offsets on curves that are not flat (rows of y_values), with their weights."""
    u_max = -math.log(_DECAY_BOUNDS[0])
    grid = _first_decay_grid(max(float(m.max()), 1.0))
    u, (a, b) = _minimise_profile(_exp_profile(m, y, w * w), grid)
    # math.exp: np.exp over the batch can differ from it in the last bit.
    p = np.array([math.exp(-v) if v < u_max else _DECAY_BOUNDS[0] for v in u.tolist()])
    a_col, p_col = a[:, None], p[:, None]
    x = p_col**m
    resid = a_col * x + b[:, None] - y
    jac = np.empty(y.shape + (3,))
    jac[..., 0], jac[..., 1], jac[..., 2] = x, a_col * m * p_col ** (m - 1.0), 1.0
    jac *= w[..., None]
    err = np.sqrt(np.maximum(_covariance(jac, resid * w).diagonal(axis1=1, axis2=2), 0.0))
    if not (finite := np.isfinite(err).all(axis=1)).all():
        raise ValueError(f"curve {rows[finite.argmin()]}: decay fit standard errors are not "
                         "finite, so its points do not determine the decay")
    rms = np.sqrt(np.add.reduce(resid**2, axis=1) / m.size)
    boxes = (("amplitude", _AMPLITUDE_BOUNDS), ("decay", _DECAY_BOUNDS), ("offset", _OFFSET_BOUNDS))
    return [ExpFit(*fitted, tuple(e), r, tuple(name for (name, box), v in zip(boxes, fitted)
                                               if v in box))
            for *fitted, e, r in zip(a.tolist(), p.tolist(), b.tolist(), err.tolist(), rms.tolist())]


def fidelity_from_decay(p: float) -> float:
    """Average Clifford fidelity from the per-Clifford depolarizing decay
    (two-level relation F = (1 + p) / 2)."""
    if not 0 < p <= 1:
        raise ValueError("decay must be in (0, 1]")
    return (1.0 + p) / 2.0


def t1_limit_fidelity(t1_ns: float, tp_ns: float, np_mean: float) -> float:
    """Average Clifford fidelity with relaxation as the only error source:
    [(3 + 2 exp(-tp/2 T1) + exp(-tp/T1)) / 6] ** np_mean."""
    if tp_ns <= 0 or np_mean <= 0:
        raise ValueError("tp_ns and np_mean must be positive")
    if math.isinf(t1_ns):
        return 1.0
    if t1_ns <= 0:
        raise ValueError("t1_ns must be positive")
    x = tp_ns / t1_ns
    base = (3.0 + 2.0 * math.exp(-x / 2.0) + math.exp(-x)) / 6.0
    return base**np_mean


def leakage_model(m, kappa: float, t21_ns: float, np_mean: float, tp_ns: float):
    """Mean upper-state population after m rounds from zero population.

    This is the exact m-fold solution of rate_step,
    kappa * t21 * (1 - (1 - r)**m) with the per-round loss fraction
    r = np_mean * tp / t21, which must be below 1.  For small r it tends to
    the continuum curve kappa * t21 * (1 - exp(-m * r)), so kappa and t21
    keep their meaning.  Without relaxation (t21 = inf, r = 0) the
    population grows linearly, kappa * np_mean * tp * m.
    """
    if min(kappa, t21_ns, np_mean, tp_ns) < 0 or t21_ns == 0:
        raise ValueError("parameters must be positive (kappa may be 0)")
    r = np_mean * tp_ns / t21_ns
    if r >= 1.0:
        raise ValueError("np_mean * tp_ns must be shorter than t21_ns")
    m = np.asarray(m, dtype=float)
    if r == 0.0:
        return kappa * np_mean * tp_ns * m
    return kappa * t21_ns * -np.expm1(m * math.log1p(-r))


def rate_step(p2_m: float, kappa: float, t21_ns: float, np_mean: float,
              tp_ns: float) -> float:
    """One round of the leakage balance: gain tp*Np*kappa, loss
    (tp*Np/t21) * p2.  leakage_model is its closed-form m-fold iterate."""
    dt = tp_ns * np_mean
    return p2_m + dt * kappa - (dt / t21_ns) * p2_m


def _leakage_profile(lam, m, p2):
    """Cost of the best plateau in [0, 1] for each rate lam, a (1, points)
    array for _minimise_profile, with the first least cost's index and the
    plateau there (the 1-D least-squares solution, clipped)."""
    z = -np.expm1(-lam[..., None] * m)
    szz = (z * z).sum(axis=-1)
    plateau = np.clip(np.divide(z @ p2, szz, out=np.zeros_like(szz), where=szz > 0),
                      *_PLATEAU_BOUNDS)
    cost = ((plateau[..., None] * z - p2) ** 2).sum(axis=-1)
    first = cost.argmin(axis=-1)
    return cost, first, (plateau.take(first),)


@lru_cache(maxsize=16)
def _first_rate_grid(lam_hi: float) -> np.ndarray:
    """One row, geometric from _RATE_MIN to lam_hi (read-only)."""
    grid = np.geomspace(_RATE_MIN, lam_hi, _GRID_POINTS)[None]
    grid.flags.writeable = False
    return grid


def fit_leakage(m_values, p2_values, np_mean: float, tp_ns: float) -> LeakageFit:
    """Fit the leakage saturation curve, returning rate and relaxation time.

    Fits plateau * (1 - exp(-lam * m)) with plateau in [0, 1] and
    lam >= 1e-12, which is leakage_model with exp(-lam) = 1 - np_mean * tp /
    t21 and plateau = kappa * t21.  As in fit_exp_offset, the plateau is
    solved in closed form for each lam and lam found on a zoomed grid.
    Standard errors come from the analytic Jacobian at the optimum, with
    the full (plateau, lam) covariance propagated to (kappa, t21).  Flat-zero
    data, and any data whose best plateau is 0, yield kappa = 0 with the
    relaxation time flagged unidentifiable.  Fewer than two distinct positive
    lengths, or a round time that overflows the errors, raise ValueError.
    """
    m, p2 = _curve(m_values, p2_values)
    if not (0 < np_mean < math.inf and 0 < tp_ns < math.inf):
        raise ValueError("np_mean and tp_ns must be positive and finite")
    flat_zero = LeakageFit(0.0, math.inf, np_mean, tp_ns, (0.0, 0.0), True)
    if np.all(np.abs(p2) <= 1e-15):  # np.allclose(p2, 0, atol=1e-15) on finite data
        return flat_zero

    positive = m[m > 0]
    # Beyond 50 / (shortest positive length) every 1 - exp(-lam * m) is 1 to
    # double precision, so the cost no longer depends on lam.
    lam_hi = 50.0 / (positive.min() if positive.size else 1.0)
    rate, (plateau,) = _minimise_profile(lambda t: _leakage_profile(t, m, p2),
                                         _first_rate_grid(float(lam_hi)))
    rate, plateau = float(rate[0]), float(plateau[0])
    if plateau == 0.0:
        # Non-positive data: the best plateau is on its lower bound, where
        # the rate no longer changes the curve and only kappa = 0 is known.
        return flat_zero
    if not positive.size or positive.min() == positive.max():
        raise ValueError("need at least two distinct positive lengths to fit a rate")
    loss = -math.expm1(-rate)  # per-round loss fraction r = 1 - exp(-lam)
    t21 = np_mean * tp_ns / loss
    kappa = plateau / t21
    z = -np.expm1(-rate * m)
    cov = _covariance(np.column_stack([z, plateau * m * np.exp(-rate * m)]), plateau * z - p2)
    # Propagate the full covariance (plateau and lam are correlated) through
    # kappa = plateau * r / (np*tp) and t21 = np*tp / r, with dr/dlam = exp(-lam).
    dt = np_mean * tp_ns
    grad = np.array([[loss / dt, plateau * math.exp(-rate) / dt],
                     [0.0, -dt * math.exp(-rate) / loss**2]])
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        kappa_err, t21_err = np.sqrt(np.maximum(np.diag(grad @ cov @ grad.T), 0.0))
    if not np.all(np.isfinite([t21, kappa_err, t21_err])):
        raise ValueError("the round time np_mean * tp_ns overflows the fit")
    return LeakageFit(kappa, t21, np_mean, tp_ns, (float(kappa_err), float(t21_err)))


def signal_forward_model(v0: float, v1: float, v2: float,
                         p0: float, p1: float, p2: float) -> tuple[float, float]:
    """Measured signals (without, with final swap pulse) for populations.

    The swap pulse exchanges the ground and first-excited populations and
    leaves the upper state alone.
    """
    s = v0 * p0 + v1 * p1 + v2 * p2
    s_prime = v0 * p1 + v1 * p0 + v2 * p2
    return s, s_prime


def extract_populations(calib: PopCalib) -> tuple[float, float, float]:
    """Invert the two-signal linear system for the three populations.

    Populations are deliberately not clamped: values outside [0, 1]
    diagnose calibration errors.
    """
    a = calib.v0 - calib.v2
    b = calib.v1 - calib.v2
    det = a * a - b * b
    if abs(det) < 1e-12 * max(1.0, a * a + b * b):
        raise ValueError("singular calibration: v0 and v1 are too close")
    r0 = calib.s - calib.v2
    r1 = calib.s_prime - calib.v2
    p0 = (a * r0 - b * r1) / det
    p1 = (a * r1 - b * r0) / det
    return p0, p1, 1.0 - p0 - p1


def interleaved_gate_fidelity(p_interleaved: float, p_reference: float) -> float:
    """Gate fidelity from interleaved versus reference decays:
    1 - (1 - p_int/p_ref) / 2."""
    if not 0 < p_interleaved <= 1 or not 0 < p_reference <= 1:
        raise ValueError("decays must be in (0, 1]")
    if p_interleaved > p_reference:
        warnings.warn(
            "interleaved decay exceeds reference decay; estimate is "
            "noise-dominated and unphysical",
            stacklevel=2,
        )
    return 1.0 - (1.0 - p_interleaved / p_reference) / 2.0
