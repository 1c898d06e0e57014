"""Analysis kernels: decay fits, fidelity relations, leakage, populations.

Both least-squares fitters use variable projection (separable least
squares; Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973).  Each model
is linear in all its parameters but one, so for every value of that one the
linear parameters are solved in closed form inside their box, and the
remaining 1-D cost is minimised on a fixed grid that is zoomed a fixed
number of times (the decay fit caches its first grid, and prices its box
edges only where the unconstrained optimum leaves the box).  The fits need
only numpy, take a fixed number of steps, and always return the
box-constrained optimum, so identical data always yields identical
parameters and no fit fails for want of convergence.
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
_GRID_POINTS = 64
_ZOOMS = 8
_ZOOM_STEPS = np.linspace(0.0, 1.0, _GRID_POINTS // 2 + 1)


def _minimise_profile(profile, grid: np.ndarray) -> tuple[float, list[float]]:
    """Minimise a 1-D cost given at once for a sorted array of points.

    profile(t) returns the costs at the points t and the linear parameters
    solved for each, as a (parameters, points) array.  The best point is
    kept and the interval between its neighbours re-gridded, _ZOOMS times,
    so the cost never rises from one grid to the next.  Returns the best
    point and its linear parameters.
    """
    cost, linear = profile(grid)
    for _ in range(_ZOOMS):
        i = int(np.argmin(cost))
        lo, t, hi = grid[max(i - 1, 0)], grid[i], grid[min(i + 1, grid.size - 1)]
        grid = np.concatenate([lo + (t - lo) * _ZOOM_STEPS[:-1], t + (hi - t) * _ZOOM_STEPS])
        cost, linear = profile(grid)
    i = int(np.argmin(cost))
    return float(grid[i]), linear[:, i].tolist()


def _curve(m_values, y_values) -> tuple[np.ndarray, np.ndarray]:
    """A curve to fit as float arrays: 1-d, equal length, at least 4 points,
    finite values at finite non-negative lengths."""
    m = np.asarray(m_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if m.ndim != 1 or m.shape != y.shape:
        raise ValueError("lengths and values must be 1-d and of equal length")
    if m.size < 4:
        raise ValueError("need at least 4 points to fit")
    if not (np.all(np.isfinite(m) & (m >= 0)) and np.all(np.isfinite(y))):
        raise ValueError("lengths must be finite and non-negative, values finite")
    return m, y


def _covariance(jac: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """Parameter covariance inv(J^T J) * |r|^2 / dof at a least-squares
    optimum (all nan when J^T J is singular)."""
    n_points, n_params = jac.shape
    variance = float(resid @ resid) / max(n_points - n_params, 1)
    try:
        return np.linalg.inv(jac.T @ jac) * variance
    except np.linalg.LinAlgError:
        return np.full((n_params, n_params), np.nan)


def _exp_profile(m, y, w2):
    """The profile of one weighted curve: a function that gives, for each
    u = -log(decay), the cost of the best (amplitude, offset) in their box,
    with those two parameters.

    With x = exp(-u m), the unconstrained 2x2 optimum is a = sxy / sxx,
    b = ybar - a xbar (weighted means and centred sums; x - 1 is taken from
    expm1 so that the centring loses nothing near decay 1).  Any other
    (a, b) costs more by sxx (a - a_opt)**2 + sw (b + a xbar - ybar)**2.
    The optimum in the box is the unconstrained one where that lies inside,
    else the best of the four edges, each a 1-D problem solved by clipping.
    The edges are priced only at the points whose optimum leaves the box,
    so a grid that lies inside it everywhere skips them.  The sums over y
    alone are taken once per curve.
    """
    sw = w2.sum()
    ybar = w2 @ y / sw
    dy = y - ybar
    w2dy = w2 * dy
    a_lo, a_hi = _AMPLITUDE_BOUNDS
    b_lo, b_hi = _OFFSET_BOUNDS
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
        # Candidates on the edges: a on each bound, then b.
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
    a in [-2, 2], p in [1e-9, 1], b in [-1, 2].

    For each u = -log p the weighted 2x2 problem for (a, b) is solved
    exactly in its box, and u is found on a grid over [0, -log 1e-9]
    zoomed around its best point.  The result is the box-constrained
    optimum also where it lies on the box; at_bound names the parameters
    that ended there.  Standard errors come from the analytic Jacobian at
    the optimum.  Exactly flat data short-circuits to amplitude 0, decay 1.
    """
    m, y = _curve(m_values, y_values)
    if y_err is not None:
        y_err = np.asarray(y_err, dtype=float)
        if y_err.shape != y.shape:
            raise ValueError("y_err must match y_values")
        if not np.all(np.isfinite(y_err)):
            raise ValueError("y_err must be finite")
        y_err = np.where(y_err > 0, y_err, np.max(y_err[y_err > 0], initial=1.0))

    if np.all(np.abs(y - y[0]) <= 1e-12):
        return ExpFit(0.0, 1.0, float(np.mean(y)), (0.0, 0.0, 0.0), 0.0, ("decay",))

    w = 1.0 / y_err if y_err is not None else np.ones_like(y)
    w2 = w * w
    u_max = -math.log(_DECAY_BOUNDS[0])
    grid = _first_decay_grid(max(float(m.max()), 1.0))
    u, (a, b) = _minimise_profile(_exp_profile(m, y, w2), grid)
    p = math.exp(-u) if u < u_max else _DECAY_BOUNDS[0]
    x = p**m
    resid = a * x + b - y
    jac = np.column_stack([x, a * m * p ** (m - 1.0), np.ones_like(m)]) * w[:, None]
    err = np.sqrt(np.maximum(np.diag(_covariance(jac, resid * w)), 0.0))
    at_bound = tuple(name for name, v, bounds in (("amplitude", a, _AMPLITUDE_BOUNDS),
                                                  ("decay", p, _DECAY_BOUNDS),
                                                  ("offset", b, _OFFSET_BOUNDS))
                     if v in bounds)
    return ExpFit(a, p, b, (float(err[0]), float(err[1]), float(err[2])),
                  float(np.sqrt(np.mean(resid**2))), at_bound)


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
    """Cost of the best plateau in [0, 1] for each rate lam, with that
    plateau (the 1-D least-squares solution, clipped)."""
    z = -np.expm1(-np.outer(lam, m))
    szz = (z * z).sum(axis=1)
    plateau = np.clip(np.divide(z @ p2, szz, out=np.zeros_like(szz), where=szz > 0),
                      *_PLATEAU_BOUNDS)
    cost = ((plateau[:, None] * z - p2) ** 2).sum(axis=1)
    return cost, plateau[None, :]


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
    if np.allclose(p2, 0.0, atol=1e-15):
        return flat_zero

    positive = m[m > 0]
    # Beyond 50 / (shortest positive length) every 1 - exp(-lam * m) is 1 to
    # double precision, so the cost no longer depends on lam.
    lam_hi = 50.0 / (positive.min() if positive.size else 1.0)
    rate, (plateau,) = _minimise_profile(lambda t: _leakage_profile(t, m, p2),
                                         np.geomspace(_RATE_MIN, lam_hi, _GRID_POINTS))
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
