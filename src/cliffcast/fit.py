"""Analysis kernels: decay fits, fidelity relations, leakage, populations.

All fitters are deterministic: fixed closed-form initialization followed by
a deterministic least-squares refinement, so identical data always yields
identical parameters.

scipy is imported inside the two least-squares fitters, so importing the
package (and the commands that never fit) does not pay for it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class FitError(RuntimeError):
    """Raised when a fit cannot converge; carries solver diagnostics."""


@dataclass
class ExpFit:
    """y = amplitude * decay**m + offset."""

    amplitude: float
    decay: float
    offset: float
    stderr: tuple[float, float, float]
    residual_rms: float

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


def _param_stderr(res) -> tuple[np.ndarray, np.ndarray]:
    """1-sigma parameter errors and the parameter covariance from the
    least-squares Jacobian (all nan when the Jacobian is singular)."""
    m, n = res.jac.shape
    dof = max(m - n, 1)
    variance = float(res.fun @ res.fun) / dof
    try:
        cov = np.linalg.inv(res.jac.T @ res.jac) * variance
    except np.linalg.LinAlgError:
        cov = np.full((n, n), np.nan)
    return np.sqrt(np.maximum(np.diag(cov), 0.0)), cov


def fit_exp_offset(m_values, y_values, y_err=None) -> ExpFit:
    """Least-squares fit of a single exponential with offset.

    Initialization: offset = last sample, amplitude = first - last, decay
    from a log-linear regression of |y - offset|; then a bounded
    deterministic least-squares refinement.  Exactly flat data short-
    circuits to amplitude 0, decay 1.
    """
    m = np.asarray(m_values, dtype=float)
    y = np.asarray(y_values, dtype=float)
    if m.ndim != 1 or m.shape != y.shape:
        raise ValueError("m_values and y_values must be 1-d and equal length")
    if m.size < 4:
        raise ValueError("need at least 4 points to fit")
    if y_err is not None:
        y_err = np.asarray(y_err, dtype=float)
        if y_err.shape != y.shape:
            raise ValueError("y_err must match y_values")
        y_err = np.where(y_err > 0, y_err, np.max(y_err[y_err > 0], initial=1.0))

    if np.allclose(y, y[0], atol=1e-12):
        return ExpFit(0.0, 1.0, float(np.mean(y)), (0.0, 0.0, 0.0), 0.0)

    b0 = float(y[-1])
    a0 = float(y[0] - y[-1])
    resid = np.abs(y - b0)
    good = resid > 1e-12
    if good.sum() >= 2:
        slope = np.polyfit(m[good], np.log(resid[good]), 1)[0]
        p0 = float(np.exp(np.clip(slope, -5.0, 0.0)))
    else:
        p0 = 0.99
    p0 = min(max(p0, 1e-6), 1.0 - 1e-9)
    if a0 == 0.0:
        a0 = 1e-3

    from scipy.optimize import least_squares

    weights = 1.0 / y_err if y_err is not None else np.ones_like(y)

    def residuals(params):
        a, p, b = params
        return (a * p**m + b - y) * weights

    res = least_squares(
        residuals,
        x0=[a0, p0, b0],
        bounds=([-2.0, 1e-9, -1.0], [2.0, 1.0, 2.0]),
        method="trf",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )
    if not res.success:
        raise FitError(f"exponential fit failed: {res.message}")
    a, p, b = (float(v) for v in res.x)
    err, _ = _param_stderr(res)
    rms = float(np.sqrt(np.mean((a * p**m + b - y) ** 2)))
    return ExpFit(a, p, b, (float(err[0]), float(err[1]), float(err[2])), rms)


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


def fit_leakage(m_values, p2_values, np_mean: float, tp_ns: float) -> LeakageFit:
    """Fit the leakage saturation curve, returning rate and relaxation time.

    Fits plateau * (1 - exp(-lam * m)), which is leakage_model with
    exp(-lam) = 1 - np_mean * tp / t21 and plateau = kappa * t21.  Flat-zero
    data yields kappa = 0 with the relaxation time flagged
    unidentifiable.
    """
    m = np.asarray(m_values, dtype=float)
    p2 = np.asarray(p2_values, dtype=float)
    if m.ndim != 1 or m.shape != p2.shape:
        raise ValueError("m_values and p2_values must be 1-d and equal length")
    if m.size < 4:
        raise ValueError("need at least 4 points to fit")
    if not (np_mean > 0 and tp_ns > 0):
        raise ValueError("np_mean and tp_ns must be positive")

    if np.allclose(p2, 0.0, atol=1e-15):
        return LeakageFit(0.0, math.inf, np_mean, tp_ns, (0.0, 0.0), True)

    tail = float(np.mean(p2[-max(2, m.size // 4):]))
    plateau0 = max(tail, float(np.max(p2)) * 0.5, 1e-12)
    frac = 1.0 - p2 / plateau0
    good = (frac > 1e-12) & (m > 0)
    if good.sum() >= 2:
        slope = np.polyfit(m[good], np.log(frac[good]), 1)[0]
        rate0 = max(-float(slope), 1e-9)
    else:
        rate0 = 1.0 / max(float(m[-1]), 1.0)

    from scipy.optimize import least_squares

    def residuals(params):
        plateau, rate = params
        return plateau * (1.0 - np.exp(-rate * m)) - p2

    res = least_squares(
        residuals,
        x0=[plateau0, rate0],
        bounds=([0.0, 1e-12], [1.0, np.inf]),
        method="trf",
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
    )
    if not res.success:
        raise FitError(f"leakage fit failed: {res.message}")
    plateau, rate = (float(v) for v in res.x)
    loss = -math.expm1(-rate)  # per-round loss fraction r = 1 - exp(-lam)
    t21 = np_mean * tp_ns / loss
    kappa = plateau / t21
    _, cov = _param_stderr(res)
    # Propagate the full covariance (plateau and lam are correlated) through
    # kappa = plateau * r / (np*tp) and t21 = np*tp / r, with dr/dlam = exp(-lam).
    dt = np_mean * tp_ns
    grad = np.array([[loss / dt, plateau * math.exp(-rate) / dt],
                     [0.0, -dt * math.exp(-rate) / loss**2]])
    kappa_err, t21_err = np.sqrt(np.maximum(np.diag(grad @ cov @ grad.T), 0.0))
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
