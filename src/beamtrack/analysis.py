"""Numerical convergence theory for the recursive beam tracker.

Covers the landscape of the update field f(v, x): its stable points and
mainlobe basin, the limiting ODE, the Lipschitz/step-size constants, the
asymptotic variance of the fixed-step recursion, and the exponential
lower bound on the probability of converging to the true direction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, f_gain, f_gain_closed


@dataclass(frozen=True)
class StablePointSet:
    """Interior stable points of the update field plus boundary stability flags.

    Each interior point v satisfies f(v, x) = 0 with f'(v, x) < 0, and
    consecutive points are spaced lambda/((M-1)*d) apart.  The boundaries
    +-1 are flagged stable when the clamped recursion can rest there
    (f(1, x) >= 0, respectively f(-1, x) <= 0).
    """

    points: np.ndarray
    spacing: float
    lower_boundary_stable: bool
    upper_boundary_stable: bool


def lipschitz_constant(cfg: ArrayConfig) -> float:
    """Lipschitz constant of f(., x): L = sqrt(M)*(M-1)*pi*d/lambda."""
    m = cfg.num_antennas
    return math.sqrt(m) * (m - 1) * math.pi * cfg.spacing_ratio


def mainlobe_half_width(cfg: ArrayConfig) -> float:
    """Half-width lambda/(M*d) in x of the matched beam's mainlobe: the
    distance from its peak to its first null."""
    return 1.0 / (cfg.num_antennas * cfg.spacing_ratio)


def mainlobe(cfg: ArrayConfig, x: float) -> tuple[float, float]:
    """Basin (x - lambda/(M*d), x + lambda/(M*d)) intersected with [-1, 1]."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x!r}")
    half = mainlobe_half_width(cfg)
    return max(x - half, -1.0), min(x + half, 1.0)


def stable_points(cfg: ArrayConfig, x: float) -> StablePointSet:
    """All points {x + k*lambda/((M-1)*d)} in (-1, 1], verified as
    negative-slope roots of the update field."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [-1, 1], got {x!r}")
    spacing = 1.0 / ((cfg.num_antennas - 1) * cfg.spacing_ratio)
    k_lo = math.ceil((-1.0 - x) / spacing + 1e-12)
    k_hi = math.floor((1.0 - x) / spacing + 1e-12)
    pts = x + spacing * np.arange(k_lo, k_hi + 1, dtype=float)
    pts = pts[(pts > -1.0) & (pts <= 1.0)]
    pts.sort()

    h = 1e-7
    vals = np.abs(f_gain(cfg, pts, x))
    slopes = (f_gain(cfg, pts + h, x) - f_gain(cfg, pts - h, x)) / (2 * h)
    if not (np.all(vals < 1e-9) and np.all(slopes < 0)):
        raise AssertionError("computed stable points failed the root/slope check")

    return StablePointSet(
        points=pts,
        spacing=spacing,
        lower_boundary_stable=bool(f_gain(cfg, -1.0, x) <= 0),
        upper_boundary_stable=bool(f_gain(cfg, 1.0, x) >= 0),
    )


def _clamped_field(cfg: ArrayConfig, v: np.ndarray, x: float) -> np.ndarray:
    """ODE right-hand side with the boundary clamping rule."""
    val = f_gain_closed(cfg, np.clip(v, -1.0, 1.0), x)
    val = np.where(v <= -1.0, np.maximum(val, 0.0), val)
    val = np.where(v >= 1.0, np.minimum(val, 0.0), val)
    return val


def ode_trajectory(cfg: ArrayConfig, x: float, x0_hat: float, t_end: float, dt: float):
    """Integrate dv/dt = f(v, x) with clamping at +-1 (fixed-step RK4).

    Returns (t, v) sample arrays including t = 0.  Requires dt*L < 0.1 so the
    fixed step resolves the fastest dynamics.
    """
    if not t_end > 0 or not dt > 0:
        raise ValueError("t_end and dt must be > 0")
    if dt * lipschitz_constant(cfg) >= 0.1:
        raise ValueError("dt too large: require dt * L < 0.1")
    n_steps = int(math.ceil(t_end / dt))
    t = np.empty(n_steps + 1)
    v = np.empty(n_steps + 1)
    t[0], v[0] = 0.0, x0_hat
    cur = float(x0_hat)
    for i in range(1, n_steps + 1):
        h = min(dt, t_end - t[i - 1])
        k1 = _clamped_field(cfg, np.asarray(cur), x)
        k2 = _clamped_field(cfg, np.asarray(cur + 0.5 * h * k1), x)
        k3 = _clamped_field(cfg, np.asarray(cur + 0.5 * h * k2), x)
        k4 = _clamped_field(cfg, np.asarray(cur + h * k3), x)
        cur = cur + (h / 6.0) * float(k1 + 2 * k2 + 2 * k3 + k4)
        cur = min(max(cur, -1.0), 1.0)
        t[i] = t[i - 1] + h
        v[i] = cur
    return t, v


def escape_time(cfg: ArrayConfig, x: float, x0_hat: float, delta: float) -> float:
    """Time for the ODE started at x0_hat to move at least delta toward x.

    T = delta / min{|f(x0_hat, x)|, |f(|x0_hat - x| - delta + x, x)|}.
    delta must be positive and strictly smaller than the distance from
    x0_hat to the mainlobe boundary.
    """
    lo, hi = mainlobe(cfg, x)
    if not lo < x0_hat < hi:
        raise ValueError("x0_hat must lie strictly inside the mainlobe of x")
    boundary_dist = min(abs(x0_hat - lo), abs(hi - x0_hat))
    if not 0 < delta < boundary_dist:
        raise ValueError(
            f"delta must satisfy 0 < delta < {boundary_dist:.6g} "
            "(distance from x0_hat to the mainlobe boundary)"
        )
    f0 = abs(f_gain(cfg, x0_hat, x))
    f1 = abs(f_gain(cfg, abs(x0_hat - x) - delta + x, x))
    denom = min(f0, f1)
    if denom == 0.0:
        return math.inf
    return delta / denom


def stability_threshold(cfg: ArrayConfig) -> float:
    """Smallest fixed step size with finite asymptotic variance: 1/(2L)."""
    return 1.0 / (2.0 * lipschitz_constant(cfg))


def asymptotic_variance(cfg: ArrayConfig, rho: float, alpha: float) -> float:
    """Asymptotic variance of sqrt(n)*(x_hat_n - x) for step sizes alpha/n.

    Sigma = alpha^2 / (2*rho*(2*L*alpha - 1)); minimized at alpha = 1/L where
    it equals the reciprocal of the maximum Fisher information.
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    thr = stability_threshold(cfg)
    if alpha <= thr:
        raise ValueError(
            f"alpha = {alpha!r} is at or below the stability threshold {thr:.6g}; "
            "the recursion has no finite asymptotic variance"
        )
    ell = lipschitz_constant(cfg)
    return alpha**2 / (2.0 * rho * (2.0 * ell * alpha - 1.0))


def inverse_square_tail_sum(n0: float) -> float:
    """sum_{i >= 1} 1/(i + n0)^2, the trigamma function at n0 + 1."""
    if n0 < 0:
        raise ValueError(f"n0 must be >= 0, got {n0!r}")
    # imported on first use: scipy.special takes longer to import than the
    # rest of the CLI's start-up, and only the convergence bound needs it
    from scipy import special

    return float(special.polygamma(1, n0 + 1))


def _exp(v: float) -> float:
    """exp(v), or inf where it passes the float range (math.exp raises there)."""
    return math.exp(v) if v < math.log(sys.float_info.max) else math.inf


@dataclass(frozen=True)
class BoundResult:
    """Outcome of the convergence-probability bound computation.

    ``applicable`` is False when a precondition on delta or the step-size
    sequence fails, in which case ``reason`` names the violated constraint
    and ``value`` is None.  ``details`` carries the intermediate constants.
    """

    applicable: bool
    value: float | None
    reason: str | None = None
    details: dict = field(default_factory=dict)


def convergence_bound(
    cfg: ArrayConfig,
    rho: float,
    alpha: float,
    n0: float,
    x: float,
    x0_hat: float,
    delta: float,
) -> BoundResult:
    """Lower bound on P(x_hat_n -> x) for diminishing steps alpha/(n + n0).

    Computes the pipeline constants (escape time T, Lipschitz L,
    C_e = exp(L*(T + a_1)), b(0) = alpha^2 * sum 1/(i+n0)^2, alpha_max, C_0)
    and returns max(0, 1 - 2*exp(-C_0*rho/alpha^2)) when every constraint
    holds; otherwise an explicit non-applicability result.  An exponential
    past the float range is inf: an infinite C_e fails the step-size
    constraint, and an infinite exp(2*L*(T + alpha_max/(n0 + 1))) gives
    C_0 = 0 and the bound 0.
    """
    if not rho > 0 or not alpha > 0:
        raise ValueError("rho and alpha must be > 0")
    ell = lipschitz_constant(cfg)
    sqrt_m = math.sqrt(cfg.num_antennas)

    lo, hi = mainlobe(cfg, x)
    if not lo < x0_hat < hi:
        return BoundResult(False, None, "x0_hat is not inside the mainlobe of x")
    boundary_dist = min(abs(x0_hat - lo), abs(hi - x0_hat))
    if not 0 < delta < boundary_dist:
        return BoundResult(
            False, None, f"delta must satisfy 0 < delta < {boundary_dist:.6g}"
        )

    t_escape = escape_time(cfg, x, x0_hat, delta)
    if not math.isfinite(t_escape):
        return BoundResult(False, None, "escape time is infinite (x0_hat coincides with x)")

    a1 = alpha / (1.0 + n0)
    series = inverse_square_tail_sum(n0)
    b0 = alpha**2 * series
    c_e = _exp(ell * (t_escape + a1))

    f0 = abs(f_gain(cfg, x0_hat, x))
    alpha_max = (n0 + 1.0) * (abs(x - x0_hat) + mainlobe_half_width(cfg)) / f0

    details = {
        "L": ell,
        "T": t_escape,
        "a1": a1,
        "series_sum": series,
        "b0": b0,
        "C_e": c_e,
        "alpha_max": alpha_max,
    }

    if alpha > alpha_max:
        return BoundResult(False, None, f"alpha exceeds alpha_max = {alpha_max:.6g}", details)
    # step-size constraint: C_e*(sqrt(M)*L/2)*b(0) + sqrt(M)*a_1/2 < delta/2
    lhs = c_e * 0.5 * sqrt_m * ell * b0 + 0.5 * sqrt_m * a1
    details["lock_constraint_lhs"] = lhs
    if not lhs < 0.5 * delta:
        return BoundResult(
            False, None, "step-size constraint violated: increase n0 or shrink alpha", details
        )
    # variance budget constraint: b(0) <= rho*delta^2/(4*C_e^2)
    budget = rho * delta**2 / (4.0 * c_e**2)
    details["variance_budget"] = budget
    if not b0 <= budget:
        return BoundResult(
            False, None, "step-size variance exceeds the noise budget: increase n0", details
        )

    c0 = delta**2 / (4.0 * _exp(2.0 * ell * (t_escape + alpha_max / (n0 + 1.0))) * series)
    details["C0"] = c0
    value = max(0.0, 1.0 - 2.0 * math.exp(-c0 * rho / alpha**2))
    return BoundResult(True, value, None, details)
