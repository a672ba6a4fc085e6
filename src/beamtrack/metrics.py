"""Per-slot performance metrics: channel-response MSE, achievable rate, AoA error."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, dirichlet


@dataclass
class MetricSeries:
    """Per-slot metric arrays; aggregated series carry standard errors.

    ``mse_*`` entries are instantaneous squared errors for a single trial
    and trial means after aggregation.  Metrics that an algorithm does not
    define (e.g. spatial-frequency error for the least-squares baseline)
    are NaN.
    """

    slots: np.ndarray
    mse_h: np.ndarray
    mse_x: np.ndarray
    aoa_error_deg: np.ndarray
    rate: np.ndarray
    n_trials: int = 1
    stderr: dict = field(default_factory=dict)

    def metric(self, name: str) -> np.ndarray:
        return getattr(self, name)


METRIC_NAMES = ("mse_h", "mse_x", "aoa_error_deg", "rate")


def capacity(cfg: ArrayConfig, rho: float) -> float:
    """Rate ceiling log2(1 + rho*M), attained by the matched beamformer."""
    return math.log2(1.0 + rho * cfg.num_antennas)


def mse_h_closed(cfg: ArrayConfig, x_hat, x, beta: complex):
    """Squared channel-response error ||beta*a(x_hat) - beta*a(x)||_2^2.

    Closed form |beta|^2 * (2M - 2*Re{D_M(phi*(x_hat - x))}); vectorized.
    """
    m = cfg.num_antennas
    psi = cfg.phase_factor * (np.asarray(x_hat, dtype=float) - np.asarray(x, dtype=float))
    return abs(beta) ** 2 * (2.0 * m - 2.0 * dirichlet(psi, m).real)


def rate_closed(cfg: ArrayConfig, x_hat, x, rho: float):
    """Achievable rate log2(1 + rho*|w^H a(x)|^2) in bits/s/Hz under the
    matched data beamformer w at x_hat, where |w^H a(x)|^2 = |D_M|^2/M."""
    m = cfg.num_antennas
    psi = cfg.phase_factor * (np.asarray(x_hat, dtype=float) - np.asarray(x, dtype=float))
    d = dirichlet(psi, m)
    return np.log2(1.0 + rho * (d.real**2 + d.imag**2) / m)


def aoa_error_deg(x_hat, theta):
    """|asin(x_hat) - theta| in degrees."""
    est = np.arcsin(np.clip(np.asarray(x_hat, dtype=float), -1.0, 1.0))
    return np.abs(est - np.asarray(theta, dtype=float)) * (180.0 / math.pi)
