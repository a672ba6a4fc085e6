"""Fisher information and Cramer-Rao bounds for beam-direction estimation.

Each received pilot carries Fisher information about the spatial frequency x
that depends on the analog beamformer in use.  The matched (conjugate)
beamformer maximizes it, giving the per-pilot ceiling I_max and the minimum
CRLB 1/(n*I_max) after n pilots.
"""

from __future__ import annotations

import math

import numpy as np

from .arrays import ArrayConfig, BeamformingVector, steering_vector_deriv


def fisher_information(cfg: ArrayConfig, rho: float, x: float, w: BeamformingVector) -> float:
    """Per-pilot Fisher information about x under beamformer w.

    I(x, w) = 2*rho*|w^H a'(x)|^2, which expands to
    (2*rho/M) * |sum_m (2*pi*d/lambda)*m * exp(j*[phase_m + (2*pi*d/lambda)*m*x])|^2
    under the stored-weight convention.
    """
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    slope = np.vdot(w.weights, steering_vector_deriv(cfg, x))
    return 2.0 * rho * (slope.real**2 + slope.imag**2)


def max_fisher_information(cfg: ArrayConfig, rho: float) -> float:
    """Beamformer-optimized Fisher information 2*M*(M-1)^2*pi^2*(d/lambda)^2*rho."""
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    m = cfg.num_antennas
    return 2.0 * m * (m - 1) ** 2 * math.pi**2 * cfg.spacing_ratio**2 * rho


def min_crlb_x(cfg: ArrayConfig, rho: float, n: int) -> float:
    """Minimum CRLB of the spatial-frequency MSE after n pilots: 1/(n*I_max)."""
    if n < 1:
        raise ValueError(f"slot count n must be >= 1, got {n!r}")
    return 1.0 / (n * max_fisher_information(cfg, rho))


def asymptotic_channel_crlb(cfg: ArrayConfig, sigma2: float, pilot_power: float) -> float:
    """Limit of n*E||h_hat - h||^2 for the optimal tracker.

    Equals (2M-1)*sigma^2 / (3*(M-1)*|p|^2); invariant under common scaling
    of noise power and pilot power.
    """
    if not pilot_power > 0:
        raise ValueError(f"pilot_power must be > 0, got {pilot_power!r}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2!r}")
    m = cfg.num_antennas
    return (2 * m - 1) * sigma2 / (3.0 * (m - 1) * pilot_power)

