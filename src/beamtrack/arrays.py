"""Complex baseband model of a uniform linear phased array.

Steering vectors, analog beamformers, the Dirichlet kernels that give the
matched-beamformer response in closed form, the pilot likelihood and the
tracking update field f.  The simulator applies these closed forms to whole
blocks of trials at once.

Conventions used throughout the package:

* Spatial frequency ``x = sin(theta)`` is a plain float in [-1, 1], where
  ``theta`` is the angle of arrival in radians.  Trackers, bounds and the
  simulator all work in ``x``; angles appear only as trajectory parameters
  and in the reported AoA error ``|asin(x_hat) - asin(x)|``.
* The steering vector stores entries ``exp(-1j * 2*pi*(d/lambda) * m * x)``
  for antenna index ``m = 0 .. M-1``.
* An analog beamforming vector holds M phase-shifter settings; its realized
  weight vector is ``exp(+1j * phase_m) / sqrt(M)``, so the matched
  (conjugate) beamformer for direction ``v`` is ``a(v) / sqrt(M)`` and the
  combined response ``w^H a(x)`` peaks at ``sqrt(M)`` when ``v = x``.
* Complex receiver noise is circular symmetric with unit variance, generated
  as two independent N(0, 1/2) reals (real part drawn first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array: antenna count M and normalized spacing d/lambda."""

    num_antennas: int
    spacing_ratio: float = 0.5

    def __post_init__(self):
        if not isinstance(self.num_antennas, (int, np.integer)) or self.num_antennas < 2:
            raise ValueError(f"num_antennas must be an integer >= 2, got {self.num_antennas!r}")
        if not self.spacing_ratio > 0:
            raise ValueError(f"spacing_ratio must be > 0, got {self.spacing_ratio!r}")

    @property
    def phase_factor(self) -> float:
        """2*pi*d/lambda, the per-unit-x phase progression between antennas."""
        return 2.0 * math.pi * self.spacing_ratio

    @property
    def antenna_indices(self) -> np.ndarray:
        return np.arange(self.num_antennas, dtype=float)


class BeamformingVector:
    """M unit-modulus phase-shifter weights scaled by 1/sqrt(M).

    Every realized entry has modulus exactly 1/sqrt(M) by construction, so
    ||w||_2 = 1.
    """

    __slots__ = ("phases",)

    def __init__(self, phases):
        phases = np.asarray(phases, dtype=float)
        if phases.ndim != 1 or phases.size < 2:
            raise ValueError("phases must be a 1-D array of length >= 2")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        # canonical range [-pi, pi]
        wrapped = np.angle(np.exp(1j * phases))
        object.__setattr__(self, "phases", wrapped)

    def __setattr__(self, name, value):
        raise AttributeError("BeamformingVector is immutable")

    def __repr__(self):
        return f"BeamformingVector(M={self.num_antennas})"

    @property
    def num_antennas(self) -> int:
        return self.phases.size

    @property
    def weights(self) -> np.ndarray:
        """Realized complex weights exp(1j*phase)/sqrt(M)."""
        return np.exp(1j * self.phases) / math.sqrt(self.num_antennas)


def steering_vector(cfg: ArrayConfig, x: float) -> np.ndarray:
    """Array response a(x) with entries exp(-1j*2*pi*(d/lambda)*m*x)."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"spatial frequency x must lie in [-1, 1], got {x!r}")
    return np.exp(-1j * cfg.phase_factor * cfg.antenna_indices * x)


def steering_vector_deriv(cfg: ArrayConfig, x: float) -> np.ndarray:
    """Entrywise derivative d a(x)/dx."""
    m = cfg.antenna_indices
    return (-1j * cfg.phase_factor * m) * np.exp(-1j * cfg.phase_factor * m * x)


def conjugate_beamformer(cfg: ArrayConfig, v: float) -> BeamformingVector:
    """Beamformer a(v)/sqrt(M); response to direction v equals sqrt(M)."""
    return BeamformingVector(-cfg.phase_factor * cfg.antenna_indices * v)


def array_response(w: BeamformingVector, cfg: ArrayConfig, x: float) -> complex:
    """Combined response w^H a(x)."""
    if w.num_antennas != cfg.num_antennas:
        raise ValueError("beamformer length does not match array size")
    return complex(np.vdot(w.weights, steering_vector(cfg, x)))


def dirichlet(psi, m: int):
    """D_m(psi) = sum_{k=0}^{m-1} exp(1j*k*psi), with removable singularities."""
    psi = np.asarray(psi, dtype=float)
    half = 0.5 * psi
    num = np.sin(m * half)
    den = np.sin(half)
    small = np.abs(den) < 1e-9
    ratio = np.where(small, 1.0, num) / np.where(small, 1.0, den)
    if np.any(small):
        # sin-ratio limit at psi = 2*pi*k; the phase prefactor restores D = m
        k = np.rint(psi / (2.0 * math.pi))
        ratio = np.where(small, m * np.where((k * (m - 1)) % 2 == 0, 1.0, -1.0), ratio)
    out = np.exp(1j * (m - 1) * half) * ratio
    return out


def weighted_dirichlet(psi, m: int):
    """G_m(psi) = sum_{k=0}^{m-1} k * exp(1j*k*psi), the index-weighted kernel."""
    psi = np.asarray(psi, dtype=float)
    z = np.exp(1j * psi)
    one_minus = 1.0 - z
    small = np.abs(one_minus) < 1e-6
    safe = np.where(small, 1.0, one_minus)
    closed = z * (1.0 - m * z ** (m - 1) + (m - 1) * z**m) / safe**2
    if np.any(small):
        k = np.arange(m)
        direct = (k * np.exp(1j * np.multiply.outer(psi, k))).sum(axis=-1)
        closed = np.where(small, direct, closed)
    return closed


def complex_noise(rng: np.random.Generator, sigma: float) -> complex:
    """CN(0, sigma^2) sample: two independent N(0, sigma^2/2) quadratures."""
    s = sigma / math.sqrt(2.0)
    re = rng.standard_normal() * s
    im = rng.standard_normal() * s
    return complex(re, im)


def log_likelihood(cfg: ArrayConfig, y: complex, x: float, w: BeamformingVector, rho: float) -> float:
    """log p(y | x, w) = log(rho/pi) - rho*|y - w^H a(x)|^2."""
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    resid = y - array_response(w, cfg, x)
    return math.log(rho / math.pi) - rho * (resid.real**2 + resid.imag**2)


def f_gain(cfg: ArrayConfig, v, x):
    """Update field f(v, x) = -(1/sqrt(M)) Im{a(v)^H a(x)} (sum form).

    This is the noise-free negative imaginary part of the matched-beamformer
    observation; its roots with negative slope are the stable points of the
    tracking recursion.  Vectorized over ``v`` and ``x``.
    """
    u = np.asarray(v, dtype=float) - np.asarray(x, dtype=float)
    m = cfg.antenna_indices
    s = np.sin(cfg.phase_factor * np.multiply.outer(u, m)).sum(axis=-1)
    out = -s / math.sqrt(cfg.num_antennas)
    return out if out.ndim else float(out)


def f_gain_closed(cfg: ArrayConfig, v, x):
    """Dirichlet-kernel closed form of :func:`f_gain`.

    -sin((M-1)*pi*d*u/lambda) * sin(M*pi*d*u/lambda) / (sqrt(M)*sin(pi*d*u/lambda))
    with u = v - x.  Within 1e-8 of a removable singularity the sum form is
    used instead (it is exact there).
    """
    m = cfg.num_antennas
    u = np.asarray(v, dtype=float) - np.asarray(x, dtype=float)
    c = 0.5 * cfg.phase_factor  # pi*d/lambda
    den = np.sin(c * u)
    small = np.abs(den) < c * 1e-8
    num = np.sin((m - 1) * c * u) * np.sin(m * c * u)
    closed = -num / (math.sqrt(m) * np.where(small, 1.0, den))
    if np.any(small):
        closed = np.where(small, f_gain(cfg, np.asarray(v, dtype=float), np.asarray(x, dtype=float)), closed)
    return closed if closed.ndim else float(closed)
