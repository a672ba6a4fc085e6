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


def steering_vector(cfg: ArrayConfig, x) -> np.ndarray:
    """Array response a(x) with entries exp(-1j*2*pi*(d/lambda)*m*x), one
    per direction of a scalar or array ``x``: shape ``x.shape + (M,)``."""
    if not np.all(np.abs(x) <= 1.0):  # also rejects NaN
        raise ValueError(f"spatial frequency x must lie in [-1, 1], got {x!r}")
    return np.exp(-1j * cfg.phase_factor * np.multiply.outer(x, cfg.antenna_indices))


def steering_vector_deriv(cfg: ArrayConfig, x) -> np.ndarray:
    """Entrywise derivative d a(x)/dx."""
    return (-1j * cfg.phase_factor * cfg.antenna_indices) * steering_vector(cfg, x)


def conjugate_beamformer(cfg: ArrayConfig, v: float) -> BeamformingVector:
    """Beamformer a(v)/sqrt(M); response to direction v equals sqrt(M)."""
    return BeamformingVector(-cfg.phase_factor * cfg.antenna_indices * v)


def array_response(w: BeamformingVector, cfg: ArrayConfig, x: float) -> complex:
    """Combined response w^H a(x)."""
    if w.num_antennas != cfg.num_antennas:
        raise ValueError("beamformer length does not match array size")
    return complex(np.vdot(w.weights, steering_vector(cfg, x)))


def dirichlet(psi, m: int):
    """D_m(psi) = sum_{k=0}^{m-1} exp(1j*k*psi), with removable singularities
    (see :func:`dirichlet_parts`); same shape as ``psi``."""
    psi = np.asarray(psi, dtype=float)
    out = np.empty((5, psi.size))
    np.multiply(psi.reshape(-1), 0.5, out=out[3])
    d = np.empty(psi.shape, dtype=complex)
    d.real, d.imag = _dirichlet_rows(m, out)[:2].reshape((2,) + psi.shape)
    return d


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
    """Dirichlet-kernel closed form of :func:`f_gain`: -Im D_M(phi*(v - x))/sqrt(M)."""
    m = cfg.num_antennas
    u = np.asarray(v, dtype=float) - np.asarray(x, dtype=float)
    closed = -dirichlet(cfg.phase_factor * u, m).imag / math.sqrt(m)
    return closed if closed.ndim else float(closed)


def dirichlet_parts(cfg: ArrayConfig, v, x, out: np.ndarray, im_only: bool = False) -> np.ndarray:
    """Re D, Im D and |D|^2 of D_M(phi*(v - x)) in real arithmetic, into ``out``.

    With h = phi*(v - x)/2 and ratio = sin(M*h)/sin(h), replaced by its
    limit +-M where |sin h| < 1e-9, Re D = cos((M-1)*h)*ratio,
    Im D = sin((M-1)*h)*ratio and |D|^2 = ratio^2.  ``out`` is a float
    array of shape (5,) + the broadcast shape of ``v`` and ``x``: rows 0-2
    receive Re D, Im D and |D|^2, rows 3-4 are scratch.  ``im_only``
    computes Im D alone and leaves rows 0 and 2 as scratch.  No temporaries
    are allocated off the singular path.
    """
    h = out[3]
    np.subtract(v, x, out=h)
    h *= 0.5 * cfg.phase_factor
    return _dirichlet_rows(cfg.num_antennas, out, im_only)


def _dirichlet_rows(m: int, out: np.ndarray, im_only: bool = False) -> np.ndarray:
    """:func:`dirichlet_parts` of D_m from the half angle h in ``out[3]``."""
    re, im, mag2, h, ratio = out
    np.multiply(h, m, out=ratio)
    np.sin(ratio, out=ratio)
    np.sin(h, out=mag2)
    np.abs(mag2, out=re)
    if not re.min(initial=np.inf) >= 1e-9:  # also taken when h holds a NaN
        small = re < 1e-9
        np.divide(ratio, mag2, out=ratio, where=~small)
        k = np.rint(h[small] / math.pi)
        ratio[small] = m * np.where((k * (m - 1)) % 2 == 0, 1.0, -1.0)
    else:
        np.divide(ratio, mag2, out=ratio)
    h *= m - 1
    np.sin(h, out=im)
    im *= ratio
    if not im_only:
        np.cos(h, out=re)
        re *= ratio
        np.multiply(ratio, ratio, out=mag2)
    return out
