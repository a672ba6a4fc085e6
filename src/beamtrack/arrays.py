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

The simulator's per-slot kernels compute no sine, cosine or complex
exponential: :func:`steering_vector` builds exp(-j*y) from t = tan(y/2) as
((1 - t^2) - 2jt)/(1 + t^2), and the Dirichlet core :func:`_dirichlet_rows`
builds D_M(psi) from tan(psi/2) and tan(M*psi/2) and keeps both tangents, from
which :func:`weighted_dirichlet` forms the index-weighted kernel G_M(psi).
numpy runs ``np.tan`` on a SIMD loop where the CPU has one
(AVX-512 on x86-64: about 3 ns per float64, against 7-14 ns for ``np.sin``
and ``np.cos`` and 38 ns for complex ``np.exp``, which run the C library's
scalar loops).  Without that loop all of them are scalar, and the tangent
forms cost about what the sine and cosine forms cost.
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
    per direction of a scalar or array ``x``: shape ``x.shape + (M,)``.

    Built from t = tan(theta/2) as ((1 - t^2) - 2jt)/(1 + t^2), with
    theta = 2*pi*(d/lambda)*m*x (see the module docstring).
    """
    if not np.all(np.abs(x) <= 1.0):  # also rejects NaN
        raise ValueError(f"spatial frequency x must lie in [-1, 1], got {x!r}")
    t = np.multiply.outer(x, cfg.antenna_indices)
    t *= 0.5 * cfg.phase_factor
    np.tan(t, out=t)
    a = np.empty(t.shape, dtype=complex)
    denom = np.multiply(t, t)
    np.subtract(1.0, denom, out=a.real)
    denom += 1.0
    np.divide(a.real, denom, out=a.real)
    np.divide(t, denom, out=t)
    np.multiply(t, -2.0, out=a.imag)
    return a


def steering_vector_deriv(cfg: ArrayConfig, x) -> np.ndarray:
    """Entrywise derivative d a(x)/dx."""
    return (-1j * cfg.phase_factor * cfg.antenna_indices) * steering_vector(cfg, x)


def conjugate_beamformer(cfg: ArrayConfig, v: float) -> BeamformingVector:
    """Beamformer a(v)/sqrt(M); response to direction v equals sqrt(M)."""
    return BeamformingVector(-cfg.phase_factor * cfg.antenna_indices * v)


def cophased_beam(h: np.ndarray) -> np.ndarray:
    """The analog beam exp(1j*angle(h))/sqrt(M) matched to the channel
    estimates in the rows of ``h``, formed as h/(|h|*sqrt(M)) without a
    complex exponential; an entry with h = 0 gets weight 1/sqrt(M), as
    angle(0) = 0 gives."""
    root_m = math.sqrt(h.shape[-1])
    scale = np.abs(h)
    scale *= root_m
    return np.divide(h, scale, out=np.full_like(h, 1.0 / root_m), where=scale != 0)


def array_response(w: BeamformingVector, cfg: ArrayConfig, x: float) -> complex:
    """Combined response w^H a(x)."""
    if w.num_antennas != cfg.num_antennas:
        raise ValueError("beamformer length does not match array size")
    return complex(np.vdot(w.weights, steering_vector(cfg, x)))


def dirichlet(psi, m: int):
    """D_m(psi) = sum_{k=0}^{m-1} exp(1j*k*psi), with the limit m at
    psi = 2*pi*k (see :func:`_dirichlet_rows`); same shape as ``psi``."""
    psi = np.asarray(psi, dtype=float)
    re, im = _core(psi, m)[:2]
    return _complex(re, im, psi.shape)


def weighted_dirichlet(psi, m: int):
    """(D_m(psi), G_m(psi)) from one evaluation of the core, each the shape
    of ``psi``: D as :func:`dirichlet` returns it, bit for bit, and the
    index-weighted kernel G_m(psi) = sum_{k=0}^{m-1} k * exp(1j*k*psi) =
    -j*dD_m/dpsi.

    From the core's D and tangents T = tan(m*delta), T_1 = tan(delta) (see
    :func:`_dirichlet_rows`): D = exp(j*(m-1)*delta)*S with
    S = sin(m*delta)/sin(delta) and d/dpsi = (1/2)*d/d(delta) give

        G = D*((m-1)/2 - (j/2)*s),  s = S'/S = m/T - 1/T_1,

    which stays finite at the zeros of D, where T is small but never 0.  For
    |T_1| < 7e-3/m, m/T - 1/T_1 cancels to about eps*m/|T_1|, so s takes
    the first two terms of its series in T_1,

        s = -(m^2 - 1)/3 * T_1 * (1 + (m^2 - 4)/15 * T_1^2),

    whose truncation is about m^6*T_1^5/470; the threshold balances the two
    errors at a few eps*m^2 in G, and delta = 0 gives the limit m*(m-1)/2.
    """
    psi = np.asarray(psi, dtype=float)
    re, im, t, t_1, half_s = _core(psi, m)
    small = np.abs(t_1) < 7e-3 / m
    closed = ~small
    np.divide(0.5 * m, t, out=half_s, where=closed)
    np.divide(0.5, t_1, out=t, where=closed)
    np.subtract(half_s, t, out=half_s, where=closed)
    if small.any():
        t_s = t_1[small]
        half_s[small] = t_s * ((1 - m * m) / 6) * (1.0 + (m * m - 4) / 15 * t_s * t_s)
    c = 0.5 * (m - 1)
    return _complex(re, im, psi.shape), _complex(re * c + im * half_s, im * c - re * half_s, psi.shape)


def _complex(re: np.ndarray, im: np.ndarray, shape: tuple) -> np.ndarray:
    """The complex array re + j*im, reshaped to ``shape``."""
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = re.reshape(shape), im.reshape(shape)
    return z


def _core(psi: np.ndarray, m: int) -> np.ndarray:
    """:func:`_dirichlet_rows` of the flattened ``psi`` in a fresh buffer."""
    out = np.empty((5, psi.size))
    np.multiply(psi.reshape(-1), 0.5, out=out[3])
    return _dirichlet_rows(m, out)


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


def dirichlet_parts(cfg: ArrayConfig, v, x, out: np.ndarray) -> np.ndarray:
    """The core's five rows of D_M(phi*(v - x)), into ``out``.

    With h = phi*(v - x)/2, D = exp(j*(M-1)*h) * sin(M*h)/sin(h), with the
    limit M at h = 0.  ``out`` is a float array of shape (5,) + the
    broadcast shape of ``v`` and ``x``, left as :func:`_dirichlet_rows`
    leaves it: Re D, Im D, the tangents tan(M*delta) and tan(delta), and a
    scratch row.  No temporaries are allocated unless some h reduces to
    exactly 0.
    """
    h = out[3]
    np.subtract(v, x, out=h)
    h *= 0.5 * cfg.phase_factor
    return _dirichlet_rows(cfg.num_antennas, out)


def _dirichlet_rows(m: int, out: np.ndarray) -> np.ndarray:
    """Re D_m and Im D_m from the half angle h = psi/2 in ``out[3]``.

    ``out`` has five rows: rows 0-1 receive Re D and Im D, rows 2-3 the
    tangents T = tan(m*delta) and T_1 = tan(delta) defined below, and row 4
    is scratch.

    D has period pi in h, so h is first reduced to delta = h - pi*rint(h/pi)
    in [-pi/2, pi/2]; the grating lobes h = k*pi then become the one
    removable singularity delta = 0 with limit m, and the rounding of m*h
    no longer sits next to a tiny sin(h).  sin(y)*exp(j*y) =
    T_y*(1 + j*T_y)/(1 + T_y^2) for T_y = tan(y) gives

        D = sin(m*delta)*exp(j*m*delta) / (sin(delta)*exp(j*delta))
          = q*((1 + T*T_1) + j*(T - T_1)),  q = T/(T_1*(1 + T^2)),

    two tangents (see the module docstring) and no sine or cosine.
    """
    re, im, t, h, q = out
    np.divide(h, math.pi, out=q)
    np.rint(q, out=q)
    q *= math.pi
    h -= q  # delta
    np.multiply(h, m, out=t)
    np.tan(t, out=t)
    t_1 = np.tan(h, out=h)
    np.multiply(t, t, out=im)
    im += 1.0
    im *= t_1
    if t_1.all():  # a NaN counts as nonzero and stays NaN
        np.divide(t, im, out=q)
    else:
        zero = t_1 == 0.0
        np.divide(t, im, out=q, where=~zero)
        q[zero] = m
    np.subtract(t, t_1, out=im)
    im *= q
    np.multiply(t, t_1, out=re)
    re += 1.0
    re *= q
    return out
