"""Beam-direction trajectory models for static and dynamic experiments.

The moving models are parameterized by the angle of arrival theta in
radians; :func:`trajectory` returns the spatial frequency x_n = sin(theta_n),
the only coordinate the simulator uses.  Angles are limited to |theta| <=
pi/2 (the fixed-velocity ``bound`` and the sinusoid ``amplitude``), where
asin(sin(theta)) = theta, so the AoA error measured from x is the angle
error.  Jitter that pushes a sinusoid sample past endfire folds back, as the
physical direction does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class Static:
    """Constant spatial frequency x for every slot."""

    x: float

    def __post_init__(self):
        if not -1.0 <= self.x <= 1.0:
            raise ValueError(f"static x must lie in [-1, 1], got {self.x!r}")


@dataclass(frozen=True)
class SinusoidJitter:
    """theta_n = amplitude*sin(2*pi*n/period) + jitter_std*N(0,1) per slot."""

    amplitude: float = math.pi / 3
    period: int = 1000
    jitter_std: float = 0.005

    def __post_init__(self):
        if abs(self.amplitude) > _HALF_PI:
            raise ValueError(f"amplitude must satisfy |amplitude| <= pi/2, got {self.amplitude!r}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period!r}")
        if self.jitter_std < 0:
            raise ValueError(f"jitter_std must be >= 0, got {self.jitter_std!r}")


@dataclass(frozen=True)
class FixedVelocity:
    """theta_n = theta_{n-1} + delta*omega, delta in {-1,+1} flipping at the bound.

    delta flips exactly when the next step would leave [-bound, +bound], so the
    trajectory is a triangle wave whose fold points depend on the step size.
    The reversed step lands inside the interval only when omega <= bound, so
    larger velocities are rejected.
    """

    omega: float
    bound: float = math.pi / 3
    theta0: float = 0.0

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega!r}")
        if not 0 < self.bound <= _HALF_PI:
            raise ValueError(f"bound must lie in (0, pi/2], got {self.bound!r}")
        if self.omega > self.bound:
            raise ValueError(f"omega must be <= bound, got {self.omega!r} > {self.bound!r}")
        if abs(self.theta0) > self.bound:
            raise ValueError("theta0 must lie within [-bound, bound]")


TrajectoryModel = Union[Static, SinusoidJitter, FixedVelocity]


def initial_x(model: TrajectoryModel) -> float:
    """Spatial frequency at n = 0, the direction of the one-off coarse sweep."""
    if isinstance(model, Static):
        return model.x
    if isinstance(model, SinusoidJitter):
        return 0.0
    return math.sin(model.theta0)


def trajectory(
    model: TrajectoryModel,
    n_slots: int,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
) -> np.ndarray:
    """Spatial frequencies x_n for n = 1..n_slots.

    A jittered sinusoid draws its jitter from ``rng``.  Given a sequence of
    T generators, it returns T realizations as a (T, n_slots) array: row t
    is what ``rng[t]`` alone gives, bit for bit.  Each generator draws only
    its jitter row, and the sinusoid and the final sine are computed once
    for the whole block, the sine in place in the jitter block.  The block
    is the first n_slots columns of a (T, n_slots + 1) array, so a slot's
    column (``x[:, i]``) does not step a power of two times 4 KiB from row
    to row.  The other models ignore ``rng``.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots!r}")
    if isinstance(model, Static):
        return np.full(n_slots, model.x)
    if isinstance(model, SinusoidJitter):
        n = np.arange(1, n_slots + 1, dtype=float)
        theta = model.amplitude * np.sin(2.0 * math.pi * n / model.period)
        batch = not (rng is None or isinstance(rng, np.random.Generator))
        rngs = rng if batch else [rng]
        # padded (see the docstring): unpadded, a slot's T values fell into a
        # few cache sets whenever n is a multiple of 512
        x = np.empty((len(rngs), n_slots + 1))[:, :n_slots]
        if model.jitter_std > 0:
            if rng is None:
                raise ValueError("rng is required for SinusoidJitter")
            for row, r in zip(x, rngs):
                r.standard_normal(out=row)
            x *= model.jitter_std
            x += theta
        else:
            x[...] = theta
        # the sine in place: a fresh (T, n) array for it doubled a jittered
        # chunk's peak memory past what its budget counts
        np.sin(x, out=x)
        return x if batch else x[0]
    theta = np.empty(n_slots)
    prev, delta = model.theta0, 1.0
    for i in range(n_slots):
        if abs(prev + delta * model.omega) > model.bound:
            delta = -delta
        prev = theta[i] = prev + delta * model.omega
    return np.sin(theta)
