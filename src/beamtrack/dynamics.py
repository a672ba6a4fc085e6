"""Beam-direction trajectory models: the truth of every experiment.

This module makes every decision about a truth: where it starts (the
direction of the stage-1 sweep), whether it moves (:func:`moving`), whether
its trials draw it from their trajectory streams (:func:`per_trial`), and
the layout the engine reads slot i's truth from (:func:`trajectory`).  The
moving models are parameterized by the angle of arrival theta in
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
    """Constant spatial frequency x for every slot; ``Static(None)`` draws x
    uniformly on [-1, 1] per trial."""

    x: float | None

    def __post_init__(self):
        if self.x is not None and not -1.0 <= self.x <= 1.0:
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


def moving(model: TrajectoryModel) -> bool:
    """Whether slot n's truth depends on n: any model but a static one.
    Raises TypeError for anything but a trajectory model."""
    if not isinstance(model, (Static, SinusoidJitter, FixedVelocity)):
        raise TypeError(f"not a trajectory model: {model!r} (x drawn uniformly per trial is Static(None))")
    return not isinstance(model, Static)


def per_trial(model: TrajectoryModel) -> bool:
    """Whether :func:`trajectory` reads the trials' generators: a static x
    drawn per trial, or a jittered sinusoid."""
    if isinstance(model, Static):
        return model.x is None
    return isinstance(model, SinusoidJitter) and model.jitter_std > 0


def trajectory(
    model: TrajectoryModel,
    n_slots: int,
    n_trials: int,
    rngs: Sequence[np.random.Generator] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(x0, xs): the T = n_trials trials' spatial frequencies at n = 0, the
    direction of the one-off coarse sweep, as a (T,) array, and slot i's
    truth x_{i+1} as ``xs[..., i]``.

    * A static x is the (T, n_slots) broadcast view of x0; ``Static(None)``
      draws trial t's x uniformly on [-1, 1] from ``rngs[t]``.
    * A fixed velocity and an unjittered sinusoid are one (n_slots,) array
      that every trial shares.
    * A jittered sinusoid is (T, n_slots): row t draws its jitter from
      ``rngs[t]``, and the generator draws nothing else.  The sinusoid and
      the final sine are computed once for the whole block, the sine in
      place in the jitter block.  The block is the first n_slots columns of
      a (T, n_slots + 1) array, so a slot's column (``xs[:, i]``) does not
      step a power of two times 4 KiB from row to row.

    ``rngs`` holds one generator per trial and is read only when
    :func:`per_trial` holds.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots!r}")
    if per_trial(model) and rngs is None:
        raise ValueError(f"{type(model).__name__} draws per trial: rngs is required")
    if isinstance(model, Static):
        x0 = np.array([r.uniform(-1.0, 1.0) for r in rngs]) if model.x is None else np.full(n_trials, model.x)
        return x0, np.broadcast_to(x0[:, None], (n_trials, n_slots))
    if isinstance(model, FixedVelocity):
        theta = np.empty(n_slots)
        prev, delta = model.theta0, 1.0
        for i in range(n_slots):
            if abs(prev + delta * model.omega) > model.bound:
                delta = -delta
            prev = theta[i] = prev + delta * model.omega
        return np.full(n_trials, math.sin(model.theta0)), np.sin(theta)
    n = np.arange(1, n_slots + 1, dtype=float)
    theta = model.amplitude * np.sin(2.0 * math.pi * n / model.period)
    if not per_trial(model):
        return np.zeros(n_trials), np.sin(theta)
    # padded (see the docstring): unpadded, a slot's T values fell into a
    # few cache sets whenever n is a multiple of 512
    x = np.empty((n_trials, n_slots + 1))[:, :n_slots]
    for row, r in zip(x, rngs):
        r.standard_normal(out=row)
    x *= model.jitter_std
    x += theta
    # the sine in place: a fresh (T, n) array for it doubled a jittered
    # chunk's peak memory past what its budget counts
    return np.zeros(n_trials), np.sin(x, out=x)
