"""Beam-direction trajectory generators for static and dynamic experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class Static:
    """Constant direction: theta_n = asin(x) for every slot."""

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
        if not self.bound > 0:
            raise ValueError(f"bound must be > 0, got {self.bound!r}")
        if self.omega > self.bound:
            raise ValueError(f"omega must be <= bound, got {self.omega!r} > {self.bound!r}")
        if abs(self.theta0) > self.bound:
            raise ValueError("theta0 must lie within [-bound, bound]")


TrajectoryModel = Union[Static, SinusoidJitter, FixedVelocity]


def initial_theta(model: TrajectoryModel) -> float:
    """Direction at n = 0, used for the one-off coarse-sweep stage."""
    if isinstance(model, Static):
        return math.asin(model.x)
    if isinstance(model, SinusoidJitter):
        return 0.0
    return model.theta0


def advance(model: TrajectoryModel, n: int, rng: np.random.Generator | None = None, state=None):
    """One trajectory step: returns (theta_n, x_n, state).

    ``state`` threads the (theta, delta) pair for FixedVelocity; the other
    models are memoryless in n.  Pass the state returned by the previous call
    (or None at n = 1).
    """
    if n < 1:
        raise ValueError(f"slot index n must be >= 1, got {n!r}")
    if isinstance(model, Static):
        theta = math.asin(model.x)
        return theta, model.x, None
    if isinstance(model, SinusoidJitter):
        theta = model.amplitude * math.sin(2.0 * math.pi * n / model.period)
        if model.jitter_std > 0:
            if rng is None:
                raise ValueError("rng is required for SinusoidJitter")
            theta += model.jitter_std * rng.standard_normal()
        return theta, math.sin(theta), None
    theta_prev, delta = state if state is not None else (model.theta0, 1.0)
    if abs(theta_prev + delta * model.omega) > model.bound:
        delta = -delta
    theta = theta_prev + delta * model.omega
    return theta, math.sin(theta), (theta, delta)


def trajectory(model: TrajectoryModel, n_slots: int, rng: np.random.Generator | None = None):
    """Trajectory arrays (theta_n, x_n) for n = 1..n_slots."""
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots!r}")
    if isinstance(model, Static):
        theta = np.full(n_slots, math.asin(model.x))
        return theta, np.full(n_slots, model.x)
    if isinstance(model, SinusoidJitter):
        n = np.arange(1, n_slots + 1, dtype=float)
        theta = model.amplitude * np.sin(2.0 * math.pi * n / model.period)
        if model.jitter_std > 0:
            if rng is None:
                raise ValueError("rng is required for SinusoidJitter")
            theta = theta + model.jitter_std * rng.standard_normal(n_slots)
        return theta, np.sin(theta)
    theta = np.empty(n_slots)
    state = None
    for i in range(n_slots):
        theta[i], _, state = advance(model, i + 1, rng, state)
    return theta, np.sin(theta)
