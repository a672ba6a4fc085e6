"""Building blocks of the two-stage recursive analog beam tracker.

The tracker runs in two stages.  Stage 1 sweeps a codebook of M matched
beams (unitary at half-wavelength spacing) and projects the observations
on a redundant direction dictionary to obtain an initial estimate.  Stage 2
spends one pilot per slot: it matches the beamformer to the current
estimate and corrects it with the imaginary part of the observation,
scaled by a step size and clamped to the valid domain.  This module holds
the codebook, the dictionary projection and the step-size schedules; the
slot recursions run in :mod:`beamtrack.engine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .analysis import lipschitz_constant
from .arrays import ArrayConfig, steering_vector


@dataclass(frozen=True)
class DiminishingStep:
    """a_n = alpha/(n + n0): square-summable but not summable."""

    alpha: float
    n0: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha!r}")
        if self.n0 < 0:
            raise ValueError(f"n0 must be >= 0, got {self.n0!r}")


@dataclass(frozen=True)
class FixedStep:
    """a_n = alpha for every slot; used for dynamic tracking."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha!r}")


StepSizeSchedule = Union[DiminishingStep, FixedStep]


def step_size(schedule: StepSizeSchedule, n: int) -> float:
    """Step size a_n for slot n >= 1."""
    if n < 1:
        raise ValueError(f"slot index n must be >= 1, got {n!r}")
    if isinstance(schedule, DiminishingStep):
        return schedule.alpha / (n + schedule.n0)
    return schedule.alpha


def alpha_star(cfg: ArrayConfig) -> float:
    """Step-size scale 1/L = lambda/(sqrt(M)*(M-1)*pi*d) attaining the minimum CRLB."""
    return 1.0 / lipschitz_constant(cfg)


def codebook_directions(cfg: ArrayConfig) -> np.ndarray:
    """Sweep directions: the M-point dictionary, symmetric about 0."""
    return initial_dictionary(cfg.num_antennas)


def sweep_matrix(cfg: ArrayConfig) -> np.ndarray:
    """Stage-1 sweep codebook, one matched beam a(dir_j)/sqrt(M) per column.

    Entry (k, j) is exp(-1j*phi*k*dir_j)/sqrt(M) with phi = 2*pi*d/lambda.
    At half-wavelength spacing the matrix is unitary.
    """
    return steering_vector(cfg, codebook_directions(cfg)).T / math.sqrt(cfg.num_antennas)


def initial_dictionary(m0: int) -> np.ndarray:
    """Redundant direction dictionary {(2k - 1 - M0)/M0 : k = 1..M0}."""
    if m0 < 2:
        raise ValueError(f"dictionary size m0 must be >= 2, got {m0!r}")
    return (2.0 * np.arange(1, m0 + 1) - 1.0 - m0) / m0


def initial_estimate(cfg: ArrayConfig, sweep_obs, m0: int):
    """Project sweep observations on the dictionary and pick the best match.

    ``sweep_obs`` holds one observation per codebook beam: shape (M,) for one
    trial, or (T, M) for a block of trials.  Returns argmax over the
    dictionary of |a(x)^H W y| per trial, a scalar or a (T,) array.

    Ties break toward the smallest dictionary entry: the pick is the
    smallest entry whose score lies within a relative 1e-12 of the trial's
    best.  The last bits of a matrix product can follow how many trials
    share it, so ties compared exactly would make a trial's pick depend on
    its chunk.  The trials are scored 2^19 // m0 at a time (at least one),
    so a block holds at most max(2^19, m0) scores whatever the chunk's size;
    a 2048-trial chunk at the default m0 = 2M is one block up to M = 128.
    """
    y = np.asarray(sweep_obs, dtype=complex)
    if y.ndim not in (1, 2) or y.shape[-1] != cfg.num_antennas:
        raise ValueError("expected one observation per codebook beam")
    if m0 < cfg.num_antennas:
        raise ValueError(f"m0 must be >= M, got {m0!r}")
    grid = initial_dictionary(m0)
    project = steering_vector(cfg, grid).conj() @ sweep_matrix(cfg)  # (M0, M)
    rows = np.atleast_2d(y)
    picks = np.empty(len(rows))
    step = max(1, 2**19 // m0)  # trials scored at once
    for lo in range(0, len(rows), step):
        scores = np.abs(project @ rows[lo:lo + step].T)  # (M0, B)
        near_best = scores >= (1.0 - 1e-12) * scores.max(axis=0)
        picks[lo:lo + step] = grid[np.argmax(near_best, axis=0)]
    return picks if y.ndim == 2 else picks[0]
