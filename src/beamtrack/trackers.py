"""Building blocks of the two-stage recursive analog beam tracker.

The tracker runs in two stages.  Stage 1 sweeps a codebook of M matched
beams (unitary at half-wavelength spacing) and projects the observations
on a redundant direction dictionary to obtain an initial estimate.  Stage 2
spends one pilot per slot: it matches the beamformer to the current
estimate and corrects it with the imaginary part of the observation,
scaled by a step size and clamped to the valid domain.  This module holds the codebook, the dictionary projection and the
step-size schedules; the slot recursions run in :mod:`beamtrack.engine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .arrays import ArrayConfig


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
    """Step-size scale lambda/(sqrt(M)*(M-1)*pi*d) attaining the minimum CRLB."""
    m = cfg.num_antennas
    return 1.0 / (math.sqrt(m) * (m - 1) * math.pi * cfg.spacing_ratio)


def codebook_directions(cfg: ArrayConfig) -> np.ndarray:
    """Sweep directions 2m/M - (M+1)/M for m = 1..M, symmetric about 0."""
    m = cfg.num_antennas
    return (2.0 * np.arange(1, m + 1) - (m + 1)) / m


def sweep_matrix(cfg: ArrayConfig) -> np.ndarray:
    """Stage-1 sweep codebook, one matched beam a(dir_j)/sqrt(M) per column.

    Entry (k, j) is exp(-1j*phi*k*dir_j)/sqrt(M) with phi = 2*pi*d/lambda.
    At half-wavelength spacing the matrix is unitary.
    """
    k_dir = np.outer(cfg.antenna_indices, codebook_directions(cfg))
    return np.exp(-1j * cfg.phase_factor * k_dir) / math.sqrt(cfg.num_antennas)


def initial_dictionary(m0: int) -> np.ndarray:
    """Redundant direction dictionary {(2k - 1 - M0)/M0 : k = 1..M0}."""
    if m0 < 2:
        raise ValueError(f"dictionary size m0 must be >= 2, got {m0!r}")
    return (2.0 * np.arange(1, m0 + 1) - 1.0 - m0) / m0


def initial_estimate(cfg: ArrayConfig, sweep_obs, m0: int):
    """Project sweep observations on the dictionary and pick the best match.

    ``sweep_obs`` holds one observation per codebook beam: shape (M,) for one
    trial, or (T, M) for a block of trials.  Returns argmax over the
    dictionary of |a(x)^H W y| per trial, a scalar or a (T,) array; ties break
    toward the smallest dictionary entry.
    """
    y = np.asarray(sweep_obs, dtype=complex)
    if y.ndim not in (1, 2) or y.shape[-1] != cfg.num_antennas:
        raise ValueError("expected one observation per codebook beam")
    if m0 < cfg.num_antennas:
        raise ValueError(f"m0 must be >= M, got {m0!r}")
    grid = initial_dictionary(m0)
    atoms = np.exp(-1j * cfg.phase_factor * np.outer(cfg.antenna_indices, grid))
    scores = np.abs((atoms.conj().T @ sweep_matrix(cfg)) @ y.T)  # (M0,) or (M0, T)
    return grid[np.argmax(scores, axis=0)]
