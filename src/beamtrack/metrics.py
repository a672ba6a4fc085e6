"""Per-slot performance metrics (channel-response MSE, achievable rate, AoA
error) and their per-slot trial statistics across chunks of trials."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, dirichlet_parts


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


def _kernel(cfg: ArrayConfig, x_hat, x) -> np.ndarray:
    """Rows Re D, Im D, |D|^2 of D_M(phi*(x_hat - x)) (see :func:`dirichlet_parts`)."""
    x_hat, x = np.asarray(x_hat, dtype=float), np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(x_hat.shape, x.shape)
    return dirichlet_parts(cfg, x_hat, x, np.empty((5,) + (shape or (1,)))).reshape((5,) + shape)


def mse_h_closed(cfg: ArrayConfig, x_hat, x, beta: complex):
    """Squared channel-response error ||beta*a(x_hat) - beta*a(x)||_2^2.

    Closed form |beta|^2 * (2M - 2*Re{D_M(phi*(x_hat - x))}); vectorized.
    """
    return abs(beta) ** 2 * (2.0 * cfg.num_antennas - 2.0 * _kernel(cfg, x_hat, x)[0])


def rate_closed(cfg: ArrayConfig, x_hat, x, rho: float):
    """Achievable rate log2(1 + rho*|w^H a(x)|^2) in bits/s/Hz under the
    matched data beamformer w at x_hat, where |w^H a(x)|^2 = |D_M|^2/M."""
    return np.log2(1.0 + rho * _kernel(cfg, x_hat, x)[2] / cfg.num_antennas)


def aoa_error_deg(x_hat, x):
    """AoA error |asin(x_hat) - asin(x)| in degrees."""
    est = np.arcsin(np.clip(np.asarray(x_hat, dtype=float), -1.0, 1.0))
    return np.abs(est - np.arcsin(x)) * (180.0 / math.pi)


def write_slot_metrics(out: np.ndarray, cfg: ArrayConfig, x_hat, x, asin_x, re_d, mag2_d, beta: complex, rho: float):
    """Fill the METRIC_NAMES rows of ``out`` in place for estimates ``x_hat``
    in [-1, 1] of ``x``, given ``asin_x`` = asin(x) and the real part and
    squared modulus of D_M(phi*(x_hat - x)) on the data array ``cfg``."""
    m = cfg.num_antennas
    mse_h, mse_x, aoa, rate = out
    np.multiply(re_d, -2.0, out=mse_h)
    mse_h += 2.0 * m
    mse_h *= abs(beta) ** 2
    np.subtract(x_hat, x, out=mse_x)
    np.square(mse_x, out=mse_x)
    np.arcsin(x_hat, out=aoa)
    aoa -= asin_x
    np.abs(aoa, out=aoa)
    aoa *= 180.0 / math.pi
    np.multiply(mag2_d, rho, out=rate)
    rate /= m
    rate += 1.0
    np.log2(rate, out=rate)


@dataclass
class SlotStats:
    """Per-slot trial count, mean and sum of squared deviations (M2).

    ``mean`` and ``m2`` have one row per METRIC_NAMES entry and one column
    per slot.  A chunk fills them slot by slot with :meth:`record`; chunks
    combine with :meth:`merge`, the pairwise update of Chan, Golub & LeVeque
    (1979), so the variance never forms sum(v^2) - n*mean^2, which cancels
    when the spread is small next to the mean.
    """

    count: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def empty(cls, count: int, n_slots: int) -> SlotStats:
        shape = (len(METRIC_NAMES), n_slots)
        return cls(count, np.empty(shape), np.empty(shape))

    def record(self, i: int, block: np.ndarray, dev: np.ndarray) -> None:
        """Store slot ``i`` from a (len(METRIC_NAMES), count) block of trial
        values; ``dev``, of the same shape, is scratch that it overwrites."""
        mean = block.sum(axis=1) / self.count
        np.subtract(block, mean[:, None], out=dev)
        self.mean[:, i] = mean
        self.m2[:, i] = np.square(dev, out=dev).sum(axis=1)

    def merge(self, other: SlotStats) -> SlotStats:
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        m2 = self.m2 + other.m2 + delta**2 * (self.count * other.count / n)
        return SlotStats(n, mean, m2)

    def series(self) -> MetricSeries:
        """Per-slot means with standard errors sqrt(M2 / (n - 1) / n)."""
        if self.count > 1:
            stderr = np.sqrt(self.m2 / (self.count - 1) / self.count)
        else:
            stderr = np.full_like(self.mean, np.nan)
        return MetricSeries(
            slots=np.arange(1, self.mean.shape[1] + 1),
            n_trials=self.count,
            stderr=dict(zip(METRIC_NAMES, stderr)),
            **dict(zip(METRIC_NAMES, self.mean)),
        )
