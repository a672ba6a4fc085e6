"""Per-slot performance metrics (channel-response MSE, achievable rate, AoA
error) and their per-slot trial statistics across chunks of trials.

Every reported metric is computed here: the trackers' from the Dirichlet
kernel of their estimate (:func:`write_slot_metrics`), least squares' from
its channel estimate (:func:`write_channel_metrics`), and the rate of an SNR,
log2(1 + snr), in one place, :func:`rate_bits`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayConfig, cophased_beam, dirichlet_parts


@dataclass
class MetricSeries:
    """Per-slot trial means of the METRIC_NAMES metrics, with standard errors.

    Metrics that an algorithm does not define (e.g. spatial-frequency error
    for the least-squares baseline) are NaN.
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


def rate_bits(snr, out=None):
    """Achievable rate log2(1 + snr) in bits/s/Hz, as log1p(snr)/ln 2, which
    keeps its full relative precision as snr -> 0 (log2(1 + snr) rounds to 0
    below snr = 2**-53); in place when ``out`` is given."""
    return np.divide(np.log1p(snr, out=out), math.log(2.0), out=out)


def capacity(cfg: ArrayConfig, rho: float) -> float:
    """Rate ceiling log2(1 + rho*M), attained by the matched beamformer."""
    return float(rate_bits(rho * cfg.num_antennas))


def write_slot_metrics(out: np.ndarray, cfg: ArrayConfig, x_hat, x, asin_x, kernel, beta: complex, rho: float):
    """Fill the METRIC_NAMES rows of ``out`` in place for estimates ``x_hat``
    in [-1, 1] of ``x``, given ``asin_x`` = asin(x) and ``kernel``, the five
    rows of D_M(phi*(x_hat - x)) on the data array ``cfg`` as
    :func:`~beamtrack.arrays.dirichlet_parts` leaves them.  |D|^2 is formed
    here, in the rate row, with row 4 as scratch; rows 0-3 are left as they
    are."""
    m = cfg.num_antennas
    mse_h, mse_x, aoa, rate = out
    re_d, im_d, _, _, scratch = kernel
    np.multiply(re_d, -2.0, out=mse_h)
    mse_h += 2.0 * m
    mse_h *= abs(beta) ** 2
    np.subtract(x_hat, x, out=mse_x)
    np.square(mse_x, out=mse_x)
    np.arcsin(x_hat, out=aoa)
    aoa -= asin_x
    np.abs(aoa, out=aoa)
    aoa *= 180.0 / math.pi
    np.multiply(re_d, re_d, out=rate)
    rate += np.multiply(im_d, im_d, out=scratch)
    rate *= rho
    rate /= m
    rate_bits(rate, out=rate)


def write_channel_metrics(out: np.ndarray, h_hat, a_true, beta: complex, rho: float):
    """Fill the mse_h and rate rows of ``out`` in place for (T, M) channel
    estimates ``h_hat`` of beta*a(x), given the steering vectors ``a_true``
    of x ((T, M) or one shared (M,)): mse_h = sum |h_hat - beta*a(x)|^2, and
    the rate of the data beam :func:`~beamtrack.arrays.cophased_beam` of
    h_hat.  The mse_x and AoA rows are left as they are."""
    mse_h, _, _, rate = out
    diff = h_hat - beta * a_true
    mse_h[:] = np.sum(diff.real**2 + diff.imag**2, axis=1)
    resp = np.einsum("tm,tm->t", cophased_beam(h_hat).conj(), np.broadcast_to(a_true, h_hat.shape))
    np.multiply(resp.real**2 + resp.imag**2, rho, out=rate)
    rate_bits(rate, out=rate)


def slot_metrics(cfg: ArrayConfig, x_hat, x, beta: complex, rho: float) -> dict:
    """The METRIC_NAMES values, keyed by name, of estimates ``x_hat`` in
    [-1, 1] of ``x`` on the data array ``cfg``: :func:`write_slot_metrics`
    on :func:`dirichlet_parts`, as the engine runs them, into a fresh block."""
    x_hat, x = np.broadcast_arrays(np.asarray(x_hat, dtype=float), np.asarray(x, dtype=float))
    shape = x.shape
    x_hat, x = x_hat.reshape(-1), x.reshape(-1)
    kernel = dirichlet_parts(cfg, x_hat, x, np.empty((5, x.size)))
    values = np.empty((len(METRIC_NAMES), x.size))
    write_slot_metrics(values, cfg, x_hat, x, np.arcsin(x), kernel, beta, rho)
    return dict(zip(METRIC_NAMES, values.reshape((len(METRIC_NAMES),) + shape)))


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

    def record(self, i: int, block: np.ndarray) -> None:
        """Store slot ``i`` from a (len(METRIC_NAMES), count) block of trial values."""
        mean = block.sum(axis=1) / self.count
        dev = block - mean[:, None]
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
