"""Vectorized Monte-Carlo engine.

Simulates a chunk of independent trials of one tracking algorithm, looping
over slots with numpy operations across the trial axis.  This is the only
implementation of each algorithm: the recursive tracker in the spatial
frequency and angle domains, and the four reference trackers run at the same
one pilot per slot -- least squares over the unitary codebook, compressed
sensing with random +-1/+-j probes, an 802.11ad-style sweep-and-refine, and
an extended Kalman filter on the angle of arrival.  A single trial ``t`` is
``run_chunk(setup, t, t + 1)``.  Closed-form array responses (Dirichlet
kernels) replace explicit steering-vector products, so a chunk of several
hundred trials advances one slot in a handful of elementwise operations.

A :class:`TrialSetup` states what every part of the chunk reads from it:
``cfg``, the array the algorithm pilots (the tracking array of the two
trackers, the data array of the baselines); ``moving``, whether slot i's
truth depends on i (:func:`dynamics.moving`); and ``warm``, the M/2
soundings CS makes before slot 0 on a moving truth.  :func:`trial_bytes`
counts, from the same properties, the bytes one trial adds to a chunk,
which the harness's chunk budget reads.

Each algorithm is one ``step(i, x_n, w_n)`` closure over the chunk's state,
defined in its branch of :func:`run_chunk`; one slot loop calls it and
records the returned estimate's metrics, statistics and excursions.  Least
squares estimates the channel, not x: its step hands its channel estimate to
:func:`~beamtrack.metrics.write_channel_metrics` and returns None.  The
steering vectors and Dirichlet kernels of every slot take their sines and
cosines from ``np.tan`` (see :mod:`beamtrack.arrays` for why); the angular
and Kalman steps still call ``np.sin`` and ``np.cos`` of their angle
estimates.

The two tracking kernels and the per-slot metrics share one Dirichlet kernel
in real form (:func:`~beamtrack.arrays.dirichlet_parts`), the core's five
rows written into one per-chunk buffer: the update reads Im D, the metrics
Re D and Im D, from which they form |D|^2.  With a static truth and
``cfg_track == cfg_data`` the metric kernel of slot i is the update kernel
of slot i+1, so the trackers evaluate one Dirichlet per static slot (two per
slot on a moving trajectory).  The Kalman filter takes its predicted pilot
and its Jacobian from one :func:`~beamtrack.arrays.weighted_dirichlet` call.

The compressed-sensing sounder keeps per trial a statistic of size M in place
of its 1024-atom correlation: the probe-weighted sum of its soundings and the
summed probe autocorrelations (see :class:`CsScorer`), from which every slot
scores the whole grid with one real matrix product.  On a moving trajectory
the terms of the last M/2 soundings sit in a ring buffer and are summed
afresh each slot, so no term is ever subtracted; a static run keeps running
sums.

Every kernel reads slot i's true spatial frequency as ``xs[..., i]``, and
the stage-1 sweep reads the trials' start directions x0.  One
:func:`dynamics.trajectory` call per chunk returns both, in the layout the
model sets: a (T, n) broadcast view of x0 for a static truth, one (n,) row
that every trial shares for a fixed velocity or an unjittered sinusoid
(whose steering vector is then built once per slot), and per-trial (T, n)
rows for a jittered sinusoid.  Past the Kalman filter's default process
noise, the engine checks no model's type: it asks :func:`dynamics.per_trial`
whether to build the trajectory streams, and takes the AoA error's asin
once per distinct truth.  The receiver noise of the stage-1 sweep and the
CS warm-up is one (T, M + warm-up) complex block; the tracking noise is
drawn K slots at a time into one reused (T, K) block, K = min(n,
``_NOISE_BLOCK`` // T), and the slot loop hands each step its column
``w_n``.  The two trackers read only the noise's imaginary part, so their
block is float64 and holds just that (:func:`draw_noise`); the baselines'
block is complex.  Each block is scaled in place to its SNR, so a chunk's
noise memory does not grow with n (all zeros in no-noise mode).  The
tracking block is allocated only after stage 1 and the algorithm's set-up,
once the head block and the sweep's observations are freed, so neither they
nor stage 1's temporaries sit beside it: a 2048 x 2000 static chunk's traced
peak fell from 12.7 to 10.6 MB, against an 8.4 MB complex tracking block,
and the trackers' 4.2 MB real block took it to 6.3 MB.  The block is the
first K columns of a (T, K + 1) array.  Without that padding sample a
complex row is K*16 B, a power of two times 4 KiB at the usual chunk sizes
(4 KiB at T = 2048; 16 and 64 KiB at T = 512 and 128 once n >= K), and a
real row half that, so a column's T samples fall into a few cache sets: at
T = 2048 the two operations of the update that read ``w_n`` took 24 us per
slot at a 4096 B row stride and 9.7 us at 4112 B (AVX-512 Xeon).  Each
block is scaled through the contiguous padded array: a complex one in
0.42 ms, against 1.09 ms through the strided view.

Reproducibility contract: trial ``t`` owns three child streams of
``SeedSequence([base_seed, t])``: trajectory (kind 0), observation noise
(kind 1) and algorithm randomness (kind 2), the same streams as
``spawn(3)[kind]``.  :func:`trial_streams` seeds each child's PCG64 with
``SeedSequence([base_seed, t], spawn_key=(kind,)).generate_state(4,
np.uint64)``, computed for every trial of a chunk at once by numpy's
SeedSequence hash over uint32 arrays (trials below 2**32);
``tests/test_engine.py::TestNoiseDraw`` pins every stream's state to
numpy's own.  A chunk builds only the children it reads: trajectory
children where :func:`dynamics.per_trial` holds (a uniform-x or jittered
truth), noise children when noise is on, algorithm children for CS.  Within
each stream, draws occur in a canonical order (stage-1 sweep noise first,
then one complex sample per slot, of which the trackers keep the imaginary
part), and a stream drawn in pieces continues where it stopped, so results
are independent of chunk boundaries, noise block size and worker count.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import analysis, dynamics
from .arrays import ArrayConfig, dirichlet, dirichlet_parts, steering_vector, weighted_dirichlet
from .metrics import METRIC_NAMES, SlotStats, write_channel_metrics, write_slot_metrics
from .trackers import (
    StepSizeSchedule,
    codebook_directions,
    initial_dictionary,
    initial_estimate,
    step_size,
    sweep_matrix,
)

# The tracking kernels read the update field from dirichlet_parts.  The name
# stays an engine attribute because perfbench's layer hooks wrap
# ``engine.f_gain_closed`` and its self-check fails on a missing hook.
from .arrays import f_gain_closed  # noqa: F401

_HALF_PI = 0.5 * math.pi
# below this |cos(theta_hat)| the angular update's 1/cos gain is degenerate
COS_GUARD = 1e-6

BASELINE_ALGORITHMS = ("ls", "cs", "wlan", "kf")
ALGORITHMS = ("recursive", "angular") + BASELINE_ALGORITHMS

# probe alphabet for the compressed-sensing sounder (scaled by 1/sqrt(M))
_CS_ALPHABET = np.array([1.0 + 0.0j, -1.0 + 0.0j, 0.0 + 1.0j, 0.0 - 1.0j])
# trials scored at once.  The (2B, 1024) float64 score buffer is 1 MB at
# B = 64 and fits a 2 MB L2 cache.  At M = 16 (OpenBLAS, one thread, AVX-512
# Xeon) one (128, 31) @ (31, 1024) product took 196 us against 2 x 103 us for
# two of 64 rows, and CsScorer.pick over 128 trials 736 us against 749-783 us
# at B = 32
_CS_BLOCK = 64
# samples in one chunk's tracking-noise block: T trials hold
# min(n, _NOISE_BLOCK // T) slots of noise at a time, plus one padding
# sample.  The baselines' samples are complex (8 MB), the two trackers' the
# imaginary parts alone (4 MB)
_NOISE_BLOCK = 2**19

# child streams of SeedSequence([base_seed, t]), by spawn key
TRAJECTORY, NOISE, ALGORITHM = 0, 1, 2
# trial indices lie in [0, MAX_TRIALS): a trial's seed holds t as one 32-bit word
MAX_TRIALS = 2**32

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# 32-bit words, the multipliers of its input (A) and output (B) hashes and
# of its mix step.  Python ints, as numpy 2 warns on uint32 scalar overflow
# while uint32 arrays wrap silently.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# the AoA error's row of a slot's metric block, for the excursion test
_AOA = METRIC_NAMES.index("aoa_error_deg")

KF_OFFSET_RAD = math.radians(3.5)


def cs_dictionary() -> np.ndarray:
    """Uniform direction grid of 1024 atoms spanning (-1, 1)."""
    return initial_dictionary(1024)


class CsScorer:
    """Statistic and grid scores of the compressed-sensing sounder.

    The statistic of ``count`` soundings alpha_s in {+-1, +-j}^M (probes
    before their 1/sqrt(M) scaling) with observations y_s is

    * z = sum_s y_s*alpha_s, shape (T, M), and
    * c_d = sum_s sum_k alpha_s[k+d]*conj(alpha_s[k]) for lags d = 1..M-1,
      shape (T, M-1): Gaussian integers, so their sums are exact.

    An atom g of A = [exp(-j*phi*m*g)] has norm2 = sum_s |alpha_s^H A|^2 =
    M*count + 2*Re sum_d c_d*exp(j*phi*d*g), and corr = z @ conj(A) has
    |corr|^2 = r_0 + 2*Re sum_d r_d*exp(j*phi*d*g), with r_0 = sum_k |z_k|^2
    and r_d the lag sums of z.  Both are M times their values for the
    normalized probes, so the score |corr|^2/norm2 is theirs.  One real
    (2B, 2M-1) @ (2M-1, G) product scores B trials, rows (r_0, r_d) over rows
    (M*count, c_d).  |corr|^2 rounds to about eps*(r_0 + 2*sum_d |r_d|), the
    cancellation norm2 has in c_d, so near a null of corr a score can round
    slightly below 0.  Trials are scored ``_CS_BLOCK`` = 64 at a time into
    buffers allocated once, so no slot pays for fresh pages: a block's 1 MB
    score buffer stays in L2 cache, and one product of 2B = 128 rows costs
    less than two of 64.  A row's scores are the same bits at any block size.
    """

    def __init__(self, cfg: ArrayConfig, grid: np.ndarray):
        self.grid = grid
        self.m = cfg.num_antennas
        # row 0 ones, rows 2d-1, 2d 2*cos and -2*sin of phi*d*g: the real form
        # of 2*Re(c_d*exp(j*phi*d*g)) against c viewed as interleaved (re, im)
        lag_phase = cfg.phase_factor * np.outer(np.arange(1, self.m), grid)
        self.basis = np.empty((2 * self.m - 1, grid.size))
        self.basis[0] = 1.0
        self.basis[1::2] = 2.0 * np.cos(lag_phase)
        self.basis[2::2] = -2.0 * np.sin(lag_phase)
        # antenna pairs (k + d, k) grouped by lag d, and each group's start
        self._pair_hi = np.concatenate([np.arange(d, self.m) for d in range(1, self.m)])
        self._pair_lo = self._pair_hi - np.repeat(np.arange(1, self.m), np.arange(self.m - 1, 0, -1))
        self._lag_start = np.concatenate(([0], np.cumsum(np.arange(self.m - 1, 1, -1))))
        # numerator rows [:B] over normaliser rows [B:2B], and their scores
        self._coef = np.empty((2 * _CS_BLOCK, 2 * self.m - 1))
        self._out = np.empty((2 * _CS_BLOCK, grid.size))

    def autocorrelation(self, rows: np.ndarray) -> np.ndarray:
        """(T, M-1) lag sums sum_k rows[:, k+d]*conj(rows[:, k]) of any (T, M)
        rows (probes or z), formed ``_CS_BLOCK`` rows at a time.

        A block's pair products stay in cache: at M = 16 the probes of 128
        trials took 202 us in one pass and 83 us in two blocks of 64.
        """
        out = np.empty((rows.shape[0], self.m - 1), dtype=complex)
        for lo in range(0, rows.shape[0], _CS_BLOCK):
            block = rows[lo : lo + _CS_BLOCK]
            pairs = block[:, self._pair_hi] * block[:, self._pair_lo].conj()
            np.add.reduceat(pairs, self._lag_start, axis=1, out=out[lo : lo + _CS_BLOCK])
        return out

    def scores(self, z: np.ndarray, c: np.ndarray, count: int) -> np.ndarray:
        """(B, G) scores of B <= _CS_BLOCK trials; valid until the next call.

        norm2 is floored at 1e-12*M*count, far above its rounding error and
        far below any atom a sounding hits, so the floor only lowers the score
        of an atom that every sounding nearly misses.
        """
        b = z.shape[0]
        coef, out = self._coef[: 2 * b], self._out[: 2 * b]
        np.einsum("ij,ij->i", z.view(np.float64), z.view(np.float64), out=coef[:b, 0])
        coef[:b, 1:] = self.autocorrelation(z).view(np.float64)
        coef[b:, 0] = offset = self.m * count
        coef[b:, 1:] = c.view(np.float64)
        np.matmul(coef, self.basis, out=out)
        np.maximum(out[b:], 1e-12 * offset, out=out[b:])
        return np.divide(out[:b], out[b:], out=out[:b])

    def pick(self, z: np.ndarray, c: np.ndarray, count: int) -> np.ndarray:
        """Best atom of every trial (row of z and c)."""
        x_hat = np.empty(z.shape[0])
        for lo in range(0, z.shape[0], _CS_BLOCK):
            rows = slice(lo, lo + _CS_BLOCK)
            x_hat[rows] = self.grid[np.argmax(self.scores(z[rows], c[rows], count), axis=1)]
        return x_hat


def kf_default_process_noise(omega: float) -> float:
    """Default random-walk process noise for angular velocity ``omega``.

    Calibrated by grid search over q at several velocities (maximizing mean
    rate at M = 16, 10 dB): the per-slot angular increment dominates, with a
    small floor so the static filter keeps adapting.
    """
    return omega**2 + 1e-8


@dataclass(frozen=True)
class TrialSetup:
    """Everything a worker needs to simulate trials of one algorithm."""

    algorithm: str
    cfg_track: ArrayConfig
    cfg_data: ArrayConfig
    rho: float
    stage1_rho: float
    beta: complex
    no_noise: bool
    schedule: StepSizeSchedule
    model: dynamics.TrajectoryModel
    n_slots: int
    m0: int
    base_seed: int
    x0_mode: str = "sweep"  # sweep | fixed (at x0_value) | true
    x0_value: float = 0.0
    kf_q: float | None = None
    kf_p0: float = 1e-2
    excursion_burn_in: int = 0
    excursion_threshold_rad: float | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if self.x0_mode not in ("sweep", "fixed", "true"):
            raise ValueError(f"unknown x0_mode {self.x0_mode!r}")
        dynamics.moving(self.model)  # a TypeError for anything but a trajectory model

    @property
    def cfg(self) -> ArrayConfig:
        """The array the algorithm pilots: the tracking array of the two
        trackers, the data array of every baseline."""
        return self.cfg_data if self.algorithm in BASELINE_ALGORITHMS else self.cfg_track

    @property
    def moving(self) -> bool:
        """Whether slot i's truth depends on i (:func:`dynamics.moving`)."""
        return dynamics.moving(self.model)

    @property
    def warm(self) -> int:
        """Soundings CS makes before slot 0: M/2 on a moving truth, so its
        first window is full; else 0."""
        return self.cfg.num_antennas // 2 if self.algorithm == "cs" and self.moving else 0


def trial_bytes(setup: TrialSetup) -> int:
    """Bytes of one trial's share of a :func:`run_chunk` chunk that grow
    with n_slots or M^2.

    * the true x of a moving truth drawn per trial (8 B a slot): a jittered
      sinusoid's rows, where :func:`dynamics.per_trial` holds.  A static
      truth, drawn per trial or not, is a broadcast view of its (T,) start,
      and a fixed velocity or an unjittered sinusoid one (n,) row that every
      trial shares;
    * for CS, the int8 probe indices of every slot and of the warm-up
      soundings (M B a slot);
    * for CS, ``CsScorer.autocorrelation``'s pair product of a sounding and
      the two gathers it is formed from (3 x 16 B x M(M-1)/2), formed
      ``_CS_BLOCK`` trials at a time, so this overcounts a chunk of more
      trials;
    * for CS on a moving truth, the ring buffers of z and c over the last
      M/2 soundings (M/2 x (2M - 1) x 16 B).

    Stage 1's dictionary scores add nothing:
    :func:`~beamtrack.trackers.initial_estimate` scores 2^19 // m0 trials at
    a time, and the scores are freed before the slot loop.

    The M^2 terms come to 40*M^2 - 32*M B on a moving truth.  With
    tracemalloc, a moving CS chunk's peak grew by 42*M^2 and 41*M^2 B per
    trial from 32 to 64 trials at M = 64 and 128 (26*M^2 and 25*M^2 on a
    static truth).  A 2048 x 20 recursive chunk at M = 16 peaked at 4.3 MB
    with m0 = 32 and 21.1 MB with m0 = 4096 (204 MB with the (m0, T) scores
    held at once).
    """
    m, warm = setup.cfg.num_antennas, setup.warm
    per_trial = 8 * setup.n_slots if setup.moving and dynamics.per_trial(setup.model) else 0
    if setup.algorithm == "cs":
        per_trial += m * (warm + setup.n_slots) + 3 * 16 * (m * (m - 1) // 2) + warm * (2 * m - 1) * 16
    return per_trial


@dataclass
class ChunkResult:
    """Per-slot metric statistics over a chunk of trials, plus per-trial extras."""

    stats: SlotStats
    extras: dict = field(default_factory=dict)


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first (one
    word for 0), as SeedSequence splits its entropy."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seed entropy must be >= 0, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_seeds(base_seed: int, trials: np.ndarray, kind: int) -> np.ndarray:
    """(T, 4) uint64 ``SeedSequence([base_seed, t], spawn_key=(kind,))
    .generate_state(4, np.uint64)`` of every uint32 trial ``t``.

    numpy's hash, with every entropy word a (T,) uint32 array: the words of
    base_seed, then t, then zeros up to the pool size, then kind.
    """
    run = [np.full(trials.shape, w, np.uint32) for w in _uint32_words(base_seed)] + [trials]
    run += [np.zeros(trials.shape, np.uint32)] * (_POOL_SIZE - len(run))
    entropy = run + [np.full(trials.shape, w, np.uint32) for w in _uint32_words(kind)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state: 8 output words cycling over the pool, paired little-endian
    state = np.empty((trials.size, 8), dtype="<u4")
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, i] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)


class _PresetSeed(ISeedSequence):
    """A seed sequence whose PCG64 state words are already computed: PCG64
    asks for ``generate_state(4, np.uint64)`` and gets them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def trial_streams(base_seed: int, trials: Sequence[int], kind: int) -> list[np.random.Generator]:
    """Child ``kind`` (TRAJECTORY, NOISE or ALGORITHM) of
    ``SeedSequence([base_seed, t])`` for every trial ``t`` in ``trials``.

    Each child draws the same stream as ``spawn(3)[kind]``: its PCG64 is
    seeded with ``SeedSequence([base_seed, t], spawn_key=(kind,))
    .generate_state(4, np.uint64)``, which :func:`_pcg64_seeds` computes for
    all trials in one pass of uint32 array arithmetic, so no SeedSequence is
    built.  The hash takes t as one 32-bit word, so every trial must lie in
    [0, 2**32).  ``tests/test_engine.py::TestNoiseDraw`` checks each
    stream's state against numpy's SeedSequence.
    """
    t = np.asarray(trials)
    if t.size and (t.min() < 0 or t.max() >= MAX_TRIALS):
        raise ValueError(f"trial indices must lie in [0, 2**32), got {t.min()}..{t.max()}")
    seeds = _pcg64_seeds(base_seed, t.astype(np.uint32), kind)
    return [np.random.Generator(np.random.PCG64(_PresetSeed(row))) for row in seeds]


def draw_noise(rngs: Sequence[np.random.Generator], out: np.ndarray) -> np.ndarray:
    """Fill the (T, k) ``out`` with the next k samples of each ``rngs[t]``,
    drawn as interleaved (re, im) standard normals.

    A complex ``out`` gets re + 1j*im; a real ``out`` gets im alone, each
    row's 2k normals drawn into one reused scratch.  Either way a stream
    advances by 2k normals, so the samples that follow are the same.
    """
    if np.iscomplexobj(out):
        for row, r in zip(out, rngs):
            r.standard_normal(out=row.view(np.float64))
        return out
    pairs = np.empty((out.shape[1], 2))
    for row, r in zip(out, rngs):
        row[:] = r.standard_normal(out=pairs)[:, 1]
    return out


def _clip(a: np.ndarray, lo, hi) -> np.ndarray:
    """Clip ``a`` to [lo, hi] in place."""
    np.minimum(a, hi, out=a)
    return np.maximum(a, lo, out=a)


def run_chunk(setup: TrialSetup, trial_lo: int, trial_hi: int) -> ChunkResult:
    """Simulate trials [trial_lo, trial_hi); return per-slot metric statistics.

    Each algorithm's branch sets up its state and defines
    ``step(i, x_n, w_n)``, which advances every trial by slot i, given slot
    i's truth ``x_n`` and scaled noise ``w_n``, and returns the slot's
    estimate of x.  One slot loop then writes that
    estimate's metrics into one (len(METRIC_NAMES), T) block for
    ``SlotStats.record`` and updates the excursion flags.  Least squares
    estimates the channel, not x: its ``step`` has
    :func:`~beamtrack.metrics.write_channel_metrics` fill the block's mse_h
    and rate rows and returns None, so its mse_x and AoA rows and its
    ``final_estimate`` stay NaN.

    The extras are six per-trial arrays: the stage-1 estimate ``x0_hat``,
    ``init_in_mainlobe``, the last slot's ``final_estimate`` and ``final_x``,
    the ``excursion`` flags and the angular tracker's ``degenerate_slots``.
    """
    n_trials = trial_hi - trial_lo
    if n_trials < 1:
        raise ValueError("empty trial range")
    n = setup.n_slots
    cfg = setup.cfg
    cfg_d = setup.cfg_data
    m = cfg.num_antennas

    trials = range(trial_lo, trial_hi)

    # --- truth: the stage-1 directions, and slot i's truth xs[..., i] ------
    # trajectory streams are dropped once drawn: holding a 2048-trial chunk's
    # (2.8 MB) through the slot loop raised static-m16's peak RSS from 54.7
    # to 61.8 MB
    model = setup.model
    rngs = trial_streams(setup.base_seed, trials, TRAJECTORY) if dynamics.per_trial(model) else None
    x_true0, xs = dynamics.trajectory(model, n, n_trials, rngs)
    del rngs
    # asin(xs[..., i]) for the AoA error, taken once per distinct truth: per
    # trial for a static truth, per slot for a shared row; per-trial rows
    # take it in the slot loop
    if not setup.moving:
        asin_xs = np.broadcast_to(np.arcsin(x_true0)[:, None], xs.shape)
    else:
        asin_xs = np.arcsin(xs) if xs.ndim == 1 else None

    # --- noise: blocks scaled in place, all zeros in no-noise mode ---------
    # the stage-1 sweep and CS warm-up now; the tracking block once stage 1
    # and the branch's set-up are done (see below)
    noise_rngs = None if setup.no_noise else trial_streams(setup.base_seed, trials, NOISE)
    warm = setup.warm
    sigma = math.sqrt(0.5 / setup.rho)
    # np.zeros, though every entry is drawn: with np.empty a full experiment
    # peaked 0.15-0.3 MB higher in RSS
    head = np.zeros((n_trials, m + warm), dtype=complex)
    if noise_rngs:
        draw_noise(noise_rngs, head)
    head[:, :m] *= math.sqrt(0.5 / setup.stage1_rho)
    head[:, m:] *= sigma
    sweep_noise, warm_noise = head[:, :m], head[:, m:]

    def observe(v, x):
        """Noise-free pilot D_M(phi*(v - x))/sqrt(M) through the matched beam at v."""
        return dirichlet(cfg.phase_factor * (v - x), m) / math.sqrt(m)

    # --- stage 1: coarse sweep -------------------------------------------
    dirs = codebook_directions(cfg)
    sweep_obs = observe(dirs[None, :], x_true0[:, None]) + sweep_noise
    if setup.x0_mode == "fixed":
        x0_hat = np.full(n_trials, float(np.clip(setup.x0_value, -1.0, 1.0)))
    elif setup.x0_mode == "true":
        x0_hat = x_true0.copy()
    else:
        x0_hat = initial_estimate(cfg, sweep_obs, setup.m0)
    init_in_mainlobe = np.abs(x0_hat - x_true0) < analysis.mainlobe_half_width(cfg)

    stats = SlotStats.empty(n_trials, n)
    values = np.full((len(METRIC_NAMES), n_trials), np.nan)  # one slot's metric block
    excursion = np.zeros(n_trials, dtype=bool)
    excursion_from = n if setup.excursion_threshold_rad is None else setup.excursion_burn_in
    excursion_deg = math.degrees(setup.excursion_threshold_rad or 0.0)
    degenerate_slots = np.zeros(n_trials, dtype=np.int64)

    a_sched = np.array([step_size(setup.schedule, i) for i in range(1, n + 1)])
    rho = setup.rho
    beta = setup.beta

    # the five core rows of the last kernel evaluated: Re D, Im D, the two
    # tangents and a scratch row
    kernel = np.empty((5, n_trials))
    im_d = kernel[1]

    # The tracking update reads f(v, x) = -Im D_M(phi*(v - x))/sqrt(M).  With a
    # static truth and one array, slot i's metric kernel at (x_hat_{i+1} - x)
    # is slot i+1's update kernel, so it is evaluated once for both.
    reuse = not setup.moving and cfg == cfg_d
    inv_sqrt_m = 1.0 / math.sqrt(m)
    im_y = np.empty(n_trials)

    def observe_im(i, v, x_n, w_n):
        """Im of slot i's pilot, Im D_M(phi*(v - x_n))/sqrt(M) + w_n, in
        ``im_y``, where w_n is the noise's imaginary part; D is evaluated
        afresh or read as slot i - 1's metrics left it."""
        if i == 0 or not reuse:
            dirichlet_parts(cfg, v, x_n, kernel)
        np.multiply(im_d, inv_sqrt_m, out=im_y)
        return np.add(im_y, w_n, out=im_y)

    # LS and CS read the truth's steering vectors: a static truth's are built
    # once for the chunk, a moving truth's every slot
    a_static = None
    if setup.algorithm in ("ls", "cs") and not setup.moving:
        a_static = steering_vector(cfg, x_true0)

    def truth_vectors(x_n):
        return steering_vector(cfg, x_n) if a_static is None else a_static

    if setup.algorithm == "recursive":
        v = x0_hat.copy()

        def step(i, x_n, w_n):
            y = observe_im(i, v, x_n, w_n)
            np.subtract(v, np.multiply(y, a_sched[i], out=y), out=v)
            return _clip(v, -1.0, 1.0)

    elif setup.algorithm == "angular":
        th = np.arcsin(x0_hat)
        x_ang = np.sin(th)
        gain = np.empty(n_trials)

        def step(i, x_n, w_n):
            np.cos(th, out=gain)  # >= 0 on the clipped [-pi/2, pi/2]
            np.add(degenerate_slots, gain < COS_GUARD, out=degenerate_slots)
            np.maximum(gain, COS_GUARD, out=gain)
            y = observe_im(i, x_ang, x_n, w_n)
            np.divide(a_sched[i], gain, out=gain)
            np.subtract(th, np.multiply(y, gain, out=y), out=th)
            _clip(th, -_HALF_PI, _HALF_PI)
            return np.sin(th, out=x_ang)

    elif setup.algorithm == "ls":
        wt = sweep_matrix(cfg)
        # warm start: stage-1 sweep is one full probe cycle.  A lone trial is
        # carried as two equal rows: numpy forms a one-row product on its
        # vector-matrix path, whose bits differ from a row of a larger chunk's
        buf = beta * np.broadcast_to(sweep_obs, (max(n_trials, 2), m))
        counts = np.ones(m)
        accumulate = not setup.moving  # static mode averages every sweep

        def step(i, x_n, w_n):
            j = i % m
            r_new = beta * (observe(dirs[j], x_n) + w_n)
            if accumulate:
                buf[:, j] += r_new
                counts[j] += 1.0
            else:
                buf[:, j] = r_new
            h_hat = ((buf / counts) @ wt.T)[:n_trials]
            write_channel_metrics(values, h_hat, truth_vectors(x_n), beta, rho)
            return None

    elif setup.algorithm == "cs":
        scorer = CsScorer(cfg, cs_dictionary())
        probes = np.empty((n_trials, warm + n, m), dtype=np.int8)
        for k, r in enumerate(trial_streams(setup.base_seed, trials, ALGORITHM)):
            probes[k] = r.integers(0, 4, size=(warm + n, m))
        window = warm or 1  # the last M/2 soundings of a moving truth; static: one running sum
        ring_z = np.zeros((window, n_trials, m), dtype=complex)
        ring_c = np.zeros((window, n_trials, m - 1), dtype=complex)

        def sound(s, x_n, noise_s):
            alpha = _CS_ALPHABET[probes[:, s, :]]
            w = alpha / math.sqrt(m)
            y = np.einsum("tm,tm->t", w.conj(), np.broadcast_to(truth_vectors(x_n), w.shape)) + noise_s
            z_s = y[:, None] * alpha
            c_s = scorer.autocorrelation(alpha)
            if setup.moving:
                ring_z[s % window] = z_s
                ring_c[s % window] = c_s
            else:
                ring_z[0] += z_s
                ring_c[0] += c_s

        for k in range(warm):
            sound(k, x_true0, warm_noise[:, k])

        def step(i, x_n, w_n):
            sound(warm + i, x_n, w_n)
            count = window if setup.moving else i + 1
            return scorer.pick(ring_z.sum(axis=0), ring_c.sum(axis=0), count)

    elif setup.algorithm == "wlan":
        # every three slots probe best - 1, best, best + 1, then move to the strongest
        best = np.argmax(np.abs(sweep_obs), axis=1)
        run_mag = np.full(n_trials, -np.inf)
        run_idx = best.copy()

        def step(i, x_n, w_n):
            idx = _clip(best + (i % 3 - 1), 0, m - 1)
            mag = np.abs(observe(dirs[idx], x_n) + w_n)
            np.copyto(run_idx, idx, where=mag > run_mag)
            np.maximum(mag, run_mag, out=run_mag)
            if i % 3 == 2:
                best[:] = run_idx
                run_mag.fill(-np.inf)
            return dirs[best]

    else:  # kf
        q = setup.kf_q
        if q is None:
            omega = model.omega if isinstance(model, dynamics.FixedVelocity) else 0.0
            q = kf_default_process_noise(omega)
        r_var = 1.0 / (2.0 * rho)
        th = np.arcsin(x0_hat)
        p_var = np.full(n_trials, setup.kf_p0)
        phi = cfg.phase_factor

        def step(i, x_n, w_n):
            nonlocal th, p_var
            sgn = 1.0 if i % 2 == 0 else -1.0
            vp = np.sin(_clip(th + sgn * KF_OFFSET_RAD, -_HALF_PI, _HALF_PI))
            y = observe(vp, x_n) + w_n
            d, g = weighted_dirichlet(phi * (vp - np.sin(th)), m)
            jac = -1j * phi * np.cos(th) * g / math.sqrt(m)
            jac2 = jac.real**2 + jac.imag**2
            p_var = 1.0 / (1.0 / (p_var + q) + jac2 / r_var)
            th = th + (p_var / r_var) * (jac.conj() * (y - d / math.sqrt(m))).real
            _clip(th, -_HALF_PI, _HALF_PI)  # a diverged estimate is pinned at endfire
            th[np.isnan(th)] = 0.0
            return np.sin(th)

    # LS has copied sweep_obs into buf, wlan has read it and CS has spent
    # warm_noise, and no step reads them: freed before the tracking block is
    # allocated, they no longer sit beside it
    del head, sweep_noise, warm_noise, sweep_obs
    k_block = min(n, max(1, _NOISE_BLOCK // n_trials))
    # one padding sample per row, so a slot's column does not step a power
    # of two times 4 KiB from trial to trial (see the module docstring).  The
    # two trackers read only the noise's imaginary part, so they keep that
    padded = np.zeros((n_trials, k_block + 1), dtype=complex if setup.algorithm in BASELINE_ALGORITHMS else float)
    noise = padded[:, :k_block]

    x_hat = np.full(n_trials, np.nan)
    for i in range(n):
        j = i % k_block
        if j == 0 and noise_rngs:  # the next K slots' noise, or the n - i left
            draw_noise(noise_rngs, noise[:, : n - i])
            padded *= sigma  # contiguous; a last short block's stale columns are never read
        x_n = xs[..., i]
        estimate = step(i, x_n, noise[:, j])
        if estimate is not None:  # leaves D_M(phi_d*(x_hat - x_n)) in ``kernel``
            x_hat = estimate
            dirichlet_parts(cfg_d, x_hat, x_n, kernel)
            asin_x = np.arcsin(x_n) if asin_xs is None else asin_xs[..., i]
            write_slot_metrics(values, cfg_d, x_hat, x_n, asin_x, kernel, beta, rho)
        stats.record(i, values)
        if i >= excursion_from:
            np.logical_or(excursion, values[_AOA] > excursion_deg, out=excursion)

    extras = {
        "x0_hat": x0_hat,
        "init_in_mainlobe": init_in_mainlobe,
        "final_estimate": x_hat,
        "final_x": np.broadcast_to(xs[..., -1], (n_trials,)),
        "excursion": excursion,
        "degenerate_slots": degenerate_slots,
    }
    return ChunkResult(stats=stats, extras={name: np.array(a) for name, a in extras.items()})
