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

Reproducibility contract: trial ``t`` owns three child streams spawned from
``SeedSequence([base_seed, t])`` in the order (trajectory, observation noise,
algorithm randomness).  Within each stream, draws occur in a canonical order
(stage-1 sweep noise first, then one complex sample per slot), so results are
independent of chunk boundaries and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import dynamics
from .arrays import ArrayConfig, dirichlet, f_gain_closed, weighted_dirichlet
from .metrics import METRIC_NAMES
from .trackers import (
    StepSizeSchedule,
    codebook_directions,
    initial_estimate,
    step_size,
    sweep_matrix,
)

# Stage 1 reaches initial_dictionary through initial_estimate.  The name stays
# an engine attribute because perfbench's layer hooks wrap
# ``engine.initial_dictionary`` and its self-check fails on a missing hook.
from .trackers import initial_dictionary  # noqa: F401

_HALF_PI = 0.5 * math.pi
# below this |cos(theta_hat)| the angular update's 1/cos gain is degenerate
COS_GUARD = 1e-6

BASELINE_ALGORITHMS = ("ls", "cs", "wlan", "kf")
ALGORITHMS = ("recursive", "angular") + BASELINE_ALGORITHMS

# probe alphabet for the compressed-sensing sounder (scaled by 1/sqrt(M))
_CS_ALPHABET = np.array([1.0 + 0.0j, -1.0 + 0.0j, 0.0 + 1.0j, 0.0 - 1.0j])

KF_OFFSET_RAD = math.radians(3.5)
KF_P_VAR_MAX = 1e6


def cs_dictionary(size: int = 1024) -> np.ndarray:
    """Uniform direction grid of ``size`` atoms spanning (-1, 1)."""
    k = np.arange(size, dtype=float)
    return -1.0 + (2.0 * k + 1.0) / size


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
    pilot: complex
    no_noise: bool
    schedule: StepSizeSchedule
    model: dynamics.TrajectoryModel | None  # None: static with per-trial uniform x
    n_slots: int
    m0: int
    base_seed: int
    x0_mode: str = "sweep"  # sweep | fixed | true | offset | uniform-mainlobe
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
        if self.x0_mode not in ("sweep", "fixed", "true", "offset", "uniform-mainlobe"):
            raise ValueError(f"unknown x0_mode {self.x0_mode!r}")


@dataclass
class ChunkResult:
    """Per-slot metric sums over a chunk of trials, plus per-trial extras."""

    n_trials: int
    sums: dict
    sumsqs: dict
    defined: tuple
    extras: dict = field(default_factory=dict)


def trial_streams(base_seed: int, trial: int):
    """Per-trial child generators (trajectory, noise, algorithm)."""
    children = np.random.SeedSequence([base_seed, trial]).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


def _quadrature_sigma(rho: float, no_noise: bool) -> float:
    return 0.0 if no_noise else math.sqrt(1.0 / (2.0 * rho))


def _f_update_field(cfg: ArrayConfig, u: np.ndarray) -> np.ndarray:
    """-Im of the matched-beamformer response, vectorized (equals f(v, x))."""
    return np.asarray(f_gain_closed(cfg, u, 0.0))


class _SlotMetrics:
    """Accumulates per-slot sums and squared sums of the standard metrics."""

    def __init__(self, n_slots: int, defined: Sequence[str]):
        self.defined = tuple(defined)
        self.sums = {k: np.zeros(n_slots) for k in self.defined}
        self.sumsqs = {k: np.zeros(n_slots) for k in self.defined}

    def record(self, i: int, **values):
        for k, v in values.items():
            self.sums[k][i] = v.sum()
            self.sumsqs[k][i] = np.square(v).sum()


def _metric_values(cfg_data, beta, rho, x_hat, x, theta):
    psi = cfg_data.phase_factor * (x_hat - x)
    d = dirichlet(psi, cfg_data.num_antennas)
    mse_h = abs(beta) ** 2 * (2.0 * cfg_data.num_antennas - 2.0 * d.real)
    rate = np.log2(1.0 + rho * (d.real**2 + d.imag**2) / cfg_data.num_antennas)
    aoa = np.abs(np.arcsin(np.clip(x_hat, -1.0, 1.0)) - theta) * (180.0 / math.pi)
    mse_x = (x_hat - x) ** 2
    return dict(mse_h=mse_h, mse_x=mse_x, aoa_error_deg=aoa, rate=rate)


def run_chunk(setup: TrialSetup, trial_lo: int, trial_hi: int, collect: Sequence[str] = ()) -> ChunkResult:
    """Simulate trials [trial_lo, trial_hi) and return per-slot metric sums.

    ``collect`` may request per-trial arrays: ``x0_hat``, ``init_in_mainlobe``,
    ``final_estimate``, ``final_x``, ``excursion``, ``degenerate_slots``.
    """
    n_trials = trial_hi - trial_lo
    if n_trials < 1:
        raise ValueError("empty trial range")
    n = setup.n_slots
    cfg = setup.cfg_track if setup.algorithm in ("recursive", "angular") else setup.cfg_data
    cfg_d = setup.cfg_data
    m = cfg.num_antennas

    streams = [trial_streams(setup.base_seed, t) for t in range(trial_lo, trial_hi)]
    traj_rngs = [s[0] for s in streams]
    noise_rngs = [s[1] for s in streams]
    algo_rngs = [s[2] for s in streams]

    # --- trajectory -------------------------------------------------------
    model = setup.model
    if model is None:
        x_true0 = np.array([r.uniform(-1.0, 1.0) for r in traj_rngs])
        thetas = np.arcsin(x_true0)  # (T,), constant over slots
        xs = x_true0
        per_slot_traj = False
    elif isinstance(model, dynamics.Static):
        thetas = np.full(n_trials, math.asin(model.x))
        xs = np.full(n_trials, model.x)
        x_true0 = xs
        per_slot_traj = False
    elif isinstance(model, dynamics.FixedVelocity):
        th, xv = dynamics.trajectory(model, n)
        thetas, xs = th, xv  # shared (n,) arrays
        x_true0 = np.full(n_trials, math.sin(model.theta0))
        per_slot_traj = True
    else:  # SinusoidJitter: per-trial jitter realizations
        thetas = np.empty((n_trials, n))
        for k, r in enumerate(traj_rngs):
            thetas[k], _ = dynamics.trajectory(model, n, r)
        xs = np.sin(thetas)
        x_true0 = np.full(n_trials, math.sin(dynamics.initial_theta(model)))
        per_slot_traj = True

    def slot_truth(i):
        if not per_slot_traj:
            return thetas, xs
        if thetas.ndim == 1:
            return thetas[i], xs[i]
        return thetas[:, i], xs[:, i]

    # --- noise ------------------------------------------------------------
    sig1 = _quadrature_sigma(setup.stage1_rho, setup.no_noise)
    sig = _quadrature_sigma(setup.rho, setup.no_noise)
    warm = m // 2 if (setup.algorithm == "cs" and per_slot_traj) else 0
    if setup.no_noise:
        sweep_noise = np.zeros((n_trials, m), dtype=complex)
        warm_noise = np.zeros((n_trials, warm), dtype=complex)
        noise = np.zeros((n_trials, n), dtype=complex)
    else:
        total = m + warm + n
        block = np.empty((n_trials, total), dtype=complex)
        for k, r in enumerate(noise_rngs):
            raw = r.standard_normal((total, 2))
            block[k] = raw[:, 0] + 1j * raw[:, 1]
        sweep_noise = block[:, :m] * sig1
        warm_noise = block[:, m : m + warm] * sig
        noise = block[:, m + warm :] * sig

    # --- stage 1: coarse sweep -------------------------------------------
    dirs = codebook_directions(cfg)
    sweep_resp = dirichlet(cfg.phase_factor * (dirs[None, :] - x_true0[:, None]), m) / math.sqrt(m)
    sweep_obs = sweep_resp + sweep_noise
    x0_sweep = initial_estimate(cfg, sweep_obs, setup.m0)

    half_lobe = 1.0 / (m * cfg.spacing_ratio)
    if setup.x0_mode == "fixed":
        x0_hat = np.full(n_trials, float(np.clip(setup.x0_value, -1.0, 1.0)))
    elif setup.x0_mode == "true":
        x0_hat = x_true0.copy()
    elif setup.x0_mode == "offset":
        x0_hat = np.clip(x_true0 + setup.x0_value, -1.0, 1.0)
    elif setup.x0_mode == "uniform-mainlobe":
        lo_b = np.maximum(x_true0 - half_lobe, -1.0)
        hi_b = np.minimum(x_true0 + half_lobe, 1.0)
        u = np.array([r.uniform(0.0, 1.0) for r in traj_rngs])
        x0_hat = lo_b + u * (hi_b - lo_b)
    else:
        x0_hat = x0_sweep.copy()
    init_in_mainlobe = np.abs(x0_hat - x_true0) < half_lobe

    metrics = _SlotMetrics(
        n,
        METRIC_NAMES if setup.algorithm != "ls" else ("mse_h", "rate"),
    )
    track_excursion = setup.excursion_threshold_rad is not None
    excursion = np.zeros(n_trials, dtype=bool)
    degenerate_slots = np.zeros(n_trials, dtype=np.int64)

    a_sched = np.array([step_size(setup.schedule, i) for i in range(1, n + 1)])
    rho = setup.rho
    beta = setup.beta

    def note_excursion(i, theta_hat, theta_n):
        if track_excursion and i >= setup.excursion_burn_in:
            np.logical_or(excursion, np.abs(theta_hat - theta_n) > setup.excursion_threshold_rad, out=excursion)

    x_hat = x0_hat.copy()

    if setup.algorithm == "recursive":
        v = x0_hat.copy()
        for i in range(n):
            theta_n, x_n = slot_truth(i)
            im_y = -_f_update_field(cfg, v - x_n) + noise[:, i].imag
            v = np.clip(v - a_sched[i] * im_y, -1.0, 1.0)
            vals = _metric_values(cfg_d, beta, rho, v, x_n, theta_n)
            metrics.record(i, **vals)
            note_excursion(i, np.arcsin(np.clip(v, -1, 1)), theta_n)
        x_hat = v

    elif setup.algorithm == "angular":
        th = np.arcsin(np.clip(x0_hat, -1.0, 1.0))
        for i in range(n):
            theta_n, x_n = slot_truth(i)
            c = np.cos(th)
            degenerate = np.abs(c) < COS_GUARD
            degenerate_slots += degenerate
            gain = np.copysign(np.maximum(np.abs(c), COS_GUARD), np.where(c == 0.0, 1.0, c))
            v = np.sin(th)
            im_y = -_f_update_field(cfg, v - x_n) + noise[:, i].imag
            th = np.clip(th - a_sched[i] / gain * im_y, -_HALF_PI, _HALF_PI)
            x_hat = np.sin(th)
            vals = _metric_values(cfg_d, beta, rho, x_hat, x_n, theta_n)
            metrics.record(i, **vals)
            note_excursion(i, th, theta_n)

    elif setup.algorithm == "ls":
        p = setup.pilot
        pb = p * beta
        wt = sweep_matrix(cfg)
        buf = pb * sweep_obs  # warm start: stage-1 sweep is one full probe cycle
        counts = np.ones(m)
        accumulate = not per_slot_traj  # static mode averages every sweep
        ant = cfg.antenna_indices
        for i in range(n):
            theta_n, x_n = slot_truth(i)
            j = i % m
            resp = dirichlet(cfg.phase_factor * (dirs[j] - x_n), m) / math.sqrt(m)
            r_new = pb * (resp + noise[:, i])
            if accumulate:
                buf[:, j] += r_new
                counts[j] += 1.0
            else:
                buf[:, j] = r_new
            h_hat = ((buf / counts) @ wt.T) / p
            a_true = np.exp(-1j * cfg.phase_factor * np.multiply.outer(x_n, ant))
            diff = h_hat - beta * a_true
            mse_h = np.sum(diff.real**2 + diff.imag**2, axis=1)
            w_data = np.exp(1j * np.angle(h_hat)) / math.sqrt(m)
            resp_data = np.einsum("tm,tm->t", w_data.conj(), np.broadcast_to(a_true, h_hat.shape))
            rate = np.log2(1.0 + rho * (resp_data.real**2 + resp_data.imag**2))
            metrics.record(i, mse_h=mse_h, rate=rate)

    elif setup.algorithm == "cs":
        grid = cs_dictionary()
        atoms = np.exp(-1j * cfg.phase_factor * np.outer(cfg.antenna_indices, grid))
        window = (m // 2) if per_slot_traj else None
        probes = np.empty((n_trials, warm + n, m), dtype=np.int8)
        for k, r in enumerate(algo_rngs):
            probes[k] = r.integers(0, 4, size=(warm + n, m))
        corr = np.zeros((n_trials, grid.size), dtype=complex)
        norm2 = np.zeros((n_trials, grid.size))
        history: list[tuple[np.ndarray, np.ndarray]] = []

        def sound(slot_idx, x_n):
            w = _CS_ALPHABET[probes[:, slot_idx, :]] / math.sqrt(m)
            if np.isscalar(x_n) or np.ndim(x_n) == 0:
                a_x = np.exp(-1j * cfg.phase_factor * cfg.antenna_indices * float(x_n))
                resp = w.conj() @ a_x
            else:
                a_x = np.exp(-1j * cfg.phase_factor * np.multiply.outer(x_n, cfg.antenna_indices))
                resp = np.einsum("tm,tm->t", w.conj(), a_x)
            return w, resp

        def accumulate(w, y):
            s_row = w.conj() @ atoms
            contrib = s_row.conj() * y[:, None]
            contrib_n = s_row.real**2 + s_row.imag**2
            np.add(corr, contrib, out=corr)
            np.add(norm2, contrib_n, out=norm2)
            if window is not None:
                history.append((contrib, contrib_n))
                if len(history) > window:
                    old_c, old_n = history.pop(0)
                    np.subtract(corr, old_c, out=corr)
                    np.subtract(norm2, old_n, out=norm2)

        for k in range(warm):
            w, resp = sound(k, x_true0)
            accumulate(w, resp + warm_noise[:, k])

        for i in range(n):
            theta_n, x_n = slot_truth(i)
            w, resp = sound(warm + i, x_n)
            accumulate(w, resp + noise[:, i])
            scores = (corr.real**2 + corr.imag**2) / np.maximum(norm2, 1e-300)
            x_hat = grid[np.argmax(scores, axis=1)]
            vals = _metric_values(cfg_d, beta, rho, x_hat, x_n, theta_n)
            metrics.record(i, **vals)
            note_excursion(i, np.arcsin(np.clip(x_hat, -1, 1)), theta_n)

    elif setup.algorithm == "wlan":
        best = np.argmax(np.abs(sweep_obs), axis=1)
        period = 3
        offsets = (-1, 0, 1)
        phase = 0
        run_mag = np.full(n_trials, -np.inf)
        run_idx = best.copy()
        for i in range(n):
            theta_n, x_n = slot_truth(i)
            idx = np.clip(best + offsets[phase % 3], 0, m - 1)
            resp = dirichlet(cfg.phase_factor * (dirs[idx] - x_n), m) / math.sqrt(m)
            y = resp + noise[:, i]
            mag = np.abs(y)
            better = mag > run_mag
            run_mag = np.where(better, mag, run_mag)
            run_idx = np.where(better, idx, run_idx)
            phase += 1
            if phase >= period:
                best = run_idx.copy()
                phase = 0
                run_mag.fill(-np.inf)
            x_hat = dirs[best]
            vals = _metric_values(cfg_d, beta, rho, x_hat, x_n, theta_n)
            metrics.record(i, **vals)
            note_excursion(i, np.arcsin(np.clip(x_hat, -1, 1)), theta_n)

    else:  # kf
        q = setup.kf_q
        if q is None:
            omega = model.omega if isinstance(model, dynamics.FixedVelocity) else 0.0
            q = kf_default_process_noise(omega)
        r_var = 1.0 / (2.0 * rho)
        th = np.arcsin(np.clip(x0_hat, -1.0, 1.0))
        p_var = np.full(n_trials, setup.kf_p0)
        phi = cfg.phase_factor
        for i in range(n):
            theta_n, x_n = slot_truth(i)
            sgn = 1.0 if i % 2 == 0 else -1.0
            th_p = np.clip(th + sgn * KF_OFFSET_RAD, -_HALF_PI, _HALF_PI)
            vp = np.sin(th_p)
            resp = dirichlet(phi * (vp - x_n), m) / math.sqrt(m)
            y = resp + noise[:, i]
            p_pred = p_var + q
            xp = np.sin(th)
            zp = dirichlet(phi * (vp - xp), m) / math.sqrt(m)
            g = weighted_dirichlet(phi * (vp - xp), m)
            jac = -1j * phi * np.cos(th) * g / math.sqrt(m)
            jac2 = jac.real**2 + jac.imag**2
            p_var = 1.0 / (1.0 / p_pred + jac2 / r_var)
            th = th + (p_var / r_var) * (jac.conj() * (y - zp)).real
            bad = ~np.isfinite(th) | (p_pred > KF_P_VAR_MAX)
            if bad.any():
                th = np.where(bad, np.clip(th, -_HALF_PI, _HALF_PI), th)
                th = np.where(np.isfinite(th), th, 0.0)
            th = np.clip(th, -_HALF_PI, _HALF_PI)
            x_hat = np.sin(th)
            vals = _metric_values(cfg_d, beta, rho, x_hat, x_n, theta_n)
            metrics.record(i, **vals)
            note_excursion(i, th, theta_n)

    theta_f, x_f = slot_truth(n - 1)
    extras = {}
    for name in collect:
        if name == "x0_hat":
            extras[name] = x0_hat
        elif name == "init_in_mainlobe":
            extras[name] = init_in_mainlobe
        elif name == "final_estimate":
            extras[name] = np.asarray(x_hat, dtype=float).copy()
        elif name == "final_x":
            extras[name] = np.broadcast_to(np.asarray(x_f, dtype=float), (n_trials,)).copy()
        elif name == "excursion":
            extras[name] = excursion
        elif name == "degenerate_slots":
            extras[name] = degenerate_slots
        else:
            raise ValueError(f"unknown collect key {name!r}")

    return ChunkResult(
        n_trials=n_trials,
        sums=metrics.sums,
        sumsqs=metrics.sumsqs,
        defined=metrics.defined,
        extras=extras,
    )
