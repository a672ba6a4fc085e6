"""Scalar per-pilot signal model and per-trial reference loops.

Not a test module (pytest does not collect it).  The first half is the
explicit per-pilot model -- channel state, SNR, one observation per
beamformer -- that the vectorized engine replaces with closed forms; the
tests check it against the closed forms in :mod:`beamtrack.arrays`.

:func:`replay` re-runs one trial of ``engine.run_chunk`` slot by slot from
explicit steering vectors and beamformers (:func:`observe`): the same
per-trial noise stream, drawn in the engine's order (M stage-1 sweep
samples, then one sample per slot), and one update per pilot.
Deterministic trajectories only (``Static`` and ``FixedVelocity``), with
the ``sweep``, ``fixed`` and ``true`` starts.

:func:`cs_chunk` runs the compressed-sensing sounder over a chunk of trials
on explicit 1024-atom correlation sums, which the engine's per-trial (T, M)
statistic must reproduce atom for atom.

Both draw from :func:`trial_streams`, built by numpy's own SeedSequence, so
the parity tests also check the engine's vectorised seed hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from beamtrack import dynamics
from beamtrack.arrays import (
    ArrayConfig,
    BeamformingVector,
    array_response,
    complex_noise,
    conjugate_beamformer,
    dirichlet,
    dirichlet_parts,
    steering_vector,
    weighted_dirichlet,
)
from beamtrack.engine import (
    ALGORITHM,
    COS_GUARD,
    KF_OFFSET_RAD,
    NOISE,
    TRAJECTORY,
    cs_dictionary,
    kf_default_process_noise,
)
from beamtrack.metrics import METRIC_NAMES, SlotStats, write_slot_metrics
from beamtrack.trackers import codebook_directions, initial_estimate, step_size

HALF_PI = 0.5 * math.pi


# ---------------------------------------------------------------------------
# per-pilot signal model


@dataclass(frozen=True)
class ChannelState:
    """Hidden state being tracked: spatial frequency x and complex gain beta."""

    x: float
    beta: complex

    def __post_init__(self):
        if not -1.0 <= self.x <= 1.0:
            raise ValueError(f"spatial frequency x must lie in [-1, 1], got {self.x!r}")
        if self.beta == 0:
            raise ValueError("channel gain beta must be nonzero")


@dataclass(frozen=True)
class SnrConfig:
    """Pilot symbol and per-antenna linear SNR.

    The per-antenna noise power is always derived as sigma^2 = |p*beta|^2/rho
    and never stored.  ``no_noise=True`` is the explicit noise-free mode
    (an infinite-SNR sentinel): observations are returned exactly, while
    ``rho`` keeps its finite value for likelihood and rate computations.
    """

    pilot: complex
    rho: float
    no_noise: bool = False

    def __post_init__(self):
        if abs(self.pilot) == 0:
            raise ValueError("pilot must have |p| > 0")
        if not self.rho > 0:
            raise ValueError(f"rho must be > 0, got {self.rho!r}")

    @classmethod
    def from_db(cls, snr_db: float, pilot: complex = 1.0 + 0.0j, no_noise: bool = False) -> "SnrConfig":
        return cls(pilot=pilot, rho=10.0 ** (snr_db / 10.0), no_noise=no_noise)

    def noise_sigma(self, beta: complex) -> float:
        """Per-antenna noise standard deviation sigma = |p*beta|/sqrt(rho)."""
        if self.no_noise:
            return 0.0
        return abs(self.pilot * beta) / math.sqrt(self.rho)


def from_weights(w) -> BeamformingVector:
    """Beamformer from realized weights, validating the unit-modulus constraint."""
    w = np.asarray(w, dtype=complex)
    if not np.allclose(np.abs(w), 1.0 / math.sqrt(w.size), rtol=0, atol=1e-9):
        raise ValueError("weights must all have modulus 1/sqrt(M)")
    return BeamformingVector(np.angle(w))


def matched_response(cfg: ArrayConfig, v, x):
    """Noise-free observation w^H a(x) under the matched beamformer at v.

    Equals (1/sqrt(M)) * a(v)^H a(x); vectorized over v and x.
    """
    m = cfg.num_antennas
    psi = cfg.phase_factor * (np.asarray(v, dtype=float) - np.asarray(x, dtype=float))
    return dirichlet(psi, m) / math.sqrt(m)


def observe(cfg, w, channel, snr, rng=None) -> complex:
    """Normalized received pilot y = w^H a(x) + z/sqrt(rho).

    In noise-free mode the response is returned exactly and the generator
    is not consumed.
    """
    mean = array_response(w, cfg, channel.x)
    if snr.no_noise:
        return mean
    if rng is None:
        raise ValueError("rng is required unless snr.no_noise is set")
    return mean + complex_noise(rng, 1.0 / math.sqrt(snr.rho))


def received_signal(cfg, w, channel, snr, rng=None) -> complex:
    """Raw combined pilot r = p*beta*w^H a(x) + sigma*z."""
    mean = snr.pilot * channel.beta * array_response(w, cfg, channel.x)
    sigma = snr.noise_sigma(channel.beta)
    if sigma == 0.0:
        return mean
    if rng is None:
        raise ValueError("rng is required unless snr.no_noise is set")
    return mean + complex_noise(rng, sigma)


def normalize(r: complex, pilot: complex, beta: complex) -> complex:
    """Normalize a raw pilot: y = r/(p*beta); rejects p = 0 or beta = 0."""
    if pilot == 0 or beta == 0:
        raise ValueError("cannot normalize with zero pilot or zero beta")
    return r / (pilot * beta)


def channel_deriv_norm_sq(cfg: ArrayConfig, beta: complex) -> float:
    """||d(beta*a(x))/dx||_2^2 = |beta|^2 * (2*pi*d/lambda)^2 * M(M-1)(2M-1)/6.

    Independent of x; the local factor converting spatial-frequency MSE into
    channel-response MSE.
    """
    m = cfg.num_antennas
    return abs(beta) ** 2 * cfg.phase_factor**2 * (m - 1) * m * (2 * m - 1) / 6.0


# ---------------------------------------------------------------------------
# per-trial reference loops


def mse_h(cfg, x_hat, channel):
    """Squared channel-response error ||beta*a(x_hat) - beta*a(x)||_2^2."""
    diff = channel.beta * (steering_vector(cfg, x_hat) - steering_vector(cfg, channel.x))
    return float(np.sum(diff.real**2 + diff.imag**2))


def rate(cfg, w_data, channel, rho):
    """Achievable rate log2(1 + rho*|w^H a(x)|^2) in bits/s/Hz."""
    resp = np.vdot(w_data.weights, steering_vector(cfg, channel.x))
    return math.log2(1.0 + rho * (resp.real**2 + resp.imag**2))


def trial_streams(base_seed, trials, kind):
    """Child ``kind`` of ``SeedSequence([base_seed, t])`` for every trial
    ``t``, built by numpy's SeedSequence."""
    return [np.random.default_rng(np.random.SeedSequence([base_seed, t], spawn_key=(kind,))) for t in trials]


def _tracking_cfg(setup):
    return setup.cfg_track if setup.algorithm in ("recursive", "angular") else setup.cfg_data


def truth(setup):
    """One trial's start x0 and (n,) truth of a deterministic trajectory."""
    x0, xs = dynamics.trajectory(setup.model, setup.n_slots, 1)
    return float(x0[0]), np.broadcast_to(xs, (1, setup.n_slots))[0]


def stage1(setup, trial):
    """Replay one trial's coarse sweep.

    Returns (sweep observations, dictionary estimate, noise generator left
    where the slot loop starts drawing).
    """
    cfg = _tracking_cfg(setup)
    [noise_rng] = trial_streams(setup.base_seed, [trial], NOISE)
    # observe() returns the normalised pilot, which the pilot value leaves alone
    snr1 = SnrConfig(pilot=1.0, rho=setup.stage1_rho, no_noise=setup.no_noise)
    channel = ChannelState(truth(setup)[0], setup.beta)
    beams = [conjugate_beamformer(cfg, v) for v in codebook_directions(cfg)]
    obs = np.array([observe(cfg, w, channel, snr1, noise_rng) for w in beams])
    return obs, float(initial_estimate(cfg, obs, setup.m0)), noise_rng


def kf_step(cfg, snr, channel, theta, p_var, q, slot, rng):
    """One EKF update with the probe +-3.5 degrees off the current AoA.

    Divergence is handled as the engine does: a NaN estimate restarts at 0,
    and the estimate is clipped to [-pi/2, pi/2].
    """
    sign = 1.0 if slot % 2 == 0 else -1.0
    v_probe = math.sin(min(max(theta + sign * KF_OFFSET_RAD, -HALF_PI), HALF_PI))
    y = observe(cfg, conjugate_beamformer(cfg, v_probe), channel, snr, rng)

    p_pred = p_var + q
    x_pred = math.sin(theta)
    z_pred = complex(matched_response(cfg, v_probe, x_pred))
    g = complex(weighted_dirichlet(cfg.phase_factor * (v_probe - x_pred), cfg.num_antennas)[1])
    jac = -1j * cfg.phase_factor * math.cos(theta) * g / math.sqrt(cfg.num_antennas)
    r = 1.0 / (2.0 * snr.rho)
    p_var = 1.0 / (1.0 / p_pred + (jac.real**2 + jac.imag**2) / r)
    theta = theta + (p_var / r) * (jac.conjugate() * (y - z_pred)).real
    theta = 0.0 if math.isnan(theta) else min(max(theta, -HALF_PI), HALF_PI)
    return theta, p_var


def replay(setup, trial):
    """Per-slot metrics of one trial of ``run_chunk(setup, ...)``.

    Returns (dict of per-slot metric arrays, final estimate of x).
    """
    algo = setup.algorithm
    cfg, cfg_d = _tracking_cfg(setup), setup.cfg_data
    m, n = cfg.num_antennas, setup.n_slots
    obs, x0_hat, rng = stage1(setup, trial)
    x0, xs = truth(setup)
    if setup.x0_mode == "fixed":
        x0_hat = min(max(setup.x0_value, -1.0), 1.0)
    elif setup.x0_mode == "true":
        x0_hat = x0
    elif setup.x0_mode != "sweep":
        raise ValueError(f"no reference for x0_mode {setup.x0_mode!r}")
    snr = SnrConfig(pilot=1.0, rho=setup.rho, no_noise=setup.no_noise)
    dirs = codebook_directions(cfg)

    est = math.asin(x0_hat) if algo in ("angular", "kf") else x0_hat
    best = int(np.argmax(np.abs(obs)))  # wlan
    run_mag, run_idx = -math.inf, best
    p_var = setup.kf_p0  # kf
    q = setup.kf_q
    if q is None:
        q = kf_default_process_noise(getattr(setup.model, "omega", 0.0))

    out = {k: np.empty(n) for k in METRIC_NAMES}
    for i in range(n):
        a_n = step_size(setup.schedule, i + 1)
        channel = ChannelState(float(xs[i]), setup.beta)
        if algo == "recursive":
            y = observe(cfg, conjugate_beamformer(cfg, est), channel, snr, rng)
            est = min(max(est - a_n * y.imag, -1.0), 1.0)
            x_hat = est
        elif algo == "angular":
            c = math.cos(est)
            gain = math.copysign(max(abs(c), COS_GUARD), c if c != 0.0 else 1.0)
            y = observe(cfg, conjugate_beamformer(cfg, math.sin(est)), channel, snr, rng)
            est = min(max(est - (a_n / gain) * y.imag, -HALF_PI), HALF_PI)
            x_hat = math.sin(est)
        elif algo == "wlan":
            # probe best-1, best, best+1 (edge-clipped); re-pick every 3 slots
            idx = min(max(best + (-1, 0, 1)[i % 3], 0), m - 1)
            mag = abs(observe(cfg, conjugate_beamformer(cfg, dirs[idx]), channel, snr, rng))
            if mag > run_mag:
                run_mag, run_idx = mag, idx
            if i % 3 == 2:
                best, run_mag = run_idx, -math.inf
            x_hat = float(dirs[best])
        elif algo == "kf":
            est, p_var = kf_step(cfg, snr, channel, est, p_var, q, i, rng)
            x_hat = math.sin(est)
        else:
            raise ValueError(f"no reference for algorithm {algo!r}")
        out["mse_h"][i] = mse_h(cfg_d, x_hat, channel)
        out["mse_x"][i] = (x_hat - channel.x) ** 2
        out["aoa_error_deg"][i] = abs(math.degrees(math.asin(x_hat) - math.asin(channel.x)))
        out["rate"][i] = rate(cfg_d, conjugate_beamformer(cfg_d, x_hat), channel, setup.rho)
    return out, x_hat


def cs_chunk(setup, trial_lo, trial_hi):
    """The compressed-sensing sounder over trials [trial_lo, trial_hi), on the grid.

    Each sounding y = w^H a(x) + noise adds its whole 1024-atom correlation
    conj(w^H A)*y and normaliser |w^H A|^2 to running grid sums; on a moving
    trajectory the last M/2 contributions are kept in a list and the oldest
    is subtracted again.  Same draws as ``engine.run_chunk``: trajectory,
    noise block (M stage-1 samples, the M/2-sample warm-up on a moving
    trajectory, one sample per slot), then (warm-up + n) x M probe indices.

    Returns the (T, n) per-slot estimates and the true x: (n,) for a
    trajectory shared by every trial, else (T, n).
    """
    cfg = setup.cfg_data
    m, n, phi = cfg.num_antennas, setup.n_slots, cfg.phase_factor
    t = trial_hi - trial_lo
    traj_rngs, noise_rngs, algo_rngs = (
        trial_streams(setup.base_seed, range(trial_lo, trial_hi), kind) for kind in (TRAJECTORY, NOISE, ALGORITHM)
    )
    moving = dynamics.moving(setup.model)
    x0, xs = dynamics.trajectory(setup.model, n, t, traj_rngs)
    warm = m // 2 if moving else 0
    noise = np.zeros((t, m + warm + n), dtype=complex)
    if not setup.no_noise:
        for k, r in enumerate(noise_rngs):
            raw = r.standard_normal((m + warm + n, 2))
            noise[k] = raw[:, 0] + 1j * raw[:, 1]
        noise *= math.sqrt(1.0 / (2.0 * setup.rho))
    probes = np.array([r.integers(0, 4, size=(warm + n, m)) for r in algo_rngs], dtype=np.int8)

    grid = cs_dictionary()
    atoms = np.exp(-1j * phi * np.outer(cfg.antenna_indices, grid))
    corr = np.zeros((t, grid.size), dtype=complex)
    norm2 = np.zeros((t, grid.size))
    history = []
    x_hat = np.empty((t, n))
    for s in range(warm + n):
        x_s = x0 if s < warm else xs[..., s - warm]
        w = np.array([1.0, -1.0, 1j, -1j])[probes[:, s, :]] / math.sqrt(m)
        if np.ndim(x_s) == 0:
            y = w.conj() @ np.exp(-1j * phi * cfg.antenna_indices * float(x_s))
        else:
            y = np.einsum("tm,tm->t", w.conj(), np.exp(-1j * phi * np.multiply.outer(x_s, cfg.antenna_indices)))
        y = y + noise[:, m + s]
        s_row = w.conj() @ atoms
        contrib, contrib_n = s_row.conj() * y[:, None], s_row.real**2 + s_row.imag**2
        corr += contrib
        norm2 += contrib_n
        if moving:
            history.append((contrib, contrib_n))
            if len(history) > m // 2:
                old_c, old_n = history.pop(0)
                corr -= old_c
                norm2 -= old_n
        if s >= warm:
            scores = (corr.real**2 + corr.imag**2) / np.maximum(norm2, 1e-300)
            x_hat[:, s - warm] = grid[np.argmax(scores, axis=1)]
    return x_hat, xs


def cs_means(setup, trial_lo, trial_hi):
    """(per-slot MetricSeries, final estimates) of :func:`cs_chunk`.

    The metrics go through the engine's per-slot path (``write_slot_metrics``
    and ``SlotStats``) with the same argument shapes, so equal estimates give
    bit-equal means.
    """
    x_hat, xs = cs_chunk(setup, trial_lo, trial_hi)
    cfg = setup.cfg_data
    stats = SlotStats.empty(trial_hi - trial_lo, setup.n_slots)
    values = np.full((len(METRIC_NAMES), trial_hi - trial_lo), np.nan)
    kernel = np.empty((5, trial_hi - trial_lo))
    for i in range(setup.n_slots):
        x_n = xs[..., i]
        dirichlet_parts(cfg, x_hat[:, i], x_n, kernel)
        write_slot_metrics(values, cfg, x_hat[:, i], x_n, np.arcsin(x_n), kernel, setup.beta, setup.rho)
        stats.record(i, values)
    return stats.series(), x_hat[:, -1]
