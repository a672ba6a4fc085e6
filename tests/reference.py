"""Scalar per-trial reference loops that the engine tests compare against.

Not a test module (pytest does not collect it).  :func:`replay` re-runs one
trial of ``engine.run_chunk`` slot by slot from explicit steering vectors and
beamformers (``arrays.observe``): the same per-trial noise stream, drawn in
the engine's order (M stage-1 sweep samples, then one sample per slot), and
one update per pilot.  Deterministic trajectories only (``Static`` and
``FixedVelocity``), with the ``sweep``, ``fixed`` and ``true`` starts.
"""

from __future__ import annotations

import math

import numpy as np

from beamtrack import dynamics
from beamtrack.arrays import (
    ChannelState,
    SnrConfig,
    conjugate_beamformer,
    matched_response,
    observe,
    steering_vector,
    weighted_dirichlet,
)
from beamtrack.engine import (
    COS_GUARD,
    KF_OFFSET_RAD,
    kf_default_process_noise,
    trial_streams,
)
from beamtrack.metrics import METRIC_NAMES, aoa_error_deg
from beamtrack.trackers import codebook_directions, coarse_sweep_codebook, initial_estimate, step_size

HALF_PI = 0.5 * math.pi


def mse_h(cfg, x_hat, channel):
    """Squared channel-response error ||beta*a(x_hat) - beta*a(x)||_2^2."""
    diff = channel.beta * (steering_vector(cfg, x_hat) - steering_vector(cfg, channel.x))
    return float(np.sum(diff.real**2 + diff.imag**2))


def rate(cfg, w_data, channel, rho):
    """Achievable rate log2(1 + rho*|w^H a(x)|^2) in bits/s/Hz."""
    resp = np.vdot(w_data.weights, steering_vector(cfg, channel.x))
    return math.log2(1.0 + rho * (resp.real**2 + resp.imag**2))


def _tracking_cfg(setup):
    return setup.cfg_track if setup.algorithm in ("recursive", "angular") else setup.cfg_data


def _x_start(model):
    """Direction of the coarse sweep, as the engine takes it."""
    if isinstance(model, dynamics.Static):
        return model.x
    return math.sin(dynamics.initial_theta(model))


def stage1(setup, trial):
    """Replay one trial's coarse sweep.

    Returns (sweep observations, dictionary estimate, noise generator left
    where the slot loop starts drawing).
    """
    cfg = _tracking_cfg(setup)
    _, noise_rng, _ = trial_streams(setup.base_seed, trial)
    snr1 = SnrConfig(pilot=setup.pilot, rho=setup.stage1_rho, no_noise=setup.no_noise)
    channel = ChannelState(_x_start(setup.model), setup.beta)
    obs = np.array([observe(cfg, w, channel, snr1, noise_rng) for w in coarse_sweep_codebook(cfg)])
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
    g = complex(weighted_dirichlet(cfg.phase_factor * (v_probe - x_pred), cfg.num_antennas))
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
    if setup.x0_mode == "fixed":
        x0_hat = min(max(setup.x0_value, -1.0), 1.0)
    elif setup.x0_mode == "true":
        x0_hat = _x_start(setup.model)
    elif setup.x0_mode != "sweep":
        raise ValueError(f"no reference for x0_mode {setup.x0_mode!r}")
    snr = SnrConfig(pilot=setup.pilot, rho=setup.rho, no_noise=setup.no_noise)
    thetas, xs = dynamics.trajectory(setup.model, n)
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
        out["aoa_error_deg"][i] = aoa_error_deg(x_hat, thetas[i])
        out["rate"][i] = rate(cfg_d, conjugate_beamformer(cfg_d, x_hat), channel, setup.rho)
    return out, x_hat
