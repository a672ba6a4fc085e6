"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on passing runs).  Criteria 3 and 6a assert targets that this signal model
does not reach; they fail with the measured values in the message, and the
analysis behind each shortfall is summarized in the README.
"""

import math

import numpy as np
import pytest
from scipy import optimize, stats

from beamtrack.analysis import convergence_bound, stable_points
from beamtrack.arrays import (
    ArrayConfig,
    BeamformingVector,
    complex_noise,
    conjugate_beamformer,
    f_gain,
    f_gain_closed,
    log_likelihood,
    array_response,
    steering_vector_deriv,
)
from beamtrack.crlb import fisher_information, max_fisher_information
from beamtrack.harness import ExperimentSpec, run_experiment, simulate
from beamtrack.metrics import capacity, slot_metrics
from beamtrack.trackers import alpha_star

PILOT = (1 - 1j) / math.sqrt(2)
BETA = (1 + 1j) / math.sqrt(2)


def report(num, desc, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num}: {desc} -- {detail}")
    assert passed, f"criterion {num}: {desc} -- {detail}"


@pytest.fixture(scope="module")
def static16():
    """Shared run for criteria 1-2: M=16, 10 dB, alpha*, N0=0, 1e4 trials."""
    spec = ExperimentSpec(
        kind="static-convergence", m_data=16, snr_db=10.0, pilot=PILOT, beta=BETA,
        n_slots=2000, n_trials=10_000, seed=2024,
    )
    series, extras = simulate(spec, "recursive", spec.build_model(), spec.n_trials, spec.n_slots)
    est, x_true = extras["final_estimate"], extras["final_x"]
    spacing = 1.0 / (15 * 0.5)
    converged = np.abs(est - x_true) < spacing / 2
    return dict(series=series, est=est, x_true=x_true, converged=converged, n=spec.n_slots)


def test_criterion_1_crlb_attainment(static16):
    # conditional on convergence, n * channel MSE reaches the asymptotic
    # optimum 0.0689 within +-15% at n = 2000
    n = static16["n"]
    per_trial = slot_metrics(ArrayConfig(16, 0.5), static16["est"], static16["x_true"], BETA, 10.0)["mse_h"]
    conv = static16["converged"]
    conditional = n * per_trial[conv].mean()
    unconditional = n * per_trial.mean()
    lo, hi = 0.0586, 0.0792
    report(
        1,
        "static CRLB attainment of the channel-response MSE",
        lo <= conditional <= hi,
        f"n*mse_h|converged = {conditional:.4f} in [{lo}, {hi}] "
        f"(unconditional {unconditional:.4f}, converged fraction {conv.mean():.4f}; "
        "non-converged trials are edge-aliased starts pinned at the domain boundary)",
    )


def test_criterion_2_asymptotic_normality(static16):
    n = static16["n"]
    err = math.sqrt(n) * (static16["est"] - static16["x_true"])[static16["converged"]]
    var = float(np.var(err, ddof=1))
    target = 1.0 / max_fisher_information(ArrayConfig(16, 0.5), 10.0)
    var_ok = 0.85 * target <= var <= 1.15 * target
    pval = float(stats.normaltest(err[:1000]).pvalue)
    norm_ok = pval > 0.05
    report(
        2,
        "sqrt(n)-normalized error is normal with the minimum-CRLB variance",
        var_ok and norm_ok,
        f"variance {var:.4e} vs 1/I_max {target:.4e} (ratio {var / target:.3f}), "
        f"normality p-value {pval:.3f} on 1000 samples",
    )


def test_criterion_3_initial_estimate_success():
    # coarse sweep at 0 dB with a 2M-atom dictionary: required success >= 0.999
    rates = {}
    aware = {}
    for m in (8, 16):
        spec = ExperimentSpec(
            kind="init-success-rate", m_data=m, snr_db=0.0, pilot=PILOT, beta=BETA,
            n_trials=10_000, seed=17,
        )
        _, extras = simulate(spec, "recursive", spec.build_model(), spec.n_trials, 1)
        rates[m] = float(np.mean(extras["init_in_mainlobe"]))
        half = 1.0 / (m * 0.5)
        d = extras["x0_hat"] - extras["final_x"]
        alias_ok = np.minimum(np.abs(d - 2), np.abs(d + 2)) < half
        aware[m] = float(np.mean(extras["init_in_mainlobe"] | alias_ok))
    ok = all(r >= 0.999 for r in rates.values())
    report(
        3,
        "coarse-sweep initialization lands in the mainlobe at 0 dB",
        ok,
        f"P(in mainlobe): M=8 {rates[8]:.4f}, M=16 {rates[16]:.4f} (required >= 0.999; "
        f"counting wrap-around-equivalent beams: M=8 {aware[8]:.4f}, M=16 {aware[16]:.4f}; "
        "matched-filter sidelobe flips and edge aliasing dominate at this SNR)",
    )


def test_criterion_4_stable_point_structure():
    cfg = ArrayConfig(8, 0.5)
    sp = stable_points(cfg, 0.5)
    count_ok = sp.points.size == 7
    spacing_ok = np.allclose(np.diff(sp.points), 2 / 7, atol=1e-9)
    roots_ok = True
    for v0 in sp.points:
        root = optimize.brentq(
            lambda v: f_gain(cfg, v, 0.5), v0 - 0.1 * sp.spacing, v0 + 0.1 * sp.spacing
        )
        h = 1e-7
        slope = (f_gain(cfg, root + h, 0.5) - f_gain(cfg, root - h, 0.5)) / (2 * h)
        roots_ok &= abs(root - v0) < 1e-9 and slope < 0
    report(
        4,
        "update field has exactly 7 stable points spaced 2/7 for M=8, x=0.5",
        count_ok and spacing_ok and roots_ok,
        f"count={sp.points.size}, spacing ok={spacing_ok}, verified roots={roots_ok}",
    )


def test_criterion_5_dynamic_capacity():
    spec = ExperimentSpec(
        kind="dynamic-trajectory", m_data=16, snr_db=10.0, pilot=PILOT, beta=BETA,
        traj_kind="sinusoid", n_slots=10_000, n_trials=100, seed=31,
    )
    res = run_experiment(spec)
    mean_rate = dict(((p, a), v) for p, a, v in res.summary)[("mean_rate", "recursive")]
    cap = capacity(ArrayConfig(16, 0.5), 10.0)
    report(
        5,
        "sinusoidal trajectory is tracked at >= 95% of the 7.33 bits/s/Hz capacity",
        mean_rate >= 0.95 * cap,
        f"mean rate {mean_rate:.3f} = {mean_rate / cap:.2%} of capacity {cap:.3f}",
    )


def _mean_rate_subset(omega, seed=11, trials=100):
    spec = ExperimentSpec(
        kind="dynamic-trajectory", m_data=16, m_track=8, snr_db=10.0, pilot=PILOT, beta=BETA,
        traj_kind="fixed-velocity", omega=omega, n_slots=10_000, n_trials=trials, seed=seed,
    )
    res = run_experiment(spec)
    return dict(((p, a), v) for p, a, v in res.summary)[("mean_rate", "recursive")]


def test_criterion_6a_velocity_threshold_holds():
    # 8-antenna tracking, 16-antenna data: required to hold 95% of capacity
    # at 0.064 rad/slot.  The fixed-step tracker's drift ceiling is
    # alpha* x max|f| = 0.0616 rad/slot and the 16-antenna beam is narrower
    # than the 8-antenna tracking lag, so the target is not reached.
    cap = capacity(ArrayConfig(16, 0.5), 10.0)
    rate_64 = _mean_rate_subset(0.064)
    report(
        "6a",
        "95% capacity held at 0.064 rad/slot with 8-track/16-data antennas",
        rate_64 >= 0.95 * cap,
        f"mean rate {rate_64:.3f} = {rate_64 / cap:.2%} of capacity "
        f"(deterministic tracking ceiling is 0.0616 rad/slot for M=8)",
    )


def test_criterion_6b_velocity_threshold_fails_at_2x():
    cap = capacity(ArrayConfig(16, 0.5), 10.0)
    rate_13 = _mean_rate_subset(0.13)
    report(
        "6b",
        "the 95%-capacity criterion fails by 0.13 rad/slot",
        rate_13 < 0.95 * cap,
        f"mean rate {rate_13:.3f} = {rate_13 / cap:.2%} of capacity",
    )


def test_criterion_6c_max_velocity_table():
    # single-array M=8 system and the 5-pilots-per-second convention
    spec = ExperimentSpec(
        kind="max-velocity-table", m_data=8, snr_db=10.0, pilot=PILOT, beta=BETA,
        n_slots=10_000, n_trials=50, seed=33, omega_hi=0.2, omega_tol=0.001,
    )
    res = run_experiment(spec)
    deg = dict(((p, a), v) for p, a, v in res.summary)[("max_velocity_deg_per_sec", "recursive")]
    lo, hi = 18.33 * 0.85, 18.33 * 1.15
    report(
        "6c",
        "maximum 95%-capacity velocity for M=8 lands at 18.33 deg/s within 15%",
        lo <= deg <= hi,
        f"search result {deg:.2f} deg/s, window [{lo:.2f}, {hi:.2f}]",
    )


def test_criterion_7_baseline_ordering():
    spec = ExperimentSpec(
        kind="static-convergence", m_data=16, snr_db=10.0, pilot=PILOT, beta=BETA,
        n_slots=1000, n_trials=200, seed=3,
        algorithms=("recursive", "ls", "cs", "wlan", "kf"),
    )
    res = run_experiment(spec)
    finals = {algo: res.series[algo].mse_h[-1] for algo in spec.algorithms}
    ok = all(finals["recursive"] < finals[b] for b in ("ls", "cs", "wlan", "kf"))
    report(
        7,
        "recursive tracker beats every baseline's channel MSE at n=1000",
        ok,
        " ".join(f"{a}={v:.3e}" for a, v in finals.items()),
    )


def _convergence_frequency(m, snr_db, x, x0_val, n_slots=2000, trials=10_000, seed=101):
    spec = ExperimentSpec(
        kind="static-convergence", m_data=m, snr_db=snr_db, pilot=PILOT, beta=BETA,
        x=x, n_slots=n_slots, n_trials=trials, seed=seed,
    )
    _, extras = simulate(
        spec, "recursive", spec.build_model(), trials, n_slots, x0_mode="fixed", x0_value=x0_val,
    )
    spacing = 1.0 / ((m - 1) * 0.5)
    return float(np.mean(np.abs(extras["final_estimate"] - x) < spacing / 2))


def test_criterion_8_theory_inequality():
    # the exponential lower bound never exceeds the observed convergence
    # frequency, and the failure rate is monotone in SNR
    cfg = ArrayConfig(8, 0.5)
    a_star = alpha_star(cfg)
    x = 0.0
    lines = []
    ok = True
    # bound configuration: fixed start x0 = -0.2, margin delta = 0.04, n0 = 30
    for snr_db in (5.0, 10.0, 15.0):
        rho = 10 ** (snr_db / 10)
        bound = convergence_bound(cfg, rho, a_star, 30.0, x, -0.2, 0.04)
        freq = _convergence_frequency(8, snr_db, x, -0.2)
        if bound.applicable:
            ok &= bound.value <= freq
            lines.append(f"{snr_db:g}dB: bound {bound.value:.3g} <= freq {freq:.4f}")
        else:
            lines.append(f"{snr_db:g}dB: bound n/a ({bound.reason}); freq {freq:.4f}")
    # monotonicity configuration: a start near the basin edge produces
    # informative failure rates
    fails = [1.0 - _convergence_frequency(8, db, x, -0.22) for db in (5.0, 10.0, 15.0)]
    mono = all(fails[i] >= fails[i + 1] for i in range(len(fails) - 1))
    ok &= mono
    report(
        8,
        "convergence bound is a true lower bound and failures shrink with SNR",
        ok,
        "; ".join(lines) + f"; edge-start failures at 5/10/15 dB: "
        + ", ".join(f"{f:.4f}" for f in fails),
    )


def test_criterion_9_oracle_equivalences():
    cfg = ArrayConfig(8, 0.5)
    # (a) sum form vs closed form of the update field on a 1e4-point grid
    u = np.linspace(-2, 2, 10_000)
    keep = np.abs(np.abs(u) % 2.0) > 1e-8
    gap = float(np.max(np.abs(f_gain(cfg, u[keep], 0.0) - f_gain_closed(cfg, u[keep], 0.0))))
    a_ok = gap <= 1e-10

    # (b) Fisher information vs Monte-Carlo score variance at 1e5 samples
    rho, x = 10.0, 0.15
    w = conjugate_beamformer(cfg, 0.22)
    slope = complex(np.vdot(w.weights, steering_vector_deriv(cfg, x)))
    rng = np.random.default_rng(99)
    noise = (rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)) / math.sqrt(2 * rho)
    scores = 2 * rho * (noise.conjugate() * slope).real
    fisher = fisher_information(cfg, rho, x, w)
    b_ratio = float(scores.var() / fisher)
    b_ok = abs(b_ratio - 1.0) <= 0.05

    # (c) finite-difference log-likelihood slope vs the closed form
    x0 = 0.45
    w0 = conjugate_beamformer(cfg, x0)
    rng = np.random.default_rng(5)
    c_ok = True
    worst = 0.0
    for _ in range(50):
        y = array_response(w0, cfg, x0) + complex_noise(rng, 1 / math.sqrt(rho))
        h = 1e-6
        fd = (log_likelihood(cfg, y, x0 + h, w0, rho) - log_likelihood(cfg, y, x0 - h, w0, rho)) / (2 * h)
        closed = -2 * math.sqrt(8) * 7 * math.pi * 0.5 * rho * y.imag
        rel = abs(fd - closed) / abs(closed)
        worst = max(worst, rel)
        c_ok &= rel <= 1e-6
    report(
        9,
        "update field, Fisher information, and score all match their oracles",
        a_ok and b_ok and c_ok,
        f"field forms gap {gap:.2e} (<=1e-10); score-variance ratio {b_ratio:.4f} (+-5%); "
        f"worst score slope rel err {worst:.2e} (<=1e-6)",
    )


def test_criterion_10_angular_domain_pathology():
    # near-endfire direction: the angle-domain recursion oscillates while the
    # spatial-frequency recursion stays locked.  Both start from the
    # in-mainlobe coarse atom; excursion = AoA error above the mainlobe
    # half-width (0.25 rad) after a 100-slot burn-in.
    theta = math.radians(88.0)
    frac = {}
    for algo in ("recursive", "angular"):
        spec = ExperimentSpec(
            kind="static-convergence", m_data=8, snr_db=10.0, pilot=PILOT, beta=BETA,
            x=math.sin(theta), schedule="fixed", n_slots=2000, n_trials=1000, seed=42,
        )
        _, extras = simulate(
            spec, algo, spec.build_model(), spec.n_trials, spec.n_slots,
            x0_mode="fixed", x0_value=0.9375,
            excursion_burn_in=100, excursion_threshold_rad=0.25,
        )
        frac[algo] = float(np.mean(extras["excursion"]))
    ok = frac["angular"] >= 0.10 and frac["recursive"] < 0.01
    report(
        10,
        "angle-domain tracking oscillates at 88 deg while x-domain stays stable",
        ok,
        f"excursion fraction: angular {frac['angular']:.3f} (>=0.10), "
        f"recursive {frac['recursive']:.3f} (<0.01)",
    )
