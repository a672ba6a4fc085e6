import math

import numpy as np
import pytest

from beamtrack import dynamics
from beamtrack.analysis import lipschitz_constant, mainlobe, stability_threshold
from beamtrack.arrays import ArrayConfig, f_gain_closed, steering_vector
from beamtrack.engine import TrialSetup, cs_dictionary, run_chunk
from beamtrack.trackers import (
    DiminishingStep,
    FixedStep,
    alpha_star,
    codebook_directions,
    initial_dictionary,
    initial_estimate,
    step_size,
    sweep_matrix,
)

BETA = (1 + 1j) / math.sqrt(2)
CFG8 = ArrayConfig(8, 0.5)


def setup8(**over):
    """One noise-free slot of the recursive tracker on 8 antennas."""
    kw = dict(
        algorithm="recursive", cfg_track=CFG8, cfg_data=CFG8, rho=10.0, stage1_rho=10.0,
        beta=BETA, no_noise=True, schedule=FixedStep(alpha_star(CFG8)),
        model=dynamics.Static(0.3), n_slots=1, m0=16, base_seed=0,
    )
    kw.update(over)
    return TrialSetup(**kw)


def run_one(setup, key="final_estimate", trials=1):
    return run_chunk(setup, 0, trials).extras[key]


def means(setup, lo=0, hi=1):
    """Per-slot trial means of trials [lo, hi)."""
    return run_chunk(setup, lo, hi).stats.series()


class TestCodebook:
    def test_directions_m4(self):
        np.testing.assert_allclose(codebook_directions(ArrayConfig(4, 0.5)), [-0.75, -0.25, 0.25, 0.75])

    def test_symmetric_about_zero(self):
        dirs = codebook_directions(ArrayConfig(16, 0.5))
        np.testing.assert_allclose(dirs, -dirs[::-1])

    def test_unitary_at_half_wavelength(self):
        for m in (4, 8, 16):
            wt = sweep_matrix(ArrayConfig(m, 0.5))
            np.testing.assert_allclose(wt @ wt.conj().T, np.eye(m), atol=1e-10)

    def test_not_unitary_off_half_wavelength(self):
        # why least squares, which inverts W as W^H, is limited to spacing 0.5
        m = 8
        gram = lambda d: sweep_matrix(ArrayConfig(m, d)).conj().T @ sweep_matrix(ArrayConfig(m, d))
        assert np.max(np.abs(gram(0.25) - np.eye(m))) > 0.5
        assert np.linalg.matrix_rank(sweep_matrix(ArrayConfig(m, 1.0))) == m // 2

    def test_beams_are_matched_to_directions(self):
        cfg = ArrayConfig(8, 0.5)
        for w, v in zip(sweep_matrix(cfg).T, codebook_directions(cfg)):
            assert np.vdot(w, steering_vector(cfg, v)) == pytest.approx(math.sqrt(8), abs=1e-10)


@pytest.mark.parametrize("m", [2, 3, 8, 16, 33, 64])
@pytest.mark.parametrize("d", [0.5, 0.37, 1.0])
def test_each_grid_and_step_scale_is_stated_once(m, d):
    # the sweep codebook, the CS grid and alpha* are the dictionary and 1/L
    cfg = ArrayConfig(m, d)
    np.testing.assert_array_equal(codebook_directions(cfg), initial_dictionary(m))
    np.testing.assert_array_equal(cs_dictionary(), initial_dictionary(1024))
    assert alpha_star(cfg) == 1.0 / lipschitz_constant(cfg)


class TestInitialEstimate:
    def test_dictionary_grid(self):
        np.testing.assert_allclose(initial_dictionary(4), [-0.75, -0.25, 0.25, 0.75])

    def test_noise_free_on_atom(self):
        grid = initial_dictionary(16)
        for atom in grid[::3]:
            assert run_one(setup8(model=dynamics.Static(float(atom))), "x0_hat")[0] == atom

    def test_noise_free_scan_stays_in_mainlobe(self):
        m0 = 16
        for x in np.linspace(-0.995, 0.995, 399):
            x0 = run_one(setup8(model=dynamics.Static(float(x)), m0=m0), "x0_hat")[0]
            assert abs(x0 - x) <= 1.0 / m0 + 1e-12
            lo, hi = mainlobe(CFG8, float(x))
            assert lo < x0 < hi

    def test_tie_breaks_to_smallest(self):
        obs = np.zeros(8, dtype=complex)  # all-zero scores: every atom ties
        assert initial_estimate(CFG8, obs, 16) == initial_dictionary(16)[0]
        # a (T, M) block gives one estimate per trial
        np.testing.assert_array_equal(
            initial_estimate(CFG8, np.zeros((3, 8), dtype=complex), 16), [initial_dictionary(16)[0]] * 3
        )

    def test_rejects_small_dictionary(self):
        with pytest.raises(ValueError):
            initial_estimate(CFG8, np.zeros(8, dtype=complex), 4)

    def test_stage1_snr_can_differ(self):
        # the stage-1 estimate depends on the sweep SNR only, not the tracking SNR
        model = dynamics.Static(0.3)
        x0 = [
            run_one(setup8(model=model, no_noise=False, stage1_rho=100.0, rho=rho), "x0_hat", 50)
            for rho in (1.0, 100.0)
        ]
        np.testing.assert_array_equal(x0[0], x0[1])
        assert np.all(np.abs(x0[0] - 0.3) < 0.26)


class TestStepSize:
    def test_diminishing(self):
        sched = DiminishingStep(alpha=1.0, n0=0.0)
        assert step_size(sched, 1) == 1.0
        assert step_size(sched, 10) == pytest.approx(0.1)
        assert step_size(DiminishingStep(2.0, 3.0), 5) == pytest.approx(0.25)

    def test_vanishes(self):
        assert step_size(DiminishingStep(1.0), 10**9) < 1e-8

    def test_fixed(self):
        sched = FixedStep(0.033)
        assert all(step_size(sched, n) == 0.033 for n in (1, 7, 1000))

    def test_square_summable_not_summable(self):
        n = np.arange(1, 200_000)
        a = 1.7 / (n + 3)
        assert np.sum(a) > 10  # diverging partial sums
        assert np.sum(a * a) < np.inf and np.sum(a * a) == pytest.approx(1.7**2 * 0.2838, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiminishingStep(0.0)
        with pytest.raises(ValueError):
            DiminishingStep(1.0, -1.0)
        with pytest.raises(ValueError):
            step_size(FixedStep(0.1), 0)


class TestAlphaStar:
    def test_value_m8(self):
        assert alpha_star(CFG8) == pytest.approx(1 / (2 * math.sqrt(2) * 7 * math.pi * 0.5))
        assert alpha_star(CFG8) == pytest.approx(3.216e-2, rel=1e-3)

    def test_twice_the_stability_threshold(self):
        assert alpha_star(CFG8) == pytest.approx(2 * stability_threshold(CFG8))


class TestRbtStep:
    def test_fixed_point(self):
        # matched beam: the observation is real, so the estimate stays put
        s = setup8(x0_mode="true", model=dynamics.Static(0.42), schedule=DiminishingStep(alpha_star(CFG8)))
        assert run_one(s)[0] == 0.42

    def test_moves_toward_target_in_mainlobe(self):
        x = 0.3
        lo, hi = mainlobe(CFG8, x)
        for v in np.linspace(lo + 1e-3, hi - 1e-3, 41):
            if abs(v - x) < 1e-9:
                continue
            out = run_one(setup8(model=dynamics.Static(x), x0_mode="fixed", x0_value=float(v)))[0]
            assert np.sign(out - v) == np.sign(x - v)

    def test_clamp_at_boundary(self):
        # a unit step overshoots the target at the edge; the estimate is clamped
        for x0, x in ((0.9, 1.0), (-0.9, -1.0)):
            s = setup8(model=dynamics.Static(x), x0_mode="fixed", x0_value=x0, schedule=FixedStep(1.0))
            assert run_one(s)[0] == x


class TestAngularStep:
    def test_equals_x_domain_at_zero(self):
        # same noise stream, start at broadside: one angular step equals one
        # x-domain step (gain 1/cos(0) = 1)
        out = {}
        for algo in ("recursive", "angular"):
            s = setup8(
                algorithm=algo, no_noise=False, model=dynamics.Static(0.2), x0_mode="fixed",
                x0_value=0.0, schedule=FixedStep(0.05),
            )
            out[algo] = run_one(s, trials=5)
        np.testing.assert_allclose(out["angular"], np.sin(out["recursive"]), rtol=1e-15)

    def test_gain_inflation_near_endfire(self):
        # equal observations (same v - x, noise-free) at 88 degrees and at 0:
        # the angular update is larger by 1/cos(theta_hat)
        t88 = math.radians(88.0)
        upd = []
        for x0 in (math.sin(t88), 0.0):
            s = setup8(
                algorithm="angular", model=dynamics.Static(x0 - 1e-3), x0_mode="fixed", x0_value=x0,
                schedule=FixedStep(alpha_star(CFG8)),
            )
            upd.append(math.asin(run_one(s)[0]) - math.asin(x0))
        assert upd[0] / upd[1] == pytest.approx(1 / math.cos(math.asin(math.sin(t88))), rel=1e-9)
        assert 1 / math.cos(t88) == pytest.approx(28.65, abs=0.01)

    def test_degenerate_gain_flagged_and_bounded(self):
        for x0, degenerate in ((1.0, 1), (0.5, 0)):
            s = setup8(algorithm="angular", model=dynamics.Static(0.99), x0_mode="fixed", x0_value=x0)
            res = run_chunk(s, 0, 1)
            assert res.extras["degenerate_slots"][0] == degenerate
            assert abs(res.extras["final_estimate"][0]) <= 1.0

    def test_same_asymptotic_rate_as_x_domain(self):
        # identical noise streams, moderate angle: the two recursions track the
        # same quantity at the same rate
        theta = math.radians(30.0)
        model = dynamics.Static(math.sin(theta))
        out = {}
        for algo in ("recursive", "angular"):
            setup = TrialSetup(
                algorithm=algo, cfg_track=CFG8, cfg_data=CFG8, rho=10.0, stage1_rho=10.0,
                beta=BETA, no_noise=False,
                schedule=DiminishingStep(alpha_star(CFG8)), model=model,
                n_slots=2000, m0=16, base_seed=9, x0_mode="true",
            )
            out[algo] = means(setup, 0, 300).mse_x[-1]
        assert out["angular"] == pytest.approx(out["recursive"], rel=0.2)


class TestRunTracker:
    def test_seeded_determinism(self):
        s = setup8(
            model=dynamics.Static(0.4), no_noise=False, x0_mode="sweep",
            schedule=DiminishingStep(alpha_star(CFG8)), n_slots=50, base_seed=77,
        )
        r1, r2 = means(s, 0, 3), means(s, 0, 3)
        np.testing.assert_array_equal(r1.mse_x, r2.mse_x)
        np.testing.assert_array_equal(r1.rate, r2.rate)

    def test_noise_free_monotone_convergence(self):
        s = setup8(
            x0_mode="fixed", x0_value=0.12, schedule=FixedStep(0.3 * alpha_star(CFG8)), n_slots=400,
        )
        err = np.sqrt(means(s).mse_x)
        assert np.all(np.diff(err) <= 1e-12)
        assert err[-1] < 1e-6

    def test_projection_invariant(self):
        s = setup8(
            model=dynamics.Static(0.95), no_noise=False, rho=1.0, stage1_rho=1.0, x0_mode="sweep",
            schedule=DiminishingStep(10 * alpha_star(CFG8)), n_slots=300, base_seed=1,
        )
        for t in range(4):
            # mse_x <= 4 means the estimate never left [-1, 1]
            assert np.all(means(s, t, t + 1).mse_x <= 4.0 + 1e-12)

    def test_angular_variant_runs(self):
        s = setup8(
            algorithm="angular", model=dynamics.Static(0.5), no_noise=False, x0_mode="sweep",
            n_slots=200, base_seed=2,
        )
        assert means(s, 0, 4).mse_x[-1] < 0.01

    def test_subset_tracking_rates_use_data_array(self):
        s = setup8(
            cfg_data=ArrayConfig(16, 0.5), model=dynamics.Static(0.2), x0_mode="fixed", x0_value=0.2,
            n_slots=50,
        )
        rate = means(s).rate
        assert rate[-1] == pytest.approx(math.log2(1 + 10.0 * 16), rel=1e-9)


class TestConvergenceBehavior:
    def test_all_trials_reach_the_stable_set(self):
        # diminishing steps: every trial ends within 1e-3 of a stable point or
        # a boundary after 1e5 slots.  The step scale is chosen so even the
        # shallow non-central roots (slope L/M) contract at the CLT rate.
        m, rho, trials, n_slots = 8, 10.0, 1000, 100_000
        cfg = ArrayConfig(m, 0.5)
        a0 = m * alpha_star(cfg)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, trials)
        v = rng.uniform(-1, 1, trials)
        sig = math.sqrt(1 / (2 * rho))
        for n in range(1, n_slots + 1):
            im_y = -np.asarray(f_gain_closed(cfg, v, x)) + sig * rng.standard_normal(trials)
            v = np.clip(v - (a0 / n) * im_y, -1.0, 1.0)
        spacing = 1.0 / ((m - 1) * 0.5)
        k = np.round((v - x) / spacing)
        dist = np.abs(v - (x + k * spacing))
        dist = np.minimum(dist, np.minimum(np.abs(v - 1.0), np.abs(v + 1.0)))
        assert dist.max() < 1e-3

    def test_mainlobe_starts_converge_with_high_probability(self):
        # alpha = alpha*, 10 dB: conditioned on the coarse sweep landing in the
        # mainlobe, at least 95% of trials end within half the mainlobe width
        # of the target after 1e4 slots; the failure rate is non-increasing
        # in SNR
        cfg16 = ArrayConfig(16, 0.5)
        fails = []
        for snr_db in (5.0, 10.0, 15.0):
            rho = 10 ** (snr_db / 10)
            setup = TrialSetup(
                algorithm="recursive", cfg_track=cfg16, cfg_data=cfg16, rho=rho, stage1_rho=rho,
                beta=BETA, no_noise=False,
                schedule=DiminishingStep(alpha_star(cfg16)), model=dynamics.Static(None),
                n_slots=10_000, m0=32, base_seed=55, x0_mode="sweep",
            )
            res = run_chunk(setup, 0, 1000)
            keep = res.extras["init_in_mainlobe"]
            err = np.abs(res.extras["final_estimate"] - res.extras["final_x"])[keep]
            ok = err < 1.0 / (2 * 16 * 0.5)
            fails.append(1.0 - ok.mean())
        assert 1.0 - fails[1] >= 0.95
        assert fails[0] >= fails[1] >= fails[2]
