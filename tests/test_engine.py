import math

import numpy as np
import pytest

from beamtrack import dynamics
from beamtrack.arrays import ArrayConfig
from beamtrack.engine import TrialSetup, run_chunk
from beamtrack.trackers import DiminishingStep, FixedStep, alpha_star

import reference

PILOT = (1 - 1j) / math.sqrt(2)
BETA = (1 + 1j) / math.sqrt(2)
CFG8 = ArrayConfig(8, 0.5)


def base_setup(**over):
    kw = dict(
        algorithm="recursive",
        cfg_track=CFG8,
        cfg_data=CFG8,
        rho=10.0,
        stage1_rho=10.0,
        beta=BETA,
        pilot=PILOT,
        no_noise=False,
        schedule=DiminishingStep(alpha_star(CFG8)),
        model=dynamics.Static(0.35),
        n_slots=150,
        m0=16,
        base_seed=202,
    )
    kw.update(over)
    return TrialSetup(**kw)


class TestOpLevelParity:
    @pytest.mark.parametrize("algorithm", ["recursive", "angular"])
    def test_tracker_matches_per_trial_runner(self, algorithm):
        # the vectorized slot loop reproduces the scalar reference trial by
        # trial when fed the same per-trial noise stream
        setup = base_setup(algorithm=algorithm)
        n_trials = 8
        res = run_chunk(setup, 0, n_trials)
        sums = {k: np.zeros(setup.n_slots) for k in res.sums}
        for t in range(n_trials):
            series, _ = reference.replay(setup, t)
            for k in sums:
                sums[k] += series[k]
        for k in sums:
            np.testing.assert_allclose(res.sums[k], sums[k], rtol=1e-8, atol=1e-10)

    def test_no_noise_skips_draws(self):
        setup = base_setup(no_noise=True, x0_mode="true")
        res1 = run_chunk(setup, 0, 4)
        res2 = run_chunk(setup, 0, 4)
        for k in res1.sums:
            np.testing.assert_array_equal(res1.sums[k], res2.sums[k])

    def test_ls_matches_reference_model(self):
        # noise-free: the vectorized LS produces an exact channel estimate and
        # the capacity-achieving rate from the first slot (warm-started sweep)
        setup = base_setup(algorithm="ls", no_noise=True)
        res = run_chunk(setup, 0, 3)
        assert res.sums["mse_h"] == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(res.sums["rate"] / 3, math.log2(1 + 80), rtol=1e-12)

    def test_wlan_noise_free_floor(self):
        setup = base_setup(algorithm="wlan", no_noise=True)
        res = run_chunk(setup, 0, 2, collect=("final_estimate",))
        # locked to the nearest codebook direction: quantized error below 1/M
        assert np.all(np.abs(res.extras["final_estimate"] - 0.35) <= 1.0 / 8 + 1e-12)

    def test_kf_noise_free_converges(self):
        setup = base_setup(algorithm="kf", no_noise=True, x0_mode="true")
        res = run_chunk(setup, 0, 2)
        assert res.sums["mse_x"][-1] / 2 < 1e-8


class TestChunkInvariance:
    def test_split_equals_whole(self):
        setup = base_setup(n_slots=80)
        whole = run_chunk(setup, 0, 60, collect=("final_estimate",))
        a = run_chunk(setup, 0, 25, collect=("final_estimate",))
        b = run_chunk(setup, 25, 60, collect=("final_estimate",))
        for k in whole.sums:
            np.testing.assert_allclose(whole.sums[k], a.sums[k] + b.sums[k], rtol=1e-12)
        np.testing.assert_array_equal(
            whole.extras["final_estimate"],
            np.concatenate([a.extras["final_estimate"], b.extras["final_estimate"]]),
        )

    def test_trial_content_independent_of_chunking(self):
        setup = base_setup(n_slots=40)
        solo = run_chunk(setup, 7, 8, collect=("final_estimate",))
        grouped = run_chunk(setup, 0, 16, collect=("final_estimate",))
        assert solo.extras["final_estimate"][0] == grouped.extras["final_estimate"][7]


class TestInitializationModes:
    def test_fixed(self):
        setup = base_setup(x0_mode="fixed", x0_value=0.11, n_slots=1, no_noise=True)
        res = run_chunk(setup, 0, 5, collect=("x0_hat",))
        np.testing.assert_array_equal(res.extras["x0_hat"], 0.11)

    def test_true(self):
        setup = base_setup(x0_mode="true", model=None, n_slots=1)
        res = run_chunk(setup, 0, 5, collect=("x0_hat", "final_x", "init_in_mainlobe"))
        np.testing.assert_array_equal(res.extras["x0_hat"], res.extras["final_x"])
        assert res.extras["init_in_mainlobe"].all()

    def test_offset(self):
        setup = base_setup(x0_mode="offset", x0_value=-0.05, model=None, n_slots=1)
        res = run_chunk(setup, 0, 50, collect=("x0_hat", "final_x"))
        np.testing.assert_allclose(
            res.extras["x0_hat"],
            np.clip(res.extras["final_x"] - 0.05, -1, 1),
            atol=1e-15,
        )

    def test_uniform_mainlobe(self):
        setup = base_setup(x0_mode="uniform-mainlobe", model=None, n_slots=1)
        res = run_chunk(setup, 0, 200, collect=("x0_hat", "final_x", "init_in_mainlobe"))
        assert res.extras["init_in_mainlobe"].all()

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            base_setup(x0_mode="bogus")


class TestExcursionTracking:
    def test_counts_only_after_burn_in(self):
        theta = math.radians(60.0)
        model = dynamics.Static(math.sin(theta))
        # start inside the mainlobe but with a transient angular error above
        # the threshold: counted without burn-in, gone after it
        kw = dict(
            model=model,
            x0_mode="fixed",
            x0_value=0.7,
            schedule=FixedStep(alpha_star(CFG8)),
            excursion_threshold_rad=0.2,
            n_slots=400,
        )
        res = run_chunk(base_setup(excursion_burn_in=100, **kw), 0, 20, collect=("excursion",))
        assert not res.extras["excursion"].any()
        # the first update already contracts the error, so not every trial
        # trips the threshold, but most do when the transient is counted
        res = run_chunk(base_setup(excursion_burn_in=0, **kw), 0, 20, collect=("excursion",))
        assert res.extras["excursion"].mean() >= 0.8


class TestBaselineStreamParity:
    """The vectorized baselines reproduce the scalar reference updates when
    fed the same per-trial noise stream."""

    def test_wlan_matches_update_function(self):
        setup = base_setup(algorithm="wlan", n_slots=60)
        n_trials = 4
        res = run_chunk(setup, 0, n_trials, collect=("final_estimate",))
        finals = []
        rates = np.zeros(setup.n_slots)
        for t in range(n_trials):
            series, final = reference.replay(setup, t)
            rates += series["rate"]
            finals.append(final)
        np.testing.assert_allclose(res.extras["final_estimate"], finals, atol=1e-12)
        np.testing.assert_allclose(res.sums["rate"], rates, rtol=1e-9)

    def test_kf_matches_update_function(self):
        setup = base_setup(algorithm="kf", n_slots=60)
        n_trials = 4
        res = run_chunk(setup, 0, n_trials, collect=("final_estimate",))
        finals = [reference.replay(setup, t)[1] for t in range(n_trials)]
        np.testing.assert_allclose(res.extras["final_estimate"], finals, atol=1e-9)
