import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack import dynamics, engine
from beamtrack.arrays import ArrayConfig
from beamtrack.engine import TrialSetup, run_chunk
from beamtrack.metrics import METRIC_NAMES
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
        res = run_chunk(setup, 0, n_trials).stats.series()
        replays = [reference.replay(setup, t)[0] for t in range(n_trials)]
        for k in METRIC_NAMES:
            expected = np.mean([series[k] for series in replays], axis=0)
            np.testing.assert_allclose(res.metric(k), expected, rtol=1e-8, atol=1e-10)

    def test_no_noise_skips_draws(self):
        setup = base_setup(no_noise=True, x0_mode="true")
        res1 = run_chunk(setup, 0, 4).stats
        res2 = run_chunk(setup, 0, 4).stats
        np.testing.assert_array_equal(res1.mean, res2.mean)
        np.testing.assert_array_equal(res1.m2, res2.m2)

    def test_ls_matches_reference_model(self):
        # noise-free: the vectorized LS produces an exact channel estimate and
        # the capacity-achieving rate from the first slot (warm-started sweep)
        setup = base_setup(algorithm="ls", no_noise=True)
        res = run_chunk(setup, 0, 3).stats.series()
        assert res.mse_h == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(res.rate, math.log2(1 + 80), rtol=1e-12)
        # least squares has no spatial-frequency estimate
        assert np.isnan(res.mse_x).all() and np.isnan(res.stderr["aoa_error_deg"]).all()

    def test_wlan_noise_free_floor(self):
        setup = base_setup(algorithm="wlan", no_noise=True)
        res = run_chunk(setup, 0, 2, collect=("final_estimate",))
        # locked to the nearest codebook direction: quantized error below 1/M
        assert np.all(np.abs(res.extras["final_estimate"] - 0.35) <= 1.0 / 8 + 1e-12)

    def test_kf_noise_free_converges(self):
        setup = base_setup(algorithm="kf", no_noise=True, x0_mode="true")
        res = run_chunk(setup, 0, 2).stats.series()
        assert res.mse_x[-1] < 1e-8


class TestChunkInvariance:
    def test_split_equals_whole(self):
        setup = base_setup(n_slots=80)
        whole = run_chunk(setup, 0, 60, collect=("final_estimate",))
        a = run_chunk(setup, 0, 25, collect=("final_estimate",))
        b = run_chunk(setup, 25, 60, collect=("final_estimate",))
        np.testing.assert_array_equal(
            whole.extras["final_estimate"],
            np.concatenate([a.extras["final_estimate"], b.extras["final_estimate"]]),
        )

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    def test_merged_stats_equal_whole(self, sizes):
        # chunks merged in order give the one-chunk per-slot mean and M2
        setup = base_setup(n_slots=30)
        edges = np.cumsum([0] + sizes)
        parts = [run_chunk(setup, lo, hi).stats for lo, hi in zip(edges[:-1], edges[1:])]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        whole = run_chunk(setup, 0, int(edges[-1])).stats
        assert merged.count == whole.count
        np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
        np.testing.assert_allclose(merged.m2, whole.m2, rtol=1e-9)

    def test_trial_content_independent_of_chunking(self):
        setup = base_setup(n_slots=40)
        solo = run_chunk(setup, 7, 8, collect=("final_estimate",))
        grouped = run_chunk(setup, 0, 16, collect=("final_estimate",))
        assert solo.extras["final_estimate"][0] == grouped.extras["final_estimate"][7]


class TestNoiseDraw:
    def test_rows_match_the_pairwise_draw(self):
        # each row is drawn in place as interleaved (re, im) normals: bit for
        # bit the (total, 2) draw re + 1j*im of the same trial stream
        total = 41
        block = engine.draw_noise([engine.trial_streams(7, t)[1] for t in range(3)], total)
        for t in range(3):
            raw = engine.trial_streams(7, t)[1].standard_normal((total, 2))
            np.testing.assert_array_equal(block[t], raw[:, 0] + 1j * raw[:, 1])


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls to the engine's real-form Dirichlet kernel."""
    calls = []
    original = engine.dirichlet_parts

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "dirichlet_parts", counting)
    return calls


class TestOneDirichletPerStaticSlot:
    N_SLOTS = 25

    @pytest.mark.parametrize("algorithm", ["recursive", "angular"])
    @pytest.mark.parametrize(
        "over, kernels",
        [
            (dict(model=dynamics.Static(0.35)), N_SLOTS + 1),
            (dict(model=None), N_SLOTS + 1),
            (dict(model=dynamics.FixedVelocity(0.01, theta0=0.3)), 2 * N_SLOTS),
            (dict(model=dynamics.Static(0.35), cfg_data=ArrayConfig(16, 0.5)), 2 * N_SLOTS),
        ],
    )
    def test_kernel_count(self, kernel_calls, algorithm, over, kernels):
        # a static truth on one array shares each slot's metric kernel with
        # the next slot's update; a moving truth or a second array cannot
        run_chunk(base_setup(algorithm=algorithm, n_slots=self.N_SLOTS, **over), 0, 6)
        assert len(kernel_calls) == kernels

    @pytest.mark.parametrize("algorithm", ["recursive", "angular"])
    def test_static_equals_zero_velocity(self, kernel_calls, algorithm):
        # the same truth every slot, once as Static (the shared-kernel path)
        # and once as a zero-velocity trajectory (a fresh kernel per update)
        theta0 = 0.4
        runs, counts = [], []
        for model in (dynamics.Static(float(np.sin(theta0))), dynamics.FixedVelocity(0.0, theta0=theta0)):
            kernel_calls.clear()
            setup = base_setup(algorithm=algorithm, model=model, x0_mode="fixed", x0_value=0.3, n_slots=self.N_SLOTS)
            runs.append(run_chunk(setup, 0, 8, collect=("final_estimate",)))
            counts.append(len(kernel_calls))
        assert counts == [self.N_SLOTS + 1, 2 * self.N_SLOTS]
        static, moving = runs
        np.testing.assert_array_equal(static.stats.mean, moving.stats.mean)
        np.testing.assert_array_equal(static.stats.m2, moving.stats.m2)
        np.testing.assert_array_equal(static.extras["final_estimate"], moving.extras["final_estimate"])


class TestChunkMemory:
    def test_noise_block_held_once(self):
        # one (T, M + n) complex noise block, scaled in place and read through
        # views; a scaled copy kept alongside it peaked at 36.0 MB here
        cfg = ArrayConfig(16, 0.5)
        n_trials, n_slots = 512, 2000
        setup = base_setup(cfg_track=cfg, cfg_data=cfg, m0=32, n_slots=n_slots)
        budget = n_trials * (cfg.num_antennas + n_slots) * 16  # harness._chunk_size's noise budget
        tracemalloc.start()
        try:
            run_chunk(setup, 0, n_trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * budget


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

    def test_rejects_unknown(self, monkeypatch):
        for mode in ("bogus", "offset", "uniform-mainlobe"):
            with pytest.raises(ValueError):
                base_setup(x0_mode=mode)
        # a bad collect key fails before any trial stream is drawn
        calls = []
        original = engine.trial_streams
        monkeypatch.setattr(engine, "trial_streams", lambda *a: calls.append(a) or original(*a))
        for collect in (("bogus",), ("x0_hat", "bogus")):
            with pytest.raises(ValueError, match="bogus"):
                run_chunk(base_setup(n_slots=1), 0, 4, collect=collect)
        assert calls == []
        run_chunk(base_setup(n_slots=1), 0, 2, collect=("x0_hat",))
        assert len(calls) == 2


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
        replays = [reference.replay(setup, t) for t in range(n_trials)]
        rates = np.mean([series["rate"] for series, _ in replays], axis=0)
        np.testing.assert_allclose(res.extras["final_estimate"], [f for _, f in replays], atol=1e-12)
        np.testing.assert_allclose(res.stats.series().rate, rates, rtol=1e-9)

    def test_kf_matches_update_function(self):
        setup = base_setup(algorithm="kf", n_slots=60)
        n_trials = 4
        res = run_chunk(setup, 0, n_trials, collect=("final_estimate",))
        finals = [reference.replay(setup, t)[1] for t in range(n_trials)]
        np.testing.assert_allclose(res.extras["final_estimate"], finals, atol=1e-9)
