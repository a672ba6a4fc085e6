import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack import dynamics, engine
from beamtrack.arrays import ArrayConfig
from beamtrack.engine import TrialSetup, run_chunk
from beamtrack.metrics import METRIC_NAMES, slot_metrics
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
        res = run_chunk(setup, 0, 2)
        # locked to the nearest codebook direction: quantized error below 1/M
        assert np.all(np.abs(res.extras["final_estimate"] - 0.35) <= 1.0 / 8 + 1e-12)

    def test_kf_noise_free_converges(self):
        setup = base_setup(algorithm="kf", no_noise=True, x0_mode="true")
        res = run_chunk(setup, 0, 2).stats.series()
        assert res.mse_x[-1] < 1e-8


class TestChunkInvariance:
    def test_split_equals_whole(self):
        setup = base_setup(n_slots=80)
        whole = run_chunk(setup, 0, 60)
        a = run_chunk(setup, 0, 25)
        b = run_chunk(setup, 25, 60)
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

    @pytest.mark.parametrize("algorithm", engine.ALGORITHMS)
    @pytest.mark.parametrize(
        "model",
        [None, dynamics.Static(0.35), dynamics.FixedVelocity(0.01, theta0=0.3), dynamics.SinusoidJitter(period=50)],
        ids=["uniform", "static", "fixed-velocity", "sinusoid"],
    )
    def test_trial_content_independent_of_chunking(self, algorithm, model):
        # every per-trial extra of a trial is the same whichever chunk holds it
        setup = base_setup(algorithm=algorithm, model=model, n_slots=40)
        whole = run_chunk(setup, 0, 40).extras
        parts = [run_chunk(setup, lo, hi).extras
                 for lo, hi in ((0, 7), (7, 8), (8, 33), (33, 40))]
        assert parts[0].keys() == whole.keys()
        for key in whole:
            joined = np.concatenate([part[key] for part in parts])
            assert np.array_equal(joined, whole[key], equal_nan=joined.dtype.kind == "f"), key


class TestSlotMetrics:
    @pytest.mark.parametrize("algorithm", [a for a in engine.ALGORITHMS if a != "ls"])
    @pytest.mark.parametrize(
        "model",
        [None, dynamics.Static(0.35), dynamics.FixedVelocity(0.01, theta0=0.3), dynamics.SinusoidJitter(period=50)],
        ids=["uniform", "static", "fixed-velocity", "sinusoid"],
    )
    def test_last_slot_is_slot_metrics_of_the_final_estimate(self, algorithm, model):
        # one trial: the last slot's mean is the trial's value, which
        # slot_metrics recomputes from the final estimate bit for bit
        setup = base_setup(algorithm=algorithm, model=model, n_slots=40)
        res = run_chunk(setup, 3, 4)
        got = slot_metrics(setup.cfg_data, res.extras["final_estimate"], res.extras["final_x"], setup.beta, setup.rho)
        np.testing.assert_array_equal(res.stats.mean[:, -1], [got[k][0] for k in METRIC_NAMES])


class TestNoiseDraw:
    # base seeds of one to four 32-bit words, and trials at the word edges
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 5]
    TRIALS = [0, 2047, 2048, 2**31, 2**32 - 1, *range(5, 40, 3)]

    def test_streams_are_the_spawned_children(self):
        # the vectorised seed hash gives every child the PCG64 state of numpy's
        # SeedSequence([seed, t]).spawn(3)[kind]
        for seed in self.SEEDS:
            for kind in (engine.TRAJECTORY, engine.NOISE, engine.ALGORITHM):
                direct = engine.trial_streams(seed, self.TRIALS, kind)
                assert len(direct) == len(self.TRIALS)
                for t, rng in zip(self.TRIALS, direct):
                    spawned = np.random.default_rng(np.random.SeedSequence([seed, t]).spawn(3)[kind])
                    assert rng.bit_generator.state == spawned.bit_generator.state, (seed, t, kind)
                np.testing.assert_array_equal(direct[-1].standard_normal(9), spawned.standard_normal(9))
            assert engine.trial_streams(seed, [], engine.NOISE) == []

    @pytest.mark.parametrize("trials", [[2**32], [3, 2**32 + 5], [-1]])
    def test_trial_outside_one_word_raises(self, trials):
        with pytest.raises(ValueError, match="trial indices"):
            engine.trial_streams(7, trials, engine.NOISE)

    def test_rows_match_the_pairwise_draw(self):
        # each row is drawn in place as interleaved (re, im) normals: bit for
        # bit the (total, 2) draw re + 1j*im of the same trial stream
        total = 41
        block = engine.draw_noise(engine.trial_streams(7, range(3), engine.NOISE), np.zeros((3, total), complex))
        for t, rng in enumerate(engine.trial_streams(7, range(3), engine.NOISE)):
            raw = rng.standard_normal((total, 2))
            np.testing.assert_array_equal(block[t], raw[:, 0] + 1j * raw[:, 1])

    def test_block_drawn_in_pieces_is_one_draw(self):
        # the slot loop refills a reused block: each piece continues the stream
        total = 41
        whole = engine.draw_noise(engine.trial_streams(7, range(3), engine.NOISE), np.zeros((3, total), complex))
        rngs = engine.trial_streams(7, range(3), engine.NOISE)
        block = np.zeros((3, 6), complex)
        pieces = [engine.draw_noise(rngs, block[:, : total - lo]).copy() for lo in range(0, total, 6)]
        np.testing.assert_array_equal(np.concatenate(pieces, axis=1), whole)


class TestNoiseBlocks:
    MODELS = [None, dynamics.Static(0.35), dynamics.FixedVelocity(0.01, theta0=0.3), dynamics.SinusoidJitter(period=50)]
    MODEL_IDS = ["uniform", "static", "fixed-velocity", "sinusoid"]

    @pytest.mark.parametrize("algorithm", engine.ALGORITHMS)
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_block_boundaries_leave_every_value(self, monkeypatch, algorithm, model):
        # K = 1, 3 and 7 slots per noise block, with blocks ending mid-run
        n_trials = 5
        setup = base_setup(algorithm=algorithm, model=model, n_slots=23, excursion_threshold_rad=0.05)
        default = run_chunk(setup, 0, n_trials)
        for k in (1, 3, 7):
            monkeypatch.setattr(engine, "_NOISE_BLOCK", k * n_trials)
            res = run_chunk(setup, 0, n_trials)
            np.testing.assert_array_equal(res.stats.mean, default.stats.mean)
            np.testing.assert_array_equal(res.stats.m2, default.stats.m2)
            for key, value in default.extras.items():
                assert res.extras[key].dtype == value.dtype, key
                np.testing.assert_array_equal(res.extras[key], value, err_msg=key)

    @pytest.mark.parametrize("model", [dynamics.Static(0.35), dynamics.SinusoidJitter(period=50)], ids=["static", "sinusoid"])
    def test_cs_block_leaves_every_value(self, monkeypatch, model):
        # CsScorer scores _CS_BLOCK trials per matrix product; a 100-trial
        # chunk ends every block size mid-block
        setup = base_setup(algorithm="cs", model=model, n_slots=30, excursion_threshold_rad=0.05)
        default = run_chunk(setup, 0, 100)
        for b in (16, 32, 64, 128):
            monkeypatch.setattr(engine, "_CS_BLOCK", b)
            res = run_chunk(setup, 0, 100)
            np.testing.assert_array_equal(res.stats.mean, default.stats.mean)
            np.testing.assert_array_equal(res.stats.m2, default.stats.m2)
            for key, value in default.extras.items():
                assert res.extras[key].dtype == value.dtype, key
                np.testing.assert_array_equal(res.extras[key], value, err_msg=key)

    @pytest.mark.parametrize("algorithm", engine.ALGORITHMS)
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("no_noise", [False, True])
    def test_streams_built_only_when_read(self, monkeypatch, algorithm, model, no_noise):
        # trajectory children for uniform-x and jittered-sinusoid truth, noise
        # children when noise is on, algorithm children for CS
        built = {kind: 0 for kind in (engine.TRAJECTORY, engine.NOISE, engine.ALGORITHM)}
        original = engine.trial_streams

        def counting(base_seed, trials, kind):
            built[kind] += len(trials)
            return original(base_seed, trials, kind)

        monkeypatch.setattr(engine, "trial_streams", counting)
        run_chunk(base_setup(algorithm=algorithm, model=model, n_slots=4, no_noise=no_noise), 2, 5)
        random_truth = model is None or isinstance(model, dynamics.SinusoidJitter)
        assert built == {
            engine.TRAJECTORY: 3 if random_truth else 0,
            engine.NOISE: 0 if no_noise else 3,
            engine.ALGORITHM: 3 if algorithm == "cs" else 0,
        }


def count_calls(monkeypatch, name):
    """The list that each call to the engine's ``name`` appends to."""
    calls = []
    original = getattr(engine, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, name, counting)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls to the engine's real-form Dirichlet kernel."""
    return count_calls(monkeypatch, "dirichlet_parts")


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
            runs.append(run_chunk(setup, 0, 8))
            counts.append(len(kernel_calls))
        assert counts == [self.N_SLOTS + 1, 2 * self.N_SLOTS]
        static, moving = runs
        np.testing.assert_array_equal(static.stats.mean, moving.stats.mean)
        np.testing.assert_array_equal(static.stats.m2, moving.stats.m2)
        np.testing.assert_array_equal(static.extras["final_estimate"], moving.extras["final_estimate"])


class TestKalmanKernelCalls:
    N_SLOTS = 25

    @pytest.mark.parametrize("model", [dynamics.Static(0.35), dynamics.FixedVelocity(0.01, theta0=0.3)])
    def test_one_core_call_per_slot_on_the_probe_argument(self, monkeypatch, model):
        # the stage-1 sweep and each slot's observed pilot call dirichlet; the
        # predicted pilot comes with the Jacobian from weighted_dirichlet
        calls = {name: count_calls(monkeypatch, name) for name in ("dirichlet", "weighted_dirichlet")}
        run_chunk(base_setup(algorithm="kf", model=model, n_slots=self.N_SLOTS), 0, 6)
        assert {name: len(c) for name, c in calls.items()} == {
            "dirichlet": 1 + self.N_SLOTS,
            "weighted_dirichlet": self.N_SLOTS,
        }


class TestLsStaticSteering:
    def test_static_equals_zero_velocity(self, monkeypatch):
        # a static truth's steering vectors are built once per chunk, a moving
        # truth's every slot.  Static LS averages each codebook column with
        # its sweep value; without noise and over one probe cycle that average
        # is the value itself, so the two paths agree bit for bit
        calls = []
        original = engine.steering_vector

        def counting(cfg, x):
            calls.append(np.shape(x))
            return original(cfg, x)

        monkeypatch.setattr(engine, "steering_vector", counting)
        theta0 = 0.4
        m = CFG8.num_antennas
        runs, counts = [], []
        for model in (dynamics.Static(float(np.sin(theta0))), dynamics.FixedVelocity(0.0, theta0=theta0)):
            calls.clear()
            runs.append(run_chunk(base_setup(algorithm="ls", model=model, no_noise=True, n_slots=m), 0, 6))
            counts.append(len(calls))
        assert counts == [1, m]
        static, moving = runs
        np.testing.assert_array_equal(static.stats.mean, moving.stats.mean)
        np.testing.assert_array_equal(static.stats.m2, moving.stats.m2)
        for key, value in static.extras.items():
            assert moving.extras[key].dtype == value.dtype, key
            np.testing.assert_array_equal(moving.extras[key], value, err_msg=key)


class TestChunkMemory:
    @pytest.mark.parametrize("n_slots", [2000, 10_000])
    def test_noise_memory_does_not_grow_with_slots(self, n_slots):
        # the tracking noise is one reused block of engine._NOISE_BLOCK
        # samples (8.4 MB with its padding), so a 2048-trial chunk peaks at
        # about 10.6 MB at 2000 slots and 11.1 MB at 10,000, where the
        # per-slot statistics have grown
        cfg = ArrayConfig(16, 0.5)
        setup = base_setup(cfg_track=cfg, cfg_data=cfg, m0=32, n_slots=n_slots)
        tracemalloc.start()
        try:
            run_chunk(setup, 0, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize(
        "algorithm, model",
        [("recursive", None), ("ls", None), ("wlan", None), ("cs", dynamics.SinusoidJitter())],
        ids=["recursive", "ls", "wlan", "cs-moving"],
    )
    def test_stage1_buffers_freed_before_the_noise_block(self, monkeypatch, algorithm, model):
        # the head block of sweep and CS warm-up noise and the sweep's
        # observations are gone when the tracking-noise block is first drawn,
        # so they never sit beside it
        stage1, live_at_block = [], []
        draw, estimate = engine.draw_noise, engine.initial_estimate

        def drawing(rngs, out):
            if stage1:
                live_at_block.append([ref() is not None for ref in stage1])
            else:
                stage1.append(weakref.ref(out))
            return draw(rngs, out)

        def estimating(cfg, sweep_obs, m0):
            stage1.append(weakref.ref(sweep_obs))
            return estimate(cfg, sweep_obs, m0)

        monkeypatch.setattr(engine, "draw_noise", drawing)
        monkeypatch.setattr(engine, "initial_estimate", estimating)
        run_chunk(base_setup(algorithm=algorithm, model=model, n_slots=12), 0, 4)
        assert live_at_block == [[False, False]]

    def test_static_chunk_peaks_near_its_noise_block(self):
        # a 2048 x 2000 static chunk: the noise block is 8.42 MB and the
        # traced peak 10.55 MB; with the stage-1 buffers and the sweep's
        # temporaries beside the block it read 12.68 MB
        cfg = ArrayConfig(16, 0.5)
        setup = base_setup(cfg_track=cfg, cfg_data=cfg, m0=32, n_slots=2000)
        block = 2048 * (engine._NOISE_BLOCK // 2048 + 1) * 16
        tracemalloc.start()
        try:
            run_chunk(setup, 0, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - block < 3e6

    @staticmethod
    def peak_growth_per_trial(setup, n_trials):
        """Traced peak of a chunk of n_trials[1] trials less that of
        n_trials[0], per added trial."""
        peaks = []
        for count in n_trials:
            tracemalloc.start()
            try:
                run_chunk(setup, 0, count)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return (peaks[1] - peaks[0]) / (n_trials[1] - n_trials[0])

    @pytest.mark.parametrize("model", [None, dynamics.SinusoidJitter()], ids=["uniform", "sinusoid"])
    def test_cs_chunk_budget_counts_what_a_trial_adds(self, model):
        # engine.trial_bytes is the budget's count of a CS trial; it should
        # track the peak's growth per added trial at a large M, within one
        # _CS_BLOCK (it read 0.91 and 0.95 of it: what it leaves out are a
        # sounding's (T, M) arrays)
        cfg = ArrayConfig(64, 0.5)
        setup = base_setup(algorithm="cs", cfg_track=cfg, cfg_data=cfg, m0=128, model=model, n_slots=20)
        counted = engine.trial_bytes(setup)
        assert 0.85 < counted / self.peak_growth_per_trial(setup, (32, 64)) < 1.1

    def test_jittered_chunk_budget_counts_what_a_trial_adds(self):
        # a jittered truth holds 8 B a slot per trial; a sine taken into a
        # second (T, n) array doubles the peak's growth (ratio 0.505), one
        # taken in place reads 0.922
        setup = base_setup(model=dynamics.SinusoidJitter(), n_slots=2000)
        counted = engine.trial_bytes(setup)
        assert 0.85 < counted / self.peak_growth_per_trial(setup, (512, 1024)) < 1.1


class TestInitializationModes:
    def test_fixed(self):
        setup = base_setup(x0_mode="fixed", x0_value=0.11, n_slots=1, no_noise=True)
        res = run_chunk(setup, 0, 5)
        np.testing.assert_array_equal(res.extras["x0_hat"], 0.11)

    def test_true(self):
        setup = base_setup(x0_mode="true", model=None, n_slots=1)
        res = run_chunk(setup, 0, 5)
        np.testing.assert_array_equal(res.extras["x0_hat"], res.extras["final_x"])
        assert res.extras["init_in_mainlobe"].all()

    def test_rejects_unknown(self):
        for mode in ("bogus", "offset", "uniform-mainlobe"):
            with pytest.raises(ValueError):
                base_setup(x0_mode=mode)


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
        res = run_chunk(base_setup(excursion_burn_in=100, **kw), 0, 20)
        assert not res.extras["excursion"].any()
        # the first update already contracts the error, so not every trial
        # trips the threshold, but most do when the transient is counted
        res = run_chunk(base_setup(excursion_burn_in=0, **kw), 0, 20)
        assert res.extras["excursion"].mean() >= 0.8


class TestBaselineStreamParity:
    """The vectorized baselines reproduce the scalar reference updates when
    fed the same per-trial noise stream."""

    def test_wlan_matches_update_function(self):
        setup = base_setup(algorithm="wlan", n_slots=60)
        n_trials = 4
        res = run_chunk(setup, 0, n_trials)
        replays = [reference.replay(setup, t) for t in range(n_trials)]
        rates = np.mean([series["rate"] for series, _ in replays], axis=0)
        np.testing.assert_allclose(res.extras["final_estimate"], [f for _, f in replays], atol=1e-12)
        np.testing.assert_allclose(res.stats.series().rate, rates, rtol=1e-9)

    def test_kf_matches_update_function(self):
        setup = base_setup(algorithm="kf", n_slots=60)
        n_trials = 4
        res = run_chunk(setup, 0, n_trials)
        finals = [reference.replay(setup, t)[1] for t in range(n_trials)]
        np.testing.assert_allclose(res.extras["final_estimate"], finals, atol=1e-9)
