import math
import tracemalloc

import numpy as np
import pytest

from beamtrack import dynamics, engine
from beamtrack.arrays import ArrayConfig
from beamtrack.engine import ALGORITHMS, KF_OFFSET_RAD, TrialSetup, cs_dictionary, run_chunk
from beamtrack.harness import ConfigError, ExperimentSpec
from beamtrack.metrics import METRIC_NAMES
from beamtrack.trackers import DiminishingStep, alpha_star, codebook_directions

import reference

PILOT = (1 - 1j) / math.sqrt(2)
BETA = (1 + 1j) / math.sqrt(2)
CFG = ArrayConfig(16, 0.5)
DIRS = codebook_directions(CFG)
# a stationary FixedVelocity is a moving-trajectory model: LS keeps only the
# last M pilots (window mode) instead of averaging every sweep
WINDOW_037 = dynamics.FixedVelocity(0.0, theta0=math.asin(0.37))


def setup16(algorithm, **over):
    """A noise-free run of one baseline on 16 antennas."""
    kw = dict(
        algorithm=algorithm, cfg_track=CFG, cfg_data=CFG, rho=10.0, stage1_rho=10.0,
        beta=BETA, pilot=PILOT, no_noise=True, schedule=DiminishingStep(alpha_star(CFG)),
        model=dynamics.Static(0.3), n_slots=1, m0=32, base_seed=0,
    )
    kw.update(over)
    return TrialSetup(**kw)


def finals(setup, trials=1):
    return run_chunk(setup, 0, trials).extras["final_estimate"]


def means(setup, trials=1):
    """Per-slot trial means of a chunk of ``trials`` trials."""
    return run_chunk(setup, 0, trials).stats.series()


def mean_mse_h(setup, trials):
    return means(setup, trials).mse_h


class TestLeastSquares:
    # E||h_hat - h||^2 = M*|beta|^2/rho for one sweep of M pilots (unitary codebook)
    ONE_SWEEP_FLOOR = 16 * abs(BETA) ** 2 / 10.0

    def test_noise_free_exact(self):
        res = means(setup16("ls", n_slots=16))
        assert res.mse_h == pytest.approx(0.0, abs=1e-18)
        # the data beam attains the capacity from the first slot
        np.testing.assert_allclose(res.rate, math.log2(1 + 160), rtol=1e-9)

    def test_window_noise_floor(self):
        s = setup16("ls", no_noise=False, model=WINDOW_037, n_slots=32)
        assert mean_mse_h(s, 200).mean() == pytest.approx(self.ONE_SWEEP_FLOOR, rel=0.05)

    def test_all_mode_averages_sweeps(self):
        # static: the stage-1 sweep plus k pilots per beam average 1 + k sweeps
        s = setup16("ls", no_noise=False, model=dynamics.Static(0.37), n_slots=128)
        mse = mean_mse_h(s, 200)
        assert mse[15] == pytest.approx(self.ONE_SWEEP_FLOOR / 2, rel=0.1)
        assert mse[127] == pytest.approx(self.ONE_SWEEP_FLOOR / 9, rel=0.1)

    def test_seeded_determinism(self):
        s = setup16("ls", no_noise=False, rho=5.0, model=dynamics.Static(-0.2), n_slots=20, base_seed=3)
        np.testing.assert_array_equal(means(s, 3).mse_h, means(s, 3).mse_h)

    def test_final_estimate_is_nan(self):
        # LS estimates the channel, never x: no stage-1 estimate stands in for one
        for model in (dynamics.Static(0.3), WINDOW_037, None):
            final = finals(setup16("ls", no_noise=False, model=model, n_slots=20), trials=3)
            assert final.shape == (3,) and np.isnan(final).all()

    def test_rejected_off_half_wavelength(self):
        # LS inverts the sweep codebook as W^H, which is W^-1 only at spacing
        # 0.5: noise-free static LS at M = 8, x = 0.3 ended with mse_h 7.04
        # at spacing 0.25 and 8.0 (= M) at 1.0
        for spacing in (0.25, 0.75, 1.0):
            with pytest.raises(ConfigError, match="spacing_ratio"):
                ExperimentSpec(kind="static-convergence", m_data=8, spacing_ratio=spacing, algorithms=("ls",))
            ExperimentSpec(kind="static-convergence", m_data=8, spacing_ratio=spacing)


def cs_setup(m, model, n_slots):
    """A noisy CS run at 10 dB on an M-antenna array."""
    cfg = ArrayConfig(m, 0.5)
    return setup16(
        "cs", cfg_track=cfg, cfg_data=cfg, no_noise=False, schedule=DiminishingStep(alpha_star(cfg)),
        model=model, n_slots=n_slots, m0=2 * m, base_seed=11,
    )


class TestCompressedSensing:
    @pytest.mark.parametrize("m", [8, 16])
    @pytest.mark.parametrize(
        "model",
        [dynamics.FixedVelocity(0.01), dynamics.SinusoidJitter(), dynamics.Static(0.3), None],
        ids=["fixed-velocity", "sinusoid", "static", "uniform-x"],
    )
    def test_matches_grid_reference(self, m, model):
        # the (T, M) statistic picks the same atom as the 1024-atom
        # correlate/accumulate/window loop in every slot of every trial, but
        # for slot 1 of a static run: with no warm-up its one sounding scores
        # every atom |y|^2, a tie decided by rounding
        first = 1 if model is None or isinstance(model, dynamics.Static) else 0
        s = cs_setup(m, model, n_slots=60)
        res = run_chunk(s, 0, 24)
        expected, final = reference.cs_means(s, 0, 24)
        np.testing.assert_array_equal(res.extras["final_estimate"], final)
        for k in METRIC_NAMES:
            np.testing.assert_array_equal(res.stats.series().metric(k)[first:], expected.metric(k)[first:])

    @pytest.mark.parametrize("m", [8, 16])
    def test_one_sounding_scores_are_flat(self, m):
        # one sounding scores every atom |y|^2 (Cauchy-Schwarz with equality),
        # so the slot-1 pick is a tie broken by rounding.  |corr|^2 and norm2
        # are the same lag polynomial, scaled by |y|^2 in |corr|^2, and round
        # as separate rows of one product: norm2 = M + 2*Re sum_d
        # c_d*exp(j*phi*d*g) loses about eps*(M + 2*sum_d |c_d|) to
        # cancellation, so the scores are flat to 1e-12 where the probe covers
        # the atom, within that error where it nearly misses
        rng = np.random.default_rng(m)
        alpha = engine._CS_ALPHABET[rng.integers(0, 4, size=(engine._CS_BLOCK, m))]
        y = rng.standard_normal(engine._CS_BLOCK) + 1j * rng.standard_normal(engine._CS_BLOCK)
        c = np.stack([np.sum(alpha[:, d:] * alpha[:, :-d].conj(), axis=1) for d in range(1, m)], axis=1)
        scorer = engine.CsScorer(ArrayConfig(m, 0.5), cs_dictionary())
        rel = np.abs(scorer.scores(y[:, None] * alpha, c, 1) / np.abs(y[:, None]) ** 2 - 1.0)
        atoms = np.exp(-1j * math.pi * np.outer(np.arange(m), cs_dictionary()))
        norm2 = np.abs(alpha.conj() @ atoms) ** 2
        assert rel[norm2 >= m / 4].max() <= 1e-12
        cancellation = np.finfo(float).eps * (m + 2.0 * np.abs(c).sum(axis=1))[:, None] / norm2
        assert np.all(rel <= 64 * cancellation)

    @pytest.mark.parametrize("m", [2, 8, 16])
    def test_scores_match_the_definition(self, m):
        # scores of S soundings against |z @ conj(A)|^2 / sum_s |alpha_s^H A|^2
        # from explicit atoms A, for S = 2..M/2, over 6144 rows per M
        grid = cs_dictionary()
        scorer = engine.CsScorer(ArrayConfig(m, 0.5), grid)
        atoms = np.exp(-1j * math.pi * np.outer(np.arange(m), grid))
        eps = np.finfo(float).eps
        counts = range(2, max(2, m // 2) + 1)
        rows = -(-6144 // len(counts) // engine._CS_BLOCK) * engine._CS_BLOCK
        checked = 0
        for count in counts:
            rng = np.random.default_rng([m, count])
            alpha = engine._CS_ALPHABET[rng.integers(0, 4, size=(count, rows, m))]
            y = rng.standard_normal((count, rows)) + 1j * rng.standard_normal((count, rows))
            z = np.einsum("st,stm->tm", y, alpha)
            c = sum(scorer.autocorrelation(a) for a in alpha)
            for lo in range(0, rows, engine._CS_BLOCK):
                blk = slice(lo, lo + engine._CS_BLOCK)
                got = scorer.scores(z[blk], c[blk], count)
                norm2 = sum(np.abs(a[blk].conj() @ atoms) ** 2 for a in alpha)
                want = np.abs(z[blk] @ atoms.conj()) ** 2 / norm2
                # |corr|^2 = r_0 + 2*Re sum_d r_d*exp(j*phi*d*g) rounds to about
                # eps*(r_0 + 2*sum_d |r_d|), absolute, so near a null of corr
                # the score keeps only that; it is not clamped at 0
                r = scorer.autocorrelation(z[blk])
                num_err = eps * (np.sum(np.abs(z[blk]) ** 2, axis=1) + 2.0 * np.abs(r).sum(axis=1))
                covered = norm2 >= m * count / 4
                err = np.abs(got - want)
                assert np.all((err <= 1e-12 * want + 64 * num_err[:, None] / norm2)[covered])
                # the pick is the direct pick wherever the soundings cover it
                # and it wins by more than rounding: equal probes up to a
                # phase score flat (a quarter of the rows at M = 2), and an
                # uncovered pick sits at a near-null of norm2
                best = np.argmax(want, axis=1)
                runner_up = np.partition(want, -2, axis=1)[:, -2]
                clear = covered[np.arange(best.size), best] & (want.max(axis=1) - runner_up > 1e-9 * runner_up)
                np.testing.assert_array_equal(np.argmax(got, axis=1)[clear], best[clear])
                checked += clear.sum()
        assert checked >= 4096
        # an all-zero statistic scores exactly 0 everywhere and picks atom 0
        zero = np.zeros((engine._CS_BLOCK, m), dtype=complex)
        assert np.all(scorer.scores(zero, c[: engine._CS_BLOCK], counts[-1]) == 0.0)
        np.testing.assert_array_equal(scorer.pick(zero, c[: engine._CS_BLOCK], counts[-1]), grid[0])

    def test_chunk_memory_bounded(self):
        # the 1024-atom grid sums and their 8-slot window took 38.9 MB here
        s = cs_setup(16, dynamics.SinusoidJitter(), n_slots=200)
        tracemalloc.start()
        try:
            run_chunk(s, 0, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_noise_free_on_atom_exact_recovery(self):
        x_atom = float(cs_dictionary()[700])
        # ten trials, ten random probe sequences
        est = finals(setup16("cs", model=dynamics.Static(x_atom), n_slots=8), trials=10)
        np.testing.assert_array_equal(est, x_atom)

    def test_quantization_floor(self):
        # noise-free off-grid directions: mean squared error is at least the
        # uniform-quantization bound of the 1024-atom grid
        s = setup16("cs", model=None, n_slots=4, base_seed=5)
        res = run_chunk(s, 0, 600)
        errs = (res.extras["final_estimate"] - res.extras["final_x"]) ** 2
        bound = (2 / 1024) ** 2 / 12
        assert errs.mean() >= bound - 3 * errs.std() / math.sqrt(errs.size)

    def test_estimate_in_range(self):
        for n_slots in (1, 29):
            s = setup16("cs", no_noise=False, rho=0.5, model=dynamics.Static(0.93), n_slots=n_slots)
            est = finals(s, trials=20)
            assert np.all((-1.0 <= est) & (est <= 1.0))


class TestWlanSweepRefine:
    def test_noise_free_static_locks_nearest(self):
        x = 0.3
        nearest = DIRS[np.argmin(np.abs(DIRS - x))]
        res = means(setup16("wlan", model=dynamics.Static(x), n_slots=30))
        # the same beam in every slot
        np.testing.assert_array_equal(res.mse_x, (nearest - x) ** 2)
        assert abs(nearest - x) <= 1.0 / 16

    def test_recovers_after_bad_init(self):
        # a noisy sweep (-13 dB) often picks a beam next to the nearest one;
        # noise-free-like refinement (60 dB) moves it there within one period
        x = 0.3
        nearest = DIRS[np.argmin(np.abs(DIRS - x))]
        kw = dict(no_noise=False, stage1_rho=0.05, rho=1e6, model=dynamics.Static(x), base_seed=6)
        init = finals(setup16("wlan", n_slots=1, **kw), trials=100)  # no re-pick yet
        after = finals(setup16("wlan", n_slots=9, **kw), trials=100)
        adjacent = np.isclose(np.abs(init - nearest), 2.0 / 16)
        assert adjacent.sum() >= 5
        np.testing.assert_array_equal(after[adjacent], nearest)

    def test_boundary_probes_clip(self):
        # the probes of an edge beam clip to the codebook instead of wrapping
        # around (or running off the end)
        for x, edge in ((0.99, DIRS[-1]), (-0.99, DIRS[0])):
            res = means(setup16("wlan", model=dynamics.Static(x), n_slots=30))
            np.testing.assert_array_equal(res.mse_x, (edge - x) ** 2)

    def test_period_respected(self):
        # the best beam may change only at the end of each 3-slot period
        # (a noisy -13 dB sweep starts many trials off the best beam)
        kw = dict(no_noise=False, stage1_rho=0.05, model=dynamics.Static(0.125), base_seed=0)
        est = {n: finals(setup16("wlan", n_slots=n, **kw), trials=20) for n in range(1, 6)}
        np.testing.assert_array_equal(est[1], est[2])
        np.testing.assert_array_equal(est[3], est[4])
        np.testing.assert_array_equal(est[3], est[5])
        assert (est[3] != est[2]).any()


class TestKalman:
    def test_noise_free_fixed_point(self):
        s = setup16("kf", model=dynamics.Static(math.sin(0.4)), x0_mode="true", kf_q=0.0, n_slots=19)
        aoa_deg = means(s).aoa_error_deg
        assert np.all(aoa_deg <= math.degrees(1e-12))

    def test_probe_offsets_alternate(self, monkeypatch):
        assert KF_OFFSET_RAD == pytest.approx(math.radians(3.5))
        # the EKF linearizes at its probe: weighted_dirichlet(phi*(v_probe - x_pred))
        psis = []
        original = engine.weighted_dirichlet

        def recording(psi, m):
            psis.append(float(psi[0]))
            return original(psi, m)

        monkeypatch.setattr(engine, "weighted_dirichlet", recording)
        x = math.sin(0.2)
        run_chunk(setup16("kf", model=dynamics.Static(x), x0_mode="true", kf_q=0.0, n_slots=4), 0, 1)
        theta = math.asin(x)  # noise-free at the truth: the estimate stays here
        offsets = np.arcsin(np.array(psis) / CFG.phase_factor + math.sin(theta)) - theta
        np.testing.assert_allclose(offsets, KF_OFFSET_RAD * np.array([1, -1, 1, -1]), atol=1e-12)

    def test_static_mse_decreases(self):
        # Monte-Carlo mean squared AoA error shrinks over the first 50 slots
        theta = 0.3
        model = dynamics.Static(math.sin(theta))
        setup = TrialSetup(
            algorithm="kf", cfg_track=CFG, cfg_data=CFG, rho=10.0, stage1_rho=10.0,
            beta=BETA, pilot=PILOT, no_noise=False,
            schedule=DiminishingStep(alpha_star(CFG)), model=model,
            n_slots=50, m0=32, base_seed=4,
        )
        mse = means(setup, 1000).mse_x
        checkpoints = mse[[0, 9, 19, 34, 49]]
        assert np.all(np.diff(checkpoints) < 0)

    def test_divergence_matches_reference(self):
        # heavy noise (-20 dB) with the estimate started at the domain edge.
        # Without process noise the filter freezes there; with it the
        # estimate is often pinned at +-pi/2, and q = 2e6 keeps the predicted
        # variance above 1e6 on every slot, so updates overshoot endfire.  The
        # engine and the reference clip the same way.
        for q in (0.0, 1e-3, 2e6):
            s = setup16(
                "kf", no_noise=False, rho=0.01, stage1_rho=0.01, model=dynamics.Static(0.0),
                x0_mode="fixed", x0_value=math.sin(1.5707), kf_q=q, kf_p0=1e-2, n_slots=199,
            )
            res = run_chunk(s, 0, 4)
            replays = [reference.replay(s, t) for t in range(4)]
            np.testing.assert_allclose(res.extras["final_estimate"], [f for _, f in replays], atol=1e-9)
            aoa = np.stack([series["aoa_error_deg"] for series, _ in replays])
            np.testing.assert_allclose(res.stats.series().aoa_error_deg, aoa.mean(axis=0), rtol=1e-9)
            assert np.all(aoa <= 90.0 + 1e-9)
            if q > 0:
                assert np.isclose(aoa, 90.0, atol=1e-9).mean() > 0.25

    def test_integer_p0_runs_as_float(self):
        # a config may give kf_p0 as an integer; the filter state is still real
        kw = dict(no_noise=False, rho=5.0, model=dynamics.Static(0.2), kf_q=0, n_slots=9, base_seed=3)
        as_int, as_float = (run_chunk(setup16("kf", kf_p0=p0, **kw), 0, 3) for p0 in (1, 1.0))
        np.testing.assert_array_equal(as_int.stats.mean, as_float.stats.mean)
        np.testing.assert_array_equal(as_int.stats.m2, as_float.stats.m2)

    def test_seeded_determinism(self):
        s = setup16("kf", no_noise=False, rho=5.0, model=dynamics.Static(0.2), n_slots=29, base_seed=12)
        np.testing.assert_array_equal(finals(s, 3), finals(s, 3))


class TestPilotParity:
    def test_one_pilot_per_slot(self, monkeypatch):
        # each trial's noise stream advances by exactly 2 normals per complex
        # sample: M stage-1 sweep pilots, the CS warm-up (M/2 on a moving
        # trajectory), then one pilot per slot
        original = engine.trial_streams
        noise_streams = []

        def recording(base_seed, trials, kind):
            streams = original(base_seed, trials, kind)
            if kind == engine.NOISE:
                noise_streams.extend((base_seed, t, rng) for t, rng in zip(trials, streams))
            return streams

        monkeypatch.setattr(engine, "trial_streams", recording)
        m, n = CFG.num_antennas, 5
        for algorithm in ALGORITHMS:
            for model, moving in ((dynamics.Static(0.2), False), (dynamics.FixedVelocity(0.01), True)):
                noise_streams.clear()
                run_chunk(setup16(algorithm, no_noise=False, model=model, n_slots=n), 0, 3)
                warm = m // 2 if algorithm == "cs" and moving else 0
                assert len(noise_streams) == 3
                for base_seed, trial, rng in noise_streams:
                    [fresh] = original(base_seed, [trial], engine.NOISE)
                    fresh.standard_normal(2 * (m + warm + n))
                    assert rng.bit_generator.state == fresh.bit_generator.state, (algorithm, moving)


class TestMseHDefined:
    # every algorithm estimates the channel, so the summary rows built from
    # mse_h need no NaN guard
    @pytest.mark.parametrize(
        "model",
        [None, dynamics.Static(0.2), dynamics.SinusoidJitter(), dynamics.FixedVelocity(0.01)],
        ids=["uniform", "static", "sinusoid", "fixed-velocity"],
    )
    def test_finite_for_every_algorithm(self, model):
        for algorithm in ALGORITHMS:
            series = means(setup16(algorithm, no_noise=False, model=model, n_slots=5), trials=3)
            assert np.isfinite(series.mse_h).all(), algorithm
            assert np.isfinite(series.stderr["mse_h"]).all(), algorithm


class TestLsWindowModeFloor:
    def test_no_improvement_with_more_sweeps(self):
        # the sliding window forgets old pilots, so the error stays at the
        # one-sweep floor no matter how long it runs
        mse = mean_mse_h(setup16("ls", no_noise=False, model=WINDOW_037, n_slots=96, base_seed=7), 300)
        assert mse[95] == pytest.approx(mse[15], rel=0.15)
