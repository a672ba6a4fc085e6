import math

import numpy as np
import pytest

from beamtrack import dynamics, engine
from beamtrack.arrays import ArrayConfig
from beamtrack.engine import ALGORITHMS, KF_OFFSET_RAD, TrialSetup, cs_dictionary, run_chunk
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
    return run_chunk(setup, 0, trials, collect=("final_estimate",)).extras["final_estimate"]


def mean_mse_h(setup, trials):
    return run_chunk(setup, 0, trials).sums["mse_h"] / trials


class TestLeastSquares:
    # E||h_hat - h||^2 = M*|beta|^2/rho for one sweep of M pilots (unitary codebook)
    ONE_SWEEP_FLOOR = 16 * abs(BETA) ** 2 / 10.0

    def test_noise_free_exact(self):
        res = run_chunk(setup16("ls", n_slots=16), 0, 1)
        assert res.sums["mse_h"] == pytest.approx(0.0, abs=1e-18)
        # the data beam attains the capacity from the first slot
        np.testing.assert_allclose(res.sums["rate"], math.log2(1 + 160), rtol=1e-9)

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
        r1, r2 = run_chunk(s, 0, 3), run_chunk(s, 0, 3)
        np.testing.assert_array_equal(r1.sums["mse_h"], r2.sums["mse_h"])


class TestCompressedSensing:
    def test_noise_free_on_atom_exact_recovery(self):
        x_atom = float(cs_dictionary()[700])
        # ten trials, ten random probe sequences
        est = finals(setup16("cs", model=dynamics.Static(x_atom), n_slots=8), trials=10)
        np.testing.assert_array_equal(est, x_atom)

    def test_quantization_floor(self):
        # noise-free off-grid directions: mean squared error is at least the
        # uniform-quantization bound of the 1024-atom grid
        s = setup16("cs", model=None, n_slots=4, base_seed=5)
        res = run_chunk(s, 0, 600, collect=("final_estimate", "final_x"))
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
        res = run_chunk(setup16("wlan", model=dynamics.Static(x), n_slots=30), 0, 1)
        # the same beam in every slot
        np.testing.assert_array_equal(res.sums["mse_x"], (nearest - x) ** 2)
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
            res = run_chunk(setup16("wlan", model=dynamics.Static(x), n_slots=30), 0, 1)
            np.testing.assert_array_equal(res.sums["mse_x"], (edge - x) ** 2)

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
        aoa_deg = run_chunk(s, 0, 1).sums["aoa_error_deg"]
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
        res = run_chunk(setup, 0, 1000)
        mse = res.sums["mse_x"] / 1000
        checkpoints = mse[[0, 9, 19, 34, 49]]
        assert np.all(np.diff(checkpoints) < 0)

    def test_divergence_matches_reference(self):
        # heavy noise (-20 dB) with the estimate started at the domain edge.
        # Without process noise the filter freezes there; with it the
        # estimate is often pinned at +-pi/2, and q = 2e6 keeps the predicted
        # variance above KF_P_VAR_MAX on every slot.  The engine and the
        # reference clip the same way.
        for q in (0.0, 1e-3, 2e6):
            s = setup16(
                "kf", no_noise=False, rho=0.01, stage1_rho=0.01, model=dynamics.Static(0.0),
                x0_mode="fixed", x0_value=math.sin(1.5707), kf_q=q, kf_p0=1e-2, n_slots=199,
            )
            res = run_chunk(s, 0, 4, collect=("final_estimate",))
            replays = [reference.replay(s, t) for t in range(4)]
            np.testing.assert_allclose(res.extras["final_estimate"], [f for _, f in replays], atol=1e-9)
            aoa = np.stack([series["aoa_error_deg"] for series, _ in replays])
            np.testing.assert_allclose(res.sums["aoa_error_deg"], aoa.sum(axis=0), rtol=1e-9)
            assert np.all(aoa <= 90.0 + 1e-9)
            if q > 0:
                assert np.isclose(aoa, 90.0, atol=1e-9).mean() > 0.25

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

        def recording(base_seed, trial):
            streams = original(base_seed, trial)
            noise_streams.append((base_seed, trial, streams[1]))
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
                    fresh = original(base_seed, trial)[1]
                    fresh.standard_normal(2 * (m + warm + n))
                    assert rng.bit_generator.state == fresh.bit_generator.state, (algorithm, moving)


class TestLsWindowModeFloor:
    def test_no_improvement_with_more_sweeps(self):
        # the sliding window forgets old pilots, so the error stays at the
        # one-sweep floor no matter how long it runs
        mse = mean_mse_h(setup16("ls", no_noise=False, model=WINDOW_037, n_slots=96, base_seed=7), 300)
        assert mse[95] == pytest.approx(mse[15], rel=0.15)
