import math
import os

import numpy as np
import pytest

from beamtrack.arrays import ArrayConfig, ChannelState, conjugate_beamformer
from beamtrack.harness import (
    ConfigError,
    ExperimentSpec,
    run_experiment,
    write_series_csv,
    write_summary_csv,
)
from beamtrack.metrics import (
    MetricSeries,
    aoa_error_deg,
    capacity,
    mse_h_closed,
    rate_closed,
)

import reference

PILOT = (1 - 1j) / math.sqrt(2)
BETA = (1 + 1j) / math.sqrt(2)


def summary_value(result, param, algo):
    return dict(((p, a), v) for p, a, v in result.summary)[(param, algo)]


class TestMetrics:
    def test_perfect_estimate(self):
        cfg = ArrayConfig(16, 0.5)
        ch = ChannelState(0.3, BETA)
        assert reference.mse_h(cfg, 0.3, ch) == pytest.approx(0.0, abs=1e-20)
        w = conjugate_beamformer(cfg, 0.3)
        assert reference.rate(cfg, w, ch, 10.0) == pytest.approx(math.log2(1 + 160), rel=1e-12)

    def test_capacity_value(self):
        assert capacity(ArrayConfig(16, 0.5), 10.0) == pytest.approx(7.33, abs=0.005)

    def test_closed_forms_match_direct(self):
        cfg = ArrayConfig(16, 0.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x_hat, x = rng.uniform(-1, 1, 2)
            ch = ChannelState(float(x), BETA)
            assert float(mse_h_closed(cfg, x_hat, x, BETA)) == pytest.approx(
                reference.mse_h(cfg, float(x_hat), ch), abs=1e-9
            )
            w = conjugate_beamformer(cfg, float(x_hat))
            assert float(rate_closed(cfg, x_hat, x, 10.0)) == pytest.approx(
                reference.rate(cfg, w, ch, 10.0), abs=1e-9
            )

    def test_local_quadratic_relation(self):
        # for small errors, mse_h ~ |beta|^2 (2 pi d/lam)^2 M(M-1)(2M-1)/6 * mse_x
        cfg = ArrayConfig(16, 0.5)
        factor = abs(BETA) ** 2 * cfg.phase_factor**2 * 15 * 16 * 31 / 6
        for du in (1e-4, 3e-4):
            ratio = float(mse_h_closed(cfg, 0.3 + du, 0.3, BETA)) / du**2
            assert ratio == pytest.approx(factor, rel=1e-3)

    def test_aoa_error_deg(self):
        assert float(aoa_error_deg(0.5, math.asin(0.5))) == pytest.approx(0.0, abs=1e-12)
        assert float(aoa_error_deg(0.0, math.radians(30))) == pytest.approx(30.0)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentSpec(kind="nope")

    def test_m_track_bounds(self):
        with pytest.raises(ConfigError, match="m_track"):
            ExperimentSpec(kind="static-convergence", m_data=8, m_track=16)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="algorithms"):
            ExperimentSpec(kind="static-convergence", algorithms=("zigzag",))

    def test_baseline_requires_full_array(self):
        with pytest.raises(ConfigError, match="m_track"):
            ExperimentSpec(kind="static-convergence", m_data=16, m_track=8, algorithms=("ls",))

    def test_sweep_needs_omegas(self):
        with pytest.raises(ConfigError, match="omegas"):
            ExperimentSpec(kind="velocity-sweep")

    def test_x_range(self):
        with pytest.raises(ConfigError, match="x"):
            ExperimentSpec(kind="static-convergence", x=2.0)


class TestDeterminism:
    def test_bitwise_identical_across_worker_counts(self, tmp_path):
        spec = ExperimentSpec(
            kind="static-convergence", m_data=8, snr_db=10.0, n_slots=200, n_trials=30,
            seed=5, algorithms=("recursive", "cs"),
        )
        run_experiment(spec, out_dir=str(tmp_path / "w1"), workers=1)
        run_experiment(spec, out_dir=str(tmp_path / "w3"), workers=3)
        for name in os.listdir(tmp_path / "w1"):
            if not name.endswith(".csv"):
                continue
            a = (tmp_path / "w1" / name).read_bytes()
            b = (tmp_path / "w3" / name).read_bytes()
            assert a == b, name

    def test_same_seed_same_summary(self):
        spec = ExperimentSpec(kind="static-convergence", m_data=8, n_slots=100, n_trials=20, seed=9)
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        assert r1.summary == r2.summary


class TestExperimentKinds:
    def test_zero_velocity_reduces_to_static(self):
        dyn = ExperimentSpec(
            kind="dynamic-trajectory", m_data=8, traj_kind="fixed-velocity", omega=0.0,
            n_slots=200, n_trials=20, seed=9,
        )
        sta = ExperimentSpec(
            kind="static-convergence", m_data=8, x=0.0, schedule="fixed",
            n_slots=200, n_trials=20, seed=9,
        )
        s_dyn = run_experiment(dyn).series["recursive"]
        s_sta = run_experiment(sta).series["recursive"]
        np.testing.assert_array_equal(s_dyn.rate, s_sta.rate)
        np.testing.assert_array_equal(s_dyn.mse_h, s_sta.mse_h)

    def test_rate_never_exceeds_capacity(self):
        spec = ExperimentSpec(
            kind="dynamic-trajectory", m_data=16, m_track=8, traj_kind="fixed-velocity",
            omega=0.05, n_slots=500, n_trials=30, seed=1,
        )
        series = run_experiment(spec).series["recursive"]
        assert np.all(series.rate <= capacity(ArrayConfig(16, 0.5), 10.0) + 1e-9)

    def test_static_summary_has_crlb_rows(self):
        spec = ExperimentSpec(kind="static-convergence", m_data=16, n_slots=100, n_trials=10, seed=0)
        res = run_experiment(spec)
        assert summary_value(res, "crlb_n_mse_h_limit", "theory") == pytest.approx(31 * 0.1 / 45)
        assert "crlb_overlay" in res.extras

    def test_velocity_sweep_table(self):
        spec = ExperimentSpec(
            kind="velocity-sweep", m_data=8, omegas=(0.0, 0.2), n_slots=400, n_trials=10, seed=2,
        )
        res = run_experiment(spec)
        table = res.extras["sweep_table"]
        assert len(table) == 2
        # rate at zero velocity strictly above rate at an untrackable velocity
        assert table[0][2] > table[1][2]

    def test_max_velocity_search_brackets(self):
        spec = ExperimentSpec(
            kind="max-velocity-table", m_data=8, n_slots=1500, n_trials=10, seed=3,
            omega_lo=0.0, omega_hi=0.2, omega_tol=0.01,
        )
        res = run_experiment(spec)
        best = summary_value(res, "max_omega_rad_per_slot", "recursive")
        assert 0.0 <= best <= 0.2
        deg = summary_value(res, "max_velocity_deg_per_sec", "recursive")
        assert deg == pytest.approx(best * 5 * 180 / math.pi)

    def test_init_rate_experiment(self):
        spec = ExperimentSpec(kind="init-success-rate", m_data=16, snr_db=10.0, n_trials=2000, seed=4)
        res = run_experiment(spec)
        p = summary_value(res, "init_success_rate", "coarse-sweep")
        assert p >= 0.98

    def test_theory_diagnostics(self):
        spec = ExperimentSpec(
            kind="theory-diagnostics", m_data=8, x=0.5, snr_db=10.0, x0_hat=0.4, delta=0.05, n0=30.0,
        )
        res = run_experiment(spec)
        assert summary_value(res, "alpha_star", "theory") == pytest.approx(0.03215, abs=1e-4)
        assert summary_value(res, "lipschitz_L", "theory") == pytest.approx(31.10, abs=0.01)
        assert summary_value(res, "stable_point_count", "theory") == 7.0
        assert res.extras["bound"] is not None


class TestCsvSchema:
    def test_series_file_format(self, tmp_path):
        series = MetricSeries(
            slots=np.array([1, 2]),
            mse_h=np.array([0.5, 0.25]),
            mse_x=np.array([1.0, 2.0]),
            aoa_error_deg=np.array([3.0, 4.0]),
            rate=np.array([5.0, 6.0]),
            n_trials=7,
            stderr={"mse_h": np.array([0.1, 0.2])},
        )
        path = tmp_path / "s.csv"
        write_series_csv(str(path), series, "mse_h")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "slot,metric,mean,stderr,n_trials"
        assert lines[1] == "1,mse_h,0.5,0.10000000000000001,7"

    def test_floats_serialized_at_full_precision(self, tmp_path):
        value = 1 / 3
        path = tmp_path / "sum.csv"
        write_summary_csv(str(path), [("p", "a", value)])
        text = path.read_text().splitlines()[1]
        assert float(text.split(",")[2]) == value

    def test_result_files_written(self, tmp_path):
        spec = ExperimentSpec(kind="static-convergence", m_data=8, n_slots=50, n_trials=5, seed=0)
        run_experiment(spec, out_dir=str(tmp_path))
        names = set(os.listdir(tmp_path))
        assert {"summary.csv", "metadata.json", "crlb_overlay.csv"} <= names
        assert any(n.startswith("recursive_") for n in names)


class TestAggregation:
    def test_mean_and_stderr_match_manual_trials(self):
        from beamtrack.engine import TrialSetup
        from beamtrack.harness import simulate

        spec = ExperimentSpec(
            kind="static-convergence", m_data=8, x=0.41, n_slots=60, n_trials=6, seed=13,
        )
        series, _ = simulate(spec, "recursive", spec.build_model(), 6, 60)
        setup = TrialSetup(
            algorithm="recursive", cfg_track=spec.cfg_track, cfg_data=spec.cfg_data, rho=spec.rho,
            stage1_rho=spec.stage1_rho, beta=spec.beta, pilot=spec.pilot, no_noise=False,
            schedule=spec.resolved_schedule(), model=spec.build_model(), n_slots=60, m0=16,
            base_seed=13,
        )
        per_trial = np.stack([reference.replay(setup, t)[0]["mse_x"] for t in range(6)])
        np.testing.assert_allclose(series.mse_x, per_trial.mean(axis=0), rtol=1e-9)
        manual_stderr = per_trial.std(axis=0, ddof=1) / np.sqrt(6)
        np.testing.assert_allclose(series.stderr["mse_x"], manual_stderr, rtol=1e-7)
