import cmath
import dataclasses
import decimal
import json
import math
import multiprocessing
import os
import platform
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beamtrack
from beamtrack import analysis, dynamics, harness
from beamtrack.arrays import ArrayConfig, conjugate_beamformer, dirichlet_parts
from beamtrack.cli import main as cli_main
from beamtrack.engine import ALGORITHMS, TrialSetup, run_chunk
from beamtrack.harness import (
    KINDS,
    ConfigError,
    ExperimentResult,
    ExperimentSpec,
    _chunk_bounds,
    _trial_setup,
    run_experiment,
    write_csv,
    write_result,
)
from beamtrack.metrics import (
    METRIC_NAMES,
    MetricSeries,
    SlotStats,
    capacity,
    rate_bits,
    slot_metrics,
    write_slot_metrics,
)

import reference

PILOT = (1 - 1j) / math.sqrt(2)
BETA = (1 + 1j) / math.sqrt(2)


def summary_value(result, param, algo):
    return dict(((p, a), v) for p, a, v in result.summary)[(param, algo)]


class TestMetrics:
    def test_perfect_estimate(self):
        cfg = ArrayConfig(16, 0.5)
        ch = reference.ChannelState(0.3, BETA)
        assert reference.mse_h(cfg, 0.3, ch) == pytest.approx(0.0, abs=1e-20)
        w = conjugate_beamformer(cfg, 0.3)
        assert reference.rate(cfg, w, ch, 10.0) == pytest.approx(math.log2(1 + 160), rel=1e-12)

    def test_capacity_value(self):
        assert capacity(ArrayConfig(16, 0.5), 10.0) == pytest.approx(7.33, abs=0.005)

    def test_capacity_positive_at_any_admitted_snr(self):
        # log2(1 + 2e-30) rounds to 0
        assert capacity(ArrayConfig(2), 1e-30) > 0

    def test_rate_within_2_ulp_of_log2_one_plus_snr(self):
        rng = np.random.default_rng(2)
        snr = np.concatenate(
            [[0.0], np.geomspace(1e-20, 1e3, 1000), rng.uniform(0.0, 1.0, 500), rng.uniform(0.0, 1e3, 500)]
        )
        got = rate_bits(snr)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            ln2 = decimal.Decimal(2).ln()
            for x, r in zip(snr.tolist(), got.tolist()):
                exact = (1 + decimal.Decimal(x)).ln() / ln2
                assert abs(decimal.Decimal(r) - exact) <= 2 * decimal.Decimal(math.ulp(float(exact))), x

    def test_rate_is_snr_over_ln2_below_1e_17(self):
        snr = np.array([0.0, 5e-324, 1e-300, 1e-30, 9.99e-18])
        assert np.array_equal(rate_bits(snr), snr / math.log(2.0))

    def test_rate_row_is_the_rate_of_the_squared_modulus(self):
        # |D|^2 is formed in the rate row from the kernel's Re D and Im D,
        # which stay intact with the tangents for the next slot's update
        cfg, rho = ArrayConfig(12, 0.5), 10.0
        x_hat, x = np.random.default_rng(5).uniform(-1, 1, (2, 257))
        kernel = dirichlet_parts(cfg, x_hat, x, np.empty((5, x.size)))
        rows = kernel[:4].copy()
        re, im = rows[:2]
        values = np.empty((len(METRIC_NAMES), x.size))
        write_slot_metrics(values, cfg, x_hat, x, np.arcsin(x), kernel, BETA, rho)
        assert np.array_equal(values[METRIC_NAMES.index("rate")], rate_bits((re * re + im * im) * rho / 12))
        assert np.array_equal(kernel[:4], rows)

    def test_closed_forms_match_direct(self):
        cfg = ArrayConfig(16, 0.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x_hat, x = rng.uniform(-1, 1, 2)
            ch = reference.ChannelState(float(x), BETA)
            got = slot_metrics(cfg, x_hat, x, BETA, 10.0)
            assert float(got["mse_h"]) == pytest.approx(reference.mse_h(cfg, float(x_hat), ch), abs=1e-9)
            w = conjugate_beamformer(cfg, float(x_hat))
            assert float(got["rate"]) == pytest.approx(reference.rate(cfg, w, ch, 10.0), abs=1e-9)
            assert float(got["mse_x"]) == (x_hat - x) ** 2

    def test_local_quadratic_relation(self):
        # for small errors, mse_h ~ |beta|^2 (2 pi d/lam)^2 M(M-1)(2M-1)/6 * mse_x
        cfg = ArrayConfig(16, 0.5)
        factor = abs(BETA) ** 2 * cfg.phase_factor**2 * 15 * 16 * 31 / 6
        for du in (1e-4, 3e-4):
            ratio = float(slot_metrics(cfg, 0.3 + du, 0.3, BETA, 10.0)["mse_h"]) / du**2
            assert ratio == pytest.approx(factor, rel=1e-3)

    def test_aoa_error_deg(self):
        cfg = ArrayConfig(16, 0.5)
        aoa = slot_metrics(cfg, [0.5, 0.0], [0.5, math.sin(math.radians(30))], BETA, 10.0)["aoa_error_deg"]
        assert aoa[0] == pytest.approx(0.0, abs=1e-12)
        assert aoa[1] == pytest.approx(30.0)


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

    def test_repeated_algorithm(self):
        # a repeated name would run its simulation twice and write its
        # summary rows twice
        with pytest.raises(ConfigError, match="algorithms: 'kf'"):
            ExperimentSpec(kind="static-convergence", algorithms=("kf", "kf"))

    def test_baseline_requires_full_array(self):
        with pytest.raises(ConfigError, match="m_track"):
            ExperimentSpec(kind="static-convergence", m_data=16, m_track=8, algorithms=("ls",))

    def test_sweep_needs_omegas(self):
        with pytest.raises(ConfigError, match="omegas"):
            ExperimentSpec(kind="velocity-sweep")

    def test_x_range(self):
        with pytest.raises(ConfigError, match="x"):
            ExperimentSpec(kind="static-convergence", x=2.0)

    def test_numpy_scalars_rejected(self):
        # metadata.json echoes the spec, and json cannot write numpy integers
        with pytest.raises(ConfigError, match="seed"):
            ExperimentSpec(kind="static-convergence", seed=np.int64(3))
        with pytest.raises(ConfigError, match="x"):
            ExperimentSpec(kind="static-convergence", x=np.float32(0.5))

    def test_angles_limited_to_endfire(self):
        # with bound = 3.0 the direction passed endfire and x = sin(theta)
        # folded back: a noise-free recursive run at 99.998% of capacity
        # reported up to 163.8 degrees of AoA error
        for field in ("bound", "sinusoid_amplitude"):
            with pytest.raises(ConfigError, match=field):
                ExperimentSpec(kind="dynamic-trajectory", **{field: 3.0})
        with pytest.raises(ConfigError, match="sinusoid_amplitude"):
            ExperimentSpec(kind="dynamic-trajectory", sinusoid_amplitude=-1.6)
        ExperimentSpec(kind="dynamic-trajectory", bound=math.pi / 2, sinusoid_amplitude=-math.pi / 2)

    def test_omega_tol_above_the_float_spacing(self):
        # with omega_tol = 1e-20 the bisection midpoint stalled at one float
        # after ~55 steps and re-simulated that velocity forever
        with pytest.raises(ConfigError, match="omega_tol"):
            ExperimentSpec(kind="max-velocity-table", omega_hi=0.3, omega_tol=1e-20)
        ExperimentSpec(kind="max-velocity-table", omega_hi=0.3, omega_tol=math.ulp(0.3))

    def test_n_trials_fit_one_seed_word(self):
        # trial t's seed holds t as one 32-bit word, so trials end at 2**32 - 1
        with pytest.raises(ConfigError, match="n_trials"):
            ExperimentSpec(kind="static-convergence", n_trials=2**32 + 1)
        ExperimentSpec(kind="static-convergence", n_trials=2**32)


def assert_same_csvs_across_workers(spec, tmp_path, worker_counts):
    for w in worker_counts:
        run_experiment(spec, out_dir=str(tmp_path / f"w{w}"), workers=w)
    names = sorted(n for n in os.listdir(tmp_path / "w1") if n.endswith(".csv"))
    assert names
    for w in worker_counts[1:]:
        assert sorted(n for n in os.listdir(tmp_path / f"w{w}") if n.endswith(".csv")) == names
        for name in names:
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / f"w{w}" / name).read_bytes(), (w, name)


class TestDeterminism:
    def test_bitwise_identical_across_worker_counts(self, tmp_path):
        spec = ExperimentSpec(
            kind="static-convergence", m_data=8, snr_db=10.0, n_slots=200, n_trials=30,
            seed=5, algorithms=("recursive", "cs"),
        )
        assert_same_csvs_across_workers(spec, tmp_path, (1, 3))

    def test_dynamic_all_algorithms_identical_across_worker_counts(self, tmp_path):
        # 150 trials: CS runs two chunks, every other algorithm one
        spec = ExperimentSpec(
            kind="dynamic-trajectory", m_data=8, n_slots=60, n_trials=150, seed=6,
            algorithms=ALGORITHMS, sinusoid_period=50,
        )
        assert_same_csvs_across_workers(spec, tmp_path, (1, 2, 3))

    def test_velocity_sweep_identical_across_worker_counts(self, tmp_path):
        spec = ExperimentSpec(
            kind="velocity-sweep", m_data=8, omegas=(0.0, 0.02, 0.1), n_slots=80, n_trials=20,
            seed=7, algorithms=("recursive", "cs", "kf"),
        )
        assert_same_csvs_across_workers(spec, tmp_path, (1, 2, 3))

    def test_same_seed_same_summary(self):
        spec = ExperimentSpec(kind="static-convergence", m_data=8, n_slots=100, n_trials=20, seed=9)
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        assert r1.summary == r2.summary


def chunk_size(algorithm, n_slots, model, m):
    """Trials in each full chunk of ``algorithm`` on ``model`` with an
    M-antenna array."""
    setup = _trial_setup(ExperimentSpec(kind="static-convergence", m_data=m), algorithm, model, n_slots)
    lo, hi = _chunk_bounds(setup, 2**20)[0]
    return hi - lo


class TestChunking:
    MODELS = (None, dynamics.Static(0.3), dynamics.FixedVelocity(0.01), dynamics.SinusoidJitter())

    def test_chunk_bounds_unchanged_up_to_10k_slots(self):
        # the chunk bounds set the merge order, hence the last bits of every
        # mean: every run of up to 10,000 slots keeps 2048-trial chunks, and
        # 128 for CS
        for algorithm in ALGORITHMS:
            expected = 128 if algorithm == "cs" else 2048
            for n_slots in (1, 200, 2000, 10_000):
                for model in self.MODELS:
                    for m in (2, 8, 16, 64):
                        assert chunk_size(algorithm, n_slots, model, m) == expected

    def test_cs_budget_counts_probes(self):
        # 128 trials x 10,000 slots of 256 int8 probe indices is 328 MB
        assert chunk_size("cs", 10_000, None, 256) == 64
        assert chunk_size("recursive", 10_000, None, 256) == 2048

    @pytest.mark.parametrize("model", MODELS, ids=["uniform", "static", "fixed-velocity", "sinusoid"])
    def test_cs_budget_counts_terms_in_m_squared(self, model):
        # at M = 512 a 128-trial CS chunk holds 0.8 GB of pair products at
        # any length, and 1.4 GB with a moving truth's ring buffers
        assert chunk_size("cs", 1, model, 512) < 128
        assert chunk_size("cs", 200, model, 512) < 128
        assert chunk_size("cs", 200, model, 16) == 128
        assert chunk_size("recursive", 200, model, 512) == 2048


def count_simulate_calls(monkeypatch):
    """Record (algorithm, n_trials * n_slots) of every ``harness.simulate``
    call, read from its positional arguments as perfbench's counter reads them."""
    calls = []
    original = harness.simulate

    def counting(*args, **kwargs):
        calls.append((args[1], args[3] * args[4]))
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate", counting)
    return calls


class TestSimulateCallContract:
    # perfbench's end-to-end throughput is the trial-slots of the simulate
    # calls it counts, so every runner calls the module-level simulate once
    # per algorithm, with its n_trials and n_slots as positional arguments

    @pytest.mark.parametrize("workers", [1, 2])
    def test_static_and_dynamic_call_once_per_algorithm(self, monkeypatch, workers):
        calls = count_simulate_calls(monkeypatch)
        for kind in ("static-convergence", "dynamic-trajectory"):
            calls.clear()
            spec = ExperimentSpec(
                kind=kind, m_data=8, n_slots=30, n_trials=20, seed=1, algorithms=("recursive", "cs", "kf"),
            )
            run_experiment(spec, workers=workers)
            assert calls == [("recursive", 600), ("cs", 600), ("kf", 600)], kind

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_calls_once_per_omega_and_algorithm(self, monkeypatch, workers):
        calls = count_simulate_calls(monkeypatch)
        spec = ExperimentSpec(
            kind="velocity-sweep", m_data=8, omegas=(0.0, 0.1), n_slots=40, n_trials=10, seed=1,
            algorithms=("recursive", "wlan"),
        )
        run_experiment(spec, workers=workers)
        assert calls == [("recursive", 400), ("wlan", 400)] * 2


class FakePool:
    """Stands in for ``harness._open_pool``: records the pool's size, how
    many chunks are queued on it (in all, and when each one starts) and how
    it is shut down; a chunk runs in-process when its result is read."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.queued = 0
        self.queued_at_start = []
        self.shutdowns = []
        FakePool.made.append(self)

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.queued += len(tasks)
        return (self._run(fn, task) for task in tasks)

    def _run(self, fn, task):
        self.queued_at_start.append(self.queued)
        return fn(task)

    def shutdown(self, **kwargs):
        self.shutdowns.append(kwargs)


class TestExperimentPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        FakePool.made = []
        monkeypatch.setattr(harness, "_open_pool", FakePool)
        return FakePool.made

    def test_one_pool_sized_by_the_experiments_chunks(self, pools):
        # 2100 trials: two 2048-trial chunks of recursive and 17 128-trial chunks of CS
        spec = ExperimentSpec(
            kind="static-convergence", m_data=8, n_slots=3, n_trials=2100, seed=3, algorithms=("recursive", "cs"),
        )
        serial = run_experiment(spec, workers=1)
        assert pools == []
        for workers, size in ((64, 19), (3, 3)):
            pools.clear()
            pooled = run_experiment(spec, workers=workers)
            assert [(p.max_workers, p.queued, p.shutdowns) for p in pools] == [(size, 19, [{"cancel_futures": True}])]
            assert pools[0].queued_at_start == [19] * 19  # every chunk queued before the first runs
            assert pooled.summary == serial.summary

    def test_sweep_queues_every_omega_on_one_pool(self, pools):
        spec = ExperimentSpec(
            kind="velocity-sweep", m_data=8, omegas=(0.0, 0.05, 0.1), n_slots=20, n_trials=10, seed=2,
            algorithms=("recursive", "kf"),
        )
        run_experiment(spec, workers=8)
        assert [(p.max_workers, p.queued, p.queued_at_start) for p in pools] == [(6, 6, [6] * 6)]

    def test_table_search_reuses_one_pool(self, pools):
        spec = ExperimentSpec(
            kind="max-velocity-table", m_data=8, n_slots=40, n_trials=2100, seed=3,
            omega_lo=0.0, omega_hi=0.2, omega_tol=0.05,
        )
        result = run_experiment(spec, workers=4)
        evals = len(result.extras["evals"])
        assert evals > 2
        assert [(p.max_workers, p.queued) for p in pools] == [(2, 2 * evals)]

    def test_no_pool_for_a_single_chunk(self, pools):
        for spec in (
            ExperimentSpec(kind="dynamic-trajectory", m_data=8, n_slots=20, n_trials=100, seed=1),
            ExperimentSpec(kind="init-success-rate", m_data=8, n_trials=100, seed=1),
            ExperimentSpec(kind="theory-diagnostics", m_data=8),
        ):
            run_experiment(spec, workers=4)
        assert pools == []

    def test_failing_chunk_cancels_the_queued_chunks(self, pools, monkeypatch):
        ran = []

        def failing(setup, lo, hi):
            ran.append(setup.algorithm)
            if setup.algorithm == "cs":
                raise RuntimeError("chunk failed")
            return run_chunk(setup, lo, hi)

        monkeypatch.setattr(harness, "run_chunk", failing)
        spec = ExperimentSpec(
            kind="static-convergence", m_data=8, n_slots=5, n_trials=20, seed=1,
            algorithms=("recursive", "cs", "kf"),
        )
        with pytest.raises(RuntimeError, match="chunk failed"):
            run_experiment(spec, workers=2)
        assert ran == ["recursive", "cs"]
        assert [(p.queued, p.shutdowns) for p in pools] == [(3, [{"cancel_futures": True}])]


def _raising_chunk(setup, lo, hi):
    raise RuntimeError(f"chunk {lo}-{hi} of {setup.algorithm} failed")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers must inherit the patched chunk")
def test_cli_exits_1_when_a_pooled_chunk_raises(monkeypatch, capsys):
    monkeypatch.setattr(harness, "run_chunk", _raising_chunk)
    code = cli_main(["static", "--m", "8", "--trials", "20", "--slots", "5", "--seed", "1",
                     "--algorithms", "recursive,kf", "--workers", "2"])
    assert code == 1
    assert "chunk 0-20 of recursive failed" in capsys.readouterr().err


class TestSlotStats:
    @staticmethod
    def allocating_record(self, i, block):
        # the record with every intermediate freshly allocated
        mean = block.sum(axis=1) / self.count
        dev = block - mean[:, None]
        self.mean[:, i] = mean
        self.m2[:, i] = (dev * dev).sum(axis=1)

    @pytest.mark.parametrize("model", [dynamics.Static(0.3), dynamics.FixedVelocity(0.01, math.pi / 3, 0.2)])
    def test_record_is_bit_identical_to_allocating_form(self, monkeypatch, model):
        spec = ExperimentSpec(kind="static-convergence", m_data=8, seed=11)
        setup = TrialSetup(
            algorithm="recursive", cfg_track=spec.cfg_track, cfg_data=spec.cfg_data, rho=spec.rho,
            stage1_rho=spec.stage1_rho, beta=spec.beta, pilot=spec.pilot, no_noise=False,
            schedule=spec.resolved_schedule(), model=model, n_slots=300, m0=16, base_seed=11,
        )
        in_place = run_chunk(setup, 0, 97).stats
        monkeypatch.setattr(SlotStats, "record", self.allocating_record)
        allocating = run_chunk(setup, 0, 97).stats
        assert np.array_equal(in_place.mean, allocating.mean)
        assert np.array_equal(in_place.m2, allocating.m2)

    def test_record_matches_direct_mean_and_m2(self):
        # a spread of 1e-9 about a mean near 7, as rates near capacity have:
        # sum(v^2) - n*mean^2 would lose every digit of M2 here
        n = 97
        blocks = 7.3 + 1e-9 * np.random.default_rng(5).standard_normal((3, len(METRIC_NAMES), n))
        stats = SlotStats.empty(n, len(blocks))
        for i, block in enumerate(blocks):
            stats.record(i, block)
        for i, block in enumerate(blocks):
            mean = np.array([math.fsum(row) / n for row in block])
            m2 = [math.fsum((row - mu) ** 2) for row, mu in zip(block, mean)]
            np.testing.assert_allclose(stats.mean[:, i], mean, rtol=1e-15)
            np.testing.assert_allclose(stats.m2[:, i], m2, rtol=1e-9)


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

    def test_init_rate_stderr_zero_when_every_trial_succeeds(self):
        spec = ExperimentSpec(kind="init-success-rate", m_data=16, x=0.3, no_noise=True, n_trials=200, seed=1)
        res = run_experiment(spec)
        assert summary_value(res, "init_success_rate", "coarse-sweep") == 1.0
        assert summary_value(res, "init_success_stderr", "coarse-sweep") == 0.0

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
            stderr={name: np.array([0.1, 0.2]) for name in METRIC_NAMES},
        )
        spec = ExperimentSpec(kind="static-convergence")
        write_result(ExperimentResult(spec=spec, series={"recursive": series}, summary=[]), str(tmp_path))
        lines = (tmp_path / "recursive_mse_h.csv").read_text().strip().splitlines()
        assert lines[0] == "slot,metric,mean,stderr,n_trials"
        assert lines[1] == "1,mse_h,0.5,0.10000000000000001,7"

    SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -1e-300, 1 / 3, 2.5e17, 7.0)

    def test_writer_formats_every_number_as_17g(self, tmp_path):
        # every CSV of a result, special values included, holds each number
        # as f"{float(v):.17g}"; slots and n_trials are integers
        values = np.array(self.SPECIAL)
        slots = np.arange(1, values.size + 1)
        series = MetricSeries(
            slots=slots,
            mse_h=values,
            mse_x=values[::-1].copy(),
            aoa_error_deg=-values,
            rate=np.roll(values, 3),
            n_trials=12345,
            stderr={name: np.roll(values, k) for k, name in enumerate(METRIC_NAMES)},
        )
        overlay = {"slots": slots, "min_crlb_x": values, "min_crlb_h": values[::-1].copy()}
        summary = [("p", "a", v) for v in self.SPECIAL] + [("n_trials", "coarse-sweep", 12345)]
        table = [(v, "kf", v, -v) for v in self.SPECIAL]
        spec = ExperimentSpec(kind="static-convergence")
        extras = {"crlb_overlay": overlay, "sweep_table": table}
        write_result(ExperimentResult(spec=spec, series={"kf": series}, summary=summary, extras=extras), str(tmp_path))

        def g(v):
            return f"{float(v):.17g}"

        expected = {
            f"kf_{metric}.csv": ["slot,metric,mean,stderr,n_trials"] + [
                f"{g(t)},{metric},{g(a)},{g(b)},{g(series.n_trials)}"
                for t, a, b in zip(slots, series.metric(metric), series.stderr[metric])
            ]
            for metric in METRIC_NAMES
        }
        expected["crlb_overlay.csv"] = ["slot,min_crlb_x,min_crlb_h"] + [
            ",".join(map(g, row)) for row in zip(slots, overlay["min_crlb_x"], overlay["min_crlb_h"])
        ]
        expected["summary.csv"] = ["param,algorithm,value"] + [f"{p},{a},{g(v)}" for p, a, v in summary]
        expected["sweep.csv"] = ["omega,algorithm,mean_rate,mean_mse_h"] + [
            f"{g(o)},{a},{g(r)},{g(m)}" for o, a, r, m in table
        ]
        assert "1,mse_h,nan,nan,12345" in expected["kf_mse_h.csv"]
        assert "n_trials,coarse-sweep,12345" in expected["summary.csv"]
        for name, lines in expected.items():
            assert (tmp_path / name).read_bytes() == "".join(line + "\n" for line in lines).encode(), name

    def test_floats_serialized_at_full_precision(self, tmp_path):
        path = tmp_path / "sum.csv"
        write_csv(str(path), "param,algorithm,value", "%s,%s,%.17g", [("p", "a", v) for v in self.SPECIAL])
        lines = path.read_text().splitlines()
        assert lines[1:] == [f"p,a,{float(v):.17g}" for v in self.SPECIAL]
        assert float(lines[8].split(",")[2]) == 1 / 3

    def test_result_files_written(self, tmp_path):
        spec = ExperimentSpec(kind="static-convergence", m_data=8, n_slots=50, n_trials=5, seed=0)
        run_experiment(spec, out_dir=str(tmp_path))
        names = set(os.listdir(tmp_path))
        assert {"summary.csv", "metadata.json", "crlb_overlay.csv"} <= names
        assert any(n.startswith("recursive_") for n in names)


class TestMetadata:
    def test_provenance_recorded_and_repeatable(self, tmp_path):
        spec = ExperimentSpec(
            kind="static-convergence", m_data=8, n_slots=5, n_trials=130, seed=4, algorithms=("recursive", "cs"),
        )
        for run in ("a", "b"):
            run_experiment(spec, out_dir=str(tmp_path / run), workers=2)
        text = (tmp_path / "a" / "metadata.json").read_text()
        assert (tmp_path / "b" / "metadata.json").read_text() == text
        meta = json.loads(text)
        assert meta["workers"] == 2
        assert meta["versions"] == {
            "beamtrack": beamtrack.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        assert meta["chunks"] == {"recursive": [[0, 130]], "cs": [[0, 128], [128, 130]]}
        assert meta["spec"]["seed"] == 4

    @pytest.mark.parametrize(
        "spec",
        [
            # near endfire at 0 dB: about half the sweeps miss the mainlobe and
            # the angular tracker's gain degenerates in over a thousand slots
            ExperimentSpec(
                kind="static-convergence", m_data=8, x=0.999, snr_db=0.0, n_slots=40, n_trials=150,
                seed=3, algorithms=("recursive", "angular", "cs"),
            ),
            ExperimentSpec(
                kind="dynamic-trajectory", m_data=8, n_slots=30, n_trials=150, seed=6,
                algorithms=ALGORITHMS, sinusoid_period=50,
            ),
        ],
        ids=["static", "dynamic"],
    )
    def test_health_counters_sum_the_chunk_extras(self, spec, tmp_path):
        model = spec.build_model()
        expected = {}
        for algo in spec.algorithms:
            _, extras = harness.simulate(spec, algo, model, spec.n_trials, spec.n_slots)
            expected[algo] = {name: int(extras[name].sum()) for name in harness.HEALTH_COUNTERS}
        for w in (1, 2):
            run_experiment(spec, out_dir=str(tmp_path / f"w{w}"), workers=w)
            meta = json.loads((tmp_path / f"w{w}" / "metadata.json").read_text())
            assert meta["health"] == expected, w
        if spec.kind == "static-convergence":
            assert 0 < expected["angular"]["init_in_mainlobe"] < spec.n_trials
            assert expected["angular"]["degenerate_slots"] > 0

    @pytest.mark.parametrize(
        "spec",
        [
            # 130 trials give CS two chunks, so two workers open a pool
            ExperimentSpec(kind="static-convergence", m_data=8, n_slots=3, n_trials=130, seed=2,
                           algorithms=("recursive", "cs")),
            ExperimentSpec(kind="dynamic-trajectory", m_data=8, n_slots=4, n_trials=130, seed=2,
                           algorithms=("recursive", "cs"), sinusoid_period=50),
            ExperimentSpec(kind="velocity-sweep", m_data=8, omegas=(0.0, 0.05), n_slots=3, n_trials=130,
                           seed=2, algorithms=("recursive", "cs")),
            ExperimentSpec(kind="max-velocity-table", m_data=8, omega_hi=0.3, omega_tol=0.1, n_slots=3,
                           n_trials=130, seed=2, algorithms=("recursive", "cs")),
            ExperimentSpec(kind="init-success-rate", m_data=8, n_trials=2100, seed=2),
        ],
        ids=["static", "dynamic", "sweep", "table", "init-rate"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunks_are_the_ranges_run_chunk_receives(self, spec, workers, monkeypatch):
        # metadata.json's chunks come from the setups the runner builds
        received = {}
        original = harness.run_chunk

        def recording(setup, lo, hi):
            received.setdefault(setup.algorithm, set()).add((lo, hi))
            return original(setup, lo, hi)

        monkeypatch.setattr(harness, "run_chunk", recording)
        monkeypatch.setattr(FakePool, "made", [])
        monkeypatch.setattr(harness, "_open_pool", FakePool)
        result = run_experiment(spec, workers=workers)
        assert len(FakePool.made) == (workers > 1)
        assert result.metadata["chunks"] == {algo: [list(b) for b in sorted(r)] for algo, r in received.items()}


class TestAggregation:
    def test_mean_and_stderr_match_manual_trials(self):
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

    def test_stderr_matches_per_trial_values_near_capacity(self):
        # at 30 dB from the true direction the final-slot rates sit within
        # ~1e-8 of a mean near 14: the spread survives only if the variance
        # is formed from deviations, not as sum(v^2) - n*mean^2
        from beamtrack.harness import simulate

        spec = ExperimentSpec(kind="static-convergence", m_data=16, snr_db=30.0, n_slots=2000, n_trials=1024, seed=3)
        series, extras = simulate(spec, "recursive", spec.build_model(), 1024, 2000, x0_mode="true")
        per_trial = slot_metrics(spec.cfg_data, extras["final_estimate"], extras["final_x"], spec.beta, spec.rho)
        for name in ("rate", "mse_h"):
            values = per_trial[name]
            expected = values.std(ddof=1) / math.sqrt(values.size)
            assert expected > 0
            np.testing.assert_allclose(series.stderr[name][-1], expected, rtol=1e-6)


HALF_PI = 0.5 * math.pi
# alpha, |pilot| and |beta| log-uniform across MAGNITUDE_RANGE and just past its ends
_MAGNITUDE = st.floats(-51.0, 51.0).map(lambda e: 10.0**e)
_COMPLEX = st.tuples(_MAGNITUDE, st.floats(-math.pi, math.pi)).map(lambda t: cmath.rect(*t))
# every spec field at tiny sizes: most draws are valid, the rest are rejected
# (a baseline on a sub-array, an omega past the bound, ...)
_SPEC_FIELDS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(KINDS),
        "m_data": st.integers(2, 8),
        "n_trials": st.integers(1, 4),
        "n_slots": st.integers(1, 5),
        "seed": st.integers(0, 2**32),
        "snr_db": st.sampled_from([-300.0, -200.0, 0.0, 300.0]) | st.floats(-300.0, 300.0),
        "algorithms": st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True).map(tuple),
        "omegas": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2).map(tuple),
    },
    optional={
        "m_track": st.integers(2, 8),
        "spacing_ratio": st.floats(0.05, 2.0),
        "stage1_snr_db": st.floats(-300.0, 300.0),
        "pilot": _COMPLEX,
        "beta": _COMPLEX,
        "no_noise": st.booleans(),
        "schedule": st.sampled_from(["diminishing", "fixed"]),
        "alpha": _MAGNITUDE,
        "n0": st.floats(0.0, 1e3),
        "x": st.floats(-1.0, 1.0),
        "m0": st.integers(2, 32),
        "traj_kind": st.sampled_from(["sinusoid", "fixed-velocity"]),
        "sinusoid_amplitude": st.floats(-HALF_PI, HALF_PI),
        "sinusoid_period": st.integers(1, 1000),
        "sinusoid_jitter_std": st.floats(0.0, 0.1),
        "omega": st.floats(0.0, HALF_PI),
        "bound": st.floats(1e-3, HALF_PI),
        "theta0": st.floats(-HALF_PI, HALF_PI),
        "pilots_per_sec": st.floats(0.1, 100.0),
        "rate_fraction": st.floats(1e-3, 1.0),
        "kf_q": st.floats(0.0, 1.0),
        "kf_p0": st.floats(1e-6, 10.0),
        "x0_hat": st.floats(-1.0, 1.0),
        "delta": st.floats(1e-4, 0.5),
    },
)
# a table search's range, with a tolerance of at least 1/64 of it
_TABLE_RANGE = st.tuples(st.floats(0.0, HALF_PI), st.floats(0.0, HALF_PI), st.integers(1, 64)).map(
    lambda t: {"omega_lo": t[0], "omega_hi": t[1], "omega_tol": max(abs(t[1] - t[0]) / t[2], 1e-3)}
)
_SPECS = st.tuples(_SPEC_FIELDS, st.just({}) | _TABLE_RANGE).map(lambda t: {**t[0], **t[1]})


def _allowed_nans(spec: ExperimentSpec, result) -> set:
    """The summary rows documented to be NaN for this run."""
    rows = {(p, a): v for p, a, v in result.summary}
    allowed = set()
    if spec.kind == "theory-diagnostics":
        if rows.get(("convergence_bound_applicable", "theory")) == 0.0:
            allowed.add(("convergence_bound", "theory"))
        if spec.resolved_alpha() <= analysis.stability_threshold(spec.cfg_track):
            allowed.add(("asymptotic_variance", "theory"))
    if spec.kind == "max-velocity-table":
        threshold = spec.rate_fraction * capacity(spec.cfg_data, spec.rho)
        for algo in spec.algorithms:
            rates = [r for a, _, r in result.extras["evals"] if a == algo]
            if len(rates) == 2 and max(rates) < threshold:  # not even omega_lo holds the fraction
                allowed |= {("max_omega_rad_per_slot", algo), ("max_velocity_deg_per_sec", algo)}
    return allowed


class TestEverySpecKind:
    @given(_SPECS)
    @settings(max_examples=200, deadline=None, derandomize=True)
    # capacity once underflowed to 0 here: a division by zero, and a table
    # search that every rate passed
    @example({"kind": "dynamic-trajectory", "m_data": 13, "snr_db": -200.0, "n_trials": 1, "n_slots": 1, "seed": 3})
    @example({"kind": "max-velocity-table", "m_data": 8, "snr_db": -200.0, "n_trials": 2, "n_slots": 5, "seed": 3})
    # the convergence bound's exp(L*(T + a_1)) once raised OverflowError here
    @example({"kind": "theory-diagnostics", "m_data": 8, "n_trials": 1, "n_slots": 1, "seed": 0, "snr_db": 10.0,
              "x": 0.0, "x0_hat": 0.05, "delta": 0.0499999999, "n0": 1e3})
    # the ends of the magnitude range, at both ends of the SNR range
    @example({"kind": "static-convergence", "m_data": 5, "n_trials": 3, "n_slots": 4, "seed": 1,
              "snr_db": -300.0, "stage1_snr_db": 300.0, "algorithms": ALGORITHMS, "omegas": (0.1,),
              "schedule": "fixed", "alpha": 1e50, "pilot": 1e-50j, "beta": 1e50 + 0j})
    @example({"kind": "theory-diagnostics", "m_data": 8, "n_trials": 1, "n_slots": 3, "seed": 0,
              "snr_db": 300.0, "omegas": (0.1,), "x": 0.0, "x0_hat": 0.05, "delta": 0.04, "n0": 10.0,
              "alpha": 1e-50, "pilot": 1e50 + 0j, "beta": -1e-50j})
    def test_a_spec_is_rejected_naming_a_field_or_runs_soundly(self, fields):
        lo, hi = harness.MAGNITUDE_RANGE
        outside = [name for name in ("alpha", "pilot", "beta") if name in fields and not lo <= abs(fields[name]) <= hi]
        for name in outside:
            with pytest.raises(ConfigError, match=f"^{name}:"):
                ExperimentSpec(kind="static-convergence", **{name: fields[name]})
        try:
            spec = ExperimentSpec(**fields)
        except ConfigError as exc:
            names = {f.name for f in dataclasses.fields(ExperimentSpec)} | {"omega_lo/omega_hi"}
            assert str(exc).split(":")[0] in names, str(exc)
            return
        assert not outside, outside
        with tempfile.TemporaryDirectory() as out_dir:
            result = run_experiment(spec, out_dir)
            with open(os.path.join(out_dir, "metadata.json"), encoding="utf-8") as fh:
                meta = json.load(fh)
        allowed = _allowed_nans(spec, result)
        for param, algo, value in result.summary:
            assert math.isfinite(value) or (param, algo) in allowed, (param, algo, value)
            assert param != "capacity_bits" or value > 0, value
        ceiling = capacity(spec.cfg_data, spec.rho) * (1 + 1e-12)
        rates = [r for s in result.series.values() for r in s.rate]
        rates += [row[2] for row in result.extras.get("sweep_table", [])]
        rates += [row[2] for row in result.extras.get("evals", [])]
        assert all(r <= ceiling for r in rates), (max(rates), ceiling)
        for counters in meta.get("health", {}).values():
            assert all(0 <= v <= spec.n_trials * spec.n_slots for v in counters.values()), counters
