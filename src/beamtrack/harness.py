"""Monte-Carlo experiment harness.

Turns a declarative :class:`ExperimentSpec` into simulated trials, aggregates
per-slot metrics across trials (mean plus standard error), and serializes the
results as CSV.  Six experiment kinds are supported:

* ``static-convergence``: MSE/rate curves for a fixed direction, with the
  minimum-CRLB overlay.
* ``dynamic-trajectory``: AoA and rate traces along a moving direction.
* ``velocity-sweep``: mean rate and MSE versus angular velocity.
* ``max-velocity-table``: binary search for the largest velocity that keeps
  a target fraction of capacity.
* ``init-success-rate``: probability that the coarse sweep lands inside the
  mainlobe.
* ``theory-diagnostics``: closed-form constants from the analysis module.

Trials are split into fixed-size chunks; chunk results are reduced in chunk
order with compensated summation, so the output is bitwise identical for any
worker count.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import analysis, dynamics
from .arrays import ArrayConfig
from .crlb import asymptotic_channel_crlb, max_fisher_information, min_crlb_x
from .engine import ALGORITHMS, BASELINE_ALGORITHMS, ChunkResult, TrialSetup, run_chunk
from .metrics import METRIC_NAMES, MetricSeries, capacity
from .trackers import DiminishingStep, FixedStep, alpha_star

KINDS = (
    "static-convergence",
    "dynamic-trajectory",
    "velocity-sweep",
    "max-velocity-table",
    "init-success-rate",
    "theory-diagnostics",
)

_DYNAMIC_KINDS = ("dynamic-trajectory", "velocity-sweep", "max-velocity-table")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run."""

    kind: str
    m_data: int = 16
    m_track: int | None = None
    spacing_ratio: float = 0.5
    snr_db: float = 10.0
    stage1_snr_db: float | None = None
    pilot: complex = (1 - 1j) / math.sqrt(2)
    beta: complex = (1 + 1j) / math.sqrt(2)
    no_noise: bool = False
    algorithms: tuple = ("recursive",)
    n_slots: int = 2000
    n_trials: int = 1000
    seed: int = 0
    schedule: str | None = None  # "diminishing" | "fixed"; None picks per kind
    alpha: float | None = None  # None -> alpha_star of the tracking array
    n0: float = 0.0
    m0: int | None = None  # None -> 2 * m_track
    # static direction (None draws x uniformly per trial)
    x: float | None = None
    # dynamic trajectory
    traj_kind: str = "sinusoid"  # "sinusoid" | "fixed-velocity"
    sinusoid_amplitude: float = math.pi / 3
    sinusoid_period: int = 1000
    sinusoid_jitter_std: float = 0.005
    omega: float = 0.0
    bound: float = math.pi / 3
    theta0: float = 0.0
    # velocity sweep / table search
    omegas: tuple = ()
    omega_lo: float = 0.0
    omega_hi: float = 0.3
    omega_tol: float = 2e-3
    pilots_per_sec: float = 5.0
    rate_fraction: float = 0.95
    # baseline tuning
    kf_q: float | None = None
    kf_p0: float = 1e-2
    # theory diagnostics / fixed initialization
    x0_hat: float | None = None
    delta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "omegas", tuple(self.omegas))
        validate_spec(self)

    @property
    def track_antennas(self) -> int:
        return self.m_track if self.m_track is not None else self.m_data

    @property
    def rho(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def stage1_rho(self) -> float:
        db = self.stage1_snr_db if self.stage1_snr_db is not None else self.snr_db
        return 10.0 ** (db / 10.0)

    @property
    def cfg_track(self) -> ArrayConfig:
        return ArrayConfig(self.track_antennas, self.spacing_ratio)

    @property
    def cfg_data(self) -> ArrayConfig:
        return ArrayConfig(self.m_data, self.spacing_ratio)

    def resolved_alpha(self) -> float:
        return self.alpha if self.alpha is not None else alpha_star(self.cfg_track)

    def resolved_schedule(self):
        name = self.schedule
        if name is None:
            name = "diminishing" if self.kind in ("static-convergence", "init-success-rate") else "fixed"
        if name == "diminishing":
            return DiminishingStep(self.resolved_alpha(), self.n0)
        if name == "fixed":
            return FixedStep(self.resolved_alpha())
        raise ConfigError(f"schedule: unknown value {name!r}")

    def build_model(self) -> dynamics.TrajectoryModel | None:
        if self.kind in ("static-convergence", "init-success-rate"):
            return dynamics.Static(self.x) if self.x is not None else None
        if self.traj_kind == "sinusoid":
            return dynamics.SinusoidJitter(
                self.sinusoid_amplitude, self.sinusoid_period, self.sinusoid_jitter_std
            )
        return dynamics.FixedVelocity(self.omega, self.bound, self.theta0)


def validate_spec(spec: ExperimentSpec) -> None:
    if spec.kind not in KINDS:
        raise ConfigError(f"kind: unknown experiment kind {spec.kind!r}")
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        for v in value if f.name == "omegas" else (value,):
            if isinstance(v, (float, complex)) and not cmath.isfinite(v):
                raise ConfigError(f"{f.name}: must be finite, got {v!r}")
    if not isinstance(spec.seed, (int, np.integer)) or spec.seed < 0:
        raise ConfigError(f"seed: must be an integer >= 0, got {spec.seed!r}")
    # 10**(dB/10) overflows past ~3080 dB and underflows to rho = 0 below ~-3230 dB
    for name in ("snr_db", "stage1_snr_db"):
        db = getattr(spec, name)
        if db is not None and not -300.0 <= db <= 300.0:
            raise ConfigError(f"{name}: must lie in [-300, 300] dB")
    if spec.m_data < 2:
        raise ConfigError("m_data: must be >= 2")
    if spec.m_track is not None and not 2 <= spec.m_track <= spec.m_data:
        raise ConfigError("m_track: must satisfy 2 <= m_track <= m_data")
    if not spec.spacing_ratio > 0:
        raise ConfigError("spacing_ratio: must be > 0")
    if spec.n_trials < 1:
        raise ConfigError("n_trials: must be >= 1")
    if spec.n_slots < 1:
        raise ConfigError("n_slots: must be >= 1")
    if abs(spec.pilot) == 0:
        raise ConfigError("pilot: must be nonzero")
    if spec.beta == 0:
        raise ConfigError("beta: must be nonzero")
    for algo in spec.algorithms:
        if algo not in ALGORITHMS:
            raise ConfigError(f"algorithms: unknown algorithm {algo!r}")
        if algo in BASELINE_ALGORITHMS and spec.m_track not in (None, spec.m_data):
            raise ConfigError(
                f"algorithms: baseline {algo!r} runs on the full data array; m_track must equal m_data"
            )
    if spec.x is not None and not -1.0 <= spec.x <= 1.0:
        raise ConfigError("x: must lie in [-1, 1]")
    if spec.alpha is not None and not spec.alpha > 0:
        raise ConfigError("alpha: must be > 0")
    if spec.n0 < 0:
        raise ConfigError("n0: must be >= 0")
    if spec.m0 is not None and spec.m0 < spec.track_antennas:
        raise ConfigError("m0: must be >= the number of tracking antennas")
    if spec.traj_kind not in ("sinusoid", "fixed-velocity"):
        raise ConfigError(f"traj_kind: unknown value {spec.traj_kind!r}")
    if spec.sinusoid_period < 1:
        raise ConfigError("sinusoid_period: must be >= 1")
    if spec.sinusoid_jitter_std < 0:
        raise ConfigError("sinusoid_jitter_std: must be >= 0")
    if not spec.bound > 0:
        raise ConfigError("bound: must be > 0")
    if abs(spec.theta0) > spec.bound:
        raise ConfigError("theta0: must lie within [-bound, bound]")
    # a fixed-velocity triangle wave stays within +-bound only for omega <= bound
    if spec.omega < 0 or (spec.traj_kind == "fixed-velocity" and spec.omega > spec.bound):
        raise ConfigError(f"omega: must lie in [0, bound], got {spec.omega!r}")
    for omega in spec.omegas:
        if not 0 <= omega <= spec.bound:
            raise ConfigError(f"omegas: every entry must lie in [0, bound], got {omega!r}")
    if spec.kind == "velocity-sweep" and not spec.omegas:
        raise ConfigError("omegas: velocity-sweep requires at least one omega")
    if spec.schedule not in (None, "diminishing", "fixed"):
        raise ConfigError(f"schedule: unknown value {spec.schedule!r}")
    if not 0 < spec.rate_fraction <= 1:
        raise ConfigError("rate_fraction: must lie in (0, 1]")
    if spec.kind == "max-velocity-table":
        if not 0 <= spec.omega_lo < spec.omega_hi:
            raise ConfigError("omega_lo/omega_hi: need 0 <= omega_lo < omega_hi")
        if spec.omega_hi > spec.bound:
            raise ConfigError("omega_hi: must be <= bound")
        if not spec.omega_tol > 0:
            raise ConfigError("omega_tol: must be > 0")
        if not spec.pilots_per_sec > 0:
            raise ConfigError("pilots_per_sec: must be > 0")


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    series: dict
    summary: list
    extras: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# chunked simulation


def _chunk_size(algorithm: str, n_slots: int, per_trial_traj: bool) -> int:
    """Fixed chunking (independent of worker count) sized to bound memory."""
    base = 128 if algorithm == "cs" else 512
    per_trial_bytes = 16 * n_slots * (2 if per_trial_traj else 1)
    if algorithm == "cs":
        per_trial_bytes += 16 * n_slots + 16 * 2048
    while base > 8 and base * per_trial_bytes > 2.7e8:
        base //= 2
    return base


def _run_chunk_task(args):
    setup, lo, hi, collect = args
    return run_chunk(setup, lo, hi, collect)


class _Kahan:
    """Compensated accumulation of per-slot arrays in fixed chunk order."""

    def __init__(self, n: int):
        self.total = np.zeros(n)
        self._c = np.zeros(n)

    def add(self, values: np.ndarray):
        y = values - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


def simulate(
    spec: ExperimentSpec,
    algorithm: str,
    model,
    n_trials: int,
    n_slots: int,
    workers: int = 1,
    collect=(),
    x0_mode: str = "sweep",
    x0_value: float = 0.0,
    excursion_burn_in: int = 0,
    excursion_threshold_rad: float | None = None,
    schedule=None,
):
    """Run all trials of one algorithm; returns (MetricSeries, extras dict)."""
    setup = TrialSetup(
        algorithm=algorithm,
        cfg_track=spec.cfg_track,
        cfg_data=spec.cfg_data,
        rho=spec.rho,
        stage1_rho=spec.stage1_rho,
        beta=spec.beta,
        pilot=spec.pilot,
        no_noise=spec.no_noise,
        schedule=schedule if schedule is not None else spec.resolved_schedule(),
        model=model,
        n_slots=n_slots,
        m0=spec.m0 if spec.m0 is not None else 2 * spec.track_antennas,
        base_seed=spec.seed,
        x0_mode=x0_mode,
        x0_value=x0_value,
        kf_q=spec.kf_q,
        kf_p0=spec.kf_p0,
        excursion_burn_in=excursion_burn_in,
        excursion_threshold_rad=excursion_threshold_rad,
    )
    per_trial_traj = isinstance(model, dynamics.SinusoidJitter)
    chunk = _chunk_size(algorithm, n_slots, per_trial_traj)
    bounds = [(lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)]
    tasks = [(setup, lo, hi, tuple(collect)) for lo, hi in bounds]

    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_chunk_task, tasks))
    else:
        results = [_run_chunk_task(t) for t in tasks]

    return _reduce_chunks(results, n_slots, n_trials)


def _reduce_chunks(results: list[ChunkResult], n_slots: int, n_trials: int):
    defined = results[0].defined
    sums = {k: _Kahan(n_slots) for k in defined}
    sumsqs = {k: _Kahan(n_slots) for k in defined}
    for res in results:
        for k in defined:
            sums[k].add(res.sums[k])
            sumsqs[k].add(res.sumsqs[k])

    values = {}
    stderr = {}
    for k in METRIC_NAMES:
        if k in defined:
            mean = sums[k].total / n_trials
            if n_trials > 1:
                var = np.maximum(sumsqs[k].total - n_trials * mean**2, 0.0) / (n_trials - 1)
                stderr[k] = np.sqrt(var / n_trials)
            else:
                stderr[k] = np.full(n_slots, np.nan)
            values[k] = mean
        else:
            values[k] = np.full(n_slots, np.nan)
            stderr[k] = np.full(n_slots, np.nan)

    series = MetricSeries(
        slots=np.arange(1, n_slots + 1),
        n_trials=n_trials,
        stderr=stderr,
        **values,
    )
    extras = {}
    if results[0].extras:
        for name in results[0].extras:
            extras[name] = np.concatenate([r.extras[name] for r in results])
    return series, extras


# ---------------------------------------------------------------------------
# experiment kinds


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None, workers: int = 1) -> ExperimentResult:
    """Execute the experiment described by ``spec``.

    Deterministic for a given spec and seed regardless of ``workers``.  When
    ``out_dir`` is given, per-metric CSV series, a summary CSV, and a JSON
    metadata echo of the resolved spec are written there.
    """
    runner = {
        "static-convergence": _run_static,
        "dynamic-trajectory": _run_dynamic,
        "velocity-sweep": _run_sweep,
        "max-velocity-table": _run_table,
        "init-success-rate": _run_init_rate,
        "theory-diagnostics": _run_theory,
    }[spec.kind]
    result = runner(spec, workers)
    result.metadata.update(
        spec=_spec_dict(spec),
        chunking="fixed per algorithm; reduction order independent of workers",
    )
    if out_dir is not None:
        write_result(result, out_dir)
    return result


def _run_static(spec: ExperimentSpec, workers: int) -> ExperimentResult:
    model = spec.build_model()
    series = {}
    summary = []
    cap = capacity(spec.cfg_data, spec.rho)
    summary.append(("capacity_bits", "theory", cap))
    sigma2 = abs(spec.pilot * spec.beta) ** 2 / spec.rho
    crlb_h_limit = asymptotic_channel_crlb(spec.cfg_data, sigma2, abs(spec.pilot) ** 2)
    summary.append(("crlb_n_mse_h_limit", "theory", crlb_h_limit))
    for algo in spec.algorithms:
        s, _ = simulate(spec, algo, model, spec.n_trials, spec.n_slots, workers)
        series[algo] = s
        n = spec.n_slots
        if not math.isnan(s.mse_h[-1]):
            summary.append(("mse_h_final", algo, float(s.mse_h[-1])))
            summary.append(("n_mse_h_final", algo, float(n * s.mse_h[-1])))
        summary.append(("rate_final", algo, float(s.rate[-1])))
    extras = {
        "crlb_overlay": {
            "slots": np.arange(1, spec.n_slots + 1),
            "min_crlb_x": np.array(
                [min_crlb_x(spec.cfg_track, spec.rho, n) for n in range(1, spec.n_slots + 1)]
            ),
            "min_crlb_h": crlb_h_limit / np.arange(1, spec.n_slots + 1),
        }
    }
    return ExperimentResult(spec=spec, series=series, summary=summary, extras=extras)


def _run_dynamic(spec: ExperimentSpec, workers: int) -> ExperimentResult:
    model = spec.build_model()
    series = {}
    summary = [("capacity_bits", "theory", capacity(spec.cfg_data, spec.rho))]
    for algo in spec.algorithms:
        s, _ = simulate(spec, algo, model, spec.n_trials, spec.n_slots, workers)
        series[algo] = s
        mean_rate = float(np.mean(s.rate))
        summary.append(("mean_rate", algo, mean_rate))
        summary.append(
            ("rate_fraction", algo, mean_rate / capacity(spec.cfg_data, spec.rho))
        )
        if not math.isnan(s.aoa_error_deg[-1]):
            summary.append(("mean_aoa_error_deg", algo, float(np.nanmean(s.aoa_error_deg))))
    return ExperimentResult(spec=spec, series=series, summary=summary)


def _mean_rate_at(spec: ExperimentSpec, algo: str, omega: float, workers: int) -> float:
    model = dynamics.FixedVelocity(omega, spec.bound, spec.theta0)
    s, _ = simulate(spec, algo, model, spec.n_trials, spec.n_slots, workers)
    return float(np.mean(s.rate))


def _run_sweep(spec: ExperimentSpec, workers: int) -> ExperimentResult:
    summary = [("capacity_bits", "theory", capacity(spec.cfg_data, spec.rho))]
    table = []
    for omega in spec.omegas:
        model = dynamics.FixedVelocity(omega, spec.bound, spec.theta0)
        for algo in spec.algorithms:
            s, _ = simulate(spec, algo, model, spec.n_trials, spec.n_slots, workers)
            mean_rate = float(np.mean(s.rate))
            mean_mse = float(np.mean(s.mse_h)) if not np.isnan(s.mse_h).all() else float("nan")
            table.append((omega, algo, mean_rate, mean_mse))
            summary.append((f"mean_rate@omega={omega:.6g}", algo, mean_rate))
            summary.append((f"mean_mse_h@omega={omega:.6g}", algo, mean_mse))
    return ExperimentResult(spec=spec, series={}, summary=summary, extras={"sweep_table": table})


def _run_table(spec: ExperimentSpec, workers: int) -> ExperimentResult:
    """Binary search for the largest omega holding rate_fraction of capacity."""
    threshold = spec.rate_fraction * capacity(spec.cfg_data, spec.rho)
    summary = [("capacity_bits", "theory", capacity(spec.cfg_data, spec.rho))]
    evals = []
    for algo in spec.algorithms:
        lo, hi = spec.omega_lo, spec.omega_hi
        rate_hi = _mean_rate_at(spec, algo, hi, workers)
        evals.append((algo, hi, rate_hi))
        if rate_hi >= threshold:
            best = hi
        else:
            rate_lo = _mean_rate_at(spec, algo, lo, workers)
            evals.append((algo, lo, rate_lo))
            if rate_lo < threshold:
                best = float("nan")  # cannot hold the fraction even when static
            else:
                while hi - lo > spec.omega_tol:
                    mid = 0.5 * (lo + hi)
                    r = _mean_rate_at(spec, algo, mid, workers)
                    evals.append((algo, mid, r))
                    if r >= threshold:
                        lo = mid
                    else:
                        hi = mid
                best = lo
        deg_per_sec = best * spec.pilots_per_sec * 180.0 / math.pi
        summary.append(("max_omega_rad_per_slot", algo, best))
        summary.append(("max_velocity_deg_per_sec", algo, deg_per_sec))
    return ExperimentResult(spec=spec, series={}, summary=summary, extras={"evals": evals})


def _run_init_rate(spec: ExperimentSpec, workers: int) -> ExperimentResult:
    model = spec.build_model()
    _, extras = simulate(
        spec, "recursive", model, spec.n_trials, 1, workers, collect=("init_in_mainlobe",)
    )
    ok = extras["init_in_mainlobe"]
    p = float(np.mean(ok))
    stderr = math.sqrt(max(p * (1 - p), 1e-12) / len(ok))
    summary = [
        ("init_success_rate", "coarse-sweep", p),
        ("init_success_stderr", "coarse-sweep", stderr),
        ("n_trials", "coarse-sweep", float(len(ok))),
    ]
    return ExperimentResult(spec=spec, series={}, summary=summary, extras={"success": ok})


def _run_theory(spec: ExperimentSpec, workers: int) -> ExperimentResult:
    cfg = spec.cfg_track
    x = spec.x if spec.x is not None else 0.5
    sp = analysis.stable_points(cfg, x)
    lobe = analysis.mainlobe(cfg, x)
    a_star = alpha_star(cfg)
    alpha = spec.resolved_alpha()
    rows = [
        ("alpha_star", "theory", a_star),
        ("lipschitz_L", "theory", analysis.lipschitz_constant(cfg)),
        ("stability_threshold", "theory", analysis.stability_threshold(cfg)),
        ("i_max", "theory", max_fisher_information(cfg, spec.rho)),
        ("mainlobe_lo", "theory", lobe[0]),
        ("mainlobe_hi", "theory", lobe[1]),
        ("stable_point_spacing", "theory", sp.spacing),
        ("stable_point_count", "theory", float(sp.points.size)),
    ]
    try:
        rows.append(("asymptotic_variance", "theory", analysis.asymptotic_variance(cfg, spec.rho, alpha)))
    except ValueError:
        rows.append(("asymptotic_variance", "theory", float("nan")))
    bound_res = None
    if spec.delta is not None and spec.x0_hat is not None:
        bound_res = analysis.convergence_bound(cfg, spec.rho, alpha, spec.n0, x, spec.x0_hat, spec.delta)
        rows.append(
            ("convergence_bound", "theory", bound_res.value if bound_res.applicable else float("nan"))
        )
        rows.append(("convergence_bound_applicable", "theory", float(bound_res.applicable)))
    return ExperimentResult(
        spec=spec,
        series={},
        summary=rows,
        extras={"stable_points": sp, "bound": bound_res},
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def write_series_csv(path: str, series: MetricSeries, metric: str) -> None:
    """One metric per file: header ``slot,metric,mean,stderr,n_trials``."""
    mean = series.metric(metric)
    err = series.stderr.get(metric)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("slot,metric,mean,stderr,n_trials\n")
        for i, slot in enumerate(series.slots):
            e = err[i] if err is not None else float("nan")
            fh.write(f"{int(slot)},{metric},{_fmt(mean[i])},{_fmt(e)},{series.n_trials}\n")


def write_summary_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("param,algorithm,value\n")
        for param, algo, value in rows:
            fh.write(f"{param},{algo},{_fmt(value)}\n")


def _spec_dict(spec: ExperimentSpec) -> dict:
    d = dataclasses.asdict(spec)
    for key in ("pilot", "beta"):
        d[key] = str(d[key])
    return d


def write_result(result: ExperimentResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for algo, series in result.series.items():
        for metric in METRIC_NAMES:
            write_series_csv(os.path.join(out_dir, f"{algo}_{metric}.csv"), series, metric)
    write_summary_csv(os.path.join(out_dir, "summary.csv"), result.summary)
    overlay = result.extras.get("crlb_overlay")
    if overlay is not None:
        with open(os.path.join(out_dir, "crlb_overlay.csv"), "w", encoding="utf-8") as fh:
            fh.write("slot,min_crlb_x,min_crlb_h\n")
            for i, slot in enumerate(overlay["slots"]):
                fh.write(
                    f"{int(slot)},{_fmt(overlay['min_crlb_x'][i])},{_fmt(overlay['min_crlb_h'][i])}\n"
                )
    table = result.extras.get("sweep_table")
    if table is not None:
        with open(os.path.join(out_dir, "sweep.csv"), "w", encoding="utf-8") as fh:
            fh.write("omega,algorithm,mean_rate,mean_mse_h\n")
            for omega, algo, mean_rate, mean_mse in table:
                fh.write(f"{_fmt(omega)},{algo},{_fmt(mean_rate)},{_fmt(mean_mse)}\n")
    with open(os.path.join(out_dir, "metadata.json"), "w", encoding="utf-8") as fh:
        json.dump(result.metadata, fh, indent=2, sort_keys=True)
