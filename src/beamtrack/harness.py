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

Trials are split into fixed-size chunks.  Each chunk reports a per-slot
(count, mean, M2) record of every metric, and the records are merged in chunk
order with the pairwise update of Chan, Golub & LeVeque (1979), so the output
is bitwise identical for any worker count and the standard errors do not
suffer the cancellation of sum(v^2) - n*mean^2.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import json
import math
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import analysis, dynamics
from .arrays import ArrayConfig
from .crlb import asymptotic_channel_crlb, max_fisher_information, min_crlb_x
from .engine import ALGORITHMS, BASELINE_ALGORITHMS, ChunkResult, TrialSetup, run_chunk
from .metrics import METRIC_NAMES, SlotStats, capacity
from .trackers import DiminishingStep, FixedStep, alpha_star

_HALF_PI = 0.5 * math.pi


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
    algorithms: tuple[str, ...] = ("recursive",)
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
    omegas: tuple[float, ...] = ()
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
        validate_spec(self)
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "omegas", tuple(self.omegas))

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

    def channel_crlb_limit(self) -> float:
        """Limit of n*MSE(h) for the optimal tracker on the data array."""
        sigma2 = abs(self.pilot * self.beta) ** 2 / self.rho
        return asymptotic_channel_crlb(self.cfg_data, sigma2, abs(self.pilot) ** 2)

    def resolved_alpha(self) -> float:
        return self.alpha if self.alpha is not None else alpha_star(self.cfg_track)

    def resolved_schedule(self):
        name = self.schedule
        if name is None:
            name = "diminishing" if self.kind in ("static-convergence", "init-success-rate") else "fixed"
        if name == "diminishing":
            return DiminishingStep(self.resolved_alpha(), self.n0)
        return FixedStep(self.resolved_alpha())  # "fixed": validate_spec admits no other name

    def build_model(self) -> dynamics.TrajectoryModel | None:
        if self.kind in ("static-convergence", "init-success-rate"):
            return dynamics.Static(self.x) if self.x is not None else None
        if self.traj_kind == "sinusoid":
            return dynamics.SinusoidJitter(
                self.sinusoid_amplitude, self.sinusoid_period, self.sinusoid_jitter_std
            )
        return dynamics.FixedVelocity(self.omega, self.bound, self.theta0)


_FIELD_TYPES = typing.get_type_hints(ExperimentSpec)
# what a field annotated with the key accepts: builtin types only, so that
# metadata.json can echo the spec; bool is accepted by bool fields only
_ACCEPTED = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    complex: ((int, float, complex), "a number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


def _type_problem(hint, value) -> str | None:
    """Why ``value`` cannot fill a field annotated ``hint``; None if it can."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return f"must be an array, got {value!r}"
        problems = (_type_problem(args[0], v) for v in value)
        return next((f"every entry {p}" for p in problems if p), None)
    if args:  # X | None
        if value is None:
            return None
        hint = args[0]
    accepted, what = _ACCEPTED[hint]
    if isinstance(value, bool) == (hint is bool) and isinstance(value, accepted):
        return None
    return f"must be {what}, got {value!r}"


def validate_spec(spec: ExperimentSpec) -> None:
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        problem = _type_problem(_FIELD_TYPES[f.name], value)
        if problem:
            raise ConfigError(f"{f.name}: {problem}")
        for v in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(v, (float, complex)) and not cmath.isfinite(v):
                raise ConfigError(f"{f.name}: must be finite, got {v!r}")
    if spec.kind not in KINDS:
        raise ConfigError(f"kind: unknown experiment kind {spec.kind!r}")
    if spec.seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {spec.seed!r}")
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
    # LS inverts the sweep codebook as W^H, which is W^-1 only at half-wavelength spacing
    if "ls" in spec.algorithms and spec.spacing_ratio != 0.5:
        raise ConfigError(f"spacing_ratio: algorithm 'ls' needs 0.5, got {spec.spacing_ratio!r}")
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
    # past pi/2 the direction folds back and sin(theta) no longer identifies theta
    if not 0 < spec.bound <= _HALF_PI:
        raise ConfigError(f"bound: must lie in (0, pi/2], got {spec.bound!r}")
    if abs(spec.sinusoid_amplitude) > _HALF_PI:
        raise ConfigError(f"sinusoid_amplitude: |amplitude| must be <= pi/2, got {spec.sinusoid_amplitude!r}")
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


def _chunk_size(algorithm: str, n_slots: int, per_trial_traj: bool, m: int) -> int:
    """Fixed chunking (independent of worker count) sized to bound memory.

    The budget per trial and slot is one complex noise sample (16 B), the
    true x of a per-trial trajectory (8 B) and, for CS, the slot's int8 probe
    indices (``m`` B).  ``run_chunk`` keeps its noise as one block, scaled in
    place, so the noise term is what a chunk holds, not a lower bound.
    """
    base = 128 if algorithm == "cs" else 512
    per_slot_bytes = 16 + (8 if per_trial_traj else 0) + (m if algorithm == "cs" else 0)
    while base > 8 and base * per_slot_bytes * n_slots > 2.7e8:
        base //= 2
    return base


def _run_chunk_task(args):
    setup, lo, hi, collect = args
    return run_chunk(setup, lo, hi, collect)


def simulate(spec: ExperimentSpec, algorithm: str, model, n_trials: int, n_slots: int, workers: int = 1,
             collect=(), **trial):
    """Run all trials of one algorithm; returns (MetricSeries, extras dict).

    The spec sets the array, SNR, signal, m0 and KF fields of the
    :class:`TrialSetup`.  ``trial`` sets any other field: ``x0_mode``,
    ``x0_value``, ``excursion_burn_in``, ``excursion_threshold_rad``, and
    ``schedule`` (default: the spec's resolved schedule).
    """
    trial = {"schedule": spec.resolved_schedule(), **trial}
    setup = TrialSetup(
        algorithm=algorithm,
        cfg_track=spec.cfg_track,
        cfg_data=spec.cfg_data,
        rho=spec.rho,
        stage1_rho=spec.stage1_rho,
        beta=spec.beta,
        pilot=spec.pilot,
        no_noise=spec.no_noise,
        model=model,
        n_slots=n_slots,
        m0=spec.m0 if spec.m0 is not None else 2 * spec.track_antennas,
        base_seed=spec.seed,
        kf_q=spec.kf_q,
        kf_p0=spec.kf_p0,
        **trial,
    )
    per_trial_traj = isinstance(model, dynamics.SinusoidJitter)
    chunk = _chunk_size(algorithm, n_slots, per_trial_traj, spec.cfg_data.num_antennas)
    bounds = [(lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)]
    tasks = [(setup, lo, hi, tuple(collect)) for lo, hi in bounds]

    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_run_chunk_task, tasks))
    else:
        results = [_run_chunk_task(t) for t in tasks]

    return _reduce_chunks(results)


def _reduce_chunks(results: list[ChunkResult]):
    """Merge chunk statistics and concatenate per-trial extras, in chunk order."""
    stats = functools.reduce(SlotStats.merge, (r.stats for r in results))
    extras = {name: np.concatenate([r.extras[name] for r in results]) for name in results[0].extras}
    return stats.series(), extras


# ---------------------------------------------------------------------------
# experiment kinds


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None, workers: int = 1) -> ExperimentResult:
    """Execute the experiment described by ``spec``.

    Deterministic for a given spec and seed regardless of ``workers``.  When
    ``out_dir`` is given, per-metric CSV series, a summary CSV, and a JSON
    metadata echo of the resolved spec are written there.
    """
    result = _RUNNERS[spec.kind](spec, workers)
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
    crlb_h_limit = spec.channel_crlb_limit()
    summary = [
        ("capacity_bits", "theory", capacity(spec.cfg_data, spec.rho)),
        ("crlb_n_mse_h_limit", "theory", crlb_h_limit),
    ]
    for algo in spec.algorithms:
        s, _ = simulate(spec, algo, model, spec.n_trials, spec.n_slots, workers)
        series[algo] = s
        summary.append(("mse_h_final", algo, float(s.mse_h[-1])))
        summary.append(("n_mse_h_final", algo, float(spec.n_slots * s.mse_h[-1])))
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
    cap = capacity(spec.cfg_data, spec.rho)
    summary = [("capacity_bits", "theory", cap)]
    for algo in spec.algorithms:
        s, _ = simulate(spec, algo, model, spec.n_trials, spec.n_slots, workers)
        series[algo] = s
        mean_rate = float(np.mean(s.rate))
        summary.append(("mean_rate", algo, mean_rate))
        summary.append(("rate_fraction", algo, mean_rate / cap))
        if not math.isnan(s.aoa_error_deg[-1]):
            summary.append(("mean_aoa_error_deg", algo, float(np.nanmean(s.aoa_error_deg))))
    return ExperimentResult(spec=spec, series=series, summary=summary)


def _fixed_velocity_series(spec: ExperimentSpec, algo: str, omega: float, workers: int):
    """Per-slot metrics of ``algo`` on the fixed-velocity trajectory at ``omega``."""
    model = dynamics.FixedVelocity(omega, spec.bound, spec.theta0)
    s, _ = simulate(spec, algo, model, spec.n_trials, spec.n_slots, workers)
    return s


def _run_sweep(spec: ExperimentSpec, workers: int) -> ExperimentResult:
    summary = [("capacity_bits", "theory", capacity(spec.cfg_data, spec.rho))]
    table = []
    for omega in spec.omegas:
        for algo in spec.algorithms:
            s = _fixed_velocity_series(spec, algo, omega, workers)
            mean_rate = float(np.mean(s.rate))
            mean_mse = float(np.mean(s.mse_h))
            table.append((omega, algo, mean_rate, mean_mse))
            summary.append((f"mean_rate@omega={omega:.6g}", algo, mean_rate))
            summary.append((f"mean_mse_h@omega={omega:.6g}", algo, mean_mse))
    return ExperimentResult(spec=spec, series={}, summary=summary, extras={"sweep_table": table})


def _run_table(spec: ExperimentSpec, workers: int) -> ExperimentResult:
    """Binary search for the largest omega holding rate_fraction of capacity."""
    cap = capacity(spec.cfg_data, spec.rho)
    threshold = spec.rate_fraction * cap
    summary = [("capacity_bits", "theory", cap)]
    evals = []
    for algo in spec.algorithms:
        def mean_rate(omega):
            return float(np.mean(_fixed_velocity_series(spec, algo, omega, workers).rate))

        lo, hi = spec.omega_lo, spec.omega_hi
        rate_hi = mean_rate(hi)
        evals.append((algo, hi, rate_hi))
        if rate_hi >= threshold:
            best = hi
        else:
            rate_lo = mean_rate(lo)
            evals.append((algo, lo, rate_lo))
            if rate_lo < threshold:
                best = float("nan")  # cannot hold the fraction even when static
            else:
                while hi - lo > spec.omega_tol:
                    mid = 0.5 * (lo + hi)
                    r = mean_rate(mid)
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


_RUNNERS = {
    "static-convergence": _run_static,
    "dynamic-trajectory": _run_dynamic,
    "velocity-sweep": _run_sweep,
    "max-velocity-table": _run_table,
    "init-success-rate": _run_init_rate,
    "theory-diagnostics": _run_theory,
}
KINDS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# serialization


SUMMARY_HEADER = "param,algorithm,value"


def write_csv(path: str, header: str, rows) -> None:
    """``header``, then one line per row: strings as given, every number with
    17 significant digits, which round-trips a float."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join([v if isinstance(v, str) else f"{float(v):.17g}" for v in row]) + "\n")


def _spec_dict(spec: ExperimentSpec) -> dict:
    d = dataclasses.asdict(spec)
    for key in ("pilot", "beta"):
        d[key] = str(d[key])
    return d


def write_result(result: ExperimentResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for algo, series in result.series.items():
        for metric in METRIC_NAMES:
            rows = (
                (slot, metric, mean, err, series.n_trials)
                for slot, mean, err in zip(series.slots, series.metric(metric), series.stderr[metric])
            )
            write_csv(os.path.join(out_dir, f"{algo}_{metric}.csv"), "slot,metric,mean,stderr,n_trials", rows)
    write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_HEADER, result.summary)
    overlay = result.extras.get("crlb_overlay")
    if overlay is not None:
        rows = zip(overlay["slots"], overlay["min_crlb_x"], overlay["min_crlb_h"])
        write_csv(os.path.join(out_dir, "crlb_overlay.csv"), "slot,min_crlb_x,min_crlb_h", rows)
    table = result.extras.get("sweep_table")
    if table is not None:
        write_csv(os.path.join(out_dir, "sweep.csv"), "omega,algorithm,mean_rate,mean_mse_h", table)
    with open(os.path.join(out_dir, "metadata.json"), "w", encoding="utf-8") as fh:
        json.dump(result.metadata, fh, indent=2, sort_keys=True)
