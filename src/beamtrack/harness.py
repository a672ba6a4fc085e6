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

Every run, and the chunk plan that ``metadata.json`` records, takes its
:class:`~beamtrack.engine.TrialSetup` from one builder, ``_trial_setup``,
and its truth from ``ExperimentSpec.build_model``.  Trials are split into
fixed-size chunks by one policy, ``_chunk_bounds``: 2048 trials (128 for CS),
halved down to 8 while a chunk's :func:`~beamtrack.engine.trial_bytes`
pass 2.7e8 B; the engine counts its own buffers.  Each chunk reports a
per-slot (count, mean, M2) record of every metric, and the records are merged in chunk
order with the pairwise update of Chan, Golub & LeVeque (1979), so the output
is bitwise identical for any worker count and the standard errors do not
suffer the cancellation of sum(v^2) - n*mean^2.

With ``workers > 1`` an experiment opens one process pool of at most
``min(workers, chunks)`` processes and queues every algorithm's chunks on it
(every velocity's too, in a sweep) before it reduces any; a table search
reuses the pool across its bisection steps.  ``simulate`` opens no pool of
its own: without one it runs its chunks in the calling process.  Only
``_open_pool`` imports the pool machinery, so a run that opens no pool never
loads ``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import json
import math
import os
import platform
import typing
from dataclasses import dataclass, field

import numpy as np

from . import analysis, dynamics
from .arrays import ArrayConfig
from .crlb import asymptotic_channel_crlb, max_fisher_information, min_crlb_x
from .engine import ALGORITHMS, BASELINE_ALGORITHMS, MAX_TRIALS, ChunkResult, TrialSetup, run_chunk, trial_bytes
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

    def build_model(self, omega: float | None = None) -> dynamics.TrajectoryModel | None:
        """The truth the spec's runs simulate.

        A sweep or table search runs a fixed velocity at each ``omega``; the
        default, 0, serves its chunk plan, which reads only that the truth
        moves.  A dynamic spec runs its own ``omega`` field and ignores the
        argument.
        """
        if self.kind in ("static-convergence", "init-success-rate"):
            return dynamics.Static(self.x) if self.x is not None else None
        if self.kind != "dynamic-trajectory":
            return dynamics.FixedVelocity(omega or 0.0, self.bound, self.theta0)
        if self.traj_kind == "sinusoid":
            return dynamics.SinusoidJitter(self.sinusoid_amplitude, self.sinusoid_period, self.sinusoid_jitter_std)
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


# the admitted magnitudes of alpha, pilot and beta
MAGNITUDE_RANGE = (1e-50, 1e50)


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
    if not 1 <= spec.n_trials <= MAX_TRIALS:
        raise ConfigError(f"n_trials: must lie in [1, 2**32], got {spec.n_trials!r}")
    if spec.n_slots < 1:
        raise ConfigError("n_slots: must be >= 1")
    # inside this range alpha**2, |pilot*beta|**2/rho and the squared
    # deviations of the reported MSE stay finite, and |pilot|**2 nonzero, at
    # every admitted SNR: alpha = 1e200 overflowed, and |pilot| = 1e-200
    # squared to 0
    lo, hi = MAGNITUDE_RANGE
    if spec.alpha is not None and not lo <= spec.alpha <= hi:
        raise ConfigError(f"alpha: must lie in [{lo:g}, {hi:g}], got {spec.alpha!r}")
    for name in ("pilot", "beta"):
        value = getattr(spec, name)
        if not lo <= abs(value) <= hi:
            raise ConfigError(f"{name}: |{name}| must lie in [{lo:g}, {hi:g}], got {value!r}")
    for k, algo in enumerate(spec.algorithms):
        if algo in spec.algorithms[:k]:
            raise ConfigError(f"algorithms: {algo!r} is listed twice")
        if algo not in ALGORITHMS:
            raise ConfigError(f"algorithms: unknown algorithm {algo!r}")
        if algo in BASELINE_ALGORITHMS and spec.m_track not in (None, spec.m_data):
            raise ConfigError(
                f"algorithms: baseline {algo!r} runs on the full data array; m_track must equal m_data"
            )
    if spec.x is not None and not -1.0 <= spec.x <= 1.0:
        raise ConfigError("x: must lie in [-1, 1]")
    if spec.n0 < 0:
        raise ConfigError("n0: must be >= 0")
    if spec.kf_q is not None and spec.kf_q < 0:
        raise ConfigError(f"kf_q: must be >= 0, got {spec.kf_q!r}")
    if not spec.kf_p0 > 0:
        raise ConfigError(f"kf_p0: must be > 0, got {spec.kf_p0!r}")
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
        # a finer tolerance than the float spacing at omega_hi never ends the bisection
        if not spec.omega_tol >= math.ulp(spec.omega_hi):
            raise ConfigError(f"omega_tol: must be >= the float spacing {math.ulp(spec.omega_hi)!r} at omega_hi")
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


def _chunk_bounds(setup: TrialSetup, n_trials: int):
    """Trial ranges [lo, hi) of ``setup``'s fixed chunks, independent of the
    worker count and sized to bound memory.

    ``run_chunk`` draws its tracking noise into one block of at most about
    ``engine._NOISE_BLOCK`` samples, so noise does not grow with n_slots,
    and every algorithm but CS takes 2048-trial chunks (CS keeps 128, so its
    chunks balance a pool's workers).  The chunk halves, down to 8 trials,
    while its trials' :func:`~beamtrack.engine.trial_bytes` exceed a 2.7e8 B
    budget.
    """
    chunk = 128 if setup.algorithm == "cs" else 2048
    while chunk > 8 and chunk * trial_bytes(setup) > 2.7e8:
        chunk //= 2
    return [(lo, min(lo + chunk, n_trials)) for lo in range(0, n_trials, chunk)]


def _trial_setup(spec: ExperimentSpec, algorithm: str, model, n_slots: int, **trial) -> TrialSetup:
    """The :class:`TrialSetup` of ``algorithm`` on ``model`` over ``n_slots``.

    The spec sets the array, SNR, signal, m0 and KF fields.  ``trial`` sets
    any other field: ``x0_mode``, ``x0_value``, ``excursion_burn_in``,
    ``excursion_threshold_rad``, and ``schedule`` (default: the spec's
    resolved schedule).
    """
    trial = {"schedule": spec.resolved_schedule(), **trial}
    return TrialSetup(
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


def _run_chunk_task(args):
    return run_chunk(*args)


def simulate(spec: ExperimentSpec, algorithm: str, model, n_trials: int, n_slots: int, pool=None, **trial):
    """Run all trials of one algorithm; returns the MetricSeries and
    ``run_chunk``'s per-trial extras, concatenated in trial order.

    The trials run the :func:`_trial_setup` of the spec, ``model``,
    ``n_slots`` and ``trial``, in the chunks :func:`_chunk_bounds` gives it.

    Given an executor as ``pool``, the chunks are queued on it at once and
    the call returns a function of no arguments that waits for them and
    returns the pair.  Otherwise the chunks run in this process, in order;
    the call never opens a pool of its own (``run_experiment`` owns the pool).
    """
    setup = _trial_setup(spec, algorithm, model, n_slots, **trial)
    tasks = [(setup, lo, hi) for lo, hi in _chunk_bounds(setup, n_trials)]

    if pool is not None:
        results = pool.map(_run_chunk_task, tasks)  # submits every chunk now
        return lambda: _reduce_chunks(list(results))
    return _reduce_chunks([_run_chunk_task(t) for t in tasks])


def _reduce_chunks(results: list[ChunkResult]):
    """Merge chunk statistics and concatenate per-trial extras, in chunk order."""
    stats = functools.reduce(SlotStats.merge, (r.stats for r in results))
    extras = {name: np.concatenate([r.extras[name] for r in results]) for name in results[0].extras}
    return stats.series(), extras


# run_chunk's per-trial extras that metadata.json sums per algorithm under "health"
HEALTH_COUNTERS = ("init_in_mainlobe", "degenerate_slots")


def _wait(got):
    """The (MetricSeries, extras) pair of a ``simulate`` call, once its chunks are done."""
    return got() if callable(got) else got


def _health(extras) -> dict:
    """An algorithm's health counters from its per-trial extras: the trials
    whose stage-1 sweep landed in the mainlobe and the angular tracker's
    degenerate slots summed over trials."""
    return {name: int(np.sum(extras[name])) for name in HEALTH_COUNTERS}


# ---------------------------------------------------------------------------
# experiment kinds


def _chunk_plan(spec: ExperimentSpec) -> dict:
    """Each simulated algorithm's chunk bounds [lo, hi) in the run of
    ``spec``, from the setups its runner builds; a sweep or table search runs
    them once per velocity."""
    if spec.kind == "theory-diagnostics":
        return {}
    init = spec.kind == "init-success-rate"
    algorithms, n_slots = (("recursive",), 1) if init else (spec.algorithms, spec.n_slots)
    model = spec.build_model()
    return {a: _chunk_bounds(_trial_setup(spec, a, model, n_slots), spec.n_trials) for a in algorithms}


def _queued_chunks(plan: dict, spec: ExperimentSpec) -> int:
    """The most chunks the runner of ``spec`` has queued at once: all of the
    experiment's, except that a table search waits for each velocity."""
    counts = [len(bounds) for bounds in plan.values()]
    if spec.kind == "max-velocity-table":
        return max(counts)
    return sum(counts) * (len(spec.omegas) if spec.kind == "velocity-sweep" else 1)


def _open_pool(size: int):
    """A process pool of ``size`` workers.  The pool machinery
    (``concurrent.futures`` and ``multiprocessing``) is imported here, so a
    run that opens no pool never loads it."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=size)


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None, workers: int = 1) -> ExperimentResult:
    """Execute the experiment described by ``spec``.

    Deterministic for a given spec and seed regardless of ``workers``.  When
    ``out_dir`` is given, per-metric CSV series, a summary CSV, and
    ``metadata.json`` are written there.  The metadata echoes the resolved
    spec and records the run's provenance: the beamtrack, numpy and Python
    versions, ``workers`` and each algorithm's chunk bounds.  A static or
    dynamic run also records each algorithm's ``health`` counters (see
    ``HEALTH_COUNTERS``).  It holds no time, so a spec, worker count and
    install always write the same bytes.

    With ``workers > 1`` and more than one chunk queued at once, the run opens
    one process pool of at most ``min(workers, chunks)`` processes for all of
    its ``simulate`` calls; only then is the pool machinery imported.  If a
    chunk raises, the chunks still queued are cancelled and the error
    propagates.
    """
    plan = _chunk_plan(spec)
    size = min(workers, _queued_chunks(plan, spec))
    pool = _open_pool(size) if size > 1 else None
    try:
        result = _RUNNERS[spec.kind](spec, pool)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    from . import __version__  # defined once the package has imported this module

    result.metadata.update(
        spec=_spec_dict(spec),
        chunking="fixed per algorithm; reduction order independent of workers",
        chunks={algo: [list(b) for b in bounds] for algo, bounds in plan.items()},
        workers=workers,
        versions={"beamtrack": __version__, "numpy": np.__version__, "python": platform.python_version()},
    )
    if out_dir is not None:
        write_result(result, out_dir)
    return result


def _run_algorithms(spec: ExperimentSpec, pool) -> tuple[dict, dict]:
    """Each of the spec's algorithms on its trajectory, one ``simulate`` call
    each, all queued before any is awaited: the MetricSeries and the
    ``_health`` counters, by algorithm."""
    model = spec.build_model()
    queued = [simulate(spec, algo, model, spec.n_trials, spec.n_slots, pool=pool) for algo in spec.algorithms]
    series, health = {}, {}
    for algo, got in zip(spec.algorithms, queued):
        series[algo], per_trial = _wait(got)
        health[algo] = _health(per_trial)
    return series, health


def _run_static(spec: ExperimentSpec, pool) -> ExperimentResult:
    series, health = _run_algorithms(spec, pool)
    crlb_h_limit = spec.channel_crlb_limit()
    summary = [
        ("capacity_bits", "theory", capacity(spec.cfg_data, spec.rho)),
        ("crlb_n_mse_h_limit", "theory", crlb_h_limit),
    ]
    for algo in spec.algorithms:
        s = series[algo]
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
    return ExperimentResult(spec=spec, series=series, summary=summary, extras=extras, metadata={"health": health})


def _run_dynamic(spec: ExperimentSpec, pool) -> ExperimentResult:
    series, health = _run_algorithms(spec, pool)
    cap = capacity(spec.cfg_data, spec.rho)
    summary = [("capacity_bits", "theory", cap)]
    for algo in spec.algorithms:
        s = series[algo]
        mean_rate = float(np.mean(s.rate))
        summary.append(("mean_rate", algo, mean_rate))
        summary.append(("rate_fraction", algo, mean_rate / cap))
        if not math.isnan(s.aoa_error_deg[-1]):
            summary.append(("mean_aoa_error_deg", algo, float(np.nanmean(s.aoa_error_deg))))
    return ExperimentResult(spec=spec, series=series, summary=summary, metadata={"health": health})


def _run_sweep(spec: ExperimentSpec, pool) -> ExperimentResult:
    summary = [("capacity_bits", "theory", capacity(spec.cfg_data, spec.rho))]
    table = []
    points = [(omega, algo) for omega in spec.omegas for algo in spec.algorithms]
    queued = [simulate(spec, a, spec.build_model(w), spec.n_trials, spec.n_slots, pool=pool) for w, a in points]
    for (omega, algo), got in zip(points, queued):
        s, _ = _wait(got)
        mean_rate = float(np.mean(s.rate))
        mean_mse = float(np.mean(s.mse_h))
        table.append((omega, algo, mean_rate, mean_mse))
        summary.append((f"mean_rate@omega={omega:.6g}", algo, mean_rate))
        summary.append((f"mean_mse_h@omega={omega:.6g}", algo, mean_mse))
    return ExperimentResult(spec=spec, series={}, summary=summary, extras={"sweep_table": table})


def _run_table(spec: ExperimentSpec, pool) -> ExperimentResult:
    """Binary search for the largest omega holding rate_fraction of capacity."""
    cap = capacity(spec.cfg_data, spec.rho)
    threshold = spec.rate_fraction * cap
    summary = [("capacity_bits", "theory", cap)]
    evals = []
    for algo in spec.algorithms:
        def mean_rate(omega):
            got = simulate(spec, algo, spec.build_model(omega), spec.n_trials, spec.n_slots, pool=pool)
            return float(np.mean(_wait(got)[0].rate))

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


def _run_init_rate(spec: ExperimentSpec, pool) -> ExperimentResult:
    model = spec.build_model()
    _, extras = _wait(simulate(spec, "recursive", model, spec.n_trials, 1, pool=pool))
    ok = extras["init_in_mainlobe"]
    p = float(np.mean(ok))
    stderr = math.sqrt(p * (1 - p) / len(ok))
    summary = [
        ("init_success_rate", "coarse-sweep", p),
        ("init_success_stderr", "coarse-sweep", stderr),
        ("n_trials", "coarse-sweep", float(len(ok))),
    ]
    return ExperimentResult(spec=spec, series={}, summary=summary, extras={"success": ok})


def _run_theory(spec: ExperimentSpec, pool) -> ExperimentResult:
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


# summary.csv and crlb.csv: (param, algorithm, value) rows
SUMMARY_HEADER = "param,algorithm,value"
SUMMARY_ROW = "%s,%s,%.17g"


def write_csv(path: str, header: str, row_format: str, rows) -> None:
    """``header``, then the line ``row_format % row`` for every tuple in
    ``rows``; the package formats every number as ``%.17g``, 17 significant
    digits, which round-trips a float."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines([row_format % row + "\n" for row in rows])


def _columns(*columns):
    """The rows of equal-length numeric columns, as tuples of Python numbers."""
    return zip(*[np.asarray(c).tolist() for c in columns])


def _spec_dict(spec: ExperimentSpec) -> dict:
    d = dataclasses.asdict(spec)
    for key in ("pilot", "beta"):
        d[key] = str(d[key])
    return d


def write_result(result: ExperimentResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for algo, series in result.series.items():
        n_trials = f"{float(series.n_trials):.17g}"
        for metric in METRIC_NAMES:
            rows = _columns(series.slots, series.metric(metric), series.stderr[metric])
            write_csv(os.path.join(out_dir, f"{algo}_{metric}.csv"), "slot,metric,mean,stderr,n_trials",
                      f"%.17g,{metric},%.17g,%.17g,{n_trials}", rows)
    write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_HEADER, SUMMARY_ROW, result.summary)
    overlay = result.extras.get("crlb_overlay")
    if overlay is not None:
        rows = _columns(overlay["slots"], overlay["min_crlb_x"], overlay["min_crlb_h"])
        write_csv(os.path.join(out_dir, "crlb_overlay.csv"), "slot,min_crlb_x,min_crlb_h", "%.17g,%.17g,%.17g", rows)
    table = result.extras.get("sweep_table")
    if table is not None:
        write_csv(os.path.join(out_dir, "sweep.csv"), "omega,algorithm,mean_rate,mean_mse_h",
                  "%.17g,%s,%.17g,%.17g", table)
    with open(os.path.join(out_dir, "metadata.json"), "w", encoding="utf-8") as fh:
        json.dump(result.metadata, fh, indent=2, sort_keys=True)
