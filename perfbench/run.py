"""Benchmark of the beamtrack Monte-Carlo harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload static-m16 --seed 1 --seconds 45 --trace 0

``--trace 0`` times repeated ``run_experiment`` calls with tracing off and
reports the end-to-end metrics, each time scaled by the host's speed around
it (see ``speed.py``); ``--trace 1`` runs the same workload on one
worker with every layer hook installed and reports the per-layer metrics.
Both check every output with the correctness gate in ``workloads.py``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (``harness.simulate`` calls; a call whose experiment failed a
check counts as failed) and ``metrics``.

Other modes:

    python3 perfbench/run.py --self-check        # tiny sizes, every workload, both modes
    python3 perfbench/run.py --record-reference  # rewrite perfbench/reference/*.json

Run output, spans and results go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy is imported, and
# inherited by pool workers and set-up subprocesses.  Unpinned, the workers'
# BLAS threads oversubscribe the cores.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)
# numpy asks for transparent huge pages on large arrays; whether the host
# grants them varies from minute to minute and moves peak RSS by megabytes.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BENCH_OUT = os.path.join(ROOT, ".bench_out")

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
MIN_REPS = 3

END_TO_END = {
    "wall_s": "s",
    "trial_slots_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {}
for _name in ("engine.run_chunk", "engine.trial_streams", "arrays.dirichlet", "arrays.f_gain_closed",
              "arrays.weighted_dirichlet", "trackers.step_size", "trackers.sweep_matrix",
              "trackers.codebook_directions", "trackers.initial_dictionary", "baselines.cs_dictionary",
              "dynamics.trajectory", "harness.simulate", "harness.write_result", "crlb.min_crlb_x"):
    PER_LAYER[_name + ".calls"] = "count"
    PER_LAYER[_name + ".s"] = "s"
for _name in ("arrays.dirichlet", "arrays.f_gain_closed", "arrays.weighted_dirichlet"):
    PER_LAYER[_name + ".elems"] = "count"
PER_LAYER.update({
    "engine.run_chunk.self_s": "s",
    "engine.run_chunk.trial_slots_per_s": "1/s",
    "engine.noise_block_bytes_computed": "B",
    "harness.simulate.self_s": "s",
    "harness.write_result.bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
})
for _algo in workloads.ALL_ALGORITHMS:
    PER_LAYER[f"harness.simulate.{_algo}.s"] = "s"
    PER_LAYER[f"harness.simulate.{_algo}.trial_slots_per_s"] = "1/s"

SETUP_SNIPPET = """
import sys
src, bench_dir, name, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path[:0] = [src, bench_dir]
from beamtrack import harness
import workloads
workloads.build_spec(harness, name, seed)
harness.run_experiment(workloads.build_spec(harness, name, seed, quick=True), workers=1)
"""


# One experiment in a fresh interpreter; prints its peak RSS in KiB.  A fresh
# process makes the figure repeatable: in a long-lived one, malloc's reuse of
# freed blocks depends on the history of earlier repetitions.
PEAK_RSS_SNIPPET = """
import resource, sys
src, bench_dir, name, seed, quick, workers, out_dir = sys.argv[1:8]
sys.path[:0] = [src, bench_dir]
from beamtrack import harness
import workloads
spec = workloads.build_spec(harness, name, int(seed), quick=quick == "1")
harness.run_experiment(spec, out_dir, workers=int(workers))
print(max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no program, no reference, every run failed)."""


def import_beamtrack():
    """Import beamtrack from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        from beamtrack import dynamics, engine, harness
    except ImportError as exc:
        raise BenchError(f"cannot import beamtrack from {SRC}: {exc}") from exc
    if not os.path.abspath(harness.__file__).startswith(SRC + os.sep):
        raise BenchError(f"beamtrack was imported from {harness.__file__}, not from {SRC}")
    return {"engine": engine, "dynamics": dynamics, "harness": harness}


def provenance(args, workers):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "speed_reference_s": speed.REFERENCE_S,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": workloads.REFERENCE_SEED,
        "workers": workers,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def median_and_tail(values):
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values), "samples": [round(v, 6) for v in values]}
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = float(np.percentile(values, p))
            break
    return out


class Run:
    """One benchmark invocation: repeated experiments, their checks and counts."""

    def __init__(self, modules, name, seed, quick, reference):
        self.modules = modules
        self.harness = modules["harness"]
        self.name = name
        self.seed = seed
        self.quick = quick
        self.reference = reference
        self.spec = workloads.build_spec(self.harness, name, seed, quick)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None
        self.out_dir = os.path.join(BENCH_OUT, "out", f"{name}-seed{seed}-{os.getpid()}")

    def experiment(self, workers, spec=None, tracer=None):
        """One timed ``run_experiment``; returns (wall seconds, trial-slots) or None."""
        spec = spec or self.spec
        out_dir = _fresh_dir(self.out_dir)
        with tracing.SimulateCounter(self.harness) as counter:
            if tracer is not None:
                tracer.begin_run()
            start = time.perf_counter()
            try:
                self.harness.run_experiment(spec, out_dir, workers=workers)
                error = None
            except Exception as exc:  # a failed experiment is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        self.attempted += max(counter.calls, 1)
        problems = [error] if error else self.check(spec, out_dir)
        if problems:
            self.failed += max(counter.calls, 1)
            self.problems.extend(f"seed {spec.seed}: {p}" for p in problems)
            return None
        return wall, counter.trial_slots

    def check(self, spec, out_dir):
        digest = _dir_digest(out_dir)
        if spec.seed == self.seed and self.digest is not None:
            return [] if digest == self.digest else ["output differs from the first repetition"]
        out = workloads.read_output(out_dir)
        problems = workloads.check_output(spec, out, full=not self.quick)
        if spec.seed == workloads.REFERENCE_SEED and self.reference is not None:
            problems += workloads.compare_reference(spec, out, self.reference)
        if spec.seed == self.seed:
            self.digest = digest
        return problems

    def reference_check(self, workers):
        """Gate the run against the recorded reference, at the reference seed."""
        if self.reference is None or self.seed == workloads.REFERENCE_SEED:
            return
        spec = workloads.build_spec(self.harness, self.name, workloads.REFERENCE_SEED, self.quick)
        self.experiment(workers, spec)

    def peak_rss_mb(self, workers):
        """Peak RSS of one experiment, pool workers included, in a fresh interpreter.

        Its output must equal the in-process repetitions' output.
        """
        out_dir = _fresh_dir(self.out_dir)
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_SNIPPET, SRC, BENCH_DIR, self.name, str(self.seed),
             "1" if self.quick else "0", str(workers), out_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise BenchError(f"peak-RSS subprocess failed: {proc.stderr.strip()[-500:]}")
        if _dir_digest(out_dir) != self.digest:
            self.failed += 1
            self.problems.append(f"seed {self.seed}: output of a fresh process differs from the in-process output")
        return int(proc.stdout.split()[-1]) / 1024.0

    def warm_up(self):
        quick = workloads.build_spec(self.harness, self.name, self.seed, quick=True)
        self.harness.run_experiment(quick, workers=1)


def measure_setup(name, seed):
    """Median speed-normalised time of a fresh interpreter importing, building the spec
    and warming up; returns (median, raw samples)."""
    raw, normalised = [], []
    with speed.SpeedTracker() as tracker:
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, BENCH_DIR, name, str(seed)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=120)
            raw.append(time.perf_counter() - start)
            normalised.append(tracker.normalise(raw[-1]))
            if proc.returncode != 0:
                raise BenchError(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(normalised), raw


def _fits(deadline, durations):
    """Whether one more repetition, as long as the median so far, ends by the deadline."""
    return time.perf_counter() + statistics.median(durations or [0.0]) <= deadline


def run_untraced(run, seconds, workers):
    """Repetitions with tracing off, each between two runs of the speed kernel."""
    setup, setup_raw = measure_setup(run.name, run.seed)
    run.warm_up()
    walls, raw, steps, trial_slots = [], [], [], 0
    with speed.SpeedTracker(workers) as tracker:
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_REPS or _fits(deadline, steps):
            step_start = time.perf_counter()
            got = run.experiment(workers)
            normalised = tracker.normalise(got[0] if got else 0.0)
            steps.append(time.perf_counter() - step_start)
            if got is None and run.attempted >= 2 * MIN_REPS and not walls:
                break
            if got is not None:
                walls.append(normalised)
                raw.append(got[0])
                trial_slots = got[1]
    if not walls:
        raise BenchError("every repetition failed: " + "; ".join(run.problems[:5]))
    rss = run.peak_rss_mb(workers)
    run.reference_check(workers)
    wall = median_and_tail(walls)
    return {
        "wall_s": wall["median"],
        "trial_slots_per_s": trial_slots / wall["median"],
        "setup_s": setup,
        "peak_rss_mb": rss,
    }, {"wall_s": wall, "raw_wall_s": median_and_tail(raw), "raw_setup_s": median_and_tail(setup_raw),
        "speed_kernel_s": median_and_tail(tracker.kernel_s)}


def run_traced(run, seconds):
    """Alternate untraced and traced repetitions on one worker; per-layer metrics."""
    run.warm_up()
    untraced, traced = [], []
    tracer = tracing.Tracer(run.modules)
    pairs = []
    deadline = time.perf_counter() + seconds
    while not (untraced and traced) or _fits(deadline, pairs):
        pair_start = time.perf_counter()
        got = run.experiment(1)
        if got is not None:
            untraced.append(got[0])
        with tracer:
            got = run.experiment(1, tracer=tracer)
        if got is not None:
            traced.append(got[0])
        pairs.append(time.perf_counter() - pair_start)
        if run.attempted >= 4 * MIN_REPS and not traced:
            break
    run.reference_check(1)
    if not traced or not untraced:
        raise BenchError("every repetition failed: " + "; ".join(run.problems[:5]))

    # Counters repeat exactly on every run id; times are averaged over runs.
    runs = list(tracer.counts)
    counts = tracer.counts[runs[0]]
    if any(tracer.counts[rid] != counts for rid in runs):
        run.failed += 1
        run.problems.append("per-layer counters differ between traced repetitions")
    times = {}
    for rid in runs:
        for layer, t in tracer.layer_totals(rid).items():
            acc = times.setdefault(layer, {"s": 0.0, "self_s": 0.0})
            acc["s"] += t["s"] / len(runs)
            acc["self_s"] += t["self_s"] / len(runs)
    metrics = {}
    for key in PER_LAYER:
        if key.endswith(".trial_slots_per_s"):
            layer = key[: -len(".trial_slots_per_s")]
            busy = times.get(layer, {}).get("s", 0.0)
            metrics[key] = counts.get(layer + ".trial_slots", 0) / busy if busy else 0.0
        elif key.endswith(".self_s"):
            metrics[key] = times.get(key[: -len(".self_s")], {}).get("self_s", 0.0)
        elif key.endswith(".s") and not key.startswith("trace."):
            metrics[key] = times.get(key[:-2], {}).get("s", 0.0)
        else:
            metrics[key] = counts.get(key, 0)
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    os.makedirs(BENCH_OUT, exist_ok=True)
    tracer.write_spans(os.path.join(BENCH_OUT, f"spans-{run.name}.csv"))
    return metrics, {"unmeasured": tracer.unmeasured, "untraced_wall_s": median_and_tail(untraced),
                     "traced_wall_s": median_and_tail(traced)}


def load_reference(name):
    try:
        return workloads.load_reference(name)
    except FileNotFoundError as exc:
        raise BenchError(f"no reference for {name}: run --record-reference") from exc


def bench(modules, args, reference, quick=False):
    """Run one workload in one trace mode; returns (result, detail)."""
    w = workloads.WORKLOADS[args.workload]
    run = Run(modules, args.workload, args.seed, quick, reference)
    if args.trace:
        metrics, detail = run_traced(run, args.seconds)
        units = PER_LAYER
    else:
        metrics, detail = run_untraced(run, args.seconds, w.workers)
        units = END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    detail.update(problems=run.problems, failed_frac=run.failed / run.attempted,
                  provenance=provenance(args, 1 if args.trace else w.workers))
    shutil.rmtree(run.out_dir, ignore_errors=True)
    return result, detail


def report(result, detail, args):
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']!r} {m['unit']}")
    print(f"failed_frac {detail['failed_frac']!r} 1")
    for key in ("wall_s", "raw_wall_s", "raw_setup_s", "speed_kernel_s", "untraced_wall_s", "traced_wall_s"):
        if key in detail:
            print(f"{key}_samples {json.dumps(detail[key])}")
    if detail.get("unmeasured"):
        print("unmeasured layers (hook missing, reported as 0): " + ", ".join(detail["unmeasured"]))
    for problem in detail["problems"]:
        print(f"CHECK FAILED {problem}")
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True))
    os.makedirs(BENCH_OUT, exist_ok=True)
    path = os.path.join(BENCH_OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, **detail}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))


def record_reference(modules, names):
    for name in names:
        run = Run(modules, name, workloads.REFERENCE_SEED, False, None)
        out_dir = _fresh_dir(run.out_dir)
        modules["harness"].run_experiment(run.spec, out_dir, workers=workloads.WORKLOADS[name].workers)
        out = workloads.read_output(out_dir)
        problems = workloads.check_output(run.spec, out, full=True)
        if problems:
            raise BenchError(f"{name}: refusing to record a reference that fails its checks: {problems}")
        workloads.save_reference(name, workloads.reference_of(out))
        shutil.rmtree(out_dir, ignore_errors=True)
        print(f"recorded {workloads.reference_path(name)}")


def self_check(modules):
    """Tiny sizes: every workload in both modes prints every named metric, and the gate trips."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    undefined = {w["name"] for w in declared["workloads"]} - set(workloads.WORKLOADS)
    if undefined:
        raise BenchError(f"BENCHMARK.json names workloads that workloads.py lacks: {sorted(undefined)}")
    failures, references = [], {}
    for name in workloads.WORKLOADS:
        harness = modules["harness"]
        spec = workloads.build_spec(harness, name, workloads.REFERENCE_SEED, quick=True)
        out_dir = _fresh_dir(os.path.join(BENCH_OUT, "self-check", name))
        harness.run_experiment(spec, out_dir, workers=1)
        out = workloads.read_output(out_dir)
        reference = references[name] = workloads.reference_of(out)
        if workloads.compare_reference(spec, out, reference):
            failures.append(f"{name}: gate rejects an unchanged output")
        perturbed = json.loads(json.dumps(reference))
        row = next(r for r in perturbed["summary"] if r[1] != "theory")
        row[2] = row[2] * 1.01 + 1.0
        if not workloads.compare_reference(spec, out, perturbed):
            failures.append(f"{name}: gate accepts a perturbed summary value {row[0]}")
        if perturbed["series"]:
            perturbed = json.loads(json.dumps(reference))
            key = sorted(perturbed["series"])[0]
            perturbed["series"][key][-1] *= 1 + 1e-6
            if not workloads.compare_reference(spec, out, perturbed):
                failures.append(f"{name}: gate accepts a perturbed per-slot mean in {key}")
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=2, seconds=0.0, trace=trace)
            result, detail = bench(modules, args, reference, quick=True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{name} trace {trace}: metrics {got} != BENCHMARK.json {expected[trace]}")
            if not result["correct"]:
                failures.append(f"{name} trace {trace}: gate failed: {detail['problems']}")
            print(f"self-check {name} trace {trace}: {len(got)} metrics, correct={result['correct']}")

    # A hooked attribute that is gone (say, deleted code) is reported, not fatal.
    engine = modules["engine"]
    saved = engine.weighted_dirichlet
    del engine.weighted_dirichlet
    try:
        args = argparse.Namespace(workload="static-m16", seed=2, seconds=0.0, trace=1)
        result, detail = bench(modules, args, references["static-m16"], quick=True)
    finally:
        engine.weighted_dirichlet = saved
    if detail["unmeasured"] != ["arrays.weighted_dirichlet"] or not result["correct"]:
        failures.append(f"missing hook: unmeasured {detail['unmeasured']}, correct={result['correct']}")
    if failures:
        raise BenchError("self-check failed:\n  " + "\n  ".join(failures))
    print("self-check passed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_check or args.record_reference):
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        modules = import_beamtrack()
        if args.self_check:
            self_check(modules)
        elif args.record_reference:
            record_reference(modules, [args.workload] if args.workload else list(workloads.WORKLOADS))
        else:
            result, detail = bench(modules, args, load_reference(args.workload))
            report(result, detail, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
