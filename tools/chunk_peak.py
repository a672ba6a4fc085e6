"""Print each algorithm's chunk memory: its tracking-noise block, the bytes
the chunk budget counts per trial and the traced peak of its first chunk.

The run is one experiment spec's shape: M data antennas, a trial count, a
slot count and a truth (uniform-x static by default, as perfbench's
static-m16 runs it).  Each algorithm's chunk is the first of
``harness._chunk_bounds``, so CS runs 128 trials where the others run 2048.
The noise block's bytes are those of the array the engine draws the tracking
noise into, padding column included, read from its last ``draw_noise`` call;
the peak is tracemalloc's over one ``run_chunk`` call.

Run from the repository root::

    python tools/chunk_peak.py [--antennas 16] [--trials 2048] [--slots 2000]
                               [--truth static] [--algorithms recursive ls]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from beamtrack import engine, harness  # noqa: E402

# the truths a spec can describe, as ExperimentSpec fields
TRUTHS = {
    "static": dict(kind="static-convergence"),
    "sinusoid": dict(kind="dynamic-trajectory", traj_kind="sinusoid"),
    "sinusoid-unjittered": dict(kind="dynamic-trajectory", traj_kind="sinusoid", sinusoid_jitter_std=0.0),
    "fixed-velocity": dict(kind="dynamic-trajectory", traj_kind="fixed-velocity", omega=0.01),
}


def chunk_memory(spec: harness.ExperimentSpec, algorithm: str) -> tuple[int, int, int, int]:
    """(chunk trials, noise block bytes, trial_bytes, traced peak bytes) of
    ``algorithm``'s first chunk of ``spec``."""
    setup = harness._trial_setup(spec, algorithm, spec.build_model(), spec.n_slots)
    lo, hi = harness._chunk_bounds(setup, spec.n_trials)[0]
    block = []
    draw = engine.draw_noise

    def drawing(rngs, out):
        block.append((out if out.base is None else out.base).nbytes)
        return draw(rngs, out)

    engine.draw_noise = drawing
    tracemalloc.start()
    try:
        engine.run_chunk(setup, lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        engine.draw_noise = draw
    # the first draw is the stage-1 head block; the tracking block follows
    return hi - lo, block[-1] if len(block) > 1 else 0, engine.trial_bytes(setup), peak


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--antennas", type=int, default=16)
    parser.add_argument("--trials", type=int, default=2048)
    parser.add_argument("--slots", type=int, default=2000)
    parser.add_argument("--truth", choices=sorted(TRUTHS), default="static")
    parser.add_argument("--algorithms", nargs="+", choices=engine.ALGORITHMS, default=list(engine.ALGORITHMS))
    args = parser.parse_args(argv[1:])
    spec = harness.ExperimentSpec(m_data=args.antennas, n_trials=args.trials, n_slots=args.slots,
                                  algorithms=tuple(args.algorithms), **TRUTHS[args.truth])
    print(f"M = {args.antennas}, {args.trials} trials x {args.slots} slots, {args.truth} truth")
    print(f"{'algorithm':10s} {'chunk':>6s} {'noise block MB':>15s} {'trial_bytes B':>14s} {'traced peak MB':>15s}")
    for algorithm in args.algorithms:
        trials, block, per_trial, peak = chunk_memory(spec, algorithm)
        print(f"{algorithm:10s} {trials:6d} {block / 1e6:15.2f} {per_trial:14,d} {peak / 1e6:15.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
