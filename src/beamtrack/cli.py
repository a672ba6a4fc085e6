"""Command-line front end for the experiment harness.

Subcommands map to experiment kinds (static, dynamic, sweep, table1,
init-rate, theory) plus a bound calculator (crlb).  Configuration comes from
an optional JSON document whose keys mirror ExperimentSpec fields; explicit
command-line overrides win.  Exit codes: 0 success, 1 runtime failure,
2 configuration failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import secrets
import sys

from .crlb import max_fisher_information, min_crlb_x
from .harness import SUMMARY_HEADER, ConfigError, ExperimentSpec, run_experiment, write_csv

_SUBCOMMAND_KIND = {
    "static": "static-convergence",
    "dynamic": "dynamic-trajectory",
    "sweep": "velocity-sweep",
    "table1": "max-velocity-table",
    "init-rate": "init-success-rate",
    "theory": "theory-diagnostics",
}

_SPEC_FIELDS = {f.name for f in dataclasses.fields(ExperimentSpec)}


def _parse_complex(key: str, value) -> complex:
    """A JSON ``[re, im]`` pair, number or string such as ``"0.7-0.7j"``."""
    parts = value if isinstance(value, list) else [value]
    try:
        if len(parts) == 2 and not any(isinstance(v, bool) for v in parts):
            return complex(float(parts[0]), float(parts[1]))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return complex(value)
        if isinstance(value, str):
            return complex(value.replace(" ", ""))
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key}: cannot parse complex value {value!r}")


def load_config(path: str) -> dict:
    """Read a JSON config document, rejecting unknown keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    unknown = set(raw) - _SPEC_FIELDS
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    for key in ("pilot", "beta"):
        if key in raw:
            raw[key] = _parse_complex(key, raw[key])
    return raw


def build_spec(kind: str, config: dict, overrides: dict) -> ExperimentSpec:
    merged = dict(config)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    merged["kind"] = kind
    return ExperimentSpec(**merged)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file mirroring ExperimentSpec fields")
    p.add_argument("--m", type=int, dest="m_data", help="number of data antennas M")
    p.add_argument("--m-track", type=int, dest="m_track", help="antennas used for tracking (default M)")
    p.add_argument("--snr-db", type=float, dest="snr_db", help="per-antenna SNR in dB")
    p.add_argument("--seed", type=int, help="master seed (random if omitted, echoed in output)")
    p.add_argument("--trials", type=int, dest="n_trials", help="Monte-Carlo trials")
    p.add_argument("--slots", type=int, dest="n_slots", help="tracked time-slots per trial")
    p.add_argument("--out", help="output directory for CSV results")
    p.add_argument("--workers", type=int, default=1,
                   help="processes in the run's pool (at most one per trial chunk)")
    p.add_argument("--algorithms", help="comma-separated algorithm list")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beamtrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("static", "static beam tracking convergence curves"),
        ("dynamic", "dynamic trajectory tracking (sinusoid or fixed velocity)"),
        ("sweep", "mean rate / MSE versus angular velocity"),
        ("table1", "maximum velocity holding a capacity fraction"),
        ("init-rate", "coarse-sweep initialization success probability"),
        ("theory", "closed-form theory diagnostics"),
        ("crlb", "Fisher information and CRLB values"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name in ("static", "theory"):
            p.add_argument("--x", type=float, help="true spatial frequency (static: default random per trial)")
        if name == "dynamic":
            p.add_argument("--traj", choices=["sinusoid", "fixed-velocity"], dest="traj_kind")
            p.add_argument("--omega", type=float, help="angular velocity in rad/slot (fixed-velocity)")
        if name == "sweep":
            p.add_argument("--omegas", help="comma-separated angular velocities in rad/slot")
        if name == "table1":
            p.add_argument("--omega-hi", type=float, dest="omega_hi")
            p.add_argument("--omega-tol", type=float, dest="omega_tol")
            p.add_argument("--pilots-per-sec", type=float, dest="pilots_per_sec")
        if name == "theory":
            p.add_argument("--alpha", type=float, help="step size (default alpha*)")
            p.add_argument("--n0", type=float, help="diminishing step offset N0")
            p.add_argument("--x0-hat", type=float, dest="x0_hat", help="initial estimate for the bound")
            p.add_argument("--delta", type=float, help="invariant-set margin delta for the bound")
        if name == "crlb":
            p.add_argument("--slots-list", default="1,10,100,1000,10000", help="comma list of n for the CRLB curve")
    return parser


def _overrides_from(args: argparse.Namespace) -> dict:
    """The parsed options that are ExperimentSpec fields; None means not given."""
    out = {k: v for k, v in vars(args).items() if k in _SPEC_FIELDS}
    for key, parse in (("algorithms", str), ("omegas", float)):
        text = out.get(key)
        try:
            out[key] = tuple(parse(v) for v in text.split(",")) if text else None
        except ValueError:
            raise ConfigError(f"{key}: expected a comma-separated list, got {text!r}")
    return out


def _print_theory(result) -> None:
    rows = dict(((p, a), v) for p, a, v in result.summary)
    sp = result.extras["stable_points"]
    print(f"alpha*                = {rows[('alpha_star', 'theory')]:.6g}")
    print(f"Lipschitz L           = {rows[('lipschitz_L', 'theory')]:.6g}")
    print(f"I_max                 = {rows[('i_max', 'theory')]:.6g}")
    print(f"stability threshold   = {rows[('stability_threshold', 'theory')]:.6g}")
    sigma = rows[("asymptotic_variance", "theory")]
    if math.isnan(sigma):
        print("asymptotic variance   = unstable (alpha at or below threshold)")
    else:
        print(f"asymptotic variance   = {sigma:.6g}")
    print(f"mainlobe              = ({rows[('mainlobe_lo', 'theory')]:.6g}, {rows[('mainlobe_hi', 'theory')]:.6g})")
    print(f"stable points ({sp.points.size}, spacing {sp.spacing:.6g}):")
    print("  " + ", ".join(f"{p:.6g}" for p in sp.points))
    bound = result.extras.get("bound")
    if bound is not None:
        if bound.applicable:
            print(f"convergence bound     = {bound.value:.6g}")
        else:
            print(f"convergence bound     = not applicable ({bound.reason})")


def _parse_slots_list(text: str) -> list[int]:
    try:
        slots = [int(v) for v in text.split(",")]
        if min(slots) >= 1:
            return slots
    except ValueError:
        pass
    raise ConfigError(f"slots_list: entries must be integers >= 1, got {text!r}")


def _run_crlb(spec: ExperimentSpec, slots: list[int], out_dir: str | None) -> int:
    # x is estimated on the tracking array; the n*MSE(h) limit is of the data array
    cfg, rho = spec.cfg_track, spec.rho
    imax = max_fisher_information(cfg, rho)
    print(f"I_max                  = {imax:.6g}")
    rows = [("i_max", "theory", imax)]
    for n in slots:
        val = min_crlb_x(cfg, rho, n)
        print(f"min CRLB(x), n={n:<7d}= {val:.6g}")
        rows.append((f"min_crlb_x@n={n}", "theory", val))
    limit = spec.channel_crlb_limit()
    print(f"n*MSE(h) limit         = {limit:.6g}")
    rows.append(("crlb_n_mse_h_limit", "theory", limit))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "crlb.csv"), SUMMARY_HEADER, rows)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {args.workers}")
        config = load_config(args.config) if args.config else {}
        overrides = _overrides_from(args)
        if args.command == "crlb":
            spec = build_spec("theory-diagnostics", config, overrides)
            slots = _parse_slots_list(args.slots_list)
        else:
            if overrides.get("seed") is None and "seed" not in config:
                overrides["seed"] = secrets.randbelow(2**31)
            spec = build_spec(_SUBCOMMAND_KIND[args.command], config, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "crlb":
            return _run_crlb(spec, slots, args.out)
        result = run_experiment(spec, out_dir=args.out, workers=args.workers)
    except Exception as exc:  # runtime failure after validation
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"seed = {spec.seed}")
    if args.command == "theory":
        _print_theory(result)
    else:
        for param, algo, value in result.summary:
            print(f"{param:<28s} {algo:<12s} {value:.6g}")
    if args.out:
        print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
