import contextlib
import io
import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamtrack.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheoryCommand:
    def test_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--m", "8", "--snr-db", "10", "--seed", "1")
        assert code == 0
        values = {
            key: float(m.group(1))
            for key, pat in {
                "alpha": r"alpha\*\s*=\s*([0-9.e+-]+)",
                "L": r"Lipschitz L\s*=\s*([0-9.e+-]+)",
                "imax": r"I_max\s*=\s*([0-9.e+-]+)",
            }.items()
            if (m := re.search(pat, out))
        }
        assert values["alpha"] == pytest.approx(0.03216, abs=2e-5)
        assert values["L"] == pytest.approx(31.10, abs=0.01)
        assert values["imax"] == pytest.approx(19344.4, rel=1e-4)
        assert "stable points (7" in out

    def test_bound_not_applicable_is_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "--m", "8", "--snr-db", "10", "--seed", "1",
            "--x", "0.0", "--x0-hat", "-0.1", "--delta", "0.05",
        )
        assert code == 0
        assert "convergence bound" in out
        assert "not applicable" in out

    def test_bound_applicable_with_n0(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "--m", "8", "--snr-db", "10", "--seed", "1",
            "--x", "0.0", "--x0-hat", "-0.1", "--delta", "0.05", "--n0", "30",
        )
        assert code == 0
        assert re.search(r"convergence bound\s*=\s*[0-9.]", out)


class TestCrlbCommand:
    def test_prints_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "crlb", "--m", "16", "--snr-db", "10")
        assert code == 0
        imax = float(re.search(r"I_max\s*=\s*([0-9.e+-]+)", out).group(1))
        assert imax == pytest.approx(18000 * math.pi**2, rel=1e-4)
        limit = float(re.search(r"n\*MSE\(h\) limit\s*=\s*([0-9.e+-]+)", out).group(1))
        assert limit == pytest.approx(0.068889, rel=1e-4)


class TestConfigHandling:
    def test_missing_config_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, _, err = run_cli(
            capsys, "static", "--config", str(tmp_path / "nope.json"), "--out", str(out_dir)
        )
        assert code == 2
        assert "not found" in err
        assert not out_dir.exists()  # no partial output

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m_data": 8, "wavelenght": 1.0}))
        code, _, err = run_cli(capsys, "static", "--config", str(cfg))
        assert code == 2
        assert "wavelenght" in err

    def test_invalid_field_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m_data": 1}))
        code, _, err = run_cli(capsys, "static", "--config", str(cfg))
        assert code == 2
        assert "m_data" in err

    def test_override_wins_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m_data": 8, "snr_db": 0.0, "seed": 3}))
        code, out, _ = run_cli(capsys, "theory", "--config", str(cfg), "--snr-db", "10")
        assert code == 0
        imax = float(re.search(r"I_max\s*=\s*([0-9.e+-]+)", out).group(1))
        assert imax == pytest.approx(1960 * math.pi**2, rel=1e-4)

    def test_random_seed_recorded_when_omitted(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--m", "8", "--snr-db", "10")
        assert code == 0
        assert re.search(r"seed = \d+", out)


BOUND = math.pi / 3  # ExperimentSpec's default trajectory bound
_FLOAT_FIELDS = (
    "spacing_ratio", "snr_db", "stage1_snr_db", "alpha", "n0", "x", "sinusoid_amplitude",
    "sinusoid_jitter_std", "omega", "bound", "theta0", "omega_lo", "omega_hi", "omega_tol",
    "pilots_per_sec", "rate_fraction", "kf_q", "kf_p0", "x0_hat", "delta",
)
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NEGATIVE = st.floats(max_value=-1e-9, allow_infinity=False)
_ABOVE_BOUND = st.floats(min_value=BOUND * (1 + 1e-9), max_value=100.0)
_OUT_OF_DB_RANGE = st.floats(min_value=300.001, max_value=1e6) | st.floats(min_value=-1e6, max_value=-300.001)


def _bad_field_cases():
    """(subcommand, field, bad value): one invalid field in an otherwise valid spec."""
    def case(command, field, values):
        return st.tuples(st.just(command), st.just(field), values)

    bad_omegas = st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=BOUND), max_size=2),
        _NEGATIVE | _ABOVE_BOUND | _NONFINITE,
    ).map(lambda t: t[0] + [t[1]])
    return st.one_of(
        [case("static", f, _NONFINITE) for f in _FLOAT_FIELDS]
        + [
            case("static", "pilot", _NONFINITE.map(lambda v: [v, 0.0])),
            case("static", "beta", _NONFINITE.map(lambda v: [0.5, v])),
            case("static", "seed", st.integers(max_value=-1)),
            case("static", "snr_db", _OUT_OF_DB_RANGE),
            case("static", "stage1_snr_db", _OUT_OF_DB_RANGE),
            case("dynamic", "omega", _NEGATIVE | _ABOVE_BOUND),
            case("sweep", "omegas", bad_omegas),
            case("table1", "omega_hi", _ABOVE_BOUND),
            case("dynamic", "bound", st.floats(max_value=0.0, allow_infinity=False)),
            case("dynamic", "theta0", _ABOVE_BOUND | _ABOVE_BOUND.map(lambda v: -v)),
            case("dynamic", "traj_kind", st.sampled_from(["", "circle", "Sinusoid"])),
            case("dynamic", "sinusoid_period", st.integers(max_value=0)),
            case("dynamic", "sinusoid_jitter_std", _NEGATIVE),
        ]
    )


class TestInvalidSpecFuzz:
    @given(_bad_field_cases())
    @settings(max_examples=80, deadline=None)
    def test_one_bad_field_exits_2_naming_it(self, bad):
        command, field, value = bad
        config = {"m_data": 4, "n_trials": 2, "n_slots": 3, "seed": 1, "omegas": [0.01]}
        if command == "dynamic" and field != "traj_kind":
            config["traj_kind"] = "fixed-velocity"
        config[field] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", path])
        assert code == 2, (command, field, value, err.getvalue())
        assert field in err.getvalue()


class TestRunCommands:
    def test_static_smoke_writes_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "res"
        code, out, _ = run_cli(
            capsys, "static", "--m", "8", "--snr-db", "10", "--trials", "20",
            "--slots", "100", "--seed", "7", "--out", str(out_dir),
        )
        assert code == 0
        files = os.listdir(out_dir)
        assert "summary.csv" in files and "metadata.json" in files
        header = (out_dir / "recursive_mse_h.csv").read_text().splitlines()[0]
        assert header == "slot,metric,mean,stderr,n_trials"
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["spec"]["seed"] == 7
        assert "n_mse_h_final" in out

    def test_init_rate_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "init-rate", "--m", "16", "--snr-db", "10", "--trials", "500", "--seed", "2"
        )
        assert code == 0
        assert "init_success_rate" in out

    def test_dynamic_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "dynamic", "--m", "8", "--trials", "5", "--slots", "300", "--seed", "2",
            "--traj", "fixed-velocity", "--omega", "0.01",
        )
        assert code == 0
        assert "mean_rate" in out


class TestSweepCommand:
    def test_sweep_writes_table(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, _ = run_cli(
            capsys, "sweep", "--m", "8", "--omegas", "0.0,0.15", "--trials", "5",
            "--slots", "200", "--seed", "4", "--out", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "omega,algorithm,mean_rate,mean_mse_h"
        assert len(lines) == 3

    def test_complex_fields_parse_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "m_data": 8,
            "pilot": [0.7071067811865476, -0.7071067811865476],
            "beta": "0.7071067811865476+0.7071067811865476j",
            "seed": 6,
            "n_trials": 5,
            "n_slots": 50,
        }))
        code, out, _ = run_cli(capsys, "static", "--config", str(cfg))
        assert code == 0
        assert "n_mse_h_final" in out
