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

    def test_x_bounds_on_tracking_array(self, capsys):
        # I_max and min CRLB(x) are of the 8-antenna tracking array; the
        # n*MSE(h) limit stays that of the 16-antenna data array
        code, out, _ = run_cli(capsys, "crlb", "--m", "16", "--m-track", "8", "--slots-list", "100")
        assert code == 0
        imax = float(re.search(r"I_max\s*=\s*([0-9.e+-]+)", out).group(1))
        assert imax == pytest.approx(1960 * math.pi**2, rel=1e-5)
        crlb = float(re.search(r"min CRLB\(x\), n=100\s*=\s*([0-9.e+-]+)", out).group(1))
        assert crlb == pytest.approx(1 / (100 * 1960 * math.pi**2), rel=1e-5)
        limit = float(re.search(r"n\*MSE\(h\) limit\s*=\s*([0-9.e+-]+)", out).group(1))
        assert limit == pytest.approx(0.068889, rel=1e-4)

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--m", "1"], "m_data"),
            (["--snr-db", "5000"], "snr_db"),
            (["--slots-list", "0"], "slots_list"),
            (["--slots-list", "a"], "slots_list"),
        ],
    )
    def test_invalid_input_exits_2_naming_field(self, capsys, argv, field):
        code, out, err = run_cli(capsys, "crlb", *argv)
        assert code == 2
        assert field in err
        assert out == ""

    @pytest.mark.parametrize("out", ["file", "file/x"])
    def test_unwritable_out_exits_1_with_one_error_line(self, capsys, tmp_path, out):
        (tmp_path / "file").write_text("")
        code, _, err = run_cli(capsys, "crlb", "--m", "8", "--out", str(tmp_path / out))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_unwritable_out_prints_no_bounds(self, capsys, tmp_path):
        # the bounds reach stdout only once crlb.csv is written
        (tmp_path / "file").write_text("")
        code, out, err = run_cli(capsys, "crlb", "--m", "8", "--out", str(tmp_path / "file" / "x"))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_values_follow_spec_defaults(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "crlb", "--m", "8", "--slots-list", "1,100", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "crlb.csv").read_text().splitlines()
        assert rows[0] == "param,algorithm,value"
        values = {r.split(",")[0]: float(r.split(",")[2]) for r in rows[1:]}
        assert values["i_max"] == pytest.approx(1960 * math.pi**2, rel=1e-12)
        assert values["min_crlb_x@n=100"] == pytest.approx(1 / (100 * 1960 * math.pi**2), rel=1e-12)
        # sigma^2 = |p*beta|^2/rho with the default unit-modulus pilot and gain
        assert values["crlb_n_mse_h_limit"] == pytest.approx(15 * 0.1 / 21, rel=1e-12)


class TestConfigHandling:
    def test_missing_config_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, _, err = run_cli(
            capsys, "static", "--config", str(tmp_path / "nope.json"), "--out", str(out_dir)
        )
        assert code == 2
        assert "not found" in err
        assert not out_dir.exists()  # no partial output

    @pytest.mark.parametrize("unreadable", ["directory", "non-utf8"])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, unreadable):
        cfg = tmp_path / "c.json"
        if unreadable == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"\xff\xfe")
        out_dir = tmp_path / "results"
        code, _, err = run_cli(capsys, "theory", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert "config" in err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize(
        "command, config, argv, field",
        [
            ("theory", {}, ["--alpha", "1e200"], "alpha"),
            ("static", {"beta": [1e160, 0]}, [], "beta"),
            ("static", {"pilot": [1e160, 0]}, [], "pilot"),
            ("static", {"pilot": [1e100, 0], "beta": [1e100, 0]}, [], "pilot"),
            ("static", {"pilot": [1e-200, 0]}, [], "pilot"),
            ("crlb", {"pilot": [1e-200, 0]}, [], "pilot"),
        ],
    )
    def test_magnitude_out_of_range_exits_2_naming_field(self, capsys, tmp_path, command, config, argv, field):
        # alpha**2 and |pilot*beta|**2 once overflowed (exit 1), and |pilot|**2
        # underflowed to a zero pilot power (exit 1)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, command, "--m", "8", "--seed", "1", "--config", str(cfg), *argv)
        assert code == 2
        assert err.startswith(f"error: {field}:"), err
        assert out == ""

    def test_override_wins_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"m_data": 8, "snr_db": 0.0, "seed": 3}))
        code, out, _ = run_cli(capsys, "theory", "--config", str(cfg), "--snr-db", "10")
        assert code == 0
        imax = float(re.search(r"I_max\s*=\s*([0-9.e+-]+)", out).group(1))
        assert imax == pytest.approx(1960 * math.pi**2, rel=1e-4)

    def test_trials_past_the_seed_word_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "static", "--m", "8", "--trials", str(2**32 + 1), "--slots", "3")
        assert code == 2
        assert "n_trials" in err
        assert out == ""

    def test_repeated_algorithm_exits_2_naming_field(self, capsys):
        code, out, err = run_cli(
            capsys, "static", "--m", "8", "--trials", "2", "--slots", "3", "--algorithms", "kf,kf",
        )
        assert code == 2
        assert "algorithms" in err and "'kf'" in err
        assert out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, capsys, workers):
        code, out, err = run_cli(
            capsys, "static", "--m", "8", "--trials", "2", "--slots", "3", "--seed", "1",
            "--workers", workers,
        )
        assert code == 2
        assert "workers" in err
        assert out == ""

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
# angles past endfire, where sin(theta) folds back
_PAST_ENDFIRE = st.floats(min_value=math.pi / 2 * (1 + 1e-9), max_value=10.0)
_NOT_HALF = st.floats(min_value=1e-3, max_value=10.0).filter(lambda v: v != 0.5)
_BAD_SLOT_ENTRY = st.integers(max_value=0).map(str) | st.sampled_from(["a", "2.5", "1e3", "", "x1"])
_BAD_SLOTS_LIST = st.tuples(
    st.lists(st.integers(min_value=1, max_value=10**6).map(str), max_size=2), _BAD_SLOT_ENTRY
).map(lambda t: ",".join(t[0] + [t[1]]))
# JSON values of the wrong type for a field
_NOT_INT = (
    st.integers(min_value=2, max_value=64).map(float)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.booleans()
    | st.integers(min_value=1, max_value=64).map(str)
)
_NOT_REAL = st.booleans() | st.sampled_from(["10", "1e-3", ""]) | st.lists(st.floats(0.0, 1.0), max_size=2)
_NOT_BOOL = st.integers(min_value=0, max_value=1) | st.floats(0.0, 1.0) | st.sampled_from(["yes", "true", ""])
_NOT_ARRAY = st.floats(0.0, BOUND) | st.sampled_from(["recursive", "0.01", ""])
_NOT_COMPLEX = st.sampled_from(
    ["abc", "", "1+", None, True, [1.0, "x"], [1.0, 2.0, 3.0], [True, 0.0], {"re": 1.0}]
)


def _bad_field_cases():
    """(subcommand, field, bad value, extra config): one invalid field in an
    otherwise valid spec; ``slots_list`` goes on the command line."""
    def case(command, field, values, extra=None):
        return st.tuples(st.just(command), st.just(field), values, st.just(extra or {}))

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
            # finer than the float spacing at omega_hi: the bisection never ends
            case("table1", "omega_tol", st.floats(0.0, math.ulp(0.3), exclude_min=True, exclude_max=True),
                 {"omega_hi": 0.3}),
            case("dynamic", "bound", st.floats(max_value=0.0, allow_infinity=False) | _PAST_ENDFIRE),
            case("dynamic", "sinusoid_amplitude", _PAST_ENDFIRE | _PAST_ENDFIRE.map(lambda v: -v)),
            case("static", "spacing_ratio", _NOT_HALF, {"algorithms": ["ls"]}),
            case("crlb", "m_data", st.integers(max_value=1)),
            case("crlb", "snr_db", _OUT_OF_DB_RANGE),
            case("crlb", "slots_list", _BAD_SLOTS_LIST),
            case("dynamic", "theta0", _ABOVE_BOUND | _ABOVE_BOUND.map(lambda v: -v)),
            case("dynamic", "traj_kind", st.sampled_from(["", "circle", "Sinusoid"])),
            case("dynamic", "sinusoid_period", st.integers(max_value=0)),
            case("dynamic", "sinusoid_jitter_std", _NEGATIVE),
            case("dynamic", "kf_q", _NEGATIVE, {"algorithms": ["kf"]}),
            case("dynamic", "kf_p0", st.floats(max_value=0.0, allow_infinity=False), {"algorithms": ["kf"]}),
            case("sweep", "omegas", _NOT_ARRAY),
            case("sweep", "omegas", st.lists(st.booleans() | st.sampled_from(["a", "0.01"]), min_size=1)),
            case("sweep", "algorithms", _NOT_ARRAY | st.integers()),
            case("sweep", "algorithms", st.lists(st.integers() | st.booleans(), min_size=1)),
            case("sweep", "pilot", _NOT_COMPLEX),
            case("sweep", "beta", _NOT_COMPLEX),
            case("sweep", "n_slots", _NOT_INT),
            case("sweep", "m_data", _NOT_INT),
            case("sweep", "n_trials", _NOT_INT),
            case("sweep", "seed", _NOT_INT),
            case("sweep", "snr_db", _NOT_REAL),
            case("sweep", "kf_q", _NOT_REAL),
            case("sweep", "no_noise", _NOT_BOOL),
        ]
    )


class TestInvalidSpecFuzz:
    @given(_bad_field_cases())
    @settings(max_examples=80, deadline=None)
    def test_one_bad_field_exits_2_naming_it(self, bad):
        command, field, value, extra = bad
        config = {"m_data": 4, "n_trials": 2, "n_slots": 3, "seed": 1, "omegas": [0.01], **extra}
        if command == "dynamic" and field != "traj_kind":
            config["traj_kind"] = "fixed-velocity"
        argv = [command]
        if field == "slots_list":
            argv.append(f"--slots-list={value}")
        else:
            config[field] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--config", path])
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

    def test_dynamic_at_minus_200_db_reports_a_rate_fraction(self, capsys):
        # capacity once underflowed to 0 here, and rate_fraction divided by it
        code, out, err = run_cli(
            capsys, "dynamic", "--m", "13", "--snr-db", "-200", "--trials", "1", "--slots", "1", "--seed", "3"
        )
        assert code == 0, err
        fraction = float(re.search(r"^rate_fraction\s+recursive\s+(\S+)$", out, re.M).group(1))
        assert 0.0 <= fraction <= 1.0

    def test_table1_at_minus_200_db_finds_no_velocity(self, capsys):
        # with capacity 0 every rate held 0.95 of it, and omega_hi was reported
        code, out, err = run_cli(
            capsys, "table1", "--m", "8", "--snr-db", "-200", "--trials", "2", "--slots", "5", "--seed", "3"
        )
        assert code == 0, err
        for param in ("max_omega_rad_per_slot", "max_velocity_deg_per_sec"):
            assert re.search(rf"^{param}\s+recursive\s+nan$", out, re.M), out

    def test_kf_integer_p0_matches_float(self, capsys, tmp_path):
        outs = []
        for p0 in (1, 1.0):
            cfg = tmp_path / f"kf_{p0!r}.json"
            cfg.write_text(json.dumps({
                "m_data": 8, "n_trials": 3, "n_slots": 20, "seed": 1,
                "traj_kind": "fixed-velocity", "omegas": [0.01], "kf_p0": p0,
            }))
            code, out, _ = run_cli(capsys, "dynamic", "--algorithms", "kf", "--config", str(cfg))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


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

    def test_bad_omegas_exits_2_naming_field(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--m", "8", "--omegas", "0.01,abc", "--trials", "2", "--slots", "3",
            "--seed", "1",
        )
        assert code == 2
        assert "omegas" in err
        assert out == ""

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
