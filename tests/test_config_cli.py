import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

import standgrowth as sg
from standgrowth.cli import main
from conftest import SCENARIO_DIR


@pytest.fixture
def scenario_file(tmp_path):
    def write(**overrides):
        base = (SCENARIO_DIR / "convex_price_power.ini").read_text()
        for key, value in overrides.items():
            lines = []
            for line in base.splitlines():
                if line.split("=")[0].strip() == key:
                    line = f"{key} = {value}"
                lines.append(line)
            base = "\n".join(lines)
        path = tmp_path / "scenario.ini"
        path.write_text(base + "\n")
        return path
    return write


class TestConfig:
    def test_bundled_scenarios_load(self):
        for name in ("convex_price_power", "concave_price_power", "linear_growth",
                     "fagacees", "low_energy"):
            loaded = sg.load_scenario(SCENARIO_DIR / f"{name}.ini")
            assert loaded.scenario.rdi0 < 1.0

    def test_invalid_q_cites_invariant_and_line(self, scenario_file):
        path = scenario_file(q=2.5)
        with pytest.raises(sg.ConfigError, match="1 < q < 2") as err:
            sg.load_scenario(path)
        lineno = int(str(err.value).split(":")[1])
        assert path.read_text().splitlines()[lineno - 1].startswith("q")

    def test_unknown_key_rejected(self, tmp_path, scenario_file):
        path = scenario_file()
        text = path.read_text().replace("[stand]", "[stand]\nbogus = 1")
        path.write_text(text)
        with pytest.raises(sg.ConfigError, match="unknown key"):
            sg.load_scenario(path)

    def test_unknown_section_rejected(self, scenario_file):
        path = scenario_file()
        path.write_text(path.read_text() + "\n[extras]\nfoo = 1\n")
        with pytest.raises(sg.ConfigError, match="unknown section"):
            sg.load_scenario(path)

    def test_variant_key_mismatch_rejected(self, scenario_file):
        path = scenario_file(variant="fagacees")
        with pytest.raises(sg.ConfigError, match="power variant"):
            sg.load_scenario(path)

    def test_missing_section_rejected(self, scenario_file):
        path = scenario_file()
        text = "\n".join(line for line in path.read_text().splitlines()
                         if not line.startswith(("[initial]", "s = 0.08", "n = 300")))
        path.write_text(text)
        with pytest.raises(sg.ConfigError, match=r"missing required section \[initial\]"):
            sg.load_scenario(path)

    @pytest.mark.parametrize("line, message", [
        ("q = 1.5", "option 'q' in section 'stand' already exists"),
        ("q 1.5", "Source contains parsing errors"),
    ])
    def test_syntax_error_cites_file(self, scenario_file, line, message):
        path = scenario_file()
        path.write_text(path.read_text().replace("[stand]", f"[stand]\n{line}"))
        with pytest.raises(sg.ConfigError, match=message) as err:
            sg.load_scenario(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("key", ["v0", "h_family"])
    def test_missing_key_cites_section(self, scenario_file, key):
        path = scenario_file()
        path.write_text("\n".join(line for line in path.read_text().splitlines()
                                  if not line.startswith(f"{key} =")))
        with pytest.raises(sg.ConfigError,
                           match=rf"\[environment\] {key}: missing required key"):
            sg.load_scenario(path)

    @pytest.mark.parametrize("key, value, message", [
        ("variant", "cubic", "must be power, fagacees, or linear (got 'cubic')"),
        ("v_family", "logistic", "must be exponential or hyperbolic (got 'logistic')"),
        ("h_family", "linear", "must be saturating (got 'linear')"),
    ])
    def test_unknown_family_cites_invariant_and_line(self, scenario_file, key, value,
                                                     message):
        path = scenario_file(**{key: value})
        with pytest.raises(sg.ConfigError) as err:
            sg.load_scenario(path)
        assert f"] {key}: {message}" in str(err.value)
        lineno = int(str(err.value).split(":")[1])
        assert path.read_text().splitlines()[lineno - 1] == f"{key} = {value}"

    def test_non_numeric_value_cites_line(self, scenario_file):
        path = scenario_file(v0="plenty")
        with pytest.raises(sg.ConfigError, match="not a number"):
            sg.load_scenario(path)


    @pytest.mark.parametrize("key", ["v0", "lambda", "A", "t_star", "tau", "s", "k",
                                     "horizon"])
    def test_non_finite_value_cites_invariant_and_line(self, scenario_file, capsys, key):
        path = scenario_file(**{key: "inf" if key != "lambda" else "nan"})
        assert main(["times", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"] {key}: {key} must be finite" in err
        lineno = int(err.split(f"{path}:")[1].split(":")[0])
        assert path.read_text().splitlines()[lineno - 1].startswith(key)

    def test_nonzero_initial_time_cites_t_line(self, scenario_file, capsys):
        path = scenario_file()
        path.write_text(path.read_text().replace("[initial]", "[initial]\nt = 5"))
        assert main(["times", str(path)]) == 1
        err = capsys.readouterr().err
        assert "] t: t = 0 is required of the initial state (got 5.0)" in err
        lineno = int(err.split(f"{path}:")[1].split(":")[0])
        assert path.read_text().splitlines()[lineno - 1] == "t = 5"

    @pytest.mark.parametrize("key", ["horizon", "step"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_run_value_must_be_positive(self, scenario_file, capsys, key, value):
        path = scenario_file(horizon=value if key == "horizon" else "30")
        if key == "step":   # [run] is the last section
            path.write_text(path.read_text() + f"step = {value}\n")
        assert main(["times", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"] {key}: {key} must be finite and positive (got {float(value)})" in err
        lineno = int(err.split(f"{path}:")[1].split(":")[0])
        assert path.read_text().splitlines()[lineno - 1] == f"{key} = {value}"


class TestSimulateCommand:
    def test_zero_policy_constraint_exit(self, scenario_file, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", str(scenario_file()), "zero", "--out", str(out)])
        assert code == 2   # density ceiling reached before the horizon
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        n_vals = {row["n"] for row in rows}
        assert n_vals == {"300"}
        sidecar = json.loads((tmp_path / "traj.events.json").read_text())
        assert any(ev["kind"] == "RdiHitOne" and ev["terminal"]
                   for ev in sidecar["events"])

    def test_ceiling_riding_reaches_exit_corner(self, scenario_file, tmp_path):
        out = tmp_path / "esup.csv"
        code = main(["simulate", str(scenario_file()), "esup",
                     "--horizon", "50", "--out", str(out)])
        assert code == 2
        with open(out) as fh:
            rows = list(csv.reader(fh))
        final = [float(x) for x in rows[-1]]
        assert final[3] == pytest.approx(1.0, abs=1e-6)
        assert final[2] == pytest.approx(150.0, abs=1e-6)

    def test_cut_first_within_horizon_succeeds(self, scenario_file, tmp_path):
        out = tmp_path / "e0.csv"
        code = main(["simulate", str(scenario_file()), "e0",
                     "--horizon", "20", "--out", str(out)])
        assert code == 0

    def test_exact_target_policy_spec(self, scenario_file, tmp_path):
        out = tmp_path / "et.csv"
        code = main(["simulate", str(scenario_file()), "et:25",
                     "--horizon", "25", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["n"]) == pytest.approx(150.0, rel=1e-6)

    def test_piecewise_policy_file(self, scenario_file, tmp_path):
        spec = tmp_path / "policy.json"
        spec.write_text(json.dumps({"breakpoints": [5.0], "levels": [10.0, "hold"]}))
        out = tmp_path / "pw.csv"
        code = main(["simulate", str(scenario_file()), f"pw:{spec}",
                     "--horizon", "20", "--out", str(out)])
        assert code == 0

    def test_piecewise_file_reads_back_described_policy(self, tmp_path):
        from standgrowth.cli import _read_piecewise
        policy = sg.Policy.piecewise([5.0, 12.0], [20.0, sg.HOLD, 0.0])
        spec = tmp_path / "policy.json"
        spec.write_text(json.dumps(policy.describe()))
        back = _read_piecewise(str(spec))
        assert back == policy
        assert back.levels[1] is sg.HOLD

    def test_non_finite_piecewise_level_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "policy.json"
        spec.write_text('{"breakpoints": [5.0], "levels": [NaN, 0.0]}')
        out = tmp_path / "pw.csv"
        code = main(["simulate", str(SCENARIO_DIR / "fagacees.ini"), f"pw:{spec}",
                     "--out", str(out)])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("[5.0, 0.0]", "must be a JSON object"),
        ('{"levels": [0.0]}', "must be a JSON object"),
        ('{"breakpoints": 5, "levels": [0.0, 1.0]}', '"breakpoints" must be a list of numbers'),
        ('{"breakpoints": [true], "levels": [0.0, 1.0]}', '"breakpoints" must be a list'),
        ('{"breakpoints": [5.0], "levels": [null, 0.0]}', '"levels" must be a list of rates'),
        ('{"breakpoints": [5.0], "levels": ["Hold", 0.0]}', '"levels" must be a list of rates'),
        ('{"breakpoints": [5.0], "levels": "hold"}', '"levels" must be a list of rates'),
        ('{"breakpoints": [5.0', "not valid JSON"),
    ])
    def test_malformed_piecewise_file_exits_one(self, tmp_path, capsys, text, message):
        spec = tmp_path / "policy.json"
        spec.write_text(text)
        out = tmp_path / "pw.csv"
        code = main(["simulate", str(SCENARIO_DIR / "fagacees.ini"), f"pw:{spec}",
                     "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_target_horizon_exits_one(self, tmp_path, capsys):
        code = main(["simulate", str(SCENARIO_DIR / "fagacees.ini"), "et:abc",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "et:T needs a numeric target horizon" in capsys.readouterr().err

    def test_invalid_config_exits_one(self, scenario_file, tmp_path, capsys):
        path = scenario_file(q=2.5)
        code = main(["simulate", str(path), "zero", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "1 < q < 2" in capsys.readouterr().err

    def test_missing_horizon_exits_one(self, tmp_path, capsys):
        base = (SCENARIO_DIR / "convex_price_power.ini").read_text()
        path = tmp_path / "no_run.ini"
        path.write_text(base.split("[run]")[0])
        code = main(["simulate", str(path), "zero", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "no horizon: pass --horizon or set [run] horizon" in capsys.readouterr().err

    def test_unknown_policy_spec_exits_one(self, scenario_file, tmp_path):
        code = main(["simulate", str(scenario_file()), "chop-chop",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestTimesCommand:
    def test_json_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "times.json"
        code = main(["times", str(SCENARIO_DIR / "convex_price_power.ini"),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["t_sup0"] < payload["t_cap0"]
        assert payload["validity"]["classification"] == "reachable"
        assert json.loads(json.dumps(payload)) == payload

    def test_linear_growth_times_coincide(self, capsys):
        code = main(["times", str(SCENARIO_DIR / "linear_growth.ini")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t_lower"] == pytest.approx(payload["t_upper"], rel=1e-5)

    def test_low_energy_unreachable_markers(self, capsys):
        code = main(["times", str(SCENARIO_DIR / "low_energy.ini")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t_upper"] is None
        assert payload["t_cap0"] is None
        assert payload["t_lower"] is None
        assert payload["validity"]["classification"] == "unreachable"


class TestOptimizeCommand:
    def test_small_enumeration(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["optimize", str(SCENARIO_DIR / "convex_price_power.ini"),
                     "--intervals", "1", "--levels", "0,max", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["enumerated"] == 2
        assert payload["condition_report"]["branch"] == "E0Optimal"

    def test_empty_level_exits_one(self, capsys):
        code = main(["optimize", str(SCENARIO_DIR / "convex_price_power.ini"),
                     "--intervals", "1", "--levels", ","])
        assert code == 1
        assert "must be a rate in [0, e_max]" in capsys.readouterr().err

    def test_level_above_e_max_exits_one(self, capsys):
        code = main(["optimize", str(SCENARIO_DIR / "convex_price_power.ini"),
                     "--intervals", "1", "--levels", "0,999"])
        assert code == 1
        assert "level 999 outside [0, e_max]" in capsys.readouterr().err

    def test_too_many_candidates_exits_one(self, capsys):
        code = main(["optimize", str(SCENARIO_DIR / "convex_price_power.ini"),
                     "--intervals", "8", "--levels", "0,20,max,hold"])
        assert code == 1
        assert "the cap is 59049" in capsys.readouterr().err

    def test_search_answers_when_ceiling_ride_exceeds_e_max(self, tmp_path, capsys):
        # Riding the ceiling needs a rate of 10.71 here, so Esup has no run,
        # but the schedules that do not ride still compete.
        base = (SCENARIO_DIR / "concave_price_power.ini").read_text()
        path = tmp_path / "low_e_max.ini"
        path.write_text(base.replace("e_max = 40\n", "e_max = 8.5\n"))
        out = tmp_path / "result.json"
        code = main(["optimize", str(path), "--intervals", "5", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["canonical_values"]["Esup"] is None
        assert payload["condition_report"]["branch"] is None
        assert payload["best_value"] >= payload["canonical_values"]["E0"]

    def test_missing_economics_exits_one(self, tmp_path, capsys):
        base = (SCENARIO_DIR / "convex_price_power.ini").read_text()
        cut = base.split("[economics]")[0]
        path = tmp_path / "no_econ.ini"
        path.write_text(cut + "[run]\nhorizon = 30\n")
        code = main(["optimize", str(path)])
        assert code == 1
        assert "economics" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "esup"], "exceeds e_max=3.0"),
    (["optimize", "--intervals", "3"], "no candidate satisfied the constraints"),
])
def test_constraint_failure_exits_two(tmp_path, capsys, argv, message):
    """Riding the ceiling needs a rate above an e_max of 3, and no schedule
    over (0, max, hold) stays under the ceiling without riding it."""
    base = (SCENARIO_DIR / "concave_price_power.ini").read_text()
    path = tmp_path / "tiny_e_max.ini"
    path.write_text(base.replace("e_max = 40\n", "e_max = 3\n"))
    out = ["--out", str(tmp_path / "out")]
    assert main([argv[0], str(path), *argv[1:], *out]) == 2
    assert message in capsys.readouterr().err


class TestVerifyCommand:
    ARGS = ["--policies", "5", "--step", "0.05", "--seed", "7"]

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", str(SCENARIO_DIR / "convex_price_power.ini"),
                     *self.ARGS, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["policies_audited"] == 5
        assert "PASS" in capsys.readouterr().err

    def test_seeded_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code = main(["verify", str(SCENARIO_DIR / "convex_price_power.ini"),
                         *self.ARGS, "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_policy_count_below_one_exits_one(self, capsys, count):
        code = main(["verify", str(SCENARIO_DIR / "convex_price_power.ini"),
                     "--policies", count])
        assert code == 1
        err = capsys.readouterr().err
        assert f"--policies must be at least 1 (got {count})" in err
        assert "PASS" not in err

    def test_non_finite_fault_exits_one(self, capsys):
        code = main(["verify", str(SCENARIO_DIR / "convex_price_power.ini"),
                     *self.ARGS, "--inject-fault", "nan"])
        assert code == 1
        assert "fault_s_drift must be finite" in capsys.readouterr().err

    def test_fault_injection_exits_three(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", str(SCENARIO_DIR / "convex_price_power.ini"),
                     *self.ARGS, "--inject-fault", "2e-5", "--out", str(out)])
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        assert len(payload["violations"]) > 0


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the runtime must not pull it back in.
    src = str(pathlib.Path(sg.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, standgrowth.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # The cut relation's Gauss-Legendre rule is written out: importing
    # numpy.polynomial would cost every CLI process about 5 ms.
    src = str(pathlib.Path(sg.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, standgrowth.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"

