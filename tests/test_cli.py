import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from linopt_bp import cli
from linopt_bp import closed_forms as cforms
from linopt_bp import cost_functions as cf
from linopt_bp import estimators as est
from linopt_bp.cli import ENV_OUTDIR, SCHEMA, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(tmp_path, args, name="out.csv"):
    path = tmp_path / name
    code = main(args + ["--output", str(path)])
    return code, path


def parse_csv(path):
    preamble, header, rows = {}, None, []
    for line in path.read_text().strip().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            preamble[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return preamble, header, rows


class TestToyCommand:
    def test_row_pair_and_preamble(self, tmp_path):
        code, path = run(tmp_path, ["toy", "--m", "3", "--s", "0.4", "--samples", "20000", "--seed", "5"])
        assert code == 0
        preamble, header, rows = parse_csv(path)
        assert preamble["schema"] == SCHEMA
        assert preamble["seed"] == "5"
        assert json.loads(preamble["config"])["samples"] == 20000
        assert header == ["m", "s", "kind", "value", "std_error"]
        kinds = [r[2] for r in rows]
        assert kinds == ["closed_form", "mc"]
        closed, mc = float(rows[0][3]), float(rows[1][3])
        se = float(rows[1][4])
        assert abs(closed - mc) <= 4 * se


class TestProp1Command:
    def test_column_contract(self, tmp_path):
        code, path = run(
            tmp_path,
            ["prop1", "--m", "3", "--intensity", "1.0", "--samples", "20000", "--seed", "7"],
        )
        assert code == 0
        _, header, rows = parse_csv(path)
        assert header == ["m", "E", "xi_min", "xi_max", "pred_lo", "pred_hi",
                          "mc_second_moment", "mc_stderr"]
        row = dict(zip(header, map(float, rows[0])))
        assert row["xi_min"] == row["xi_max"] == pytest.approx(1.0)
        assert row["pred_lo"] == row["pred_hi"]
        assert abs(row["mc_second_moment"] - row["pred_lo"]) <= 4 * row["mc_stderr"]

    def test_generic_generator_interval(self, tmp_path):
        code, path = run(
            tmp_path,
            ["prop1", "--m", "3", "--intensity", "0.5", "--samples", "20000",
             "--generator", "two-mode-phase", "--modes", "0", "2"],
        )
        assert code == 0
        _, header, rows = parse_csv(path)
        row = dict(zip(header, map(float, rows[0])))
        assert row["xi_min"] == 0.0 and row["xi_max"] == 1.0
        slack = 4 * row["mc_stderr"]
        assert row["pred_lo"] - slack <= row["mc_second_moment"] <= row["pred_hi"] + slack


@pytest.mark.parametrize("args,column", [
    (["toy", "--m", "3", "--s", "0"], 3),
    (["prop1", "--m", "3", "--intensity", "0"], 4),
    (["prop1", "--m", "3", "--intensity", "0"], 5),
], ids=["toy-s0", "prop1-e0-lo", "prop1-e0-hi"])
def test_exact_zero_prediction_exits_0(tmp_path, args, column):
    # s = 0 and E = 0 make the moment exactly zero (log -inf), which is written as 0.0
    code, path = run(tmp_path, args + ["--samples", "1000"])
    assert code == 0
    assert float(parse_csv(path)[2][0][column]) == 0.0


class TestProp2Command:
    def test_prediction_matches_mc(self, tmp_path):
        code, path = run(tmp_path, ["prop2", "--m", "2", "--intensity", "1.0", "--samples", "30000"])
        assert code == 0
        _, header, rows = parse_csv(path)
        row = dict(zip(header, map(float, rows[0])))
        assert abs(row["mc_second_moment"] - row["prediction"]) <= 4 * row["mc_stderr"]


class TestHeterodyneCommand:
    def test_closed_form_only(self, tmp_path):
        code, path = run(tmp_path, ["heterodyne", "--m", "4", "--e0", "1.0", "--e1", "1.0", "--samples", "0"])
        assert code == 0
        _, header, rows = parse_csv(path)
        assert header == ["m", "e0", "e1", "log_prefactor"]
        row = dict(zip(header, map(float, rows[0])))
        assert row["log_prefactor"] == cforms.heterodyne_prefactor(4, 1.0, 1.0).log_value

    def test_with_monte_carlo(self, tmp_path):
        code, path = run(
            tmp_path,
            ["heterodyne", "--m", "2", "--e0", "1.0", "--e1", "0.4", "--samples", "20000"],
        )
        assert code == 0
        _, header, rows = parse_csv(path)
        row = dict(zip(header, map(float, rows[0])))
        assert abs(row["mc_second_moment"] - math.exp(row["log_prefactor"])) <= 4 * row["mc_stderr"]

    @pytest.mark.parametrize("zero", ["--e0", "--e1"])
    def test_exact_zero_is_valid_json(self, tmp_path, zero):
        # JSON (RFC 8259) has no -Infinity: the log of the exact zero is null in JSON
        # lines, and -inf in CSV
        def no_constants(token):
            raise ValueError(f"non-JSON constant {token}")

        code, path = run(tmp_path, ["heterodyne", zero, "0", "--format", "json"], name="out.jsonl")
        assert code == 0
        lines = [json.loads(line, parse_constant=no_constants) for line in path.read_text().splitlines()]
        assert lines[1]["log_prefactor"] is None
        code, path = run(tmp_path, ["heterodyne", zero, "0"])
        assert code == 0
        _, header, rows = parse_csv(path)
        assert float(dict(zip(header, rows[0]))["log_prefactor"]) == -math.inf


class TestNoiseCommand:
    def test_verdicts(self, tmp_path):
        code, path = run(
            tmp_path,
            ["noise", "--m-grid", "4:64:4", "--e0-law", "power:1,0.5", "--k", "0.9",
             "--layers-law", "linear:1"],
        )
        assert code == 0
        preamble, header, rows = parse_csv(path)
        assert preamble["verdict"] == "BPL"
        assert header == ["m", "e0", "n_layers", "e1", "log_prefactor"]
        assert len(rows) == 16

        code, path = run(
            tmp_path,
            ["noise", "--m-grid", "4:64:4", "--e0-law", "power:1,0.5", "--k", "0.9",
             "--layers-law", "sqrt"],
            name="out2.csv",
        )
        preamble, _, _ = parse_csv(path)
        assert preamble["verdict"] == "trainable"


    def test_closed_form_once_per_point(self, tmp_path, monkeypatch):
        calls = _count_calls(monkeypatch, "heterodyne_prefactor")
        code, path = run(
            tmp_path,
            ["noise", "--m-grid", "4:64:4", "--e0-law", "power:1,0.5", "--k", "0.9",
             "--layers-law", "linear:1"],
        )
        assert code == 0
        _, _, rows = parse_csv(path)
        assert sorted(calls) == [(m,) for m in range(4, 65, 4)]
        for m, e0, _, e1, log_value in rows:
            assert float(log_value) == cforms.heterodyne_prefactor(int(m), float(e0), float(e1)).log_value

    def test_explicit_e0_list_matches_its_law(self, tmp_path):
        # --e0-law takes the grammar of --law, list: included
        args = ["noise", "--m-grid", "4:64:4", "--k", "0.9", "--layers-law", "sqrt"]
        e0s = cforms.intensity_law("power:1,0.5", list(range(4, 65, 4)))
        code_law, law_path = run(tmp_path, args + ["--e0-law", "power:1,0.5"], name="law.csv")
        code_list, list_path = run(tmp_path, args + ["--e0-law", "list:" + ",".join(map(repr, e0s))],
                                   name="list.csv")
        assert (code_law, code_list) == (0, 0)
        law_preamble, law_header, law_rows = parse_csv(law_path)
        list_preamble, list_header, list_rows = parse_csv(list_path)
        assert (list_header, list_rows) == (law_header, law_rows)
        assert list_preamble["verdict"] == law_preamble["verdict"] == "trainable"


def _count_calls(monkeypatch, name):
    """Record the mode count of every call to a closed-form prefactor."""
    calls = []
    original = getattr(cforms, name)

    def counting(m, *args):
        calls.append((m,))
        return original(m, *args)

    monkeypatch.setattr(cforms, name, counting)
    return calls


class TestRegimesCommand:
    def test_linear_law(self, tmp_path):
        code, path = run(tmp_path, ["regimes", "--law", "linear:1", "--m-grid", "4:64:4"])
        assert code == 0
        preamble, header, rows = parse_csv(path)
        assert preamble["verdict"] == "BPL"
        assert float(preamble["fit_slope"]) < -1.0
        assert header == ["m", "E", "log_moment"]

    def test_grammar_law(self, tmp_path):
        code, path = run(tmp_path, ["regimes", "--law", "power:1,0.5", "--m-grid", "4:64:4"])
        preamble, _, _ = parse_csv(path)
        assert preamble["verdict"] == "trainable"

    def test_closed_form_once_per_point(self, tmp_path, monkeypatch):
        calls = _count_calls(monkeypatch, "heterodyne_prefactor")
        code, path = run(tmp_path, ["regimes", "--law", "expdecay:3,1.1", "--m-grid", "4:64:4"])
        assert code == 0
        _, _, rows = parse_csv(path)
        assert sorted(calls) == [(m,) for m in range(4, 65, 4)]
        for m, energy, log_value in rows:
            assert float(log_value) == cforms.heterodyne_prefactor(int(m), float(energy), float(energy)).log_value

    def test_explicit_intensity_list(self, tmp_path):
        grid = list(range(4, 65, 4))
        energies = ",".join(str(float(m)) for m in grid)  # E = m, a plateau law
        code, path = run(tmp_path, ["regimes", "--law", f"list:{energies}", "--m-grid", "4:64:4"])
        assert code == 0
        preamble, _, _ = parse_csv(path)
        assert preamble["verdict"] == "BPL"

    def test_explicit_list_length_checked(self, tmp_path, capsys):
        code = main(["regimes", "--law", "list:1,2,3", "--m-grid", "4:64:4",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "law" in capsys.readouterr().err

    def test_bare_law_name_is_config_error(self, tmp_path, capsys):
        assert main(["regimes", "--law", "linear", "--output", str(tmp_path / "x.csv")]) == 2
        assert "law: cannot parse intensity law 'linear'" in capsys.readouterr().err

    def test_split_law_flags_are_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["regimes", "--law", "linear", "--a", "1", "--output", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


def _spy_sweep(monkeypatch):
    """Record every call of ``intensity_law`` by the grid it was given, and every
    evaluation of a layer-count law and ``attenuated_intensity`` by the mode count
    (or layer count) it was asked for."""
    calls = {"law": [], "layers": [], "attenuation": []}

    def counting(kind, fn, key):
        def wrapped(*args):
            calls[kind].append(key(*args))
            return fn(*args)
        return wrapped

    parse_layers = cli._parse_layers_law
    monkeypatch.setattr(cforms, "intensity_law",
                        counting("law", cforms.intensity_law, lambda text, grid: list(grid)))
    monkeypatch.setattr(cli, "_parse_layers_law",
                        lambda text: counting("layers", parse_layers(text), lambda m: m))
    monkeypatch.setattr(cf, "attenuated_intensity",
                        counting("attenuation", cf.attenuated_intensity, lambda e0, k, n: n))
    return calls


class TestSweepEvaluatesOnce:
    GRID = list(range(4, 65, 4))

    def test_regimes(self, tmp_path, monkeypatch):
        calls = _spy_sweep(monkeypatch)
        code, _ = run(tmp_path, ["regimes", "--law", "expdecay:3,1.1", "--m-grid", "4:64:4"])
        assert code == 0
        assert calls == {"law": [self.GRID], "layers": [], "attenuation": []}

    def test_noise(self, tmp_path, monkeypatch):
        calls = _spy_sweep(monkeypatch)
        code, path = run(tmp_path, ["noise", "--m-grid", "4:64:4", "--e0-law", "power:1,0.5",
                                    "--k", "0.9", "--layers-law", "sqrt"])
        assert code == 0
        _, _, rows = parse_csv(path)
        assert calls == {"law": [self.GRID], "layers": self.GRID,
                         "attenuation": [int(row[2]) for row in rows]}


class TestTrainCommand:
    def test_trace(self, tmp_path):
        code, path = run(
            tmp_path,
            ["train", "--m", "2", "--layers", "4", "--intensity", "0.5", "--lr", "1.0",
             "--max-iters", "300", "--tol", "1e-9", "--seed", "3"],
        )
        assert code == 0
        preamble, header, rows = parse_csv(path)
        assert header == ["iteration", "cost", "grad_norm"]
        assert float(preamble["final_cost"]) <= float(rows[0][1])

    def test_backoffs_in_preamble(self, tmp_path):
        code, path = run(
            tmp_path,
            ["train", "--m", "2", "--layers", "4", "--intensity", "0.5", "--lr", "8.0",
             "--max-iters", "50", "--tol", "0", "--seed", "3"],
        )
        assert code == 0
        preamble, _, _ = parse_csv(path)
        backoffs = int(preamble["backoffs"])
        assert backoffs > 0
        assert float(preamble["final_lr"]) == 8.0 * 0.5**backoffs


# a grid from 10**400 to 10**400 + 5: six points, each past the float range
HUGE_GRID = f"{10**400}:{10**400 + 5}"


class TestExitCodes:
    def test_config_error_bad_law(self, tmp_path, capsys):
        code = main(["regimes", "--law", "bogus:1", "--m-grid", "4:64:4",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "law" in capsys.readouterr().err

    def test_config_error_bad_grid(self, tmp_path, capsys):
        code = main(["regimes", "--law", "linear:1", "--m-grid", "nope",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "m_grid" in capsys.readouterr().err

    def test_config_error_bad_attenuation(self, tmp_path, capsys):
        code = main(["noise", "--m-grid", "4:64:4", "--e0-law", "power:1,0.5",
                     "--k", "1.5", "--layers-law", "sqrt", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "k" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        code = main(["train", "--m", "2", "--layers", "4", "--intensity", "0.5",
                     "--lr", "1e308", "--max-iters", "5", "--tol", "0",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("args,code,message", [
        # E1 = 0.25^m E0 underflows to an exact zero at m = 540
        (["noise", "--m-grid", "4:1024:4", "--e0-law", "power:1,0.5", "--k", "0.5",
          "--layers-law", "linear:1"], 3, "at m=540"),
        # E(1) = log(1) = 0: the moment is exactly zero at the first point
        (["regimes", "--m-grid", "1:64:1", "--law", "logpower:1,0.5"], 3, "at m=1"),
        (["regimes", "--law", "power:-1,0.5"], 2, "law: intensity -2.0 at m=4"),
        (["regimes", "--law", "linear:1e400"], 2, "law: intensity inf at m=4"),
        (["regimes", "--law", "list:" + ",".join(map(str, range(1, 16))) + ",-16"], 2,
         "law: intensity -16.0 at m=64"),
        # E = 1e308 is finite, but the Bessel argument 4E overflows
        (["regimes", "--law", "constant:1e308"], 3, "at m=4, E0=1e+308, E1=1e+308"),
        (["noise", "--e0-law", "constant:1e308", "--k", "0.9"], 3, "at m=4, E0=1e+308"),
        # 4E = 4e12 is above the Bessel MAX_ARGUMENT = 1e12
        (["regimes", "--law", "constant:1e12"], 3, "at m=4, E0=1000000000000.0"),
        # single points: the closed form fails, and the command exits 3 as a sweep does
        (["heterodyne", "--m", "4", "--e0", "1e308", "--e1", "1e308"], 3,
         "closed form: argument must be finite"),
        # the Bessel argument 4 sqrt(E0 E1) = 4e4 is fine, but -2(E0+E1) overflows; the
        # moment is not the exact zero that log -inf stands for
        (["heterodyne", "--m", "4", "--e0", "1e308", "--e1", "1e-300", "--samples", "0"], 3,
         "closed form: exponent -2(E0+E1) at E0=1e+308, E1=1e-300 is not finite"),
        (["heterodyne", "--m", "4", "--e0", "1e308", "--e1", "1e-300", "--samples", "1000"], 3,
         "closed form: exponent -2(E0+E1) at E0=1e+308, E1=1e-300 is not finite"),
        (["prop1", "--m", "4", "--intensity", "1e308", "--samples", "1000"], 3,
         "closed form: argument must be finite"),
        (["toy", "--m", "4", "--s", "1e308", "--samples", "1000"], 3,
         "closed form: I_nu(x) at order 0, argument 1e+308"),
        # a nonzero single-point prediction below the smallest double: e^-1854.2 and
        # e^-2292.8 would be written as 0.0 beside an estimate of 0 +- 0
        (["prop1", "--m", "1024", "--intensity", "1024", "--samples", "1000"], 3,
         "pred_lo underflows to 0.0 (log -1854.21"),
        (["toy", "--m", "3000", "--s", "1", "--samples", "1000"], 3,
         "closed form underflows to 0.0 (log -2292.78"),
        # a nonzero second moment whose g^4 sum underflows to 0 or overflows to inf:
        # its standard error would be written as 0.0
        (["prop1", "--m", "150", "--intensity", "150", "--samples", "8192"], 3,
         "numerical failure: Monte Carlo: the second moment 2.7671549197627408e-207 has no "
         "standard error: the sum of g^4 is 0.0"),
        (["prop2", "--intensity", "1e80", "--samples", "1000"], 3,
         "numerical failure: Monte Carlo: the second moment 1.3935043358500343e+160 has no "
         "standard error: the sum of g^4 is inf"),
        # a layer-count law that does not parse, or whose count leaves the float range
        (["noise", "--layers-law", "linear:x"], 2, "layers_law: cannot parse 'linear:x'"),
        (["noise", "--layers-law", "linear:1e400"], 2, "layers_law: cannot parse 'linear:1e400'"),
        (["noise", "--layers-law", "linear:nan"], 2, "layers_law: cannot parse 'linear:nan'"),
        (["noise", "--layers-law", "const:x"], 2, "layers_law: cannot parse 'const:x'"),
        (["noise", "--layers-law", "const:1.5"], 2, "layers_law: cannot parse 'const:1.5'"),
        (["noise", "--layers-law", "linear:1e308"], 2, "layers_law: 'linear:1e308' gives a layer count"),
        # a float flag must be finite
        (["train", "--tol", "nan"], 2, "tol: expected finite float, got nan"),
        (["train", "--intensity", "inf"], 2, "intensity: expected finite float, got inf"),
        (["prop2", "--intensity", "nan"], 2, "intensity: expected finite float, got nan"),
        (["prop1", "--intensity", "nan"], 2, "intensity: expected finite float, got nan"),
        (["train", "--lr", "nan"], 2, "lr: expected finite float, got nan"),
        # E = 1e308 is finite, but the input radius sqrt(2E) is not; at E = 1e200
        # the radius is finite and the prediction's |u|^4 overflows
        (["train", "--intensity", "1e308", "--max-iters", "1"], 3,
         "input radius sqrt(2E) at E=1e+308 is not finite"),
        (["prop2", "--intensity", "1e308", "--samples", "1000"], 3,
         "input radius sqrt(2E) at E=1e+308 is not finite"),
        (["prop2", "--intensity", "1e200", "--samples", "1000"], 3,
         "closed form: quadratic_second_moment overflows"),
        # E1 = 0 makes the closed form an exact zero, but the family still draws on the
        # sphere of radius sqrt(2 E0)
        (["heterodyne", "--m", "4", "--e0", "1e308", "--e1", "0", "--samples", "1000"], 3,
         "input radius sqrt(2E) at E=1e+308 is not finite"),
        # a grid is bounded before it is built: past 2**53 the fit and the closed forms
        # would merge neighbouring mode counts, and 2**20 points take about 10 s
        (["regimes", "--m-grid", "1:100000000000000000000", "--law", "linear:1"], 2,
         "m_grid: '1:100000000000000000000' stops above 2**53"),
        (["regimes", "--m-grid", HUGE_GRID, "--law", "linear:1"], 2, "stops above 2**53"),
        (["noise", "--m-grid", HUGE_GRID], 2, "stops above 2**53"),
        (["regimes", "--m-grid", "9007199254740993:9007199254740999", "--law", "list:1,1,1,1,1,1,1"], 2,
         "m_grid: '9007199254740993:9007199254740999' stops above 2**53"),
        (["regimes", "--m-grid", "1:1048577", "--law", "linear:1"], 2,
         "m_grid: '1:1048577' has more than 2**20 points"),
    ], ids=["noise-e1-underflow", "regimes-zero-at-m1", "regimes-negative-law",
            "regimes-infinite-law", "regimes-negative-list-entry", "regimes-bessel-overflow",
            "noise-bessel-overflow", "regimes-max-argument", "heterodyne-bessel-overflow",
            "heterodyne-exponent-overflow", "heterodyne-exponent-overflow-mc",
            "prop1-bessel-overflow", "toy-max-argument", "prop1-prediction-underflow",
            "toy-closed-form-underflow", "prop1-fourth-power-underflow", "prop2-fourth-power-overflow",
            "layers-linear-text", "layers-linear-overflow", "layers-linear-nan", "layers-const-text",
            "layers-const-fraction", "layers-count-overflow",
            "train-tol-nan", "train-intensity-inf", "prop2-intensity-nan", "prop1-intensity-nan",
            "train-lr-nan", "train-radius-overflow", "prop2-radius-overflow",
            "prop2-prediction-overflow", "heterodyne-radius-overflow",
            "regimes-grid-stop-1e20", "regimes-grid-stop-1e400", "noise-grid-stop-1e400",
            "regimes-grid-stop-2p53-plus-1", "regimes-grid-too-long"])
    def test_bad_sweep_point_exit_code(self, tmp_path, capsys, args, code, message):
        # an exception escaping main would fail the test with its traceback
        assert main(args + ["--output", str(tmp_path / "x.csv")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err
        assert not (tmp_path / "x.csv").exists()

    def test_grid_bounds_are_inclusive(self, tmp_path, capsys):
        # a grid stopping at 2**53 runs; one of 2**20 points gets past the bound to the
        # check of its explicit intensity list
        assert main(["regimes", "--m-grid", "9007199254740987:9007199254740992", "--law", "list:1,1,1,1,1,1",
                     "--output", str(tmp_path / "x.csv")]) == 0
        assert main(["regimes", "--m-grid", "1:1048576", "--law", "list:1,1,1,1,1,1",
                     "--output", str(tmp_path / "y.csv")]) == 2
        assert "explicit list has 6 entries but the grid has 1048576" in capsys.readouterr().err

    @pytest.mark.parametrize("fields,message", [
        ({"m": 3.7}, "m: expected int, got 3.7"),
        ({"m": float("inf")}, "m: expected int, got inf"),
        ({"samples": 1000.5}, "samples: expected int, got 1000.5"),
        ({"intensity": float("nan")}, "intensity: expected finite float, got nan"),
        ({"modes": 5}, "modes: expected a list of ints, got 5"),
        ({"modes": [0.5]}, "modes: expected a list of ints, got [0.5]"),
        ({"generator": "bogus"}, "generator: expected one of (global-phase, phase-shifter, "
                                 "two-mode-phase, beamsplitter), got 'bogus'"),
        ({"generator": None}, "generator: required"),
        # a JSON boolean is not a number, although int(True) == 1
        ({"m": True}, "m: expected int, got True"),
        ({"seed": False}, "seed: expected int, got False"),
        ({"intensity": True}, "intensity: expected finite float, got True"),
    ], ids=["m-fraction", "m-inf", "samples-fraction", "intensity-nan", "modes-int", "modes-float",
            "generator-unknown", "generator-null", "m-bool", "seed-bool", "intensity-bool"])
    def test_bad_config_field_exit_code(self, tmp_path, capsys, fields, message):
        # a --config value is never truncated or coerced into range: it exits 2 naming the field
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"generator": "phase-shifter", "samples": 1000, **fields}))
        assert main(["prop1", "--config", str(cfg_path), "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("output", [1, 7, ["a"]], ids=["fd1", "fd7", "list"])
    def test_non_string_output_is_config_error(self, tmp_path, output):
        # an int output would be taken as a file descriptor: run in a child process,
        # so a regression cannot close this process's stdout
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"samples": 1000, "output": output}))
        proc = subprocess.run([sys.executable, "-m", "linopt_bp.cli", "toy", "--config", str(cfg_path)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2
        assert f"config error: output: expected str, got {output!r}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_negative_layer_count_is_config_error(self, tmp_path, capsys):
        code = main(["noise", "--layers-law", "linear:-1", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "layers_law: layer count -4 at m=4" in capsys.readouterr().err


_NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now raises ImportError
import numpy as np
from linopt_bp import GeneratorPair, LayeredCircuit, make_generator
from linopt_bp.cli import main
from linopt_bp.linear_optics import GateBlocks
from linopt_bp.trainer import layer_gradients

eps = np.diag([0.5, 0.5, 1.5, 1.5])  # unequal phases: no Rodrigues form
custom = GeneratorPair.from_symmetric(eps)
gate = GateBlocks([custom]).at([0.7])[0]
assert np.allclose(gate, np.diag(np.exp([-0.7j, -2.1j])), rtol=0, atol=1e-15)
circuit = LayeredCircuit([custom, make_generator("beamsplitter", (0, 1), 2)], [np.eye(2), np.eye(2)], [0.3, -0.4])
grads = layer_gradients(circuit, "compiling", np.array([1.0, 0.0, 0.0, 0.5]))
assert grads.shape == (2,) and np.all(np.isfinite(grads)) and np.any(grads != 0.0)
assert main(["train", "--m", "4", "--layers", "6", "--max-iters", "2", "--output", sys.argv[1]]) == 0
print("ok")
"""


def test_runs_without_scipy(tmp_path):
    # numpy is the only run-time dependency: a custom gate, the trainer's gradients on
    # a circuit holding it and the CLI's train command all run with scipy blocked
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path / "train.csv")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
    assert (tmp_path / "train.csv").exists()


_REPLAY_ARGS = {
    "toy": ["--m", "4", "--s", "0.3", "--samples", "15000"],
    "prop1": ["--m", "3", "--intensity", "0.5", "--samples", "2000",
              "--generator", "two-mode-phase", "--modes", "0", "2"],
    "prop2": ["--m", "3", "--samples", "2000"],
    "heterodyne": ["--m", "2", "--e0", "1.0", "--e1", "0.4", "--samples", "2000"],
    "noise": ["--m-grid", "4:24:4", "--k", "0.8", "--layers-law", "sqrt"],
    "regimes": ["--m-grid", "4:24:4", "--law", "power:1,0.5"],
    "train": ["--m", "2", "--layers", "3", "--max-iters", "20", "--family", "quadratic"],
}


class TestReproducibility:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", list(_REPLAY_ARGS))
    def test_rerun_from_embedded_config_is_identical(self, tmp_path, command, fmt):
        args = [command, *_REPLAY_ARGS[command], "--seed", "11", "--format", fmt]
        code, path = run(tmp_path, args)
        assert code == 0
        if fmt == "csv":
            cfg = json.loads(parse_csv(path)[0]["config"])
        else:
            cfg = json.loads(path.read_text().splitlines()[0])["config"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code2, path2 = run(tmp_path, [command, "--config", str(cfg_path)], name="rerun.csv")
        assert code2 == 0
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("command", ["toy", "prop1", "prop2", "heterodyne"])
    def test_default_jobs_writes_the_rows_of_one_job(self, tmp_path, command, monkeypatch):
        # four CPUs are claimed so that the default runs a thread pool on any host;
        # the default is read at import, so the field's is patched as well
        monkeypatch.setattr(est, "usable_cpus", lambda: 4)
        monkeypatch.setattr(next(f for f in cli._SHARED if f.name == "jobs"), "default", 4)
        args = [command, *_REPLAY_ARGS[command], "--samples", "20000", "--seed", "5"]
        _, default = run(tmp_path, list(args), name="default.csv")
        _, serial = run(tmp_path, args + ["--jobs", "1"], name="serial.csv")
        (pre_d, head_d, rows_d), (pre_s, head_s, rows_s) = parse_csv(default), parse_csv(serial)
        assert (head_d, rows_d) == (head_s, rows_s)
        cfg_d, cfg_s = json.loads(pre_d.pop("config")), json.loads(pre_s.pop("config"))
        assert pre_d == pre_s
        assert (cfg_d.pop("jobs"), cfg_s.pop("jobs")) == (4, 1)
        assert cfg_d == cfg_s

    def test_default_jobs_is_the_usable_cpu_count(self, tmp_path):
        _, path = run(tmp_path, ["toy", "--samples", "10000"])
        assert json.loads(parse_csv(path)[0]["config"])["jobs"] == est.usable_cpus()

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["prop1", "--m", "2", "--intensity", "0.5", "--samples", "10000", "--seed", "9"]
        _, a = run(tmp_path, list(args), name="a.csv")
        _, b = run(tmp_path, list(args), name="b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        path = tmp_path / "out.jsonl"
        code = main(["toy", "--m", "2", "--s", "0.2", "--samples", "10000",
                     "--format", "json", "--output", str(path)])
        assert code == 0
        lines = [json.loads(line) for line in path.read_text().strip().splitlines()]
        assert lines[0]["record"] == "config"
        assert lines[0]["schema"] == SCHEMA
        assert {row["record"] for row in lines[1:]} == {"row"}

    def test_env_outdir_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_OUTDIR, str(tmp_path))
        code = main(["toy", "--m", "2", "--s", "0.2", "--samples", "10000", "--seed", "2"])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed == str(tmp_path / "toy_seed2.csv")
        assert os.path.exists(printed)


def test_readme_python_example_runs():
    # the first python block of README.md, as a user would paste it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr


def test_readme_shell_examples_run(tmp_path):
    # every linopt-bp line of README.md's sh blocks, run in-process
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in readme.split("```sh\n")[1:]]
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                if line.startswith("linopt-bp ")]
    assert commands
    for i, args in enumerate(commands):
        assert main(args + ["--output", str(tmp_path / f"example{i}.csv")]) == 0, args
