"""Tests for the command-line interface (in-process via main())."""

import argparse
import hashlib
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from importlib import resources

import qfiext.cli
from qfiext import HamiltonianFamily
from qfiext import load_preset
from qfiext.cli import main
from qfiext.generator import GeneratorMethod
from qfiext.linalg import PureState, unit_scaled
from qfiext.models import gyromagnetic_ratio
from qfiext.qfi import ChannelQfiReport, SaturationStatus, SaturationVerdict
from qfiext.sweep import CSV_HEADER, json_text

FIXTURES = resources.files("qfiext").joinpath("data/fixtures")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def drop(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


DIRECTION_RUN = {
    "model": "direction",
    "sweep_variable": "t",
    "grid": {"start": 1e-3, "stop": 1e-2, "points": 3},
    "fixed_params": {"B": 1e-9},
}


class TestSweepCommand:
    def test_preset_fig3_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "fig3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 102

    def test_preset_fig3_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--preset", "fig3", "--out", str(a)]) == 0
        assert main(["sweep", "--preset", "fig3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_multi_run_preset_writes_one_file_per_run(self, tmp_path):
        out_dir = tmp_path / "fig1"
        assert main(["sweep", "--preset", "fig1", "--out", str(out_dir), "--jobs", "4"]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "flood-beta-1e-01.csv",
            "flood-beta-1e-03.csv",
            "flood-beta-1e-06.csv",
            "unextended.csv",
        ]
        for p in out_dir.iterdir():
            assert p.read_text().startswith(CSV_HEADER)

    def test_multi_run_preset_to_stdout_equals_its_files_under_run_headers(
        self, tmp_path, capsys
    ):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "fig2")
        assert code == 0
        assert run_cli(capsys, "sweep", "--preset", "fig2", "--out", str(tmp_path)) == (0, "", "")
        labels = [spec.label for spec in load_preset("fig2").runs]
        files = [(tmp_path / f"{label}.csv").read_text(encoding="utf-8") for label in labels]
        assert out == "".join(f"# run: {label}\n{text}" for label, text in zip(labels, files))

    def test_json_format_matches_csv_values(self, capsys):
        code, csv_out, _ = run_cli(capsys, "sweep", "--preset", "fig3")
        code2, json_out, _ = run_cli(capsys, "sweep", "--preset", "fig3", "--format", "json")
        assert code == code2 == 0
        doc = json.loads(json_out)
        csv_rows = csv_out.strip().split("\n")[1:]
        assert len(doc["rows"]) == len(csv_rows)
        for line, jrow in zip(csv_rows, doc["rows"]):
            assert float(line.split(",")[1]) == jrow["channel_qfi"]

    def test_config_file(self, tmp_path, capsys):
        config = {
            "model": "direction",
            "sweep_variable": "t",
            "grid": {"start": 1e-3, "stop": 1e-2, "points": 4, "scale": "log"},
            "fixed_params": {"B": 1e-9, "phi": 0.5, "theta": 1.0},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert out.startswith(CSV_HEADER)
        assert len(out.strip().split("\n")) == 5

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "direction"}), encoding="utf-8")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("doc,named", [(5, "config"), ({"runs": 3}, "runs")])
    def test_malformed_config_document_exits_one(self, tmp_path, capsys, doc, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {named}: ")

    @pytest.mark.parametrize("points", [2.9, True, "3"])
    def test_non_integer_grid_points_exit_one(self, tmp_path, capsys, points):
        path = tmp_path / "run.json"
        run = {**DIRECTION_RUN, "grid": {**DIRECTION_RUN["grid"], "points": points}}
        path.write_text(json.dumps(run), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: grid.points: must be an integer, got {points!r}\n"

    @pytest.mark.parametrize(
        "key,value,shown",
        [("start", True, "true"), ("stop", "2", '"2"'), ("start", None, "null"),
         ("stop", float("inf"), "Infinity"), ("start", [1], "[1]")],
    )
    def test_grid_bounds_must_be_finite_numbers(self, tmp_path, capsys, key, value, shown):
        path = tmp_path / "config.json"
        grid = {"start": 1.0, "stop": 2.0, "points": 3, key: value}
        path.write_text(json.dumps({"runs": [{**DIRECTION_RUN, "grid": grid}]}), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: runs[0].grid.{key}: must be a finite number, got {shown}\n"

    def test_integer_too_large_for_a_float_grid_bound_exits_one(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**DIRECTION_RUN, "grid": {
            "start": 1, "stop": 10**400, "points": 2}}), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: grid.stop: must be a finite number, got 1000")

    def test_integral_float_grid_points_accepted(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        run = {**DIRECTION_RUN, "grid": {**DIRECTION_RUN["grid"], "points": 5.0}}
        path.write_text(json.dumps(run), encoding="utf-8")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0
        assert len(out.strip().split("\n")) == 6

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"runs": [5]}, "runs[0]: expected a JSON object, got int"),
            ({"runs": [DIRECTION_RUN, None]}, "runs[1]: expected a JSON object, got NoneType"),
            ({"runs": [drop(DIRECTION_RUN, "grid")]}, "runs[0].grid: required"),
            ({"runs": [DIRECTION_RUN, drop(DIRECTION_RUN, "model")]}, "runs[1].model: required"),
            (
                {"runs": [{**DIRECTION_RUN, "grid": drop(DIRECTION_RUN["grid"], "stop")}]},
                "runs[0].grid.stop: required",
            ),
            (
                {"runs": [{**DIRECTION_RUN, "grid": [1]}]},
                "runs[0].grid: expected a JSON object, got list",
            ),
            (drop(DIRECTION_RUN, "sweep_variable"), "sweep_variable: required"),
        ],
    )
    def test_malformed_run_entry_named(self, tmp_path, capsys, doc, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_non_finite_result_exits_four_without_output(self, tmp_path, capsys):
        config = {
            "model": "custom",
            "sweep_variable": "t",
            "grid": {"start": 1e199, "stop": 1e201, "points": 3, "scale": "log"},
            "family_file": str(FIXTURES.joinpath("valid-family.json")),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (4, "")
        assert err == "error: at t=1e+199: channel_qfi is not finite\n"

    def test_bad_field_in_last_run_exits_one_without_output(self, tmp_path, capsys):
        run = {
            "model": "direction",
            "sweep_variable": "t",
            "grid": {"start": 1e-3, "stop": 1e-2, "points": 3},
            "fixed_params": {"B": 1e-9},
        }
        bad = {**run, "fixed_params": {"B": 1e-9, "Bogus": 1.0}}
        path = tmp_path / "runs.json"
        path.write_text(json.dumps({"runs": [run, run, bad]}), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (1, "")
        assert "fixed_params.Bogus" in err

    def test_non_hermitian_add_operator_file_exits_two(self, tmp_path, capsys):
        operator = tmp_path / "operator.json"
        operator.write_text(json.dumps({"re": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}), encoding="utf-8")
        config = {
            "model": "broken-phase-shift",
            "sweep_variable": "epsilon",
            "grid": {"start": 0.0, "stop": 1.0, "points": 3},
            "family_file": str(FIXTURES.joinpath("valid-family.json")),
            "extension": {"kind": "add-operator", "file": str(operator), "epsilon": 0.0},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "not Hermitian" in err

    @pytest.mark.parametrize("missing", ["family_file", "operator_file"])
    def test_missing_input_file_exits_two(self, tmp_path, capsys, missing):
        absent = str(tmp_path / "absent.json")
        config = {
            "model": "custom",
            "sweep_variable": "epsilon",
            "grid": {"start": 0.0, "stop": 1.0, "points": 3},
            "family_file": str(FIXTURES.joinpath("valid-family.json")),
            "extension": {"kind": "add-operator", "file": absent, "epsilon": 0.0},
        }
        if missing == "family_file":
            config["family_file"] = absent
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 2
        assert out == ""
        assert "cannot read" in err and "absent.json" in err

    @pytest.mark.parametrize("doc", [{}, [[1, 0], [0, 1]], {"re": [[1, 0], [0]]}])
    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_malformed_operator_file_exits_two(self, tmp_path, capsys, doc, command):
        operator = tmp_path / "operator.json"
        operator.write_text(json.dumps(doc), encoding="utf-8")
        if command == "sweep":
            config = {
                "model": "direction",
                "sweep_variable": "t",
                "grid": {"start": 1e-3, "stop": 1e-2, "points": 3},
                "fixed_params": {"B": 1e-9},
                "extension": {"kind": "add-operator", "file": str(operator), "epsilon": 1.0},
            }
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv = ("sweep", "--config", str(path))
        else:
            argv = ("report", "--model", "direction", "--param", "B=1e-9",
                    "--extension", f"add-operator:file={operator},eps=1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "operator.json" in err

    def test_unknown_preset_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--preset", "fig9")
        assert code == 1
        assert "unknown preset" in err


VALID_FAMILY = str(FIXTURES.joinpath("valid-family.json"))
NAN, INF = float("nan"), float("inf")

# One mistake per row as (field named on stderr, model, params, extension, family file).
SCENARIO_MISTAKES = [
    ("fixed_params.Bxx", "nv", {"Bxx": 0.1}, None, None),
    ("extension.beta", "nv", {}, {"kind": "flood", "theta0": 0.0}, None),
    ("extension.beta", "nv", {}, {"kind": "flood", "beta": "abc"}, None),
    ("extension.beta", "nv", {}, {"kind": "flood", "beta": INF}, None),
    ("fixed_params.B", "direction", {"B": -1e-9}, None, None),
    ("fixed_params.t", "nv", {"t": NAN}, None, None),
    ("extension.bogus", "nv", {}, {"kind": "flood", "beta": 1e-3, "bogus": 1}, None),
    ("family_file", "nv", {}, None, VALID_FAMILY),
]


def report_argv(model, params, extension, family_file) -> list:
    argv = ["report", "--model", model]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    if extension is not None:
        fields = ",".join(f"{k}={v}" for k, v in extension.items() if k != "kind")
        argv += ["--extension", f"{extension['kind']}:{fields}"]
    if family_file is not None:
        argv += ["--family-file", family_file]
    return argv


CUSTOM_RUN = {"model": "custom", "family_file": VALID_FAMILY, "sweep_variable": "theta",
              "grid": {"start": 0.0, "stop": 1.0, "points": 2}}


@pytest.mark.parametrize(
    "run,message",
    [
        ({**CUSTOM_RUN, "family_file": 5}, "family_file: expected a file path or null, got int"),
        ({**DIRECTION_RUN, "fixed_params": [["B", 1e-9]]},
         "fixed_params: expected a JSON object, got list"),
        ({**DIRECTION_RUN, "extension": "flood"},
         "extension: expected a JSON object or null, got str"),
        ({**DIRECTION_RUN, "label": ["x"]}, "label: expected a string, got list"),
    ],
)
def test_run_document_field_of_another_json_type_exits_one(tmp_path, capsys, run, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run), encoding="utf-8")
    assert run_cli(capsys, "sweep", "--config", str(path)) == (1, "", f"error: {message}\n")
    path.write_text(json.dumps({"runs": [DIRECTION_RUN, run]}), encoding="utf-8")
    expected = (1, "", f"error: runs[1].{message}\n")
    assert run_cli(capsys, "sweep", "--config", str(path)) == expected


def test_report_names_the_extension_field_whose_sum_with_h_overflows(capsys):
    argv = ["report", "--model", "nv", "--param", "D=1e308", "--extension", "flood:beta=1e297"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: extension.beta: the added term plus H is not finite")


@pytest.mark.parametrize("kind", [["flood"], {"name": "flood"}])
def test_extension_kind_that_is_not_a_string_exits_one(tmp_path, capsys, kind):
    run = {**DIRECTION_RUN, "extension": {"kind": kind, "beta": 1.0}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run), encoding="utf-8")
    expected = ("error: extension.kind: must be one of flood, subtract, subtract-perturbed, "
                f"add-operator, sz, got {kind!r}\n")
    assert run_cli(capsys, "sweep", "--config", str(path)) == (1, "", expected)


def test_sz_on_a_model_other_than_direction_exits_one(tmp_path, capsys):
    expected = "error: extension.kind: 'sz' applies to the direction model only\n"
    assert run_cli(capsys, "report", "--model", "nv", "--extension", "sz:kappa=1") == (
        1, "", expected)
    run = {**DIRECTION_RUN, "model": "nv", "fixed_params": {},
           "extension": {"kind": "sz", "kappa": 1}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run), encoding="utf-8")
    assert run_cli(capsys, "sweep", "--config", str(path)) == (1, "", expected)


@pytest.mark.parametrize("field,model,params,extension,family_file", SCENARIO_MISTAKES)
def test_report_and_sweep_reject_the_same_mistake(
    tmp_path, capsys, field, model, params, extension, family_file
):
    code, out, err = run_cli(capsys, *report_argv(model, params, extension, family_file))
    assert (code, out) == (1, "")
    assert field in err
    config = {
        "model": model,
        "sweep_variable": "B_z" if model == "nv" else "t",
        "grid": {"start": 1e-3, "stop": 1e-2, "points": 2},
        "fixed_params": params,
        "extension": extension,
        "family_file": family_file,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert (code, out) == (1, "")
    assert field in err


class TestReportCommand:
    def test_phase_shift_custom_model_ratio_one(self, tmp_path, capsys):
        family = {
            "dim": 3,
            "terms": [
                {
                    "coefficient": {"kind": "linear", "scale": 1.0},
                    "matrix": {"re": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]},
                }
            ],
        }
        path = tmp_path / "phase-shift.json"
        path.write_text(json.dumps(family), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "report", "--model", "custom", "--family-file", str(path),
            "--param", "theta=0.4", "--param", "t=1.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == pytest.approx(1.0, abs=1e-9)
        assert doc["saturation"]["verdict"] == "saturates"
        assert doc["channel_qfi"] == pytest.approx(1.5**2 * 4.0, rel=1e-10)

    def test_broken_phase_shift_model_uses_exact_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--model", "broken-phase-shift",
            "--family-file", str(FIXTURES.joinpath("valid-family.json")),
            "--param", "theta=0.0", "--param", "t=1.2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["upper_bound"] == pytest.approx(1.2**2 * 4.0, rel=1e-12)
        assert 0.0 < doc["ratio"] < 1.0

    def test_broken_phase_shift_model_rejects_trig_coefficients(self, tmp_path, capsys):
        family = {
            "dim": 2,
            "terms": [
                {"coefficient": {"kind": "sin"}, "matrix": {"re": [[0.0, 1.0], [1.0, 0.0]]}}
            ],
        }
        path = tmp_path / "trig.json"
        path.write_text(json.dumps(family), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "report", "--model", "broken-phase-shift",
            "--family-file", str(path), "--param", "theta=0.0",
        )
        assert code == 1
        assert "const and linear" in err

    def test_direction_full_period_has_zero_qfi(self, capsys):
        b = 1e-9
        t = 2.0 * np.pi / (gyromagnetic_ratio() * b)
        code, out, _ = run_cli(
            capsys, "report", "--model", "direction",
            "--param", f"B={b}", "--param", "theta=1.0471975511965976",
            "--param", "phi=0.7853981633974483", "--param", f"t={t}",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["channel_qfi"] < 1e-12
        assert doc["upper_bound"] > 100.0

    def test_nv_high_field_close_to_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--model", "nv",
            "--param", "Bx=0.1", "--param", "Bz=0.5", "--param", "t=1e-3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] > 0.9

    def test_extension_flood(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--model", "nv",
            "--param", "Bx=0.1", "--param", "Bz=1e-6", "--param", "t=1e-3",
            "--extension", "flood:beta=1e-3,theta0=0",
        )
        assert code == 0
        doc = json.loads(out)
        assert 0.0 < doc["ratio"] < 1.0

    def test_extension_subtract_saturates(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--model", "direction",
            "--param", "B=1e-9", "--param", "theta=1.0", "--param", "t=1e-2",
            "--extension", "subtract:theta0=1.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_optimal_probe_is_unit_norm_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--model", "direction",
            "--param", "B=1e-9", "--param", "theta=0.3", "--param", "t=1e-2",
        )
        doc = json.loads(out)
        amp = np.array([complex(re, im) for re, im in doc["optimal_probe"]])
        assert np.linalg.norm(amp) == pytest.approx(1.0, abs=1e-12)

    def test_one_dimensional_custom_family(self, tmp_path, capsys):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(linear_family({"re": [[1.0]]}, dim=1)), encoding="utf-8")
        code, out, err = run_cli(capsys, "report", "--model", "custom", "--family-file", str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["channel_qfi"], doc["upper_bound"], doc["ratio"]) == (0.0, 0.0, 1.0)
        assert doc["optimal_probe"] == [[1.0, 0.0]]

    def test_non_finite_result_exits_four_without_output(self, capsys):
        code, out, err = run_cli(
            capsys, "report", "--model", "custom",
            "--family-file", str(FIXTURES.joinpath("valid-family.json")), "--param", "t=1e200",
        )
        assert (code, out) == (4, "")
        assert err == "error: at t=1e+200: channel_qfi is not finite\n"

    def test_missing_model_param_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "report", "--model", "direction")
        assert code == 1
        assert "B" in err

    def test_bad_param_syntax_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "report", "--model", "nv", "--param", "Bx")
        assert code == 1

    def test_unknown_param_name_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "report", "--model", "nv", "--param", "bz=0.1")
        assert code == 1
        assert "unknown for model" in err


# sha256 of `qfiext report` stdout; each call exercises a different spectral edge.
REPORT_STDOUT_SHA256 = [
    # degenerate K: the probe comes from the canonical basis
    (("--model", "direction", "--param", "B=0"),
     "b513d6531cef80e764fd98b7384121ccb843056d04a09cb5554bbe4ca3ed6420"),
    # on the NV level anti-crossing
    (("--model", "nv", "--param", "Bx=0.1", "--param", "Bz=0.1024",
      "--extension", "flood:beta=0.1"),
     "c7ecaba6d65f4e0e98d746f4089d9a2a6593ac77da96a1aeface01fcb5df6d4d"),
    (("--model", "direction", "--param", "B=1e-9", "--param", "theta=1.047",
      "--param", "phi=0.785", "--extension", "sz:kappa=10"),
     "35acd807c5775d35287aa811815cb874e4f01d7f3479486af0e9d562691a7f7a"),
    (("--model", "custom", "--family-file", VALID_FAMILY, "--param", "theta=0.3"),
     "d222f0bd49bde08ee3a973f1e0d931230a4297f44767355bf6d829b020287312"),
    (("--model", "broken-phase-shift", "--family-file", VALID_FAMILY),
     "616e0f3cf54b63a000f426a0a8b6a1a3fcb59be02855973e0058a94ac846fab8"),
]


@pytest.mark.parametrize("argv,digest", REPORT_STDOUT_SHA256)
def test_report_stdout_bytes_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "report", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _inconclusive_family(tmp_path) -> str:
    """A file family whose dH/dtheta has degenerate extremes that no eigenvector of
    H at theta = 0.2 lies in: its report's saturation witness is null."""
    h0 = np.random.default_rng(40).standard_normal((2, 4, 4))
    h0 = (h0[0] + h0[0].T) / 2 + 1j * (h0[1] - h0[1].T) / 2
    terms = [{"coefficient": {"kind": "linear"},
              "matrix": {"re": np.diag([1.0, 1, -1, -1]).tolist()}},
             {"coefficient": {"kind": "const"},
              "matrix": {"re": h0.real.tolist(), "im": h0.imag.tolist()}}]
    path = tmp_path / "inconclusive.json"
    path.write_text(json.dumps({"dim": 4, "terms": terms}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [argv for argv, _ in REPORT_STDOUT_SHA256] + [
    ("--model", "nv", "--param", "Bz=0.05", "--extension", "subtract:theta0=0.05"),
    ("--model", "custom", "--family-file", "inconclusive", "--param", "theta=0.2"),
])
def test_report_text_is_the_indented_json_dumps_text(tmp_path, capsys, argv):
    argv = [_inconclusive_family(tmp_path) if arg == "inconclusive" else arg for arg in argv]
    code, out, _ = run_cli(capsys, "report", *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n"
    if "inconclusive" in argv[2]:
        assert json.loads(out)["saturation"] == {"verdict": "degenerate-inconclusive",
                                                 "witness": None}


def test_report_text_raises_on_a_float_that_is_not_finite_as_json_text_does():
    probe = PureState(np.array([1.0, 0.0]))
    report = ChannelQfiReport(1.0, 2.0, float("nan"), probe, GeneratorMethod.SPECTRAL, 0.0)
    verdict = SaturationVerdict(SaturationStatus.SATURATES, (0, 1))
    with pytest.raises(ValueError) as raised:
        qfiext.cli._report_text("nv", 0.0, 1.0, report, verdict)
    with pytest.raises(ValueError) as expected:
        json_text({"ratio": float("nan")})
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("argv, key", [
    (("--model", "nv", "--param", "t=0.01", "--param", "t=0.02"), "--param: t"),
    (("--model", "nv", "--extension", "flood:beta=1,beta=2"), "--extension: beta"),
    (("--model", "nv", "--extension", "subtract-perturbed:theta0=1,epsilon=0.1,eps=0.2"),
     "--extension: epsilon"),
    (("--model", "nv", "--param", "Bz=0.01", "--extension", "flood:beta=1e-3,kind=subtract"),
     "--extension: kind"),
])
def test_report_key_given_twice_exits_one_naming_it(capsys, argv, key):
    assert run_cli(capsys, "report", *argv) == (1, "", f"error: {key} given more than once\n")


@pytest.mark.parametrize("run, message", [
    ({**DIRECTION_RUN, "fixed_params": {"B": True}},
     "fixed_params.B: must be a finite number, got True"),
    ({**DIRECTION_RUN, "extension": {"kind": "flood", "beta": False}},
     "extension.beta: must be a finite number, got False"),
])
def test_config_boolean_is_not_a_number(tmp_path, capsys, run, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run), encoding="utf-8")
    assert run_cli(capsys, "sweep", "--config", str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("run, message", [
    ({**DIRECTION_RUN, "fixed_params": {"B": "1e-9"},
      "extension": {"kind": "flood", "beta": "0.5"}},
     "fixed_params.B: must be a finite number, got '1e-9'"),
    ({**DIRECTION_RUN, "extension": {"kind": "flood", "beta": "0.5"}},
     "extension.beta: must be a finite number, got '0.5'"),
    ({**DIRECTION_RUN, "fixed_params": {**DIRECTION_RUN["fixed_params"], "theta": 10**400}},
     f"fixed_params.theta: must be a finite number, got {10**400}"),
], ids=["string-param", "string-extension-field", "int-beyond-float"])
def test_config_value_that_is_no_float_exits_one(tmp_path, capsys, run, message):
    # A numeric string is CLI text, not a JSON number; report converts its K=V values itself.
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run), encoding="utf-8")
    assert run_cli(capsys, "sweep", "--config", str(path)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("value", [True, 10**400], ids=["bool", "int-beyond-float"])
@pytest.mark.parametrize("key", ["scale", "frequency", "phase"])
def test_family_file_coefficient_that_is_no_finite_number_exits_two(tmp_path, capsys, key, value):
    term = {"coefficient": {"kind": "sin", key: value}, "matrix": {"re": [[1.0]]}}
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"dim": 1, "terms": [term]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "report", "--model", "custom", "--family-file", str(path))
    message = f"error: terms[0]: coefficient.{key} must be a finite number\n"
    assert (code, out, err) == (2, "", message)


def test_one_parser_serves_successive_calls_like_fresh_processes(capsys):
    # The parser is built once per process: an appended --param, or the
    # usage error in between, must not leak into the next call.
    calls = [
        ("report", "--model", "nv", "--param", "Bz=0.1", "--param", "t=1e-3"),
        ("report", "--model", "bogus"),
        ("report", "--model", "nv"),
    ]
    fresh = [
        subprocess.run([sys.executable, "-m", "qfiext.cli", *argv], capture_output=True, text=True)
        for argv in calls
    ]
    for argv, expected in zip(calls, fresh):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            expected.returncode, expected.stdout, expected.stderr
        )
    assert [p.returncode for p in fresh] == [0, 1, 0]
    assert fresh[0].stdout != fresh[2].stdout


# One mistake per matrix; each is read as a family-file term and as an operator file.
MALFORMED_MATRICES = {
    "ragged": {"re": [[1, 0], [0]]},
    "non-numeric": {"re": [[1, "x"], ["x", 1]]},
    "im-shape": {"re": [[1, 0], [0, 1]], "im": [[0, 0, 0]]},
    "non-square": {"re": [[1, 0, 0], [0, 1, 0]]},
    "non-object": [[1, 0], [0, 1]],
    "string": {"re": [["1", 0], [0, 1]]},
    "bool": {"re": [[1, True], [True, 1]]},
    "null": {"re": [[1, 0], [0, None]]},
}
# The entry each non-numeric case is reported by, as written in the file.
NOT_NUMBERS = {"non-numeric": '"x"', "string": '"1"', "bool": "true", "null": "null"}
FAMILY_ENTRIES = ("validate", "report-family")
OPERATOR_ENTRIES = ("report-operator", "sweep-operator")


def linear_family(matrix, dim=2) -> dict:
    return {"dim": dim, "terms": [{"coefficient": {"kind": "linear"}, "matrix": matrix}]}


@pytest.mark.parametrize(
    "entry,case",
    [(entry, case) for case in MALFORMED_MATRICES for entry in FAMILY_ENTRIES + OPERATOR_ENTRIES]
    + [(entry, "dim-true") for entry in FAMILY_ENTRIES],
)
def test_malformed_matrix_exits_two_at_every_entry_point(tmp_path, capsys, entry, case):
    if case == "dim-true":
        family, named = linear_family({"re": [[1.0]]}, dim=True), "dim"
    else:
        family, named = linear_family(MALFORMED_MATRICES[case]), "terms[0]"
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(family), encoding="utf-8")
    operator_path = tmp_path / "operator.json"
    operator_path.write_text(json.dumps(MALFORMED_MATRICES.get(case)), encoding="utf-8")
    if entry == "validate":
        argv = ("validate", str(family_path))
    elif entry == "report-family":
        argv = ("report", "--model", "custom", "--family-file", str(family_path))
    elif entry == "report-operator":
        argv = ("report", "--model", "direction", "--param", "B=1e-9",
                "--extension", f"add-operator:file={operator_path},eps=1")
    else:
        config = {
            "model": "direction",
            "sweep_variable": "epsilon",
            "grid": {"start": 0.0, "stop": 1.0, "points": 3},
            "fixed_params": {"B": 1e-9},
            "extension": {"kind": "add-operator", "file": str(operator_path)},
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ("sweep", "--config", str(config_path))
    if entry in OPERATOR_ENTRIES:
        named = "operator.json"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    if case in NOT_NUMBERS:
        assert "non-numeric entry re" in out + err and NOT_NUMBERS[case] in out + err
    if entry == "validate":
        assert named in out
        assert out.endswith(f"{family_path}: FAILED (input invariant violation)\n")
    else:
        assert out == ""
        assert err.startswith("error: ") and named in err


NAN_FAMILY = (
    '{"dim": 2, "terms": [{"coefficient": {"kind": "linear"},'
    ' "matrix": {"re": [[NaN, 0], [0, 1]]}}]}'
)


OPERATOR = {"re": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3e10]]}


class TestArgumentParsing:
    """A leading command is parsed by its own parser alone, with the two-level parse's output."""

    ARGVS = [
        [], ["bogus"], ["rep"], ["--help"], ["-x", "report"], ["report", "-h"], ["report"],
        ["report", "--model", "nv", "--bogus", "1"], ["report", "--model", "nv", "--", "x"],
        ["report", "--model", "nv", "--he"], ["sweep", "--preset", "fig1", "--jobs", "x"],
        ["presets", "x"], ["validate"],
    ]

    @staticmethod
    def exit_of(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_exits_as_the_two_level_parse(self, capsys, argv):
        parser, _ = qfiext.cli._build_parser()  # its parse_args parses the command's arguments
        assert self.exit_of(capsys, main, argv) == self.exit_of(capsys, parser.parse_args, argv)

    def test_leftover_arguments_are_the_top_level_error(self, capsys):
        argv = ["report", "--model", "nv", "--bogus", "1"]
        assert self.exit_of(capsys, main, argv) == (1, "", (
            "usage: qfiext [-h] {sweep,report,validate,presets} ...\n"
            "qfiext: error: unrecognized arguments: --bogus 1\n"
        ))

    def test_a_report_parses_its_arguments_once(self, capsys, monkeypatch):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        code, out, _ = run_cli(capsys, "report", "--model", "nv", "--param", "Bz=0.1")
        assert (code, calls) == (0, ["qfiext report"])
        assert json.loads(out)["model"] == "nv"


class TestOverflow:
    """Inputs whose evaluation overflows: an error naming the input, no warning, no output."""

    def test_report_generator_overflow_exits_four_naming_t(self, capsys):
        code, out, err = run_cli(
            capsys, "report", "--model", "nv", "--param", "Bz=0.1", "--param", "t=1e300"
        )
        assert (code, out) == (4, "")
        assert err == "error: at t=1e+300: generator is not finite\n"

    def test_report_bound_whose_t_squared_overflows_exits_zero(self, capsys):
        # t * t overflows and spread(dH/dtheta)^2 underflows: the bound is (|t| spread)^2.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "report", "--model", "direction", "--param", "B=1e-250", "--param", "t=1e200"
            )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["upper_bound"] == pytest.approx(1.2410940551206827e-77, rel=1e-12)
        assert doc["channel_qfi"] == pytest.approx(doc["upper_bound"], rel=1e-12)
        assert doc["ratio"] <= 1.0 + 1e-9

    def test_sweep_generator_overflow_names_first_grid_value(self, tmp_path, capsys):
        run = {"model": "nv", "sweep_variable": "t", "fixed_params": {"Bz": 0.1},
               "grid": {"start": 1e-3, "stop": 1e300, "points": 2, "scale": "log"}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(run), encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (4, "")
        assert err == "error: at t=1e+300: generator is not finite\n"

    def test_report_whose_spectral_spread_overflows_is_quiet(self, capsys):
        # H's eigenvalue spread is beyond the float maximum; H is decomposed scaled by a
        # power of two and the phase kernel uses its scaled gaps, so K (about t dH/dtheta)
        # is finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "report", "--model", "nv", "--param", "Bz=5.6e296", "--param", "t=1e-320"
            )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert all(np.isfinite([doc["channel_qfi"], doc["upper_bound"], doc["ratio"]]))

    def test_report_whose_bound_spread_is_subnormal_has_ratio_one(self, capsys):
        # |t| spread(dH/dtheta) is about 5e-324, so K is rounding noise; the ratio from
        # the spreads of K and t dH/dtheta read 4.0.
        argv = ("--param", "t=-1.6695982960666202e-127", "--param", "g=1.8751048892832552e-208",
                "--param", "Bz=-2.2810564117578962e+174",
                "--extension", "subtract:theta0=1.7216583532268923e+264")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "report", "--model", "nv", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["ratio"] == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def quiet_report(capsys, *argv) -> dict:
        """The JSON of a ``report`` that exits 0 without a warning, its numbers finite."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "report", *argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert all(np.isfinite([doc["channel_qfi"], doc["upper_bound"], doc["ratio"]]))
        return doc

    def test_report_that_lapack_could_not_decompose_unscaled_exits_zero(self, capsys):
        # H's entries reach 1.7e251; unscaled, eigh stopped with "did not converge" (exit 2).
        doc = self.quiet_report(capsys, "--model", "custom", "--family-file", VALID_FAMILY,
                                "--param", "theta=1.672116511639499e+251",
                                "--param", "t=1.2769555187113415e-57")
        assert doc["ratio"] <= 1.0 + 1e-9

    def test_report_whose_phases_overflow_has_the_bound_of_a_smaller_t(self, capsys):
        # t d/2 overflows on H's gaps of about 2e300, where t sinc(t d/2) is below 1e-290;
        # the generator is t dH/dtheta, as at t = 1e7, where channel_qfi is 4e14.
        small = self.quiet_report(capsys, "--model", "custom", "--family-file", VALID_FAMILY,
                                  "--param", "theta=1e300", "--param", "t=1e7")
        assert small["channel_qfi"] == pytest.approx(4e14, rel=1e-12)
        doc = self.quiet_report(capsys, "--model", "custom", "--family-file", VALID_FAMILY,
                                "--param", "theta=1e300", "--param", "t=1e10")
        assert doc["channel_qfi"] == pytest.approx(4e20, rel=1e-12)
        assert doc["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_report_whose_eigenvalue_overflows_exits_zero(self, tmp_path, capsys):
        # H = theta [[1, 1], [1, 1]] at theta = 1e308 has the eigenvalue 2e308.
        path = tmp_path / "ones.json"
        term = {"coefficient": {"kind": "linear", "scale": 1.0},
                "matrix": {"re": [[1.0, 1.0], [1.0, 1.0]]}}
        path.write_text(json.dumps({"dim": 2, "terms": [term]}), encoding="utf-8")
        doc = self.quiet_report(capsys, "--model", "custom", "--family-file", str(path),
                                "--param", "theta=1e308", "--param", "t=1e-300")
        assert doc["ratio"] <= 1.0 + 1e-9

    def test_report_whose_t_squared_is_subnormal_keeps_the_ratio_at_most_one(self, capsys):
        # t * t = 1.1e-319 lost digits in t * t * spread^2 and the ratio read 1.0000073.
        doc = self.quiet_report(
            capsys, "--model", "direction", "--param", "t=-3.2944224505583135e-160",
            "--param", "g=3.58310430380595e-24", "--param", "B=6.112612038377374e+148",
            "--extension", "flood:beta=-7.085248594635016e+167,theta0=-1.8590373699865882e-124",
        )
        assert doc["ratio"] <= 1.0 + 1e-9
        assert doc["channel_qfi"] == pytest.approx(doc["upper_bound"], rel=1e-9)

    @pytest.mark.parametrize("model", ["custom", "broken-phase-shift"])
    def test_report_file_family_whose_flood_overflows_exits_one_naming_beta(self, capsys, model):
        # H(theta) and the flood term are finite; their sum overflows where it is evaluated.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "report", "--model", model, "--family-file", VALID_FAMILY,
                "--param", "theta=1e308", "--extension", "flood:beta=1e308",
            )
        expected = "error: extension.beta: the added term plus H is not finite at theta=1e+308\n"
        assert (code, out, err) == (1, "", expected)

    @pytest.mark.parametrize(
        "variable,fixed,extension,grid,at",
        [
            ("theta", {}, {"beta": 1e308}, (1e307, 1e308), "theta=1e+308"),
            ("t", {"theta": 1e308}, {"beta": 1e308}, (1.0, 2.0), "theta=1e+308"),
            ("beta", {"theta": 1e308}, {}, (1e306, 1e308), "beta=1e+308"),
        ],
    )
    def test_sweep_file_family_whose_flood_overflows_exits_one(
        self, tmp_path, capsys, variable, fixed, extension, grid, at
    ):
        run = {"model": "custom", "family_file": VALID_FAMILY, "sweep_variable": variable,
               "fixed_params": fixed, "extension": {"kind": "flood", **extension},
               "grid": {"start": grid[0], "stop": grid[1], "points": 3}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(run), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        expected = f"error: extension.beta: the added term plus H is not finite at {at}\n"
        assert (code, out, err) == (1, "", expected)

    def test_report_saturation_of_a_large_hamiltonian_is_quiet(self, capsys):
        # kappa = 1e300 makes ||H|| far beyond 1e154, where the unscaled residual overflowed.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "report", "--model", "direction", "--param", "B=1e-9",
                "--extension", "sz:kappa=1e300",
            )
        assert (code, err) == (0, "")
        assert json.loads(out)["saturation"]["verdict"] == "not-saturating"

    @pytest.mark.parametrize(
        "model,params,extension,family_file",
        [
            ("nv", {"Bz": 0.1, "t": 1e300}, None, None),
            ("nv", {"Bz": 0.1, "t": 1e-3}, {"kind": "flood", "beta": 1e300}, None),
            ("nv", {"Bz": 1e300, "t": 1e-3}, None, None),
            ("nv", {"D": 1e308, "t": 1e-3}, {"kind": "flood", "beta": 1e297}, None),
            ("nv", {"Bz": 1e297, "t": 1e-3}, {"kind": "subtract", "theta0": -1e297}, None),
            ("direction", {"B": 5.6e296, "t": 1e-2}, {"kind": "sz", "kappa": 1.0}, None),
            ("direction", {"B": 5.6e296, "theta": 1.5707963267948966, "t": 1e-2},
             {"kind": "sz", "kappa": 1.0}, None),
            ("direction", {"B": 1e-9, "t": 1e-2},
             {"kind": "subtract-perturbed", "theta0": 1e308, "epsilon": 1e308}, None),
            ("custom", {"theta": 1e308, "t": 1.0}, {"kind": "flood", "beta": 1e308}, VALID_FAMILY),
            ("custom", {"theta": 1e308, "t": 1.0}, None, "OVERFLOWING"),
            ("broken-phase-shift", {"theta": 1e308, "t": 1.0}, None, "OVERFLOWING"),
        ],
    )
    def test_report_and_a_one_point_sweep_over_t_fail_alike(
        self, tmp_path, capsys, model, params, extension, family_file
    ):
        if family_file == "OVERFLOWING":
            family_file = overflowing_family(tmp_path)
        t = params["t"]
        run = {"model": model, "sweep_variable": "t", "family_file": family_file,
               "fixed_params": drop(params, "t"), "extension": extension,
               "grid": {"start": t, "stop": t, "points": 1}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(run), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_cli(capsys, *report_argv(model, params, extension, family_file))
            sweep = run_cli(capsys, "sweep", "--config", str(path))
        assert report[0] in (1, 4) and report[1] == "" and report[2].startswith("error: ")
        assert sweep == report

    @pytest.mark.parametrize(
        "model,params,extension,field",
        [
            ("nv", {"Bz": 0.1}, {"kind": "flood", "beta": 1e300}, "beta"),
            ("direction", {"B": 1.0}, {"kind": "sz", "kappa": 1e300}, "kappa"),
            ("nv", {"Bz": 0.1}, {"kind": "add-operator", "file": "OP", "epsilon": 1e300},
             "epsilon"),
        ],
    )
    def test_overflowing_extension_term_exits_one_naming_the_field(
        self, tmp_path, capsys, model, params, extension, field
    ):
        op = tmp_path / "op.json"
        op.write_text(json.dumps(OPERATOR), encoding="utf-8")
        extension = {k: str(op) if v == "OP" else v for k, v in extension.items()}
        expected = f"error: extension.{field}: the added term is not finite at coefficient 1e+300\n"
        code, out, err = run_cli(capsys, *report_argv(model, params, extension, None))
        assert (code, out, err) == (1, "", expected)
        swept = {"model": model, "sweep_variable": "t", "fixed_params": params,
                 "extension": extension, "grid": {"start": 1e-3, "stop": 1e-2, "points": 2}}
        fixed = {**swept, "sweep_variable": field, "extension": drop(extension, field),
                 "grid": {"start": 1e290, "stop": 1e300, "points": 3, "scale": "log"}}
        for run in (swept, fixed):
            path = tmp_path / "run.json"
            path.write_text(json.dumps(run), encoding="utf-8")
            code, out, err = run_cli(capsys, "sweep", "--config", str(path))
            assert (code, out, err) == (1, "", expected)


@pytest.mark.parametrize(
    "argv,field",
    [
        (("--model", "nv", "--param", "Bz=1e300"), "fixed_params.Bz"),
        (("--model", "nv", "--param", "Bx=1e300"), "fixed_params.Bx"),
        (("--model", "nv", "--param", "Bz=0.1",
          "--extension", "subtract-perturbed:theta0=0.1,eps=1e300"), "extension.epsilon"),
        (("--model", "nv", "--param", "g=1e300"), "fixed_params.g"),
        (("--model", "nv", "--extension", "subtract:theta0=1e300"), "extension.theta0"),
        (("--model", "direction", "--param", "B=1e300"), "fixed_params.B"),
    ],
)
def test_overflowing_model_term_exits_one_naming_the_field(capsys, argv, field):
    expected = f"error: {field}: the model's term is not finite at 1e+300\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "report", *argv) == (1, "", expected)


def test_model_field_whose_product_with_gamma_overflows_where_h_does_not_exits_zero(capsys):
    # gamma Bx overflows, but H holds gamma (Bx / sqrt(2)), about 1.5e308, which does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "report", "--model", "nv", "--param", "Bx=1.2e297",
                                 "--param", "t=1e-300")
    assert (code, err) == (0, "")
    assert json.loads(out)["channel_qfi"] == 0.0


def test_overflowing_anchor_over_an_epsilon_grid_names_its_first_value(tmp_path, capsys):
    run = {"model": "nv", "sweep_variable": "epsilon", "fixed_params": {"Bz": 0.1},
           "extension": {"kind": "subtract-perturbed", "theta0": 0.1},
           "grid": {"start": 1e290, "stop": 1e300, "points": 3, "scale": "log"}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run), encoding="utf-8")
    expected = "error: extension.epsilon: the model's term is not finite at 1e+300\n"
    assert run_cli(capsys, "sweep", "--config", str(path)) == (1, "", expected)


ANCHOR_OVERFLOW = "error: extension.epsilon: theta0 + epsilon is not finite at 1e+308\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--model", "direction", "--param", "B=1e-9"),
        ("--model", "custom", "--family-file", VALID_FAMILY),
    ],
)
def test_anchor_that_overflows_exits_one_naming_epsilon(capsys, argv):
    extension = ("--extension", "subtract-perturbed:theta0=1e308,eps=1e308")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "report", *argv, *extension) == (1, "", ANCHOR_OVERFLOW)


def test_anchor_that_overflows_over_an_epsilon_grid_exits_one(tmp_path, capsys):
    run = {"model": "direction", "sweep_variable": "epsilon", "fixed_params": {"B": 1e-9},
           "extension": {"kind": "subtract-perturbed", "theta0": 1e308},
           "grid": {"start": 1e307, "stop": 1e308, "points": 3}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "sweep", "--config", str(path)) == (1, "", ANCHOR_OVERFLOW)


@pytest.mark.parametrize(
    "params,expected",
    [
        ({}, "error: B_z: the model's term is not finite at 1e+300\n"),
        ({"D": 1e308}, "error: B_z + fixed_params.D: the model's term is not finite at 1e+297\n"),
    ],
)
def test_overflowing_b_z_grid_exits_one_naming_its_value(tmp_path, capsys, params, expected):
    stop = 1e297 if params else 1e300
    run = {"model": "nv", "sweep_variable": "B_z", "fixed_params": {"t": 1e-3, **params},
           "grid": {"start": 1e-3, "stop": stop, "points": 5, "scale": "log"}}
    path, out = tmp_path / "run.json", tmp_path / "out.csv"
    path.write_text(json.dumps(run), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(capsys, "sweep", "--config", str(path), "--out", str(out))
    assert code == (1, "", expected)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,field",
    [
        (("--param", "Bz=1e297"), "fixed_params.Bz"),
        (("--param", "Bz=-1e297"), "fixed_params.Bz"),
        (("--extension", "subtract:theta0=1e297"), "extension.theta0"),
        (("--extension", "subtract-perturbed:theta0=0.1,eps=1e297"), "extension.epsilon"),
    ],
)
def test_model_terms_that_overflow_when_added_exit_one_naming_the_fields(capsys, argv, field):
    value = argv[-1].rsplit("=", 1)[1]
    expected = f"error: {field} + fixed_params.D: the model's term is not finite at {float(value)!r}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "report", "--model", "nv", "--param", "D=1e308", *argv) == (
            1, "", expected
        )


_OFFSET_OVERFLOW = "the added term plus H is not finite at theta="


@pytest.mark.parametrize(
    "argv,field,at",
    [
        (("--param", "D=1e308", "--extension", "flood:beta=1e297"), "extension.beta", "0.0"),
        (("--param", "Bz=1e297", "--extension", "subtract:theta0=-1e297"),
         "extension.theta0", "1e+297"),
    ],
)
def test_extension_offset_that_overflows_h_exits_one_naming_the_fields(capsys, argv, field, at):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "report", "--model", "nv", *argv) == (
            1, "", f"error: {field}: {_OFFSET_OVERFLOW}{at}\n"
        )


def test_extension_offset_that_overflows_h_over_a_b_z_grid_exits_one(tmp_path, capsys):
    run = {"model": "nv", "sweep_variable": "B_z", "fixed_params": {"t": 1e-3, "D": 1e308},
           "extension": {"kind": "flood", "beta": 1e297},
           "grid": {"start": 1e-3, "stop": 1.0, "points": 3, "scale": "log"}}
    path, out = tmp_path / "run.json", tmp_path / "out.csv"
    path.write_text(json.dumps(run), encoding="utf-8")
    expected = f"error: extension.beta: {_OFFSET_OVERFLOW}0.001\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(capsys, "sweep", "--config", str(path), "--out", str(out))
    assert code == (1, "", expected)
    assert not out.exists()


def test_offset_whose_large_entries_miss_h_large_ones_exits_zero(tmp_path, capsys):
    # Every entry of H + offset is finite: D sits on H's diagonal, the offset off it.
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"re": [[0, 1, 0], [1, 0, 0], [0, 0, 0]]}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "report", "--model", "nv", "--param", "D=1e308",
                                 "--extension", f"add-operator:file={op},eps=1e308")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert all(np.isfinite([doc["channel_qfi"], doc["upper_bound"], doc["ratio"]]))
    assert 0.0 < doc["ratio"] <= 1.0 + 1e-9


def test_sz_term_that_overflows_h_exits_one_naming_kappa(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, "report", "--model", "direction", "--param", "B=5.6e296",
                       "--extension", "sz:kappa=1") == (
            1, "", f"error: extension.kappa: {_OFFSET_OVERFLOW}0.0\n"
        )


_HALF_PI = "1.5707963267948966"


@pytest.mark.parametrize(
    "argv,code,line",
    [
        # spread(dH/dtheta) is beyond the largest float; (|t| spread)^2 is not.
        (("--param", "t=1e-300"), 0, None),
        (("--param", f"theta={_HALF_PI}", "--extension", "sz:kappa=1"), 4,
         "error: at t=0.01: channel_qfi is not finite\n"),
        (("--param", f"theta={_HALF_PI}", "--extension", "sz:kappa=1", "--param", "t=1e-300"),
         0, None),
    ],
)
def test_derivative_spread_beyond_the_largest_float_is_quiet(capsys, argv, code, line):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(capsys, "report", "--model", "direction", "--param", "B=5.6e296", *argv)
    assert result[0] == code
    if line is not None:
        assert result[1:] == ("", line)
        return
    assert result[2] == ""
    doc = json.loads(result[1])
    assert doc["upper_bound"] == pytest.approx((1e-300 * 2 * gyromagnetic_ratio() * 5.6e296) ** 2)
    assert 0.0 < doc["ratio"] <= 1.0 + 1e-9
    if "sz:kappa=1" in argv:
        assert doc["ratio"] == pytest.approx(0.5, rel=1e-12)


def overflowing_family(tmp_path) -> str:
    """valid-family.json with its linear term scaled by 10: H overflows at theta = 1e308."""
    doc = json.loads(FIXTURES.joinpath("valid-family.json").read_text(encoding="utf-8"))
    doc["terms"][0]["coefficient"]["scale"] = 10.0
    path = tmp_path / "overflowing-family.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


FAMILY_TERM_OVERFLOW = "error: family_file: terms[0]: the term or the sum up to it is not finite"


@pytest.mark.parametrize("model", ["custom", "broken-phase-shift"])
def test_file_family_term_that_overflows_exits_one_naming_it(tmp_path, capsys, model):
    family = overflowing_family(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_cli(capsys, "report", "--model", model, "--family-file", family,
                         "--param", "theta=1e308")
        run = {"model": model, "family_file": family, "sweep_variable": "theta",
               "grid": {"start": 1e306, "stop": 1e308, "points": 5, "scale": "log"}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(run), encoding="utf-8")
        sweep = run_cli(capsys, "sweep", "--config", str(path))
    assert report == (1, "", f"{FAMILY_TERM_OVERFLOW} at theta=1e+308\n")
    first = np.geomspace(1e306, 1e308, 5).tolist()[3]  # 10 theta overflows from 1e307.5 on
    assert sweep == (1, "", f"{FAMILY_TERM_OVERFLOW} at theta={first!r}\n")


def test_broken_phase_shift_file_whose_derivative_overflows_names_no_theta(tmp_path, capsys):
    # G = dH/dtheta = 1e308 [[10, 0], [0, -1]] overflows whatever theta is.
    doc = {"dim": 2, "terms": [
        {"coefficient": {"kind": "linear", "scale": 1e308},
         "matrix": {"re": [[10.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}},
        {"coefficient": {"kind": "const", "scale": 1.0},
         "matrix": {"re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}},
    ]}
    path = tmp_path / "overflowing-derivative.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "report", "--model", "broken-phase-shift",
                                 "--family-file", str(path), "--param", "theta=0.25")
    assert (code, out) == (1, "")
    assert err.startswith(FAMILY_TERM_OVERFLOW)
    assert "theta=0.0" not in err


def test_report_evaluates_the_family_once_and_decomposes_h_once(monkeypatch, capsys):
    calls = {"value": 0, "derivative": 0}
    build_scenario = qfiext.cli.build_scenario

    def counted_scenario(scenario):
        family, theta, t, ext = build_scenario(scenario)

        def counted(name):
            def fn(x):
                calls[name] += 1
                return getattr(family, name)(x)
            return fn

        counted_family = HamiltonianFamily(family.dim, counted("value"), counted("derivative"))
        return counted_family, theta, t, ext

    argv = ("report", "--model", "direction", "--param", "B=1e-9", "--param", "theta=1.047")
    scenario = {"model": "direction", "fixed_params": {"B": 1e-9, "theta": 1.047},
                "extension": None, "family_file": None}
    h = build_scenario(scenario)[0].value(1.047).matrix
    decomposed = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        decomposed.append(np.array_equal(a.reshape(-1, 3, 3)[0], unit_scaled(h)[0]))
        return eigh(a, *args, **kwargs)

    expected = run_cli(capsys, *argv)
    monkeypatch.setattr(qfiext.cli, "build_scenario", counted_scenario)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert run_cli(capsys, *argv) == expected
    assert calls == {"value": 1, "derivative": 1}
    assert decomposed.count(True) == 1


def test_report_makes_three_decompositions_and_one_eigenvalue_pass(monkeypatch, capsys):
    # eigh: H with dH/dtheta for the family's point, then K; eigvalsh: the bound.
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        fn = getattr(np.linalg, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh"))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh"))
    code, _, _ = run_cli(capsys, "report", "--model", "direction", "--param", "B=1e-9")
    assert code == 0
    assert calls == {"eigh": 2, "eigvalsh": 1}


def asymmetry_tests(monkeypatch) -> list:
    """The number of matrices in each ``symmetrized`` call, from now on."""
    counts = []
    original = qfiext.linalg.symmetrized

    def counting(m, where=None):
        counts.append(1 if m.ndim == 2 else len(m))
        return original(m, where)

    for name, module in list(sys.modules.items()):
        if (name == "qfiext" or name.startswith("qfiext.")) and getattr(
            module, "symmetrized", None
        ) is original:
            monkeypatch.setattr(module, "symmetrized", counting)
    return counts


FIXTURE_FAMILY = str(resources.files("qfiext").joinpath("data/fixtures/valid-family.json"))


@pytest.mark.parametrize("argv, tested", [
    (("--model", "direction", "--param", "B=1e-9", "--param", "theta=0.4"), 0),
    (("--model", "direction", "--param", "B=1e-9", "--extension", "sz:kappa=10"), 0),
    (("--model", "nv", "--param", "Bz=0.05", "--extension", "flood:beta=1e-3,theta0=0.05"), 0),
    (("--model", "custom", "--family-file", FIXTURE_FAMILY, "--param", "theta=0.3"), 2),
    (("--model", "broken-phase-shift", "--family-file", FIXTURE_FAMILY,
      "--extension", "subtract:theta0=0.1"), 2),
])
def test_report_tests_asymmetry_only_on_file_matrices(monkeypatch, capsys, argv, tested):
    # The fixture has two terms, tested as one stack; the models' and extensions'
    # matrices are Hermitian by construction.
    expected = run_cli(capsys, "report", *argv)
    counts = asymmetry_tests(monkeypatch)
    assert run_cli(capsys, "report", *argv) == expected
    assert expected[0] == 0
    assert sum(counts) == tested


class TestNonFiniteFamilyFile:
    def test_validate_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(NAN_FAMILY, encoding="utf-8")
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "non-finite entry" in out
        assert "OK" not in out

    @pytest.mark.parametrize("model", ["custom", "broken-phase-shift"])
    def test_report_exits_two(self, tmp_path, capsys, model):
        path = tmp_path / "nan.json"
        path.write_text(NAN_FAMILY, encoding="utf-8")
        code, out, err = run_cli(
            capsys, "report", "--model", model, "--family-file", str(path)
        )
        assert code == 2
        assert out == ""
        assert "non-finite entry" in err


@pytest.mark.parametrize("entry", ["config", "validate", "report-family", "report-operator"])
def test_input_file_that_is_not_utf8_is_named(tmp_path, capsys, entry):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe")
    argv = {
        "config": ("sweep", "--config", str(path)),
        "validate": ("validate", str(path)),
        "report-family": ("report", "--model", "custom", "--family-file", str(path)),
        "report-operator": ("report", "--model", "direction", "--param", "B=1e-9",
                            "--extension", f"add-operator:file={path},eps=1"),
    }[entry]
    code, out, err = run_cli(capsys, *argv)
    assert code == (1 if entry == "config" else 2)
    if entry == "validate":
        assert out.startswith(f"{path}: not UTF-8 text: ")
        assert out.endswith(f"{path}: FAILED (input invariant violation)\n")
    else:
        assert out == ""
        assert err.startswith(f"error: {path}: not UTF-8 text: ")


class TestValidateCommand:
    def test_valid_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "validate", str(FIXTURES.joinpath("valid-family.json")))
        assert code == 0
        assert "OK" in out

    def test_non_hermitian_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", str(FIXTURES.joinpath("nonhermitian-family.json"))
        )
        assert code == 2
        assert "not Hermitian" in out

    def test_corrupt_derivative_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", str(FIXTURES.joinpath("corrupt-derivative.json"))
        )
        assert code == 3
        assert "derivative mismatch" in out
        assert "max deviation" in out


class TestPresetsCommand:
    def test_lists_all_presets_with_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "presets")
        assert code == 0
        for name in ("fig1", "fig2", "fig3"):
            assert f"{name}:" in out
        assert "model=nv" in out
        assert "sweep=B_z" in out
        assert "extension=flood" in out
