"""Tests for the command-line interface (in-process via main())."""

import json

import numpy as np
import pytest
from importlib import resources

from qfiext.cli import main
from qfiext.models import gyromagnetic_ratio
from qfiext.sweep import CSV_HEADER

FIXTURES = resources.files("qfiext").joinpath("data/fixtures")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


NAN_FAMILY = (
    '{"dim": 2, "terms": [{"coefficient": {"kind": "linear"},'
    ' "matrix": {"re": [[NaN, 0], [0, 1]]}}]}'
)


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
