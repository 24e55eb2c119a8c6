"""Tests for sweep specification, evaluation and serialization."""

import hashlib
import json
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfiext import (
    DirectionParams,
    FamilyFileError,
    Grid,
    HermitianOperator,
    InvalidSpec,
    ModelError,
    NvParams,
    SweepSpec,
    add_operator,
    channel_qfi,
    direction_family,
    direction_sz_family,
    flood,
    load_preset,
    nv_family,
    preset_names,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    subtract,
    subtract_perturbed,
)
from qfiext.cli import main
from qfiext.familyfile import load_family
from qfiext.sweep import CSV_HEADER, load_model_family
from helpers import family_documents

DIRECTION_FIXED = {"B": 1e-9, "phi": 0.7853981633974483, "theta": 1.0471975511965976}


def direction_spec(points=5) -> SweepSpec:
    return SweepSpec(
        model="direction",
        sweep_variable="t",
        grid=Grid(start=1e-3, stop=1e-2, points=points, scale="log"),
        fixed_params=dict(DIRECTION_FIXED),
    )


class TestGrid:
    def test_linear_values(self):
        assert Grid(0.0, 1.0, 3, "linear").values() == [0.0, 0.5, 1.0]

    def test_log_values(self):
        vals = Grid(1e-2, 1.0, 3, "log").values()
        assert vals == pytest.approx([1e-2, 1e-1, 1.0], rel=1e-12)

    def test_single_point(self):
        assert Grid(0.3, 9.9, 1, "linear").values() == [0.3]


class TestSpecValidation:
    def test_unknown_model(self):
        spec = SweepSpec("bogus", "t", Grid(0, 1, 2))
        with pytest.raises(InvalidSpec, match="model"):
            run_sweep(spec)

    def test_bad_points(self):
        spec = direction_spec()
        bad = SweepSpec(spec.model, spec.sweep_variable, Grid(0.1, 1.0, 0), spec.fixed_params)
        with pytest.raises(InvalidSpec, match=r"grid\.points"):
            run_sweep(bad)

    def test_log_scale_needs_positive_start(self):
        spec = SweepSpec("direction", "t", Grid(-1.0, 1.0, 4, "log"), dict(DIRECTION_FIXED))
        with pytest.raises(InvalidSpec, match=r"grid\.start"):
            run_sweep(spec)

    def test_start_below_stop(self):
        spec = SweepSpec("direction", "t", Grid(2.0, 1.0, 4), dict(DIRECTION_FIXED))
        with pytest.raises(InvalidSpec, match=r"grid\.start"):
            run_sweep(spec)

    def test_sweep_variable_for_model(self):
        spec = SweepSpec("nv", "kappa", Grid(1.0, 2.0, 2), {})
        with pytest.raises(InvalidSpec, match="sweep_variable"):
            run_sweep(spec)

    def test_beta_sweep_requires_flood_extension(self):
        spec = SweepSpec("direction", "beta", Grid(0.1, 1.0, 3), dict(DIRECTION_FIXED))
        with pytest.raises(InvalidSpec, match="beta"):
            run_sweep(spec)

    def test_custom_model_requires_family_file(self):
        spec = SweepSpec("custom", "theta", Grid(0.0, 1.0, 3), {})
        with pytest.raises(InvalidSpec, match="family_file"):
            run_sweep(spec)

    def test_nonfinite_fixed_param(self):
        spec = SweepSpec(
            "direction", "t", Grid(1e-3, 1e-2, 2), {"B": float("nan")}
        )
        with pytest.raises(InvalidSpec, match=r"fixed_params\.B"):
            run_sweep(spec)


class TestRunSweep:
    def test_rows_in_grid_order_with_bound_dominating(self):
        result = run_sweep(direction_spec(8))
        values = [r.sweep_value for r in result.rows]
        assert values == sorted(values)
        for row in result.rows:
            assert row.channel_qfi <= row.upper_bound * (1.0 + 1e-9)
            assert 0.0 <= row.ratio <= 1.0 + 1e-9
            assert row.generator_method == "spectral"

    def test_parallel_equals_serial(self):
        spec = direction_spec(12)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=4)
        assert serial == parallel

    def test_missing_required_model_param(self):
        spec = SweepSpec("direction", "t", Grid(1e-3, 1e-2, 2), {"phi": 0.1})
        with pytest.raises(InvalidSpec, match=r"fixed_params\.B"):
            run_sweep(spec)

    def test_negative_field_is_an_input_error(self):
        spec = SweepSpec("direction", "theta", Grid(0.5, 1.5, 2), {"B": -1e-9})
        with pytest.raises(InvalidSpec, match=r"^fixed_params\.B: must be >= 0"):
            run_sweep(spec)

    def test_model_error_carries_grid_point(self, monkeypatch):
        def fail(params):
            raise FloatingPointError("overflow in the model")

        monkeypatch.setattr("qfiext.sweep.direction_family", fail)
        spec = SweepSpec("direction", "theta", Grid(0.5, 1.5, 2), {"B": 1e-9})
        with pytest.raises(ModelError, match=r"theta=0\.5: overflow in the model"):
            run_sweep(spec)

    def test_missing_family_file_is_an_input_error(self):
        spec = SweepSpec(
            "custom", "theta", Grid(0.5, 1.5, 2), {}, family_file="no-such-file.json"
        )
        with pytest.raises(FamilyFileError, match="cannot read family file"):
            run_sweep(spec)

    def test_broken_phase_shift_model_sweep(self):
        from importlib import resources

        path = str(resources.files("qfiext").joinpath("data/fixtures/valid-family.json"))
        spec = SweepSpec(
            model="broken-phase-shift",
            sweep_variable="theta",
            grid=Grid(-1.0, 1.0, 5, "linear"),
            fixed_params={"t": 1.0},
            family_file=path,
        )
        result = run_sweep(spec)
        assert len(result.rows) == 5
        for row in result.rows:
            assert row.upper_bound == pytest.approx(4.0, rel=1e-12)  # seminorm(G)=2, t=1

    def test_epsilon_sweep_patches_extension(self):
        spec = SweepSpec(
            model="direction",
            sweep_variable="epsilon",
            grid=Grid(-0.2, 0.2, 5, "linear"),
            fixed_params={**DIRECTION_FIXED, "t": 1e-2},
            extension={"kind": "subtract-perturbed", "theta0": 1.0471975511965976, "epsilon": 0.0},
        )
        result = run_sweep(spec)
        mid = result.rows[2]  # epsilon = 0: exact subtraction saturates
        assert mid.sweep_value == pytest.approx(0.0, abs=1e-15)
        assert mid.ratio == pytest.approx(1.0, abs=1e-9)
        assert result.rows[0].ratio < 1.0


class TestSerialization:
    def test_csv_header_exact(self):
        assert CSV_HEADER == "sweep_value,channel_qfi,upper_bound,ratio,generator_method,estimated_error"

    def test_csv_round_trip_and_json_equal_values(self):
        result = run_sweep(direction_spec(6))
        csv_text = rows_to_csv(result)
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        json_doc = json.loads(rows_to_json(result))
        for line, jrow, row in zip(lines[1:], json_doc["rows"], result.rows):
            fields = line.split(",")
            assert float(fields[0]) == jrow["sweep_value"] == row.sweep_value
            assert float(fields[1]) == jrow["channel_qfi"] == row.channel_qfi
            assert float(fields[2]) == jrow["upper_bound"] == row.upper_bound
            assert float(fields[3]) == jrow["ratio"] == row.ratio
            assert fields[4] == jrow["generator_method"]
            assert float(fields[5]) == jrow["estimated_error"]

    def test_csv_deterministic(self):
        spec = direction_spec(6)
        assert rows_to_csv(run_sweep(spec)) == rows_to_csv(run_sweep(spec))


class TestPresets:
    def test_names(self):
        assert preset_names() == ["fig1", "fig2", "fig3"]

    def test_fig1_structure(self):
        preset = load_preset("fig1")
        assert len(preset.runs) == 4
        assert {spec.model for spec in preset.runs} == {"nv"}
        betas = [
            spec.extension["beta"] for spec in preset.runs if spec.extension is not None
        ]
        assert betas == [1e-6, 1e-3, 1e-1]

    def test_fig2_structure(self):
        preset = load_preset("fig2")
        assert len(preset.runs) == 7
        kinds = [spec.extension["kind"] for spec in preset.runs if spec.extension]
        assert kinds.count("flood") == 3 and kinds.count("sz") == 3

    def test_fig3_structure(self):
        preset = load_preset("fig3")
        assert len(preset.runs) == 1
        spec = preset.runs[0]
        assert spec.sweep_variable == "epsilon"
        assert spec.extension["kind"] == "subtract-perturbed"

    def test_unknown_preset(self):
        with pytest.raises(InvalidSpec, match="unknown preset"):
            load_preset("fig9")



THETA0 = 1.0471975511965976
PHI = 0.7853981633974483
VALID_FAMILY = str(resources.files("qfiext").joinpath("data/fixtures/valid-family.json"))
# H(theta) = diag(1, 1, -1) + theta * X02: a doubly degenerate spectrum at theta = 0.
DEGENERATE_FAMILY = {
    "dim": 3,
    "terms": [
        {"coefficient": {"kind": "const"}, "matrix": {"re": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}},
        {"coefficient": {"kind": "linear"}, "matrix": {"re": [[0, 0, 1], [0, 0, 0], [1, 0, 0]]}},
    ],
}
OPERATOR = {
    "re": [[1e9, 2e8, 0.0], [2e8, -3e8, 5e8], [0.0, 5e8, 4e8]],
    "im": [[0.0, 1e8, -2e8], [-1e8, 0.0, 0.0], [2e8, 0.0, 0.0]],
}
BATCHED_CASES = (
    "nv-B_z-flood",
    "direction-theta-subtract",
    "direction-t-sz",
    "direction-beta-flood",
    "direction-kappa-sz",
    "direction-epsilon-subtract-perturbed",
    "nv-epsilon-add-operator",
    "custom-theta-degenerate",
    "broken-phase-shift-theta",
    "direction-zero-field",
)


def batched_case(name: str, tmp_path):
    """A sweep spec, and x -> (family, theta, t) built per point from public constructors."""
    direction = direction_family(DirectionParams(B=1e-9, phi=PHI))
    fixed = {"B": 1e-9, "phi": PHI, "theta": THETA0, "t": 1e-2}
    nv = nv_family(NvParams(Bx=0.1))
    if name == "nv-B_z-flood":
        ext = {"kind": "flood", "beta": 1e-3, "theta0": 0.0}
        spec = SweepSpec("nv", "B_z", Grid(1e-4, 1.0, 9, "log"), {"t": 1e-3, "Bx": 0.1}, ext)
        return spec, lambda x: (flood(nv, 0.0, 1e-3), x, 1e-3)
    if name == "direction-theta-subtract":
        ext = {"kind": "subtract", "theta0": 1.0}
        spec = SweepSpec("direction", "theta", Grid(0.0, 3.0, 7), fixed, ext)
        return spec, lambda x: (subtract(direction, 1.0), x, 1e-2)
    if name == "direction-t-sz":
        ext = {"kind": "sz", "kappa": 10.0}
        spec = SweepSpec("direction", "t", Grid(1e-3, 1e-1, 7, "log"), fixed, ext)
        sz = direction_sz_family(DirectionParams(B=1e-9, phi=PHI), 10.0)
        return spec, lambda x: (sz, THETA0, x)
    if name == "direction-beta-flood":
        ext = {"kind": "flood", "beta": 0.0, "theta0": THETA0}
        spec = SweepSpec("direction", "beta", Grid(0.0, 5.0, 6), fixed, ext)
        return spec, lambda x: (flood(direction, THETA0, x), THETA0, 1e-2)
    if name == "direction-kappa-sz":
        ext = {"kind": "sz", "kappa": 0.0}
        spec = SweepSpec("direction", "kappa", Grid(0.0, 10.0, 6), fixed, ext)
        params = DirectionParams(B=1e-9, phi=PHI)
        return spec, lambda x: (direction_sz_family(params, x), THETA0, 1e-2)
    if name == "direction-epsilon-subtract-perturbed":
        ext = {"kind": "subtract-perturbed", "theta0": THETA0, "epsilon": 0.0}
        spec = SweepSpec("direction", "epsilon", Grid(-0.5, 0.5, 7), fixed, ext)
        return spec, lambda x: (subtract_perturbed(direction, THETA0, x), THETA0, 1e-2)
    if name == "nv-epsilon-add-operator":
        path = tmp_path / "operator.json"
        path.write_text(json.dumps(OPERATOR), encoding="utf-8")
        operator = HermitianOperator(np.array(OPERATOR["re"]) + 1j * np.array(OPERATOR["im"]))
        ext = {"kind": "add-operator", "file": str(path), "epsilon": 0.0}
        spec = SweepSpec("nv", "epsilon", Grid(-1.0, 1.0, 5), {"Bx": 0.1, "Bz": 0.05}, ext)
        return spec, lambda x: (add_operator(nv, operator, x), 0.05, 1e-3)
    if name == "custom-theta-degenerate":
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(DEGENERATE_FAMILY), encoding="utf-8")
        spec = SweepSpec("custom", "theta", Grid(-1.0, 1.0, 5), {"t": 1.3}, family_file=str(path))
        return spec, lambda x: (load_family(path), x, 1.3)
    if name == "broken-phase-shift-theta":
        spec = SweepSpec(
            "broken-phase-shift", "theta", Grid(-1.0, 1.0, 5), {"t": 1.2}, family_file=VALID_FAMILY
        )
        family = load_model_family("broken-phase-shift", VALID_FAMILY)
        return spec, lambda x: (family, x, 1.2)
    assert name == "direction-zero-field"  # H = 0: one fully degenerate block
    spec = SweepSpec("direction", "theta", Grid(0.0, 1.0, 3), {"B": 0.0, "phi": PHI})
    zero = direction_family(DirectionParams(B=0.0, phi=PHI))
    return spec, lambda x: (zero, x, 1e-2)


@pytest.mark.parametrize("name", BATCHED_CASES)
def test_batched_rows_equal_per_point_channel_qfi(name, tmp_path):
    spec, reference = batched_case(name, tmp_path)
    result = run_sweep(spec)
    assert [row.sweep_value for row in result.rows] == spec.grid.values()
    for row in result.rows:
        report = channel_qfi(*reference(row.sweep_value))
        expected = (
            report.channel_qfi,
            report.upper_bound,
            report.ratio,
            report.generator_method.value,
            report.estimated_error,
        )
        got = (
            row.channel_qfi,
            row.upper_bound,
            row.ratio,
            row.generator_method,
            row.estimated_error,
        )
        assert [repr(v) for v in got] == [repr(v) for v in expected], row.sweep_value


# sha256 of every preset CSV, as recorded in perfbench/reference.json (gates.preset_csv_sha256).
PRESET_CSV_SHA256 = {
    "fig1/flood-beta-1e-01.csv": "711f1d3b4d5fdd2fdcbf3d1b267b37096c704d07d3b3f055548eae53e7c98aff",
    "fig1/flood-beta-1e-03.csv": "b9c2b70babeae08cc31a8e4874664b253c6d5e018b7133a0bfea254a8510b935",
    "fig1/flood-beta-1e-06.csv": "f1cf89f4a4bdc1f1b668a60fcb780ba26eda6f5493c846579d1bf9cb884a43c6",
    "fig1/unextended.csv": "3c6fd24da19c33b83bc28b9d09369cc1c2f4f7d4c638479587e44ebb88da5a78",
    "fig2/flood-beta-0.2.csv": "fa69b42da116f03e3660c68b1190024b39a2e3da733063c8a264e67bc7d0e8e4",
    "fig2/flood-beta-0.75.csv": "4fcbef8eb6b7d73fa71ceb5c054d1e0f4f08029ebf5350e1577205c428da9436",
    "fig2/flood-beta-5.csv": "ee3e5a3409fd0be5e515a124fb88ec412f83460fa8c72a130cb63810e4ade401",
    "fig2/sz-kappa-1.csv": "29348bdf26e0eb835228b1fce3d59af383ce5646dcdf330a3e715f051b180919",
    "fig2/sz-kappa-10.csv": "0ba4c2780b22b75f7396392f7b881e4d3135c2c39e60e31c27c487e0d7370c0d",
    "fig2/sz-kappa-1e9.csv": "953f8e8bf3ac8a843b51422816fe0bd160e33dfd3b211a8d2514ba734d1bdc7e",
    "fig2/unextended.csv": "ad19b59e0d488677b8db23c9830b66e2f62d04565e6f770dba4c8b49b6f27114",
    "fig3.csv": "ed4be788d74f9e16c5ab20ccd2e62fdc875fc37a2b06982ba2d28e123e6538c7",
}


def test_preset_csv_bytes_pinned(tmp_path):
    for name in ("fig1", "fig2", "fig3"):
        out = tmp_path / (f"{name}.csv" if name == "fig3" else name)
        assert main(["sweep", "--preset", name, "--out", str(out)]) == 0
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*.csv")
    }
    assert digests == PRESET_CSV_SHA256


@settings(max_examples=30, deadline=None)
@given(
    family_documents(min_dim=2, max_dim=4, kinds=("sin", "cos")),
    st.floats(-3.0, 2.0),
    st.floats(0.01, 3.0),
    st.integers(1, 40),
    st.floats(0.05, 5.0),
)
def test_ratio_never_exceeds_one_on_random_file_families(doc, start, width, points, t):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        spec = SweepSpec(
            "custom", "theta", Grid(start, start + width, points), {"t": t}, family_file=str(path)
        )
        rows = run_sweep(spec).rows
    assert len(rows) == points
    for row in rows:
        assert 0.0 <= row.ratio <= 1.0 + 1e-9
