"""Tests for sweep specification, evaluation and serialization."""

import hashlib
import json
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfiext import (
    DirectionParams,
    FamilyFileError,
    Grid,
    HermitianOperator,
    InvalidSpec,
    ModelError,
    NonHermitianInput,
    NvParams,
    SweepResult,
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
from qfiext import sweep
from qfiext.cli import main
from qfiext.familyfile import build_family, load_definition
from qfiext.sweep import CSV_HEADER, build_scenario, load_model_family
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

    def test_unknown_scale(self):
        spec = SweepSpec("direction", "t", Grid(0.1, 1.0, 3, "cubic"), dict(DIRECTION_FIXED))
        with pytest.raises(InvalidSpec, match=r"^grid\.scale: must be 'linear' or 'log'"):
            run_sweep(spec)

    @pytest.mark.parametrize("start,stop", [(0.1, float("inf")), (float("nan"), 1.0)])
    def test_non_finite_bound(self, start, stop):
        spec = SweepSpec("direction", "t", Grid(start, stop, 3), dict(DIRECTION_FIXED))
        with pytest.raises(InvalidSpec, match=r"^grid\.start/grid\.stop: must be finite"):
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
        assert result.sweep_value == sorted(result.sweep_value)
        for cqfi, bound, ratio in zip(result.channel_qfi, result.upper_bound, result.ratio):
            assert cqfi <= bound * (1.0 + 1e-9)
            assert 0.0 <= ratio <= 1.0 + 1e-9
        methods = {line.split(",")[4] for line in rows_to_csv(result).splitlines()[1:]}
        assert methods == {"spectral"}

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
        assert len(result.upper_bound) == 5
        for bound in result.upper_bound:
            assert bound == pytest.approx(4.0, rel=1e-12)  # seminorm(G)=2, t=1

    def test_epsilon_sweep_patches_extension(self):
        spec = SweepSpec(
            model="direction",
            sweep_variable="epsilon",
            grid=Grid(-0.2, 0.2, 5, "linear"),
            fixed_params={**DIRECTION_FIXED, "t": 1e-2},
            extension={"kind": "subtract-perturbed", "theta0": 1.0471975511965976, "epsilon": 0.0},
        )
        result = run_sweep(spec)
        # the middle point, epsilon = 0: exact subtraction saturates
        assert result.sweep_value[2] == pytest.approx(0.0, abs=1e-15)
        assert result.ratio[2] == pytest.approx(1.0, abs=1e-9)
        assert result.ratio[0] < 1.0


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
        columns = zip(result.sweep_value, result.channel_qfi, result.upper_bound, result.ratio)
        for line, jrow, (x, cqfi, bound, ratio) in zip(lines[1:], json_doc["rows"], columns):
            fields = line.split(",")
            assert float(fields[0]) == jrow["sweep_value"] == x
            assert float(fields[1]) == jrow["channel_qfi"] == cqfi
            assert float(fields[2]) == jrow["upper_bound"] == bound
            assert float(fields[3]) == jrow["ratio"] == ratio
            assert fields[4] == jrow["generator_method"]
            assert float(fields[5]) == jrow["estimated_error"]

    def test_columns_are_written_as_the_repr_of_each_float(self):
        special = [-0.0, 5e-324, 1e308, 0.1 + 0.2, 1.0]
        texts = ["-0.0", "5e-324", "1e+308", "0.30000000000000004", "1.0"]
        columns = [special[k:] + special[:k] for k in range(5)]
        cells = [texts[k:] + texts[:k] for k in range(5)]
        result = SweepResult("special", *columns)
        expected = [
            ",".join([x, cqfi, bound, ratio, "spectral", err])
            for x, cqfi, bound, ratio, err in zip(*cells)
        ]
        assert rows_to_csv(result) == "\n".join([CSV_HEADER, *expected]) + "\n"
        doc = json.loads(rows_to_json(result))
        assert doc["label"] == "special"
        keys = ("sweep_value", "channel_qfi", "upper_bound", "ratio", "estimated_error")
        for k, row in enumerate(doc["rows"]):
            assert row["generator_method"] == "spectral"
            assert [repr(row[key]) for key in keys] == [repr(column[k]) for column in columns]

    def test_non_finite_result_raises_before_any_row(self):
        spec = SweepSpec(
            model="custom",
            sweep_variable="t",
            grid=Grid(1e199, 1e201, 3, "log"),
            family_file=VALID_FAMILY,
        )
        with pytest.raises(ModelError, match=r"^at t=1e\+199: channel_qfi is not finite$"):
            run_sweep(spec)

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
        return spec, lambda x: (build_family(load_definition(path)), x, 1.3)
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
    assert result.sweep_value == spec.grid.values()
    columns = (result.channel_qfi, result.upper_bound, result.ratio, result.estimated_error)
    for x, *got in zip(result.sweep_value, *columns):
        report = channel_qfi(*reference(x))
        expected = (
            report.channel_qfi,
            report.upper_bound,
            report.ratio,
            report.estimated_error,
        )
        assert report.generator_method.value == "spectral"  # every batched row's method
        assert [repr(v) for v in got] == [repr(v) for v in expected], x


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


@pytest.mark.parametrize("negative_first", [False, True], ids=["zero-first", "negative-first"])
def test_signed_zeros_in_different_runs_keep_their_own_csv_text(tmp_path, negative_first):
    fixed = {"B": DIRECTION_FIXED["B"], "phi": DIRECTION_FIXED["phi"]}
    runs = [
        {"label": "zero", "model": "direction", "sweep_variable": "theta", "fixed_params": fixed,
         "grid": {"start": -1.0, "stop": 1.0, "points": 3}},  # -1.0, 0.0, 1.0
        {"label": "negative-zero", "model": "direction", "sweep_variable": "theta",
         "fixed_params": fixed, "grid": {"start": -1.0, "stop": -0.0, "points": 2}},
    ]
    config = tmp_path / "runs.json"
    config.write_text(json.dumps({"runs": runs[::-1] if negative_first else runs}), "utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    for spec in sweep.load_config(config).runs:
        result = run_sweep(spec)
        floats = zip(result.sweep_value, result.channel_qfi, result.upper_bound, result.ratio,
                     result.estimated_error)
        expected = [[*map(repr, row[:4]), "spectral", repr(row[4])] for row in floats]
        lines = (out / f"{spec.label}.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",") for line in lines[1:]] == expected, spec.label
    assert (out / "zero.csv").read_text(encoding="utf-8").splitlines()[2].startswith("0.0,")
    assert (out / "negative-zero.csv").read_text(encoding="utf-8").splitlines()[2].startswith(
        "-0.0,"
    )


def test_each_preset_run_walks_its_scenario_once(monkeypatch):
    walked = []
    validate = sweep.validate_scenario

    def counted(scenario, swept=None):
        walked.append(swept)
        return validate(scenario, swept)

    monkeypatch.setattr(sweep, "validate_scenario", counted)
    specs = [spec for name in ("fig1", "fig2", "fig3") for spec in load_preset(name).runs]
    for spec in specs:
        run_sweep(spec)
    assert len(specs) == 12
    assert walked == [spec.sweep_variable for spec in specs]


def _draw(rng):
    # A signed value log-uniform over [1e250, ~1.8e308]; gamma times it overflows from ~1e297.
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(250.0, 308.25))


def _model_h_is_finite(model, params, anchors):
    # The model's own H, at the evaluation point and at every anchor; a non-finite entry
    # raises NonHermitianInput where the family is built or evaluated.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if model == "nv":
                family, theta = nv_family(NvParams(**params)), params["Bz"]
            else:
                family, theta = direction_family(DirectionParams(**params)), params["theta"]
            for x in (theta, *anchors):
                family.value(x)
        except NonHermitianInput:
            return False
    return True


@pytest.mark.parametrize("model", ["nv", "direction"])
def test_model_terms_are_refused_exactly_where_h_is_not_finite(model):
    rng = np.random.default_rng(23)
    refused = 0
    for _ in range(1000):
        g = float(10.0 ** rng.uniform(-1.0, 1.0))
        if model == "nv":
            params = {k: _draw(rng) for k in ("Bx", "By", "Bz", "D")}
            params.update(g=g, E=_draw(rng))
        else:
            params = {"B": abs(_draw(rng)), "g": g, "theta": float(rng.uniform(-4, 4))}
        kind = rng.choice(["none", "subtract", "subtract-perturbed"])
        extension, anchors = None, []
        if kind != "none":
            theta0 = _draw(rng)
            extension, anchors = {"kind": str(kind), "theta0": theta0}, [theta0]
            if kind == "subtract-perturbed":
                epsilon = _draw(rng)
                extension["epsilon"], anchors = epsilon, [theta0 + epsilon]
        scenario = {"model": model, "fixed_params": params, "extension": extension,
                    "family_file": None}
        try:
            build_scenario(scenario)
            was_refused = False
        except InvalidSpec as exc:  # an anchor theta0 + epsilon that overflows is refused too
            assert "the model's term" in str(exc) or "theta0 + epsilon" in str(exc), exc
            was_refused = True
        assert was_refused is not _model_h_is_finite(model, params, anchors), scenario
        refused += was_refused
    assert 100 < refused < 900


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    family_documents(min_dim=2, max_dim=5, kinds=("const", "linear")),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(0.5, 1.5),
)
def test_flooding_a_broken_phase_shift_file_family_shifts_theta(doc, theta0, beta, t):
    # Criterion 5's identity: flooded with beta at theta0, theta G + F is H(theta0 + beta) at theta0.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        run = {"model": "broken-phase-shift", "family_file": str(path)}
        family, theta, _, offset = build_scenario({
            **run, "fixed_params": {"theta": theta0, "t": t},
            "extension": {"kind": "flood", "beta": beta, "theta0": theta0},
        })
        flooded = channel_qfi(family, theta, t).channel_qfi
        family, theta, _, offset = build_scenario(
            {**run, "fixed_params": {"theta": theta0 + beta, "t": t}, "extension": None}
        )
    assert offset is None
    shifted = channel_qfi(family, theta, t).channel_qfi
    assert abs(flooded - shifted) <= 1e-10 * max(1.0, abs(shifted))


# dH/dtheta = scale * frequency * cos(phase) * M is subnormal at theta = 0, so t dH/dtheta
# is K's rounding noise; the ratio comes from dH/dtheta scaled by a power of two.
SUBNORMAL_DERIVATIVE = {"dim": 2, "terms": [{
    "coefficient": {"kind": "sin", "scale": 1.5150456241020069e-94,
                    "frequency": 4.222106373127991e-225, "phase": 0.24876732149455005},
    "matrix": {"re": [[-1.2654214710460525, -0.2909742415950543],
                      [-0.2909742415950543, -2.3250307746388343]],
               "im": [[0.0, -0.2568217962748068], [0.2568217962748068, 0.0]]},
}]}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    family_documents(min_dim=2, max_dim=4, kinds=("sin", "cos")),
    st.floats(-3.0, 2.0),
    st.floats(0.01, 3.0),
    st.integers(1, 40),
    st.floats(0.05, 5.0),
)
@example(SUBNORMAL_DERIVATIVE, 0.0, 0.01, 1, 0.5)
def test_ratio_never_exceeds_one_on_random_file_families(doc, start, width, points, t):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        spec = SweepSpec(
            "custom", "theta", Grid(start, start + width, points), {"t": t}, family_file=str(path)
        )
        ratios = run_sweep(spec).ratio
    assert len(ratios) == points
    for ratio in ratios:
        assert 0.0 <= ratio <= 1.0 + 1e-9


json_scalars = (
    st.text(alphabet=st.characters(codec="utf-8"))
    | st.sampled_from(["", "\x00\x1f\"\\/\n\t", "é \U0001f600", "\ud800"])
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.1, 1e16])
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_scalars)
def test_json_text_is_the_indented_json_dumps_text(value):
    assert sweep.json_text(value) == json.dumps(value, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_text_rejects_a_float_that_is_not_finite(bad):
    with pytest.raises(ValueError):
        sweep.json_text(bad)


@pytest.mark.parametrize("value", [[b"bytes"], {"a": {1.5}}, np.float32(1.0), {1: 2.0},
                                   None, True, [1.0], {"a": 1.0}])
def test_json_text_rejects_other_types_and_keys_that_are_not_strings(value):
    with pytest.raises(TypeError):
        sweep.json_text(value)


# sha256 of `qfiext sweep --preset <name> --format json` stdout.
JSON_SWEEP_STDOUT_SHA256 = {
    "fig1": "eef35c98cbe9dbfb4970ee7b4ab27584ac623d901f148615c09d8cb4da898209",
    "fig2": "5599e7c1eee6bacf8108e50b9e76433e31df29a55cca054c88098b3c04b31433",
    "fig3": "bd4c3795f22e3eb4dd71996d1a9f8a2679d4aa55213a6edb99007b72a724a784",
}


@pytest.mark.parametrize("name", sorted(JSON_SWEEP_STDOUT_SHA256))
def test_json_sweep_stdout_bytes_pinned(tmp_path, capsys, name):
    assert main(["sweep", "--preset", name, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == JSON_SWEEP_STDOUT_SHA256[name]
    runs = load_preset(name).runs
    if len(runs) > 1:  # each file under --out is its run's part of stdout
        assert main(["sweep", "--preset", name, "--format", "json", "--out", str(tmp_path)]) == 0
        labels = [spec.label for spec in runs]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"{label}.json" for label in labels
        )
        files = [(tmp_path / f"{label}.json").read_text(encoding="utf-8") for label in labels]
        assert out == "".join(f"# run: {label}\n{text}" for label, text in zip(labels, files))
