"""Extreme inputs through ``cli.main report`` and ``sweep --config``.

Every run either exits 0 with finite numbers and a ratio of at most 1 + 1e-9,
or exits with the code that the README documents for its failure and one
line naming the field or quantity at fault. No run warns or raises.

Numeric fields are drawn log-uniform in magnitude over 1e-300 ... 1e300, with
either sign, over all four models and all six extension choices (none and the
five kinds), file families included.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfiext.cli import main
from qfiext.sweep import _EXTENSIONS, _MODEL_DEFAULTS, _SWEEPABLES

FILE_MODELS = ("custom", "broken-phase-shift")
VALID_FAMILY = str(resources.files("qfiext").joinpath("data/fixtures/valid-family.json"))
# One linear term [[1, 1], [1, 1]]: H's eigenvalue 2 theta overflows from theta = 9e307 on.
ONES_FAMILY = {"dim": 2, "terms": [{"coefficient": {"kind": "linear", "scale": 1.0},
                                   "matrix": {"re": [[1.0, 1.0], [1.0, 1.0]]}}]}
OPERATOR = {"re": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
            "im": [[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]}

# A failure names a scenario field (fixed_params.B, extension.beta, family_file,
# sweep_variable, a swept B_z, ...) or, at a point, the quantity that is not finite.
FIELD = r"(fixed_params|extension|family_file|sweep_variable|grid|B_z)\b.*"
QUANTITY = r"at [\w.]+=\S+: (generator|estimated_error|channel_qfi|upper_bound|ratio) is not finite"
MESSAGES = {1: FIELD, 2: FIELD, 4: QUANTITY}

numbers = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0),
)


def fields(table: dict) -> st.SearchStrategy:
    """A table's required fields, and any of its optional ones, as numbers
    (``file``, add-operator's, as the operator file)."""
    def value(name):
        return st.just("operator") if name == "file" else numbers

    return st.fixed_dictionaries(
        {name: value(name) for name, default in table.items() if default is None},
        optional={name: value(name) for name, default in table.items() if default is not None},
    )


@st.composite
def scenarios(draw) -> dict:
    model = draw(st.sampled_from(list(_MODEL_DEFAULTS)))
    kind = draw(st.sampled_from([None, *_EXTENSIONS]))
    grids = st.tuples(numbers, numbers).map(sorted)
    sweep = st.tuples(st.sampled_from(_SWEEPABLES[model]), grids, st.integers(2, 3))
    return {
        "model": model,
        "params": draw(fields(_MODEL_DEFAULTS[model])),
        "family": draw(st.sampled_from(["valid", "ones"])) if model in FILE_MODELS else None,
        "extension": None if kind is None else {"kind": kind, **draw(fields(_EXTENSIONS[kind][0]))},
        "sweep": draw(st.none() | sweep),
    }


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    folder = tmp_path_factory.mktemp("fuzz")
    paths = {"valid": VALID_FAMILY, "dir": folder}
    for name, doc in (("ones", ONES_FAMILY), ("operator", OPERATOR)):
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    return paths


def argv(case: dict, files: dict) -> list[str]:
    """The ``report`` argv of a scenario, or ``sweep --config`` on its run document."""
    extension = case["extension"] and {
        key: str(files[value]) if key == "file" else value
        for key, value in case["extension"].items()
    }
    family = case["family"] and str(files[case["family"]])
    if case["sweep"] is None:
        args = ["report", "--model", case["model"]]
        args += [arg for k, v in case["params"].items() for arg in ("--param", f"{k}={v!r}")]
        if family:
            args += ["--family-file", family]
        if extension:
            given = ",".join(f"{k}={v}" for k, v in extension.items() if k != "kind")
            args += ["--extension", f"{extension['kind']}:{given}"]
        return args
    variable, (start, stop), points = case["sweep"]
    name = "Bz" if variable == "B_z" else variable
    run = {"model": case["model"], "sweep_variable": variable, "family_file": family,
           "fixed_params": {k: v for k, v in case["params"].items() if k != name},
           "extension": extension and {k: v for k, v in extension.items() if k != name},
           "grid": {"start": start, "stop": stop, "points": points}}
    path = files["dir"] / "run.json"
    path.write_text(json.dumps(run), encoding="utf-8")
    return ["sweep", "--config", str(path)]


def run(args: list[str]) -> tuple[int, str, str, list]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def results(out: str, sweep: bool) -> np.ndarray:
    """(channel_qfi, upper_bound, ratio) of each output row, as rows of an array."""
    if not sweep:
        doc = json.loads(out)
        return np.array([[doc["channel_qfi"], doc["upper_bound"], doc["ratio"]]])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    return np.array([[float(x) for x in row[1:4]] for row in rows])


def check(case: dict, files: dict) -> int:
    code, out, err, caught = run(argv(case, files))
    assert caught == []
    if code == 0:
        values = results(out, case["sweep"] is not None)
        assert err == "" and values.size and np.isfinite(values).all()
        assert (values[:, 2] <= 1.0 + 1e-9).all()
    else:
        assert code in MESSAGES and out == ""
        assert re.fullmatch(f"error: ({MESSAGES[code]})\n", err), err
    return code


def report(model: str, family: str | None = None, extension=None, **params) -> dict:
    return {"model": model, "params": params, "family": family, "extension": extension,
            "sweep": None}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scenarios())
# LAPACK stopped with "Eigenvalues did not converge" on H unscaled.
@example(report("custom", "valid", theta=1.672116511639499e251, t=1.2769555187113415e-57))
# t d/2 overflowed, and the phase kernel gave NaN where it is 0.
@example(report("custom", "valid", theta=1e300, t=1e10))
# H's eigenvalue 2e308 overflowed.
@example(report("custom", "ones", theta=1e308, t=1e-300))
# t * t is subnormal and rounded the bound; the ratio read 1.0000073.
@example(report("direction", t=-3.2944224505583135e-160, g=3.58310430380595e-24,
                B=6.112612038377374e148,
                extension={"kind": "flood", "beta": -7.085248594635016e167,
                           "theta0": -1.8590373699865882e-124}))
def test_extreme_inputs_exit_zero_or_name_what_failed(files, case):
    check(case, files)
