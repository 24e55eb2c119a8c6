"""Extreme inputs through ``cli.main report`` and ``sweep --config``.

Every run either exits 0 with finite numbers and a ratio of at most 1 + 1e-9,
or exits with the code that the README documents for its failure and one
line naming the field or quantity at fault. No run warns or raises.

Numeric fields are drawn log-uniform in magnitude over 1e-300 ... 1e300, with
either sign, over all four models and all six extension choices (none and the
five kinds), file families included. Generated family files (1-6 terms of
every coefficient kind, entries of +-0.0 and 1e+-300, now and then a
non-Hermitian or malformed term) exit as a term-by-term parse says they must.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfiext import HermitianOperator, NonHermitianInput
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


KINDS = ("const", "linear", "sin", "cos")
entries = st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300]) | st.floats(-4.0, 4.0)
FAULTS = ("non-hermitian", "no matrix", "kind", "coefficient", "entry", "ragged", "dim")


@st.composite
def family_files(draw) -> dict:
    """A family document: 1-6 Hermitian terms of every kind, entries of +-0.0,
    +-1e+-300 or moderate floats, and now and then one fault at a random term."""
    dim = draw(st.integers(1, 3))

    def matrix() -> dict:
        re, im = [[0.0] * dim for _ in range(dim)], [[0.0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                re[i][j] = re[j][i] = draw(entries)
                if j > i:
                    im[i][j] = draw(entries)
                    im[j][i] = -im[i][j]
        return {"re": re, "im": im}

    terms = [{"coefficient": {"kind": draw(st.sampled_from(KINDS)), "scale": draw(entries),
                              "frequency": draw(entries), "phase": draw(entries)},
              "matrix": matrix()} for _ in range(draw(st.integers(1, 6)))]
    fault = draw(st.sampled_from((None,) * len(FAULTS) + FAULTS))  # half of the files
    term = terms[draw(st.integers(0, len(terms) - 1))]
    m, c = term["matrix"], term["coefficient"]
    if fault == "non-hermitian":  # unless the entry is within 1e-12 of the largest
        m["im"][0][0] = draw(st.sampled_from([1.0, -1e300, 1e-300]))
    elif fault == "no matrix":
        del term["matrix"]
    elif fault == "kind":
        c["kind"] = draw(st.sampled_from(["tan", None, 1.0]))
    elif fault == "coefficient":
        c[draw(st.sampled_from(["scale", "frequency", "phase"]))] = draw(
            st.sampled_from([True, False, "1", None, math.inf, -math.nan]))
    elif fault == "entry":
        m[draw(st.sampled_from(["re", "im"]))][0][0] = draw(st.sampled_from([True, "1", None]))
    elif fault == "ragged":
        m["re"][-1] = m["re"][-1][:-1]
    elif fault == "dim":
        term["matrix"] = {"re": [[0.0] * (dim + 1) for _ in range(dim + 1)]}
    return {"dim": dim, "terms": terms}


def first_fault(doc: dict):
    """The message naming the first faulty term, parsed term by term in file order (each
    matrix a ``HermitianOperator`` of its own), or None for a file without one."""
    dim = doc["dim"]
    for k, term in enumerate(doc["terms"]):
        where = f"terms[{k}]"
        if "matrix" not in term:
            return f"{where}: term needs 'coefficient' and 'matrix'"
        c, m = term["coefficient"], term["matrix"]
        if c["kind"] not in KINDS:
            return f"{where}: coefficient.kind must be one of {', '.join(KINDS)}"
        for key in ("scale", "frequency", "phase"):
            if type(c[key]) is not float or not math.isfinite(c[key]):
                return f"{where}: coefficient.{key} must be a finite number"
        for block in ("re", "im"):
            for i, row in enumerate(m.get(block, [])):
                for j, x in enumerate(row):
                    if type(x) is not float:
                        return f"{where}: non-numeric entry {block}[{i}][{j}] = {json.dumps(x)}"
        try:
            re = np.asarray(m["re"], dtype=float)
            im = np.asarray(m.get("im", np.zeros_like(re)), dtype=float)
        except ValueError as exc:
            return f"{where}: matrix blocks must be numeric matrices: {exc}"
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            return f"{where}: matrix blocks must be {dim}x{dim}, got re{re.shape} im{im.shape}"
        try:
            HermitianOperator(re + 1j * im)
        except NonHermitianInput as exc:
            return f"{where}: {exc}"
    return None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(family_files(), numbers, numbers)
def test_generated_family_files_exit_as_a_term_by_term_parse_says(files, doc, theta, t):
    path = files["dir"] / "family.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    expected = first_fault(doc)
    if expected is not None:
        args = ["report", "--model", "custom", "--family-file", str(path)]
        assert run(args) == (2, "", f"error: {expected}\n", [])
        return
    case = report("custom", "file", theta=theta, t=t)
    assert check(case, {**files, "file": path}) != 2
