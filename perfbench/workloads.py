"""The three benchmark workloads: inputs from a seed, one timed operation, checks.

Each workload object is built during set-up (inputs generated, files
written) and then driven by a closed loop in ``child.py``:
``before_op`` (untimed), ``run_op`` (timed), ``check`` (untimed). ``check``
returns whether the operation's output is correct and a digest of that
output, so two runs of the same code can be compared byte for byte.

qfiext functions are called through their module objects (``qfi.channel_qfi``
rather than a name imported from it) so that the tracer's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import qfiext.cli
from qfiext import extensions, family, generator, linalg, models, qfi, sweep

PRESETS = ("fig1", "fig2", "fig3")

# Tolerances of the acceptance suite: closed forms (criteria 2 and 3), generator
# routes (criterion 6) and the brute-force oracle (criterion 7).
RATIO_SLACK = 1e-9
DIRECTION_QFI_RTOL = 1e-8
DIRECTION_SUBTRACTION_RTOL = 1e-6
GENERATOR_AGREEMENT = 1e-6
ORACLE_RTOL = 1e-4
ORACLE_OVERSHOOT = 1e-9


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs_digest(case_digests: list[str]) -> str:
    """Digest of all outputs of one cycle through a workload's inputs."""
    return _sha256("".join(case_digests).encode())


def _rel_dev(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


class Presets:
    """fig1, fig2 and fig3 through ``qfiext sweep --preset ... --jobs 1``.

    One operation is one pass over all three presets (1,281 grid points); the
    seed rotates their order. The CSVs must match the recorded sha256 digests.
    """

    cycle = 1

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.expected = reference["preset_csv_sha256"]
        self.outputs = {}
        self.points_per_op = 0
        for name in PRESETS:
            preset = sweep.load_preset(name)
            self.points_per_op += sum(spec.grid.points for spec in preset.runs)
            # a single-run preset writes one file, a multi-run preset a directory
            self.outputs[name] = workdir / (name if len(preset.runs) > 1 else f"{name}.csv")

    def _files(self):
        for name in PRESETS:
            out = self.outputs[name]
            if out.is_dir():
                for path in sorted(out.iterdir()):
                    yield f"{name}/{path.name}", path
            elif out.exists():
                yield out.name, out

    def before_op(self, k: int) -> None:
        for _, path in list(self._files()):
            path.unlink()

    def run_op(self, k: int):
        shift = (self.seed + k) % len(PRESETS)
        order = PRESETS[shift:] + PRESETS[:shift]
        return [
            qfiext.cli.main(
                ["sweep", "--preset", name, "--out", str(self.outputs[name]), "--jobs", "1"]
            )
            for name in order
        ]

    def csv_digests(self) -> dict:
        return {key: _sha256(path.read_bytes()) for key, path in self._files()}

    def check(self, k: int, codes) -> tuple[bool, str]:
        digests = self.csv_digests()
        ok = all(code == 0 for code in codes) and digests == self.expected
        return ok, _sha256(json.dumps(digests, sort_keys=True).encode())


# Every model with every extension choice; sz applies to the direction model only.
REPORT_COMBOS = tuple(
    (model, ext)
    for model in ("nv", "direction", "broken-phase-shift", "custom")
    for ext in (None, "flood", "subtract", "subtract-perturbed", "add-operator")
) + (("direction", "sz"),)


def _gue(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (x + x.conj().T) / 2


def _matrix_doc(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class Reports:
    """Seeded single-point ``qfiext report`` calls through in-process ``cli.main``.

    200 valid calls cover the four models and the six extension choices
    (none, flood, subtract, subtract-perturbed, add-operator, sz); about a
    third of the NV points sit near the 0.1024 T level anti-crossing. 10
    calls (about 5%) are invalid and must exit with the code the README
    documents. Family and operator files are generated from the seed during
    set-up.
    """

    VALID = 200
    INVALID = 10
    points_per_op = 1

    def __init__(self, seed: int, workdir: Path, reference: dict):
        rng = np.random.default_rng(seed)
        self.gamma = models.gyromagnetic_ratio()
        self.files = self._write_files(rng, workdir)
        fixture = Path(qfiext.__file__).parent / "data" / "fixtures" / "nonhermitian-family.json"
        self.nonhermitian_family = str(fixture)

        # The mix of kinds is the same for every seed; the seed draws the values
        # and the order, so seeds do not differ in how much work a cycle holds.
        kinds = [(*REPORT_COMBOS[i % len(REPORT_COMBOS)], i // len(REPORT_COMBOS))
                 for i in range(self.VALID)]
        cases = [self._valid_case(rng, *kinds[i]) for i in rng.permutation(self.VALID)]
        slots = sorted(rng.choice(self.VALID + self.INVALID, self.INVALID, replace=False))
        for j, slot in enumerate(slots):
            cases.insert(int(slot), self._invalid_case(rng, j))
        self.cases = cases
        self.cycle = len(cases)

    def _write_files(self, rng: np.random.Generator, workdir: Path) -> dict:
        files = {}
        for dim in (2, 3, 4):
            files[("op", dim)] = _write_json(
                workdir / f"op-d{dim}.json", _matrix_doc(_gue(rng, dim))
            )

            def term(kind: str, **shape) -> dict:
                coefficient = {"kind": kind, "scale": 1.0, **shape}
                return {"coefficient": coefficient, "matrix": _matrix_doc(_gue(rng, dim))}

            bps_terms = [term("linear"), term("const")]
            files[("broken-phase-shift", dim)] = _write_json(
                workdir / f"bps-d{dim}.json", {"dim": dim, "terms": bps_terms}
            )
            custom_terms = [term("const"), term("linear")]
            for kind in ("sin", "cos"):
                shape = {
                    "scale": float(rng.uniform(0.2, 1.0)),
                    "frequency": float(rng.uniform(0.5, 2.0)),
                    "phase": float(rng.uniform(0.0, math.pi)),
                }
                custom_terms.append(term(kind, **shape))
            files[("custom", dim)] = _write_json(
                workdir / f"custom-d{dim}.json", {"dim": dim, "terms": custom_terms}
            )
        broken = _gue(rng, 3)
        broken[0, 1] += 0.5  # breaks Hermiticity far beyond the symmetrization tolerance
        files["nonhermitian-op"] = _write_json(
            workdir / "op-nonhermitian.json", _matrix_doc(broken)
        )
        return files

    def _valid_case(self, rng: np.random.Generator, model: str, ext, variant: int):
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        check = None
        if model == "nv":
            near_crossing = variant % 3 == 0
            bz = 0.10237 + u(-2e-3, 2e-3) if near_crossing else 10 ** u(-7, 0)
            params = {"Bx": u(0, 0.2), "By": u(0, 0.05), "Bz": bz, "t": 10 ** u(-4, -2)}
            argv = ["report", "--model", "nv"]
            theta, eps_scale, dim = bz, 1e9, 3
            flood = f"flood:beta={10 ** u(-6, -1)!r},theta0={theta!r}"
            perturbed_eps = u(-1e-3, 1e-3)
        elif model == "direction":
            params = {"B": 10 ** u(-10, -8), "theta": u(0.2, 2.9), "phi": u(0, 2 * math.pi),
                      "t": 10 ** u(-3, -1)}
            argv = ["report", "--model", "direction"]
            theta, eps_scale, dim = params["theta"], self.gamma * params["B"], 3
            flood = f"flood:beta={u(0.1, 5.0)!r},theta0={theta!r}"
            perturbed_eps = u(-0.6, 0.6)
            dp = models.DirectionParams(**params)
            if ext is None:
                check = ("direction", models.direction_reference_qfi(dp))
            elif ext == "subtract-perturbed":
                reference = models.direction_reference_subtraction_qfi(dp, theta, perturbed_eps)
                check = ("subtraction", reference)
        else:
            dim = 2 + variant % 3
            params = {"theta": u(-1, 1), "t": u(0.5, 1.5)}
            argv = ["report", "--model", model, "--family-file", self.files[(model, dim)]]
            theta, eps_scale = params["theta"], 1.0
            flood = f"flood:beta={u(0.1, 2.0)!r},theta0={u(-1, 1)!r}"
            perturbed_eps = u(-0.3, 0.3)
        for key, value in params.items():
            argv += ["--param", f"{key}={value!r}"]
        extension = {
            None: None,
            "flood": flood,
            "subtract": f"subtract:theta0={theta!r}",
            "subtract-perturbed": f"subtract-perturbed:theta0={theta!r},eps={perturbed_eps!r}",
            "add-operator":
                f"add-operator:file={self.files[('op', dim)]},eps={eps_scale * u(-1, 1)!r}",
            "sz": f"sz:kappa={10 ** u(-1, 3)!r}",
        }[ext]
        if extension is not None:
            argv += ["--extension", extension]
        return argv, 0, check

    def _invalid_case(self, rng: np.random.Generator, j: int):
        kind = j % 3
        if kind == 0:  # non-Hermitian operator file: invariant violation
            argv = ["report", "--model", "direction", "--param", "B=1e-9", "--param", "t=0.01",
                    "--extension", f"add-operator:file={self.files['nonhermitian-op']},eps=1.0"]
            return argv, 2, None
        if kind == 1:  # unknown --param: usage error
            argv = ["report", "--model", "nv", "--param", "Bz=0.001", "--param",
                    f"Q={float(rng.uniform(0, 1))!r}"]
            return argv, 1, None
        argv = ["report", "--model", "custom", "--family-file", self.nonhermitian_family,
                "--param", "theta=0.5"]
        return argv, 2, None

    def run_op(self, k: int):
        argv = self.cases[k % self.cycle][0]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = qfiext.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors exit instead of returning
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue()

    def before_op(self, k: int) -> None:
        pass

    def check(self, k: int, raw) -> tuple[bool, str]:
        code, stdout = raw
        _, expected_code, reference = self.cases[k % self.cycle]
        digest = _sha256(f"{code}\n{stdout}".encode())
        if code != expected_code:
            return False, digest
        if code != 0:
            return True, digest
        try:
            doc = json.loads(stdout)
            cqfi, ratio = float(doc["channel_qfi"]), float(doc["ratio"])
        except (ValueError, KeyError, TypeError):
            return False, digest
        ok = math.isfinite(cqfi) and ratio <= 1.0 + RATIO_SLACK
        if reference is not None:
            kind, value = reference
            tol = DIRECTION_QFI_RTOL if kind == "direction" else DIRECTION_SUBTRACTION_RTOL
            ok = ok and _rel_dev(cqfi, value) < tol
        return ok, digest


def _polynomial_family(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """H(theta) = A + theta B + theta^2 C with analytic derivatives."""
    op = linalg.HermitianOperator
    return family.HamiltonianFamily(
        a.shape[0],
        lambda th: op(a + th * b + th * th * c),
        lambda th: op(b + 2.0 * th * c),
        lambda th: op(2.0 * c),
    )


class Verify:
    """Cross-checks of the closed form on seeded GUE polynomial families.

    Each case builds A + theta B + theta^2 C of dimension 2-4 from
    ``random_hermitian``, optionally floods or miscalibrated-subtracts it and
    lifts about half onto a 2-dim ancilla (degenerate spectra), then runs the
    three generator routes, the channel QFI, the brute-force oracle and the
    saturation check. One operation is one case.
    """

    # dimension x extension (none twice, so about half) x ancilla lift
    KINDS = tuple(
        (dim, ext, lift)
        for dim in (2, 3, 4)
        for ext in (None, None, "flood", "subtract-perturbed")
        for lift in (False, True)
    )
    CASES = 4 * len(KINDS)
    points_per_op = 1

    def __init__(self, seed: int, workdir: Path, reference: dict):
        rng = np.random.default_rng(seed)
        self.cases = []
        for i in rng.permutation(self.CASES):
            dim, kind, lift = self.KINDS[i % len(self.KINDS)]
            mats = tuple(linalg.random_hermitian(dim, rng).matrix for _ in range(3))
            theta, t = float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.5))
            if kind == "flood":
                beta, theta0 = float(rng.uniform(0.1, 1.0)), float(rng.uniform(-1, 1))
                ext = extensions.Flood(beta=beta, theta0=theta0)
            elif kind == "subtract-perturbed":
                epsilon = float(rng.uniform(-0.3, 0.3))
                ext = extensions.SubtractPerturbed(theta0=theta, epsilon=epsilon)
            else:
                ext = None
            self.cases.append((mats, theta, t, ext, lift))
        self.cycle = len(self.cases)

    def before_op(self, k: int) -> None:
        pass

    def run_op(self, k: int):
        index = k % self.cycle
        mats, theta, t, ext, lift = self.cases[index]
        fam = _polynomial_family(*mats)
        if ext is not None:
            fam = extensions.apply_extension(fam, ext)
        if lift:
            fam = extensions.tensor_identity(fam, 2)
        routes = (
            generator.generator_spectral(fam, theta, t),
            generator.generator_quadrature(fam, theta, t),
            generator.generator_fd(fam, theta, t),
        )
        report = qfi.channel_qfi(fam, theta, t)
        brute = qfi.channel_qfi_brute(fam, theta, t, n_starts=8, seed=index)
        verdict = qfi.check_saturation(fam, theta)
        return routes, report, brute, verdict

    def check(self, k: int, raw) -> tuple[bool, str]:
        routes, report, brute, verdict = raw
        mats = [r.generator.matrix for r in routes]
        agree = max(
            float(np.max(np.abs(mats[i] - mats[j]))) for i in range(3) for j in range(i + 1, 3)
        )
        closed = report.channel_qfi
        ok = (
            agree < GENERATOR_AGREEMENT
            and routes[1].converged
            and _rel_dev(brute, closed) < ORACLE_RTOL
            and brute - closed <= ORACLE_OVERSHOOT
        )
        h = hashlib.sha256()
        for m in mats:
            h.update(m.tobytes())
        h.update(f"{closed!r} {report.upper_bound!r} {brute!r} {verdict.verdict.value}".encode())
        return ok, h.hexdigest()


WORKLOADS = {"presets": Presets, "reports": Reports, "verify": Verify}
