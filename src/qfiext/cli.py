"""Command-line interface.

Subcommands:
  sweep     run a parameter sweep from a named preset or a config file
  report    single-point channel-QFI evaluation rendered as JSON
  validate  check a custom family definition file
  presets   list the embedded presets and their parameters

Exit codes: 0 success, 1 invalid arguments or specification, 2 invariant
violation in an input file, 3 numerical validation failure, 4 internal
numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    DimensionMismatch,
    FamilyFileError,
    InvalidSpec,
    ModelError,
    NonHermitianInput,
    QfiextError,
)
from .extensions import apply_extension
from .extensions import AddOperator, Flood, Subtract, SubtractPerturbed
from .familyfile import validate_file
from .models import DirectionParams, NvParams, direction_family, direction_sz_family, nv_family
from .qfi import channel_qfi, check_saturation
from .sweep import (
    Preset,
    SweepResult,
    _load_operator,
    load_config,
    load_model_family,
    load_preset,
    preset_names,
    rows_to_csv,
    rows_to_json,
    run_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGED = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qfiext", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    src = p_sweep.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="embedded preset name (see 'qfiext presets')")
    src.add_argument("--config", help="sweep config JSON file")
    p_sweep.add_argument("--out", help="output file (single run) or directory (multi-run)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="accepted for compatibility; has no effect (each run is "
                              "evaluated in one batched pass)")

    p_report = sub.add_parser("report", help="single-point evaluation as JSON")
    p_report.add_argument("--model", required=True,
                          choices=("nv", "direction", "broken-phase-shift", "custom"))
    p_report.add_argument("--param", action="append", default=[], metavar="K=V",
                          help="model parameter, repeatable (e.g. t=1e-3, Bz=0.1)")
    p_report.add_argument("--extension", default=None,
                          help="flood:beta=..,theta0=.. | subtract:theta0=.. | "
                               "subtract-perturbed:theta0=..,eps=.. | "
                               "add-operator:file=..,eps=.. | sz:kappa=..")
    p_report.add_argument("--family-file", default=None,
                          help="family definition file (broken-phase-shift/custom models)")

    p_val = sub.add_parser("validate", help="validate a family definition file")
    p_val.add_argument("file")

    sub.add_parser("presets", help="list embedded presets")
    return parser


def _emit(text: str, path: Path | None):
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8", newline="\n")


def _run_label_file(label: str, fmt: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in label)
    return f"{safe}.{fmt}"


def _cmd_sweep(args) -> int:
    preset: Preset = load_preset(args.preset) if args.preset else load_config(args.config)
    render = rows_to_csv if args.format == "csv" else rows_to_json
    results: list[SweepResult] = [run_sweep(spec, jobs=args.jobs) for spec in preset.runs]
    if len(results) == 1:
        _emit(render(results[0]), Path(args.out) if args.out else None)
        return EXIT_OK
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in results:
            _emit(render(result), out_dir / _run_label_file(result.label, args.format))
    else:
        for result in results:
            sys.stdout.write(f"# run: {result.label}\n")
            sys.stdout.write(render(result))
    return EXIT_OK


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise InvalidSpec(f"--param: expected K=V, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise InvalidSpec(f"--param {key}: not a number: {value!r}")
    return params


def _parse_extension(text: str):
    kind, _, body = text.partition(":")
    fields = {}
    if body:
        for item in body.split(","):
            if "=" not in item:
                raise InvalidSpec(f"--extension: expected k=v items, got {item!r}")
            key, value = item.split("=", 1)
            fields[key.strip()] = value.strip()
    def num(key, default=None):
        if key not in fields:
            if default is None:
                raise InvalidSpec(f"--extension {kind}: missing field {key!r}")
            return default
        try:
            return float(fields[key])
        except ValueError:
            raise InvalidSpec(f"--extension {kind}: {key} is not a number: {fields[key]!r}")

    if kind == "flood":
        return Flood(beta=num("beta"), theta0=num("theta0", 0.0))
    if kind == "subtract":
        return Subtract(theta0=num("theta0"))
    if kind == "subtract-perturbed":
        return SubtractPerturbed(theta0=num("theta0"), epsilon=num("eps"))
    if kind == "add-operator":
        if "file" not in fields:
            raise InvalidSpec("--extension add-operator: missing field 'file'")
        return AddOperator(operator=_load_operator(fields["file"]), epsilon=num("eps"))
    if kind == "sz":
        return ("sz", num("kappa"))
    raise InvalidSpec(f"--extension: unknown kind {kind!r}")


_REPORT_PARAMS = {
    "nv": ("Bx", "By", "Bz", "D", "E", "g", "t"),
    "direction": ("B", "theta", "phi", "t", "g"),
    "broken-phase-shift": ("theta", "t"),
    "custom": ("theta", "t"),
}


def _cmd_report(args) -> int:
    params = _parse_params(args.param)
    allowed = _REPORT_PARAMS[args.model]
    for key in params:
        if key not in allowed:
            raise InvalidSpec(
                f"--param {key}: unknown for model {args.model!r}; "
                f"expected one of {', '.join(allowed)}"
            )
    t = params.get("t")
    if args.model == "nv":
        model_params = NvParams(**params)
        family, theta = nv_family(model_params), model_params.Bz
        t = model_params.t if t is None else t
    elif args.model == "direction":
        if "B" not in params:
            raise InvalidSpec("--param B=...: required for the direction model")
        model_params = DirectionParams(**params)
        family, theta = direction_family(model_params), model_params.theta
        t = model_params.t if t is None else t
    else:
        if not args.family_file:
            raise InvalidSpec(f"--family-file: required for model {args.model!r}")
        model_params = None
        family = load_model_family(args.model, args.family_file)
        theta = params.get("theta", 0.0)
        t = 1.0 if t is None else t

    if args.extension:
        ext = _parse_extension(args.extension)
        if isinstance(ext, tuple):
            if args.model != "direction":
                raise InvalidSpec("--extension sz: applies to the direction model only")
            family = direction_sz_family(model_params, ext[1])
        else:
            family = apply_extension(family, ext)

    report = channel_qfi(family, theta, t)
    verdict = check_saturation(family, theta)
    probe = [[float(a.real), float(a.imag)] for a in report.optimal_probe.amplitudes]
    doc = {
        "model": args.model,
        "theta": theta,
        "t": t,
        "channel_qfi": report.channel_qfi,
        "upper_bound": report.upper_bound,
        "ratio": report.ratio,
        "generator_method": report.generator_method.value,
        "estimated_error": report.estimated_error,
        "saturation": {
            "verdict": verdict.verdict.value,
            "witness": list(verdict.witness) if verdict.witness is not None else None,
        },
        "optimal_probe": probe,
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    diagnostics = validate_file(args.file)
    for line in diagnostics.messages:
        print(line)
    for line in diagnostics.extremal_degeneracy:
        print(line)
    if diagnostics.status == "ok":
        print(f"{args.file}: OK")
        return EXIT_OK
    if diagnostics.status == "derivative":
        print(f"{args.file}: FAILED (derivative mismatch)")
        return EXIT_VALIDATION
    print(f"{args.file}: FAILED (input invariant violation)")
    return EXIT_INVARIANT


def _cmd_presets(args) -> int:
    for name in preset_names():
        preset = load_preset(name)
        print(f"{preset.name}: {preset.description}")
        for spec in preset.runs:
            ext = ""
            if spec.extension is not None:
                fields = ",".join(f"{k}={v}" for k, v in spec.extension.items() if k != "kind")
                ext = f" extension={spec.extension['kind']}:{fields}"
            fixed = ",".join(f"{k}={v}" for k, v in sorted(spec.fixed_params.items()))
            grid = spec.grid
            print(
                f"  {spec.label}: model={spec.model} sweep={spec.sweep_variable} "
                f"grid={grid.start:g}..{grid.stop:g}x{grid.points}({grid.scale}) "
                f"fixed[{fixed}]{ext}"
            )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "report": _cmd_report,
        "validate": _cmd_validate,
        "presets": _cmd_presets,
    }
    try:
        return handlers[args.command](args)
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FamilyFileError, NonHermitianInput, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except QfiextError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
