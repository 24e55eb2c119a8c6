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
from .familyfile import validate_file
from .qfi import channel_qfi, check_saturation
from .sweep import (
    MODELS,
    Preset,
    SweepResult,
    build_scenario,
    load_config,
    load_preset,
    preset_names,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    validate_scenario,
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
    p_report.add_argument("--model", required=True, choices=MODELS)
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


def _fields(items: list[str], option: str) -> dict:
    """``K=V`` items as a dict of strings; validate_scenario checks the names and values."""
    fields = {}
    for item in items:
        if "=" not in item:
            raise InvalidSpec(f"{option}: expected K=V, got {item!r}")
        key, value = item.split("=", 1)
        fields[key.strip()] = value.strip()
    return fields


def _cmd_report(args) -> int:
    extension = None
    if args.extension:
        kind, _, body = args.extension.partition(":")
        extension = {**_fields(body.split(",") if body else [], "--extension"), "kind": kind}
        if "eps" in extension:
            extension["epsilon"] = extension.pop("eps")
    scenario = {
        "model": args.model,
        "fixed_params": _fields(args.param, "--param"),
        "extension": extension,
        "family_file": args.family_file,
    }
    validate_scenario(scenario)
    family, theta, t, ext = build_scenario(scenario)
    if ext is not None:
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
