"""Command-line interface.

Subcommands:
  sweep     run a parameter sweep from a named preset or a config file
  report    single-point channel-QFI evaluation rendered as JSON
  validate  check a custom family definition file
  presets   list the embedded presets and their parameters

Exit codes: 0 success, 1 invalid arguments or specification, 2 invariant
violation in an input file, 3 numerical validation failure, 4 internal
numerical non-convergence or a result that is not finite.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .errors import InvalidSpec, ModelError, QfiextError
from .familyfile import validate_file
from .qfi import channel_qfi, check_saturation
from .sweep import (
    MODELS,
    Preset,
    SweepResult,
    _csv_texts,
    build_scenario,
    json_text,
    load_config,
    load_preset,
    preset_names,
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


@functools.cache
def _build_parser() -> tuple[_Parser, dict]:
    """The parser and each command's own parser (which sets ``command``), built once."""
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
    for name, command in sub.choices.items():
        command.set_defaults(command=name)
    return parser, sub.choices


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
    results: list[SweepResult] = [run_sweep(spec) for spec in preset.runs]
    texts = _csv_texts(results) if args.format == "csv" else list(map(rows_to_json, results))
    if len(results) == 1:
        _emit(texts[0], Path(args.out) if args.out else None)
    elif args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result, text in zip(results, texts):
            _emit(text, out_dir / _run_label_file(result.label, args.format))
    else:
        for result, text in zip(results, texts):
            sys.stdout.write(f"# run: {result.label}\n{text}")
    return EXIT_OK


def _fields(items: list[str], option: str) -> dict:
    """``K=V`` items as a dict; build_scenario checks the names and values. A value
    is its float where that is finite, else (and for ``file``) the text as given.
    A key given twice is an error."""
    fields = {}
    for item in items:
        if "=" not in item:
            raise InvalidSpec(f"{option}: expected K=V, got {item!r}")
        key, value = (text.strip() for text in item.split("=", 1))
        _add_once(fields, key, value if key == "file" else _number(value), option)
    return fields


def _number(text: str):
    try:
        number = float(text)
    except ValueError:
        return text
    return number if math.isfinite(number) else text


def _add_once(fields: dict, key: str, value, option: str) -> None:
    if key in fields:
        raise InvalidSpec(f"{option}: {key} given more than once")
    fields[key] = value


def _cmd_report(args) -> int:
    extension = None
    if args.extension:
        kind, _, body = args.extension.partition(":")
        extension = {"kind": kind}
        for key, value in _fields(body.split(",") if body else [], "--extension").items():
            # kind is the text before the colon; eps is short for epsilon
            _add_once(extension, "epsilon" if key == "eps" else key, value, "--extension")
    scenario = {
        "model": args.model,
        "fixed_params": _fields(args.param, "--param"),
        "extension": extension,
        "family_file": args.family_file,
    }
    family, theta, t, _ = build_scenario(scenario)
    report, verdict = channel_qfi(family, theta, t), check_saturation(family, theta)
    sys.stdout.write(_report_text(args.model, theta, t, report, verdict))
    return EXIT_OK


def _report_text(model: str, theta, t, report, verdict) -> str:
    """The report document, in ``json_text``'s bytes plus a line break, written directly in
    its fixed layout. Each value is ``json_text``'s, formed in document order, so the first
    float that is not finite raises as it does there."""
    j = json_text
    head = (f'{{\n  "model": {j(model)},\n  "theta": {j(theta)},\n  "t": {j(t)},\n'
            f'  "channel_qfi": {j(report.channel_qfi)},\n'
            f'  "upper_bound": {j(report.upper_bound)},\n  "ratio": {j(report.ratio)},\n'
            f'  "generator_method": {j(report.generator_method.value)},\n'
            f'  "estimated_error": {j(report.estimated_error)},\n'
            f'  "saturation": {{\n    "verdict": {j(verdict.verdict.value)},\n')
    witness = "null" if verdict.witness is None else (
        "[\n      " + ",\n      ".join(map(j, verdict.witness)) + "\n    ]")
    items = report.optimal_probe.amplitudes.view(float).tolist()  # re, im of each amplitude
    probe = ",\n    ".join(f"[\n      {j(re)},\n      {j(im)}\n    ]"
                          for re, im in zip(items[::2], items[1::2]))
    return f'{head}    "witness": {witness}\n  }},\n  "optimal_probe": [\n    {probe}\n  ]\n}}\n'


def _cmd_validate(args) -> int:
    diagnostics = validate_file(args.file)
    for line in (*diagnostics.messages, *diagnostics.extremal_degeneracy):
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
    """Run one command. A leading command name is parsed by its own parser alone
    (what it leaves over is the top-level parser's error); other argv by the top level."""
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    handlers = {"sweep": _cmd_sweep, "report": _cmd_report, "validate": _cmd_validate,
                "presets": _cmd_presets}
    try:
        return handlers[args.command](args)
    except (QfiextError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InvalidSpec):
            return EXIT_USAGE
        return EXIT_NONCONVERGED if isinstance(exc, ModelError) else EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
