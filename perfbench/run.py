"""qfiext benchmark: presets, reports and verify workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload presets --seed 0 --seconds 30 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (see ``END_TO_END``); the line before it repeats them with
their sample counts, the percentile that ``op_p90_ms`` stands for, and
``failed_frac``. With ``--trace 1`` the metrics are the per-layer ones from
``tracer.py``: half of ``--seconds`` runs untraced and half traced, so
``trace.overhead_frac`` compares the two, and the traced outputs must hash
the same as the untraced ones.

Every workload runs in its own process (``child.py``), one client in a
closed loop, with OMP/OpenBLAS/MKL limited to one thread. Set-up time is
the median over several fresh processes. Times are reported at reference
machine speed: each one is scaled by a calibration kernel timed right next
to it (``calibration.py``), because the shared machine this was written on
changes speed by up to half for tens of seconds at a time. The detail line
also gives the raw wall-clock values. Scratch files go under
``.bench_work/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("presets", "reports", "verify")
END_TO_END = (
    ("points_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# Set-up-only processes started before the measuring one; its own set-up is
# one more sample.
SETUP_RUNS = 8
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_GRACE_S = 90


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(root: Path, workdir: Path, args, mode: str, seconds: float, trace: int) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    result = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
        "--mode", mode, "--trace", str(trace), "--workdir", str(workdir),
        "--reference", str(args.reference), "--result", str(result),
    ]
    launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd + ["--launched-ns", str(launched)],
        cwd=root, env=_child_env(root), stdout=subprocess.DEVNULL,
        timeout=seconds + CHILD_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} {mode} process exited with {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def tail_percentile(samples: int) -> int:
    """p90 with at least 100 samples, else the highest percentile that still
    has ten samples beyond it (never below the median)."""
    if samples >= 100:
        return 90
    return max(50, math.floor(100 * (samples - 10) / samples))


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(measured: dict, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the detail line: the same with sample
    counts, the raw wall-clock values and ``failed_frac``.

    Times are scaled to reference machine speed per operation (calibration.py);
    ``setups`` holds set-up times already scaled.
    """
    raw_ms = [ns / 1e6 for ns in measured["latencies_ns"]]
    lat_ms = [ms * f for ms, f in zip(raw_ms, measured["speed_factors"])]
    n = len(lat_ms)
    tail = tail_percentile(n)
    values = {
        "points_per_s": measured["points"] / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": _percentile(lat_ms, tail),
        "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }
    samples = {"points_per_s": n, "op_p50_ms": n, "op_p90_ms": n, "peak_rss_mb": 1,
                "setup_s": len(setups)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {name: dict(metrics[name], samples=samples[name]) for name in metrics}
    detail["op_p90_ms"]["percentile"] = tail
    detail["failed_frac"] = {
        "value": measured["failed"] / measured["attempted"], "unit": "1",
        "samples": measured["attempted"],
    }
    detail["wall_clock"] = {
        "points_per_s": measured["points"] / (sum(raw_ms) / 1e3),
        "op_p50_ms": statistics.median(raw_ms),
        "op_p90_ms": _percentile(raw_ms, tail),
        "speed_factor_p50": statistics.median(measured["speed_factors"]),
    }
    return metrics, detail


def _digests_agree(a: dict, b: dict) -> bool:
    """Outputs of two runs of the same inputs are identical where both got to."""
    shared = min(len(a["cycle_digests"]), len(b["cycle_digests"]))
    if shared == 0 or a["cycle_digests"][:shared] != b["cycle_digests"][:shared]:
        return False
    both = a["outputs_digest"] and b["outputs_digest"]
    return not both or a["outputs_digest"] == b["outputs_digest"]


def per_layer(plain: dict, traced: dict) -> dict:
    from tracer import per_layer_metric_names, read_spans, summarize

    ops = traced["attempted"]
    values = summarize(read_spans(traced["spans"]), ops, traced["speed_factors"])
    values.update(traced["counters"])

    # points_per_s of both runs over the operations both ran, so that the
    # inputs are the same: 1 - traced/untraced = 1 - untraced time/traced time
    def scaled_ns(run: dict, count: int) -> float:
        return sum(ns * f for ns, f in zip(run["latencies_ns"][:count], run["speed_factors"]))

    shared = min(plain["attempted"], ops)
    values["trace.overhead_frac"] = 1.0 - scaled_ns(plain, shared) / scaled_ns(traced, shared)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="recorded output digests and machine notes (see record.py)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "qfiext" / "cli.py").is_file():
        print(f"error: {root} holds no qfiext source tree (src/qfiext); "
              "run from the root of a qfiext checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            half = args.seconds / 2
            plain = _run_child(root, work / "plain", args, "measure", half, 0)
            traced = _run_child(root, work / "traced", args, "measure", half, 1)
            metrics = per_layer(plain, traced)
            runs = (plain, traced)
            correct = _digests_agree(plain, traced)
            print(json.dumps({"detail": {"untraced_ops": plain["attempted"],
                                         "traced_ops": traced["attempted"],
                                         "digests_agree": correct}}))
        else:
            setups = []
            for i in range(SETUP_RUNS):
                setup = _run_child(root, work / f"setup{i}", args, "setup", 0.0, 0)
                setups.append(setup["setup_s"] * setup["setup_speed_factor"])
            measured = _run_child(root, work / "measure", args, "measure", args.seconds, 0)
            setups.append(measured["setup_s"] * measured["speed_factors"][0])
            metrics, detail = end_to_end(measured, setups)
            runs = (measured,)
            correct = True
            print(json.dumps({"detail": detail}))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
