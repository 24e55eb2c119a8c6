"""Tests of the benchmark itself, at a tiny size.

Run from the root of a checkout (not part of the repository's test suite,
because each test starts workload processes):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.per_layer_metric_names()


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_one_command_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    out = _result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in out["metrics"].values())
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    for name, unit in run.END_TO_END + (("failed_frac", "1"),):
        assert detail[name]["unit"] == unit and detail[name]["samples"] >= 1
    assert detail["failed_frac"]["value"] == 0.0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric(workload):
    out = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert out["correct"], "traced outputs differ from untraced ones, or a check failed"
    units = {k: v["unit"] for k, v in out["metrics"].items()}
    assert units == dict(tracer.per_layer_metric_names())


def _wrong_reference(tmp_path: Path, edit) -> Path:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    edit(reference["gates"])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    return path


def test_wrong_preset_digest_counts_as_failed(tmp_path):
    def edit(gates):
        gates["preset_csv_sha256"]["fig3.csv"] = "0" * 64

    ref = _wrong_reference(tmp_path, edit)
    proc = _bench("--workload", "presets", "--seed", "0", "--seconds", "0.5", "--trace", "0",
                  "--reference", str(ref))
    out = _result(proc)
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert not out["correct"] and out["failed"] == out["attempted"]
    assert detail["failed_frac"]["value"] > 0


def test_wrong_reports_digest_counts_as_failed(tmp_path):
    def edit(gates):
        gates["reports_outputs_sha256"]["0"] = "0" * 64

    ref = _wrong_reference(tmp_path, edit)
    proc = _bench("--workload", "reports", "--seed", "0", "--seconds", "1", "--trace", "0",
                  "--reference", str(ref))
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert not _result(proc)["correct"]
    assert detail["failed_frac"]["value"] > 0


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "presets", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children_and_scales_by_speed():
    main, csv, seminorm = (tracer.SPAN_NAMES.index(n)
                           for n in ("cli.main", "sweep.rows_to_csv", "linalg.seminorm"))
    rows = [  # name, start, end, parent, op
        (main, 0, 100, -1, 0),
        (csv, 10, 40, 0, 0),
        (seminorm, 15, 25, 1, 0),
        (csv, 50, 60, 0, 0),
        (main, 200, 300, -1, 1),
        (main, 400, 500, -1, -1),  # outside any operation: ignored
    ]
    columns = {name: [row[i] for row in rows]
               for i, name in enumerate(("name", "start_ns", "end_ns", "parent", "op"))}
    out = tracer.summarize(columns, ops=2, speed_factors=[1.0, 0.5])
    assert out["cli.main.calls_per_op"] == 1.0
    assert out["cli.main.self_ms_per_op"] == pytest.approx((60 + 100 * 0.5) / 2 / 1e6)
    assert out["sweep.rows_to_csv.calls_per_op"] == 1.0
    assert out["sweep.rows_to_csv.self_ms_per_op"] == pytest.approx((20 + 10) / 2 / 1e6)
    assert out["linalg.seminorm.self_ms_per_op"] == pytest.approx(10 / 2 / 1e6)
    assert out["qfi.channel_qfi.calls_per_op"] == 0.0


def test_spans_round_trip_through_the_file(tmp_path):
    t = tracer.Tracer()
    outer = t.wrap("cli.main", lambda: inner())
    inner = t.wrap("linalg.seminorm", lambda: 7)
    t.op = 0
    assert outer() == 7
    t.write_spans(tmp_path / "spans.bin")
    columns = tracer.read_spans(tmp_path / "spans.bin")
    assert list(columns["parent"]) == [-1, 0]
    assert list(columns["op"]) == [0, 0]
    assert columns["end_ns"][1] <= columns["end_ns"][0]
    assert tracer.summarize(columns, ops=1)["linalg.seminorm.calls_per_op"] == 1.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(500) == 90
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(50) == 80
    assert run.tail_percentile(12) == 50
