"""The ``reports`` benchmark workload in perfbench/ gives its recorded bytes.

The benchmark rejects a change whose seed-0 ``reports`` outputs digest moves,
but this suite does not start the benchmark; so the 210 calls of one cycle
run here, through the workload's own ``run_op`` and ``check``.
"""

import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_0_reports_cycle_passes_its_checks_with_the_recorded_digest(tmp_path):
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    reports = workloads.Reports(0, tmp_path, reference)
    assert reports.cycle == 210
    failed, digests = [], []
    for k in range(reports.cycle):
        ok, digest = reports.check(k, reports.run_op(k))
        if not ok:
            failed.append(k)
        digests.append(digest)
    assert failed == []
    expected = reference["gates"]["reports_outputs_sha256"]["0"]
    assert workloads.outputs_digest(digests) == expected
