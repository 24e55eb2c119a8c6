"""The ``verify`` benchmark workload in perfbench/ gives its recorded bytes.

The 96 cross-check cases of one seed-0 ``verify`` cycle (three generator
routes, the channel QFI, the brute-force oracle and the saturation check)
run here through the workload's own ``run_op`` and ``check``, so a change to
the oracle's ascent or to any route that moves a bit fails this suite.
"""

import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# perfbench/reference.json gates no ``verify`` digest; this one was measured at
# commit c0f04ed ("One point pass in place of three caches").
VERIFY_SEED_0_OUTPUTS_SHA256 = "28b51b15be78562c0beb32ae5cd23f9784f230e12c8ea9127c5d7185da212d3a"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_0_verify_cycle_passes_its_checks_with_the_recorded_digest(tmp_path):
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    verify = workloads.Verify(0, tmp_path, reference)
    assert verify.cycle == 96
    failed, digests = [], []
    for k in range(verify.cycle):
        ok, digest = verify.check(k, verify.run_op(k))
        if not ok:
            failed.append(k)
        digests.append(digest)
    assert failed == []
    assert workloads.outputs_digest(digests) == VERIFY_SEED_0_OUTPUTS_SHA256
