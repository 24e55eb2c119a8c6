"""Record the output gates and machine notes in ``reference.json``.

Run from the root of the checkout whose outputs are the reference:

    python3 perfbench/record.py

It rewrites ``gates`` (sha256 of every preset CSV, and the digest of all
``reports`` outputs for the default seed) and ``machine``; the other
sections of the file are kept as written.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
from run import THREAD_ENV  # noqa: E402

os.environ.update(THREAD_ENV)  # before numpy loads, as in the workload processes

import numpy as np  # noqa: E402

import workloads  # noqa: E402

DEFAULT_SEED = 0


def _lscpu() -> dict:
    out = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
    fields = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
    keep = ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache")
    return {key: fields[key].strip() for key in keep if key in fields}


def main() -> int:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    work = Path.cwd() / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        presets = workloads.Presets(DEFAULT_SEED, Path(tmp), {"preset_csv_sha256": {}})
        if any(code != 0 for code in presets.run_op(0)):
            raise SystemExit("a preset sweep failed")
        csv_sha = presets.csv_digests()
        reports = workloads.Reports(DEFAULT_SEED, Path(tmp), {})
        digests = []
        for k in range(reports.cycle):
            ok, digest = reports.check(k, reports.run_op(k))
            if not ok:
                raise SystemExit(f"reports case {k} failed its check: {reports.cases[k][0]}")
            digests.append(digest)
    try:
        work.rmdir()
    except OSError:
        pass
    reference["gates"] = {
        "preset_csv_sha256": csv_sha,
        "reports_outputs_sha256": {str(DEFAULT_SEED): workloads.outputs_digest(digests)},
    }
    reference["machine"] = {
        "nproc": os.cpu_count(),
        "cpu": _lscpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": THREAD_ENV,
    }
    path.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(reference["gates"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
