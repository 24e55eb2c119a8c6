"""One workload process: set up, run the closed loop, write a result file.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and the
BLAS/OpenMP thread counts pinned to 1. ``--launched-ns`` is the
CLOCK_MONOTONIC time at which the parent launched this process, so set-up
time covers interpreter start, importing ``qfiext.cli``, loading presets and
generating the inputs.

``--mode setup`` stops at the point where the first timed operation would
start. ``--mode measure`` then runs one client in a closed loop for
``--seconds``: each operation starts when the previous one and its output
check have finished.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from array import array
from pathlib import Path

import calibration
import workloads
from tracer import Tracer


# Calibration kernel time after a set-up, and after each operation as a share
# of that operation's latency (see calibration.py).
SETUP_KERNEL_NS = 20_000_000
KERNEL_SHARE = 0.1


def _monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--launched-ns", type=int, required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, reference["gates"])
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup_s = (_monotonic_ns() - args.launched_ns) / 1e9
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        kernel = calibration.samples(SETUP_KERNEL_NS)
        result["setup_speed_factor"] = calibration.speed_factor(kernel)
    else:
        result.update(_measure(workload, args, reference["gates"], tracer))
        if tracer is not None:
            spans = workdir / "spans.bin"
            tracer.write_spans(spans)
            result["spans"] = str(spans)
            result["counters"] = tracer.counters(result["attempted"])
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _measure(workload, args, gates: dict, tracer) -> dict:
    clock = time.perf_counter_ns
    latencies = array("q")
    speed_factors = array("d")
    failed = 0
    cycle_digests = []
    kernel_before = calibration.samples(0)
    deadline = clock() + int(args.seconds * 1e9)
    k = 0
    while True:
        workload.before_op(k)
        if tracer is not None:
            tracer.op = k
        start = clock()
        raw = workload.run_op(k)
        end = clock()
        if tracer is not None:
            tracer.op = -1
        ok, digest = workload.check(k, raw)
        kernel_after = calibration.samples(int(KERNEL_SHARE * (end - start)))
        speed_factors.append(calibration.speed_factor(kernel_before + kernel_after))
        kernel_before = kernel_after
        latencies.append(end - start)
        failed += not ok
        if k < workload.cycle:
            cycle_digests.append(digest)
        k += 1
        if end >= deadline:
            break

    # The default seed's reports outputs must hash to the recorded digest.
    outputs_digest = None
    if len(cycle_digests) == workload.cycle:
        outputs_digest = workloads.outputs_digest(cycle_digests)
        expected = gates.get(f"{args.workload}_outputs_sha256", {}).get(str(args.seed))
        if expected is not None and expected != outputs_digest:
            failed = max(failed, workload.cycle)
    return {
        "attempted": k,
        "failed": failed,
        "points": k * workload.points_per_op,
        "latencies_ns": latencies.tolist(),
        "speed_factors": speed_factors.tolist(),
        "cycle_digests": cycle_digests,
        "outputs_digest": outputs_digest,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    raise SystemExit(main())
