"""Machine-speed calibration for a shared, noisy CPU.

On the 2-core VM this benchmark was written on, the same work runs at
visibly different speeds for tens of seconds at a time (other tenants
share the physical cores): one ``reports`` call took a median 1.5 ms in one
stretch and 2.3 ms in the next, with the program unchanged. A fixed kernel
timed next to each operation slows down by the same factor: the ratio of
operation time to kernel time varied about 3% where the raw time varied
about 19% (coefficient of variation over 0.3 s windows of a 80 s run).

So every operation's latency is also reported scaled by
``REFERENCE_SAMPLE_NS / local kernel time``: the time it would take on a
machine where one kernel sample takes exactly ``REFERENCE_SAMPLE_NS``. The
kernel mixes interpreted Python with small numpy calls, like qfiext does,
and never calls qfiext, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# One kernel sample measured about this long in the machine's fast stretches.
REFERENCE_SAMPLE_NS = 70_000


def _hermitian(rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return (x + x.conj().T) / 2


_rng = np.random.default_rng(20170310)
_MATRICES = tuple(_hermitian(_rng) for _ in range(6))


def sample() -> int:
    """Run the fixed kernel once and return its wall time in nanoseconds."""
    start = time.perf_counter_ns()
    acc = 0.0
    for m in _MATRICES:
        w, v = np.linalg.eigh(m)
        acc += float(w[-1] - w[0]) + abs(complex(v[0, 0]))
    for i in range(400):
        acc += (i % 7) * 0.5
    if not acc > 0.0:
        raise AssertionError("calibration kernel misbehaved")
    return time.perf_counter_ns() - start


def samples(budget_ns: int) -> list[int]:
    """Kernel samples for about ``budget_ns`` of wall time (at least one)."""
    out = [sample()]
    spent = out[0]
    while spent < budget_ns:
        out.append(sample())
        spent += out[-1]
    return out


def speed_factor(kernel_ns: list[int]) -> float:
    """Multiply a measured time by this to express it at reference speed."""
    return REFERENCE_SAMPLE_NS / statistics.median(kernel_ns)
