"""Span tracer that times qfiext's public functions from outside the package.

``Tracer.install()`` rebinds every traced function in each ``qfiext`` module
that holds it (``eig_hermitian`` lives in ``linalg`` but is also imported by
``generator``, ``qfi``, ``extensions`` and ``familyfile``), wraps
``HermitianOperator.__post_init__`` for construction, and wraps the ``value``
and ``derivative`` callables of every ``HamiltonianFamily`` as it is built.
Nothing in ``src/qfiext`` is edited.

Each span keeps its name, start, end, parent span, operation and thread.
Spans stay in memory, in typed columns so that a long traced run stays
small, and ``write_spans`` writes them out after the timed loop;
``summarize`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array

# Span names in report order. Each is "<module>.<public name>"; the two
# family spans and the construction span are hooked specially in install().
CONSTRUCTION_SPAN = "linalg.HermitianOperator"
FAMILY_SPANS = ("family.value", "family.derivative")
SPAN_NAMES = (
    "cli.main",
    "sweep.load_preset",
    "sweep.run_sweep",
    "sweep.rows_to_csv",
    "sweep.load_model_family",
    "familyfile.load_definition",
    "familyfile.build_family",
    "models.nv_family",
    "models.direction_family",
    "models.direction_sz_family",
    "models.spin1_matrices",
    "extensions.apply_extension",
    "extensions.tensor_identity",
    *FAMILY_SPANS,
    "generator.generator_spectral",
    "generator.generator_quadrature",
    "generator.generator_fd",
    "qfi.channel_qfi",
    "qfi.upper_bound",
    "qfi.check_saturation",
    "qfi.channel_qfi_brute",
    CONSTRUCTION_SPAN,
    "linalg.eig_hermitian",
    "linalg.expm_unitary",
    "linalg.seminorm",
)
TRACED_FUNCTIONS = tuple(
    tuple(name.split(".")) for name in SPAN_NAMES
    if name != CONSTRUCTION_SPAN and name not in FAMILY_SPANS
)
COUNTERS = (
    ("linalg.eig_hermitian.degenerate_blocks_per_op", "blocks/op"),
    ("generator.generator_quadrature.converged_frac", "1"),
)
# name, array typecode
COLUMNS = (("name", "H"), ("start_ns", "q"), ("end_ns", "q"), ("parent", "q"), ("op", "q"),
           ("thread", "Q"))


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run, as (name, unit) pairs."""
    names = []
    for span in SPAN_NAMES:
        names.append((f"{span}.calls_per_op", "calls/op"))
        names.append((f"{span}.self_ms_per_op", "ms/op"))
    names.extend(COUNTERS)
    names.append(("trace.overhead_frac", "1"))
    return names


class Tracer:
    def __init__(self):
        self.columns = {name: array(code) for name, code in COLUMNS}
        self.op = -1
        self._local = threading.local()
        self._thread = None
        self._eigenvalues: list = []  # (op, eigenvalues) per eig_hermitian call
        self._quadrature: list = []  # (op, converged) per generator_quadrature call

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # Columns are appended without a lock, so only one thread may record.
            if self._thread is not None:
                raise RuntimeError("the tracer records one thread; run qfiext with --jobs 1")
            self._thread = threading.get_ident()
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; an already traced ``fn`` as is."""
        if getattr(fn, "_perfbench_span", None) is not None:
            return fn
        code = SPAN_NAMES.index(name)
        c = self.columns
        names, starts, ends, parents, ops, threads = (c[n] for n, _ in COLUMNS)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            index = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            threads.append(self._thread)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced._perfbench_span = name
        return traced

    def install(self) -> None:
        """Rebind the traced functions in every loaded qfiext module (once per process)."""
        import qfiext.cli  # noqa: F401  (loads every module that gets rebound)
        from qfiext import family, linalg

        modules = [
            m for n, m in list(sys.modules.items()) if n == "qfiext" or n.startswith("qfiext.")
        ]
        hooks = {
            "linalg.eig_hermitian":
                lambda r: self._eigenvalues.append((self.op, r.eigenvalues)),
            "generator.generator_quadrature":
                lambda r: self._quadrature.append((self.op, bool(r.converged))),
        }
        for mod_name, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"qfiext.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            wrapped = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

        linalg.HermitianOperator.__post_init__ = self.wrap(
            CONSTRUCTION_SPAN, linalg.HermitianOperator.__post_init__
        )
        family_init = family.HamiltonianFamily.__post_init__
        value_span, derivative_span = FAMILY_SPANS

        def traced_family_init(fam):
            family_init(fam)
            object.__setattr__(fam, "value", self.wrap(value_span, fam.value))
            object.__setattr__(fam, "derivative", self.wrap(derivative_span, fam.derivative))

        family.HamiltonianFamily.__post_init__ = traced_family_init

    def write_spans(self, path) -> None:
        """A JSON header line, then each column as raw machine-order values."""
        count = len(self.columns["start_ns"])
        header = {"spans": count, "names": SPAN_NAMES, "columns": COLUMNS}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for name, _ in COLUMNS:
                self.columns[name].tofile(fh)

    def counters(self, ops: int) -> dict:
        from qfiext.linalg import degenerate_blocks

        blocks = sum(
            sum(1 for b in degenerate_blocks(w) if len(b) > 1)
            for op, w in self._eigenvalues
            if 0 <= op < ops
        )
        quad = [converged for op, converged in self._quadrature if 0 <= op < ops]
        return {
            "linalg.eig_hermitian.degenerate_blocks_per_op": blocks / ops,
            "generator.generator_quadrature.converged_frac": (
                sum(quad) / len(quad) if quad else 0.0
            ),
        }


def read_spans(path) -> dict:
    """The columns written by ``Tracer.write_spans``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, code in header["columns"]:
            columns[name] = array(code)
            columns[name].fromfile(fh, header["spans"])
    return columns


def summarize(columns: dict, ops: int, speed_factors=None) -> dict:
    """calls_per_op and self_ms_per_op per span name over ops 0..ops-1.

    A span's self time is its duration minus the part its child spans cover,
    multiplied by its operation's speed factor if given. A span's children
    run on its own thread, one after another, so they cover the sum of their
    durations.
    """
    names, starts, ends, parents, op_ids = (
        columns[n] for n in ("name", "start_ns", "end_ns", "parent", "op")
    )
    covered = [0] * len(starts)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
    calls = [0] * len(SPAN_NAMES)
    self_ns = [0.0] * len(SPAN_NAMES)
    for index, op in enumerate(op_ids):
        if not 0 <= op < ops:
            continue
        code = names[index]
        calls[code] += 1
        own = ends[index] - starts[index] - covered[index]
        self_ns[code] += own * (speed_factors[op] if speed_factors else 1.0)
    out = {}
    for code, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls_per_op"] = calls[code] / ops
        out[f"{name}.self_ms_per_op"] = self_ns[code] / ops / 1e6
    return out
