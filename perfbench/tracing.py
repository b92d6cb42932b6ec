"""Outside-in tracing of the ctls layers.

The tracer wraps the public functions of each layer from outside the
package.  A function is wrapped where it is defined *and* at every other
binding of the same object inside ``ctls`` (``from .linalg import sym_eigen``
makes ``ctls.estimators.sym_eigen`` a separate name that patching only
``ctls.linalg`` would miss).  :meth:`Tracer.uninstall` restores every
original.

Spans stay in memory as ``[name, start, end, parent, op, child_s, info,
raised]`` lists and are written out once, after the timed loop.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
from time import perf_counter

import numpy as np

#: The wrapped public functions of each layer, by defining module.
LAYERS = {
    "linalg": (
        "sym_eigen",
        "svd",
        "singular_values",
        "matrix_rank",
        "null_space_basis",
        "solve_linear",
        "qr_thin",
        "qr_decompose",
        "cholesky_lower",
        "solve_lower_triangular",
        "solve_upper_triangular",
    ),
    "model": ("generate_model", "observe"),
    "estimators": (
        "build_blocks",
        "precondition_rowcol",
        "tls_solve",
        "ctls_columns",
        "ctls_rows",
        "ctls_rowcol",
        "projection_estimator",
    ),
    "harness": (
        "run_sweep",
        "gram_residuals",
        "naive_ls",
        "ConvergenceTrace.write_json",
        "ConvergenceTrace.write_csv",
    ),
    "fileio": ("read_matrix", "write_matrix"),
    "cli": ("main",),
}

NAME, START, END, PARENT, OP, CHILD_S, INFO, RAISED = range(8)


def rebind_everywhere(replacements: dict) -> list:
    """Point every ``ctls`` module global bound to a key of ``replacements``
    (keyed by ``id``) at its replacement.

    Returns ``(module, attr, original)`` triples for :func:`restore`.
    """
    patches = []
    for modname, mod in list(sys.modules.items()):
        if modname != "ctls" and not modname.startswith("ctls."):
            continue
        for attr, value in list(vars(mod).items()):
            replacement = replacements.get(id(value))
            if replacement is not None:
                patches.append((mod, attr, value))
                setattr(mod, attr, replacement)
    return patches


def restore(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def nominal_flops(name: str, shapes: tuple) -> float:
    """Standard dense operation counts from the argument shapes of one call.

    Counts follow Golub & Van Loan, *Matrix Computations*.  They are computed,
    not measured: each call counts only its own kernel, because a nested
    public call (``solve_linear`` estimating its condition number through
    ``singular_values``) is a span of its own.
    """
    rows, cols = (tuple(shapes[0]) + (1, 1))[:2] if shapes else (1, 1)
    big, small = max(rows, cols), min(rows, cols)
    nrhs = shapes[1][1] if len(shapes) > 1 and len(shapes[1]) == 2 else 1
    fn = name.split(".", 1)[1]
    if fn == "sym_eigen":
        return 9.0 * rows**3
    if fn == "svd":
        return 14.0 * big * small**2 + 8.0 * small**3
    if fn == "singular_values":
        return 4.0 * big * small**2 - 4.0 / 3.0 * small**3
    if fn == "null_space_basis":
        return 4.0 * big * small**2 + 8.0 * small**3
    if fn == "solve_linear":
        return 2.0 / 3.0 * rows**3 + 2.0 * rows**2 * nrhs
    if fn == "qr_thin":
        return 4.0 * rows * cols**2 - 4.0 / 3.0 * cols**3
    if fn == "qr_decompose":
        return 2.0 * cols**2 * (rows - cols / 3.0) + 4.0 * (
            rows**2 * cols - rows * cols**2 + cols**3 / 3.0
        )
    if fn == "cholesky_lower":
        return rows**3 / 3.0
    if fn in ("solve_lower_triangular", "solve_upper_triangular"):
        return float(rows**2 * nrhs)
    return 0.0  # matrix_rank: its singular_values call is counted there


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
        names += [f"{layer}.self_s", f"{layer}.raised"]
    names += [
        "linalg.nominal_gflop",
        "linalg.gflops",
        "harness.trace_write_s",
        "harness.linalg_calls_per_instance",
        "harness.ok_ratio",
        "fileio.read_bytes",
        "fileio.read_mb_per_s",
        "trace.op_p50_s",
        "trace.self_cover_frac",
        "tracing_overhead_frac",
    ]
    return names


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list = []
        self._wrappers: dict | None = None
        self._methods: list = []

    def install(self) -> None:
        """Wrap every traced function; cheap enough to repeat for each op."""
        if self._wrappers is None:
            from ctls.errors import CtlsError

            self._wrappers = {}
            self._methods = []
            for layer, fns in LAYERS.items():
                mod = importlib.import_module(f"ctls.{layer}")
                for qual in fns:
                    owner, attr = mod, qual
                    if "." in qual:
                        cls, attr = qual.split(".")
                        owner = getattr(mod, cls)
                    original = vars(owner)[attr]
                    wrapper = self._wrap(f"{layer}.{qual}", original, CtlsError)
                    if owner is mod:
                        self._wrappers[id(original)] = wrapper
                    else:
                        self._methods.append((owner, attr, original, wrapper))
        self._patches = rebind_everywhere(self._wrappers)
        for owner, attr, original, wrapper in self._methods:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches = []

    def _wrap(self, name: str, fn, error_type):
        spans, stack = self.spans, self._stack
        want_shapes = name.startswith("linalg.")
        want_path = name == "fileio.read_matrix"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            info = None
            if want_shapes:
                info = tuple(np.shape(a) for a in args[:2])
            elif want_path:
                info = args[0]
            span = [name, 0.0, 0.0, parent, self.op_id, 0.0, info, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except error_type:
                span[RAISED] = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span[END] = end
                if parent >= 0:
                    spans[parent][CHILD_S] += end - span[START]

        return wrapper

    def resolve_read_sizes(self, first_span: int) -> None:
        """Replace read paths by file sizes while the op's inputs still exist."""
        for span in self.spans[first_span:]:
            if span[NAME] == "fileio.read_matrix" and isinstance(span[INFO], str):
                span[INFO] = os.path.getsize(span[INFO])

    def summarize(self) -> dict:
        """Per-function calls and self time, per-layer totals and kernel work."""
        out: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                out[f"{layer}.{fn}.calls"] = 0
                out[f"{layer}.{fn}.self_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.raised"] = 0
        flops = read_bytes = read_s = 0.0
        for span in self.spans:
            name = span[NAME]
            layer = name.split(".", 1)[0]
            duration = span[END] - span[START]
            self_s = duration - span[CHILD_S]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{layer}.self_s"] += self_s
            if span[RAISED]:
                parent = span[PARENT]
                if parent < 0 or not self.spans[parent][NAME].startswith(layer + "."):
                    out[f"{layer}.raised"] += 1
            if layer == "linalg":
                flops += nominal_flops(name, span[INFO])
            elif name == "fileio.read_matrix":
                read_bytes += span[INFO]
                read_s += duration
        out["linalg.nominal_gflop"] = flops / 1e9
        linalg_s = out["linalg.self_s"]
        out["linalg.gflops"] = flops / 1e9 / linalg_s if linalg_s > 0 else 0.0
        out["harness.trace_write_s"] = (
            out["harness.ConvergenceTrace.write_json.self_s"]
            + out["harness.ConvergenceTrace.write_csv.self_s"]
        )
        out["fileio.read_bytes"] = read_bytes
        out["fileio.read_mb_per_s"] = read_bytes / 1e6 / read_s if read_s > 0 else 0.0
        out["linalg_calls"] = sum(out[f"linalg.{fn}.calls"] for fn in LAYERS["linalg"])
        return out

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines ``[name, start_s, end_s, parent, op]``, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        [span[NAME], span[START], span[END], span[PARENT], span[OP]]
                    )
                )
                fh.write("\n")
