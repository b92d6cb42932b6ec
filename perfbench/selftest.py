"""Self-test of the benchmark's output check and tracer.

    python3 perfbench/selftest.py

Run from the repository root.  It checks that an estimate perturbed by 1e-3
fails the output check and raises the failed-op count, that unperturbed
estimates pass, and that the tracer restores every binding it patched.
Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import ctls.estimators  # noqa: E402
import ctls.harness  # noqa: E402
import ctls.linalg  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer, rebind_everywhere, restore  # noqa: E402
from worker import run_workload  # noqa: E402

PERTURBATION = 1e-3
ESTIMATORS = (
    "tls_solve", "ctls_columns", "ctls_rows", "ctls_rowcol", "projection_estimator",
)

failures = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def perturb_estimators() -> list:
    """Make every estimator return its estimate plus ``PERTURBATION``."""
    replacements = {}
    for name in ESTIMATORS:
        original = getattr(ctls.estimators, name)

        def perturbed(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            return dataclasses.replace(result, x_hat=result.x_hat + PERTURBATION)

        replacements[id(original)] = perturbed
    return rebind_everywhere(replacements)


def run(name: str, tracer=None, **overrides) -> dict:
    workload = workloads.make(name, **overrides)
    with tempfile.TemporaryDirectory() as workdir:
        return run_workload(workload, 7, 0.0, workdir, tracer, min_ops=workload.checked_ops)


def main() -> int:
    small_csv = {"m": 2000}
    small_sweep = {"m_values": [100, 1000], "trials": 2}

    for name, overrides in (("estimate-csv", small_csv), ("sweep-readme", small_sweep),
                            ("sweep-wide", small_sweep)):
        clean = run(name, **overrides)
        expect(clean["failed"] == 0, f"{name}: unperturbed estimates pass {clean['problems']}")
        patches = perturb_estimators()
        try:
            bad = run(name, **overrides)
        finally:
            restore(patches)
        expect(bad["failed"] == bad["attempted"] == bad["checked_ops"],
               f"{name}: every checked op with a {PERTURBATION:g} perturbation fails "
               f"({bad['failed']}/{bad['attempted']})")
        again = run(name, **overrides)
        expect(again["digest"] == clean["digest"], f"{name}: output digest repeats")

    sym_eigen = ctls.linalg.sym_eigen
    write_json = vars(ctls.harness.ConvergenceTrace)["write_json"]
    tracer = Tracer()
    traced = run("sweep-readme", tracer, **small_sweep)
    expect(ctls.estimators.sym_eigen is ctls.linalg.sym_eigen
           and ctls.linalg.sym_eigen is sym_eigen
           and vars(ctls.harness.ConvergenceTrace)["write_json"] is write_json,
           "tracer restores every patched binding")
    summary = tracer.summarize()
    expect(summary["linalg.sym_eigen.calls"] > 0
           and summary["harness.ConvergenceTrace.write_json.calls"]
           == len(traced["traced_op_times_s"]),
           "tracer sees calls made through re-bound names and methods")
    layer_self = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    traced_s = sum(traced["traced_op_times_s"])
    expect(abs(layer_self - traced_s) < 0.01 * traced_s,
           "per-layer self times add up to the traced op time")
    expect(traced["digest"] == run("sweep-readme", **small_sweep)["digest"],
           "tracing leaves the outputs unchanged")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
