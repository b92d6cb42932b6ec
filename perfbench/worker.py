"""Run one workload in a fresh interpreter and write its raw result as JSON.

``run.py`` starts this script with the BLAS thread variables pinned to 1; it
pins them again here before numpy is imported.  The loop is closed, with one
client: the next operation starts when the previous one has returned.  Only
the ``ctls.cli.main(argv)`` call of each operation is timed.

    python3 perfbench/worker.py --root . --workload sweep-wide --seed 1 \\
        --seconds 10 --traced 0 --result out.json
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Enough operations for a tail percentile with ten samples beyond it.
MIN_OPS = 11


def run_workload(workload, seed: int, seconds: float, workdir: str,
                 tracer=None, min_ops: int = MIN_OPS) -> dict:
    """Closed-loop run of ``workload`` for ``seconds``, then the output checks.

    With a tracer, the odd ops run traced and the even ones untraced, so that
    the tracing overhead compares ops run under the same machine conditions.
    """
    import ctls.cli

    times, traced_times, outcomes, checked = [], [], [], []
    digest = hashlib.sha256()
    deadline = perf_counter() + seconds
    index = 0
    while index < max(min_ops, workload.checked_ops) or perf_counter() < deadline:
        op = workload.prepare(index, seed, workdir)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.op_id = index
            first_span = len(tracer.spans)
            tracer.install()
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                try:
                    rc = ctls.cli.main(op.argv)
                except Exception:  # a crash is a failed op, not a dead run
                    rc = -1
                    traceback.print_exc()
                (traced_times if traced else times).append(perf_counter() - start)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tracer.resolve_read_sizes(first_span)
        outcome, output = workload.finish(op, rc, out.getvalue())
        if rc != 0:
            outcome.problems.append(err.getvalue().strip()[-500:])
        outcomes.append(outcome)
        if index < workload.checked_ops:
            digest.update(output)
            checked.append(op)
        else:
            workload.cleanup(op)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op in checked:
        try:
            problems = workload.check(op)
        except Exception as exc:  # noqa: BLE001 - any crash fails the check
            problems = [f"op {op.index}: check raised {type(exc).__name__}: {exc}"]
        workload.cleanup(op)
        if problems:
            outcomes[op.index].ok = False
            outcomes[op.index].problems += problems

    errors: dict[str, list[float]] = {}
    for o in outcomes:
        for name, values in o.errors.items():
            errors.setdefault(name, []).extend(values)
    return {
        "op_times_s": times,
        "traced_op_times_s": traced_times,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "problems": [p for o in outcomes for p in o.problems][:20],
        "rows": sum(o.rows for o in outcomes),
        "trials": sum(o.trials for o in outcomes),
        "trials_ok": sum(o.trials_ok for o in outcomes),
        "traced_instances": len(traced_times) * workload.instances_per_op,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
        "checked_ops": len(checked),
    }


def environment() -> dict:
    """Where the run happened: library versions, BLAS, threads, CPUs, cache."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = None
    llc_path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    if os.path.exists(llc_path):
        with open(llc_path, encoding="utf-8") as fh:
            llc = fh.read().strip()
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("CTLS_THREADS",)},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "llc": llc,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args()

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CTLS_THREADS", None)
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    import ctls

    if not os.path.abspath(ctls.__file__).startswith(os.path.join(root, "src")):
        print(f"error: imported ctls from {ctls.__file__}, not {root}/src", file=sys.stderr)
        return 1

    import workloads
    from tracing import Tracer

    workload = workloads.make(args.workload)
    tracer = Tracer() if args.traced else None
    workdir = args.result + ".work"
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result = run_workload(workload, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["environment"] = environment()
    if tracer is not None:
        result["layers"] = tracer.summarize()
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
