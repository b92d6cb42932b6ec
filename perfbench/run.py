"""Outside-in benchmark of the ctls CLI.

    python3 perfbench/run.py --workload sweep-readme --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each workload runs in a fresh interpreter
(``worker.py``) with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1 and ``CTLS_THREADS`` unset, as a closed loop
with one client.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json from an untraced run; ``--trace 1`` traces every other
operation and reports the per-layer metrics, with the tracing overhead taken
against the untraced operations in between.  Every metric
is printed by name with its unit; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full result, with
its provenance header, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"
os.environ.pop("CTLS_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import per_layer_names  # noqa: E402
from workloads import WORKLOADS, config_hash  # noqa: E402

#: Fresh interpreters started per run to time set-up, half before and half
#: after the workload, so that one slow phase of a shared machine does not
#: set the median.
SETUP_SAMPLES = 12
SETUP_CODE = "import ctls.cli; ctls.cli._build_parser()"

#: A worker gets this long beyond its measuring time for inputs and checks.
WORKER_SLACK_S = 60


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict, count: int) -> list[float]:
    """Wall time of fresh interpreters through ``import ctls`` and the parser."""
    samples = []
    for _ in range(count):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env)
        # Block in wait(): wait(timeout) polls with sleeps of up to 50 ms,
        # which would round every sample up to the polling schedule.
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
        samples.append(perf_counter() - start)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, SETUP_CODE)
    return samples


def run_worker(root, env, workload, seed, seconds, traced, out_prefix) -> dict:
    result_path = f"{out_prefix}.worker.json"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--root", root, "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--traced", str(int(traced)),
        "--result", result_path,
    ]
    if traced:
        cmd += ["--spans", f"{out_prefix}.spans.jsonl.gz"]
    subprocess.run(cmd, env=env, check=True, timeout=seconds + WORKER_SLACK_S)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``; with ten samples or fewer
    it falls back to the maximum.
    """
    ordered = sorted(times)
    rank = len(ordered) - 10
    if rank < 1:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def err_median(errors: dict[str, list[float]]) -> float:
    """Geometric mean over estimators of each one's median ``|X_hat - X_true|_F``.

    Estimators differ in accuracy by a factor of five here (the ones that
    ignore the exact columns are worse), so pooling them in one median would
    put it in the gap between the groups.
    """
    medians = [statistics.median(v) for v in errors.values() if v]
    if not medians:
        return 0.0
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


def end_to_end(setup: list[float], res: dict) -> dict:
    times = res["op_times_s"]
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail(times)[0],
        "rows_per_s": res["rows"] / sum(times),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
        "err_median": err_median(res["errors"]),
    }


def per_layer(res: dict) -> dict:
    layers = dict(res["layers"])
    traced_p50 = statistics.median(res["traced_op_times_s"])
    untraced_p50 = statistics.median(res["op_times_s"])
    self_total = sum(v for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s"))
    instances = res["traced_instances"]
    layers["harness.linalg_calls_per_instance"] = (
        layers["linalg_calls"] / instances if instances else 0.0
    )
    layers["harness.ok_ratio"] = res["trials_ok"] / res["trials"] if res["trials"] else 0.0
    layers["trace.op_p50_s"] = traced_p50
    layers["trace.self_cover_frac"] = self_total / sum(res["traced_op_times_s"])
    layers["tracing_overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50
    return {name: layers[name] for name in per_layer_names()}


def git_state(root: str) -> dict:
    if not os.path.isdir(os.path.join(root, ".git")):
        return {"revision": None, "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", root, *args], capture_output=True, text=True, timeout=30
        ).stdout.strip()

    return {"revision": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def main() -> int:
    parser = argparse.ArgumentParser(description="Outside-in benchmark of the ctls CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ctls", "cli.py")):
        print(f"error: no ctls sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = pinned_env(root)

    if args.trace:
        res = run_worker(root, env, args.workload, args.seed, args.seconds, True, prefix)
        metrics = per_layer(res)
    else:
        setup = measure_setup(env, SETUP_SAMPLES // 2)
        res = run_worker(root, env, args.workload, args.seed, args.seconds, False, prefix)
        setup += measure_setup(env, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        metrics = end_to_end(setup, res)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {names}",
              file=sys.stderr)
        return 2

    attempted, failed = res["attempted"], res["failed"]
    times = res["op_times_s"]
    _, pct, beyond = tail(times)
    result = {
        "provenance": {
            **res["environment"],
            **git_state(root),
            "seed": args.seed,
            "workload": args.workload,
            "config_hashes": {name: config_hash(cfg) for name, (_, cfg) in WORKLOADS.items()},
            "load": "closed loop, one client, one operation at a time",
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "op_tail": {"percentile": pct, "samples_beyond": beyond, "samples": len(times)},
        "digest": res["digest"],
        "checked_ops": res["checked_ops"],
        "problems": res["problems"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "linalg_note": (
            "linalg.nominal_gflop and linalg.gflops are computed from argument "
            "shapes with standard dense counts, not measured; the arrays (at most "
            "about 10 MB) fit in the last-level cache, so no bandwidth is claimed"
        ),
    }
    with open(prefix + ".result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    prov = result["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(times)}  attempted {attempted}  failed {failed}")
    print(f"numpy {prov['numpy']}  blas {prov['blas_name']} {prov['blas_version']}  "
          f"python {prov['python']}  nproc {prov['nproc']}  threads {prov['threads']}")
    print(f"git {prov['revision']} dirty={prov['dirty']}  "
          f"config {prov['config_hashes'][args.workload][:16]}")
    print(f"op_tail_s is p{pct:.1f} of {len(times)} ops ({beyond} beyond)  "
          f"output digest {res['digest'][:16]}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"full result: {os.path.relpath(prefix + '.result.json', root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
