"""Compare a base revision with the working tree in alternating benchmark pairs.

    python3 scripts/bench_pairs.py --workload sweep-readme --base HEAD --pairs 10

Writes the files of the base revision into a temporary directory with
``git archive``, then runs ``perfbench/run.py --trace 0`` from that tree and from
the working tree (uncommitted changes included) in turn, ``--pairs`` times.
Pair ``i`` gives both sides the seed ``--seed + i`` and swaps which side runs
first on every other pair, so a slow phase of a shared machine lands on both
sides.  For each end-to-end metric of the working tree's ``BENCHMARK.json``
it prints the median and quartiles on each side and the pairs the working
tree won, then whether the output digests of each pair were equal and the
CPUs each side could use (``provenance.nproc``), with a warning for every
pair whose sides differ: ``ctls sweep`` runs one process per available CPU,
so its gain scales with them.  The temporary directory is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

#: Grace beyond ``--seconds`` for one run's set-up timing, inputs and checks.
RUN_SLACK_S = 180


def git(root: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", root, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from ``tree``: its metrics, digest and CPUs."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=seconds + RUN_SLACK_S)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    result_path = next(line.split(": ", 1)[1] for line in lines
                       if line.startswith("full result: "))
    with open(os.path.join(tree, result_path), encoding="utf-8") as fh:
        result = json.load(fh)
    values = {name: entry["value"] for name, entry in summary["metrics"].items()}
    return {"metrics": values, "correct": summary["correct"], "digest": result["digest"],
            "nproc": result["provenance"]["nproc"]}


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    here = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    with open(os.path.join(here, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["end_to_end"]

    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    base_tree = os.path.join(scratch, "base")
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    try:
        revision = git(here, "rev-parse", "--short", args.base)
        os.makedirs(base_tree)
        archive = subprocess.run(["git", "-C", here, "archive", revision],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        print(f"base {args.base} ({revision}) against the working tree {here}")
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("base", base_tree), ("change", here)]
            if i % 2:
                order.reverse()
            for side, tree in order:
                runs[side].append(run_once(tree, args.workload, seed, args.seconds))
            base, change = runs["base"][-1], runs["change"][-1]
            print(f"pair {i + 1}/{args.pairs} seed {seed} {order[0][0]} first: "
                  f"op_p50_s {base['metrics']['op_p50_s']:.4g} -> "
                  f"{change['metrics']['op_p50_s']:.4g}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"\n{args.workload}, {args.pairs} pairs: median [q1, q3] base -> change, "
          "pairs the change won")
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [r["metrics"][name] for r in runs["base"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        (bm, b1, b3), (cm, c1, c3) = spread(base), spread(change)
        ratio = f"{cm / bm - 1:+.1%}" if bm else "n/a"
        print(f"  {name:12} {bm:.4g} [{b1:.4g}, {b3:.4g}] -> {cm:.4g} [{c1:.4g}, {c3:.4g}] "
              f"{metric['unit']}  {ratio}  wins {wins}/{args.pairs}")
    same = sum(b["digest"] == c["digest"] for b, c in zip(runs["base"], runs["change"]))
    correct = sum(r["correct"] for side in runs.values() for r in side)
    print(f"output digests equal in {same}/{args.pairs} pairs; "
          f"correct in {correct}/{2 * args.pairs} runs")
    print(f"nproc base {sorted({r['nproc'] for r in runs['base']})}, "
          f"change {sorted({r['nproc'] for r in runs['change']})}")
    for i, (b, c) in enumerate(zip(runs["base"], runs["change"]), start=1):
        if b["nproc"] != c["nproc"]:
            print(f"warning: pair {i} ran on {b['nproc']} CPUs for the base and "
                  f"{c['nproc']} for the change; sweep times scale with the CPUs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
