"""Compare a base revision with the working tree in alternating benchmark pairs.

    python3 scripts/bench_pairs.py --workload sweep-readme --base HEAD --pairs 10
    python3 scripts/bench_pairs.py --workload sweep-readme sweep-wide estimate-csv

Writes the files of the base revision into a temporary directory with
``git archive``, and the working tree's files (its tracked files and the
untracked ones git does not ignore, uncommitted changes included) into
another, so the two sides differ in their code alone, not in where they
live or what build products lie beside them.  Then, for each ``--workload``
in turn, it runs ``perfbench/run.py --trace 0`` from each copy in turn,
``--pairs`` times.  Pair ``i`` gives
both sides the seed ``--seed + i`` and swaps which side runs first on every
other pair, so a slow phase of a shared machine lands on both sides; each
pair's ``op_p50_s`` and ``setup_s`` are printed as it ends.  For
each workload and each end-to-end metric of the working tree's
``BENCHMARK.json`` it prints the median and quartiles on each side, the pairs
the working tree won and a verdict: a gain holds when the working tree wins
at least nine tenths of the pairs and the medians differ in its favour by
more than the base's interquartile range.  Then it prints whether the output
digests of each pair were equal and the CPUs each side could use
(``provenance.nproc``), with a warning for every pair whose sides differ:
``ctls sweep`` runs one process per available CPU, so its gain scales with
them.  The temporary directories are removed at the end, also on SIGINT,
SIGTERM or a run's timeout, which kill the running run's process group.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
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


def copy_working_tree(root: str, dest: str) -> None:
    """The tracked and the untracked, not ignored files of ``root``, as they
    are on disk, into ``dest``."""
    names = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(names.split("\0")) - {""}):
        path = os.path.join(root, name)
        if os.path.isfile(path):  # not a deleted file still in the index
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(path, os.path.join(dest, name))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from ``tree``: its metrics, digest and CPUs."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    # In its own session, so that killing its process group on a timeout or
    # a signal also stops the worker.py that it starts.
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=seconds + RUN_SLACK_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group has exited
            pass
        proc.wait()
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n{stderr}")
    lines = stdout.splitlines()
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


def report(workload: str, runs: dict[str, list[dict]], spec: list[dict]) -> None:
    """The table of one workload's pairs, with a verdict line per metric."""
    pairs = len(runs["base"])
    print(f"\n{workload}, {pairs} pairs: median [q1, q3] base -> change, "
          "pairs the change won")
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [r["metrics"][name] for r in runs["base"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        (bm, b1, b3), (cm, c1, c3) = spread(base), spread(change)
        ratio = f"{cm / bm - 1:+.1%}" if bm else "n/a"
        print(f"  {name:12} {bm:.4g} [{b1:.4g}, {b3:.4g}] -> {cm:.4g} [{c1:.4g}, {c3:.4g}] "
              f"{metric['unit']}  {ratio}  wins {wins}/{pairs}")
        # A gain: nine tenths of the pairs won, ties counting for neither side,
        # and a median gap in the change's favour wider than the base's IQR.
        gain = (cm - bm) if higher else (bm - cm)
        held = 10 * wins >= 9 * pairs and gain > b3 - b1
        print(f"  {'':12} {'gain' if held else 'no gain'}: {wins}/{pairs} wins, "
              f"{-(-9 * pairs // 10)} needed; median gain {gain:.4g} "
              f"{'>' if gain > b3 - b1 else '<='} base IQR {b3 - b1:.4g}")
    same = sum(b["digest"] == c["digest"] for b, c in zip(runs["base"], runs["change"]))
    correct = sum(r["correct"] for side in runs.values() for r in side)
    print(f"output digests equal in {same}/{pairs} pairs; "
          f"correct in {correct}/{2 * pairs} runs")
    print(f"nproc base {sorted({r['nproc'] for r in runs['base']})}, "
          f"change {sorted({r['nproc'] for r in runs['change']})}")
    for i, (b, c) in enumerate(zip(runs["base"], runs["change"]), start=1):
        if b["nproc"] != c["nproc"]:
            print(f"warning: pair {i} ran on {b['nproc']} CPUs for the base and "
                  f"{c['nproc']} for the change; sweep times scale with the CPUs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, action="extend", nargs="+",
                        help="one or more workloads, run one after another")
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

    # SIGTERM exits like SIGINT does, through the finally clauses that stop
    # the running pair and remove the temporary directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    base_tree, change_tree = os.path.join(scratch, "base"), os.path.join(scratch, "change")
    runs = {workload: {"base": [], "change": []} for workload in args.workload}
    try:
        revision = git(here, "rev-parse", "--short", args.base)
        os.makedirs(base_tree)
        archive = subprocess.run(["git", "-C", here, "archive", revision],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        copy_working_tree(here, change_tree)
        print(f"base {args.base} ({revision}) against the working tree {here}")
        for workload, sides in runs.items():
            for i in range(args.pairs):
                seed = args.seed + i
                order = [("base", base_tree), ("change", change_tree)]
                if i % 2:
                    order.reverse()
                for side, tree in order:
                    sides[side].append(run_once(tree, workload, seed, args.seconds))
                base, change = sides["base"][-1]["metrics"], sides["change"][-1]["metrics"]
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {order[0][0]} first: "
                      + ", ".join(f"{name} {base[name]:.4g} -> {change[name]:.4g}"
                                  for name in ("op_p50_s", "setup_s")), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for workload, sides in runs.items():
        report(workload, sides, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
