#!/usr/bin/env python3
"""Hash every output of the estimators on a fixed grid of instances.

    python3 scripts/output_digest.py              # one digest for the working tree
    python3 scripts/output_digest.py --cases      # one digest per case
    python3 scripts/output_digest.py --base HEAD  # compare with a revision

A case is one seeded instance: a partition (j, k) of n = 4 left and
ell = 2 right columns, a design, a noise kind and a row count m.  On each
case every estimator that accepts the partition (all three ``mu_rule``\\ s of
the projection estimator included) runs on one fresh instance in forward
order and on another in reverse order.  The digest covers ``x_hat``,
``sigma2_hat``, ``smallest_eigs``, ``mu`` and every ``Diagnostics`` field,
or the error type name where an estimator raises.  ``gram_residuals`` is
hashed after a successful ``projection`` or ``ctls_rowcol``, the only place
a sweep calls it, with the ground truth's Gram matrix from whole-column
products (``RegressionModel.truth_gram``).  Further cases hash instances
with rank-deficient exact rows and with a zero exact corner, the
``run_sweep`` traces of five partitions, and the exit code, stdout, stderr
and X file of ``ctls estimate`` for every method on CSV files written with
LF, with CRLF and with blank lines, both below and above the size at which
the reader splits a file, and on a B malformed in its second half, a missing
B, a B one row short and with a CSV ``--sigma-cov``.  A sweep trace is two cases: ``sweep/jXkY``
without and ``sweep/jXkY/residuals`` with only the Gram-residual fields of
its records and their medians, whose ground truth a sweep sums by chunks.
Two noise-free grid-design sweeps gate how a stacked sweep handles each
slice: in ``sweep/grid-n18-failed`` every ``naive_ls`` record fails with
NearSingularError, in ``sweep/grid-n16-flagged`` every other record carries
the ``eig_gap_degenerate`` flag.  The ``sweep/large/<noise>`` cases are
one-trial sweeps (n = 10, ell = 2, j = 2, k = 3) of ``2 * CHUNK_ROWS + 5``
rows, whose instances are sampled in three chunks, on two CPUs where the
affinity mask has them.  The ``stack/jXkY/<run>`` cases gate a
stacked call with failing slices: a stack of healthy instances interleaved
with ones that fail at different stages (the mixed stacks of
``tests/test_stacks.py``), run once by every sweep estimator that takes the
partition, by the projection estimator under each ``mu_rule`` and by
``gram_residuals``; each slice's result, or its error type and message, is
hashed.

``--base REV`` writes the ``src/`` files of ``REV`` into a temporary
directory with ``git show``, runs this script on them and on the working tree
(uncommitted changes included) and names every case whose digest differs.
It prints the line count of both trees' ``src/`` Python files and exits 1
if any case differs.  ``gram_residuals`` took the model, not its
Gram matrix, in trees without ``RegressionModel.truth_gram``; both forms run.

Digests depend on the numpy and BLAS build, so they are compared between
two trees on one machine, never against a stored value.  The BLAS thread
count is pinned to 1.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

#: (j, k) partitions of the instance grid; (1, 0) multiplies ``x_hat`` with
#: a single exact row, where products round by the layout of ``x_hat``.
PARTITIONS = ((0, 0), (0, 2), (2, 0), (1, 0), (1, 1), (2, 3), (3, 1), (1, 3), (3, 3))
#: The Gram-residual fields of a sweep record and of a cell's aggregates.
RESIDUAL_KEYS = ("shifted_gram_residual", "projected_gram_residual",
                 "median_shifted_gram", "median_projected_gram")
M_VALUES = (30, 300, 2000, 16641)
N, ELL, SIGMA = 4, 2, 0.3
SWEEP_PARTITIONS = ((0, 0), (0, 2), (2, 0), (1, 1), (2, 3))
#: Noise-free grid-design sweeps: (case, n, ell, j, k).
GRID_SWEEPS = (("sweep/grid-n18-failed", 18, 1, 0, 0), ("sweep/grid-n16-flagged", 16, 2, 1, 1))
#: ``ctls estimate`` row counts: B.csv is about 40 kB and 1.2 MB, A.csv twice
#: that, so both larger files split into spans on a machine with 2 or more CPUs.
ESTIMATE_ROWS = (1000, 30000)
#: The failures mixed into the ``stack/*`` cases, by (j, k); each slice has
#: n = 4, ell = 2, m = 80 and noise level ``STACK_SIGMA``.
STACK_FAILURES = {
    (2, 1): ("rankdef-rows", "zero-column", "zero-corner", "zero-fixed-column"),
    (0, 1): ("zero-column", "zero-fixed-column"),
    (2, 0): ("rankdef-rows", "zero-column"),
}
STACK_SIGMA = 0.2
ESTIMATE_METHODS = (("tls", 0, 0), ("ctls-cols", 0, 2), ("ctls-rows", 2, 0),
                    ("ctls-rowcol", 2, 2), ("projection", 2, 2))
#: CSV layouts: LF, CRLF, and a blank line after each row with a blank tail
#: as long as the rows, so the last span holds blank lines only.
CSV_LAYOUTS = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "blank": lambda text: text.replace("\n", "\n\n") + "\n" * len(text),
}


def case_digests() -> list[tuple[str, str]]:
    """``(case, sha256)`` for every case, in a fixed order."""
    import warnings

    import numpy as np

    from ctls import estimators as est
    from ctls import harness
    from ctls.errors import CtlsError, EstimatorWarning
    from ctls.fileio import format_csv
    from ctls.harness import SweepConfig, gram_residuals, naive_ls, run_sweep
    from ctls.linalg import CHUNK_ROWS
    from ctls.model import (
        DesignKind,
        NoiseKind,
        ObservedData,
        PartitionSpec,
        generate_model,
        observe,
    )

    def residuals_of(model, data) -> dict:
        if not hasattr(model, "truth_gram"):  # a tree before sample_instance
            return gram_residuals(model, data)
        return gram_residuals(model.truth_gram(), model.sigma, data)

    def runs_for(p: PartitionSpec) -> dict:
        runs = {"naive_ls": naive_ls, "tls": est.tls_from_data,
                "ctls_rowcol": est.ctls_rowcol}
        if p.j == 0 and 0 < p.k < p.n:
            runs["ctls_columns"] = est.ctls_columns
        if p.k == 0 and p.j > 0:
            runs["ctls_rows"] = est.ctls_rows
        for rule in est.MU_RULES:
            runs[f"projection_{rule}"] = (
                lambda d, rule=rule: est.projection_estimator(d, mu_rule=rule))
        return runs

    def encode(value) -> str:
        if value is None or isinstance(value, (str, int, float, list)):
            return repr(value)
        arr = np.asarray(value, dtype=float)
        return f"{arr.shape}:{np.ascontiguousarray(arr).tobytes().hex()}"

    def describe(result) -> str:
        if isinstance(result, dict):  # gram_residuals
            return repr(sorted(result.items()))
        diag = result.diagnostics
        parts = [encode(result.x_hat), repr(result.sigma2_hat),
                 encode(result.smallest_eigs), repr(result.mu)]
        parts += [f"{f.name}={encode(getattr(diag, f.name))}"
                  for f in dataclasses.fields(diag)]
        return "|".join(parts)

    def outcome(fn, data) -> tuple[bool, str]:
        try:
            result = fn(data)
        except CtlsError as exc:
            return False, type(exc).__name__
        return True, describe(result)

    def mutated(j: int, k: int, name: str, seed: int):
        """A row-built instance in which ``name`` fails, and its model's Gram matrix."""
        p = PartitionSpec(j=j, k=k, n=N, ell=ELL, m=80)
        model = generate_model(p, STACK_SIGMA, seed)
        data = observe(model, seed + 50)
        a, b = data.a.copy(), data.b.copy()
        if name == "rankdef-rows":
            a[1], b[1] = 3.0 * a[0], 3.0 * b[0]
        elif name == "zero-column":
            a[:, 3] = 0.0
        elif name == "zero-fixed-column":
            a[:, 0] = 0.0
        elif name == "zero-corner":
            a[:j, :k] = 0.0
        return ObservedData(a=a, b=b, partition=p), model.truth_gram()

    def instance_lines(model, data_of) -> list[str]:
        """Every run on one fresh instance per call order."""
        runs = runs_for(model.partition)
        lines = []
        for order in (list(runs), list(reversed(runs))):
            data = data_of()
            residuals = False
            for name in order:
                ok, line = outcome(runs[name], data)
                residuals |= ok and name in ("ctls_rowcol", "projection_mean")
                lines.append(f"{name}: {line}")
            if residuals:
                _, line = outcome(lambda d: residuals_of(model, d), data)
                lines.append(f"gram_residuals: {line}")
        return lines

    cases = []
    for design in DesignKind:
        for noise in NoiseKind:
            for j, k in PARTITIONS:
                for m in M_VALUES:
                    p = PartitionSpec(j=j, k=k, n=N, ell=ELL, m=m)
                    seed = 1000 * j + 100 * k + m
                    model = generate_model(p, SIGMA, seed, design)
                    lines = instance_lines(model, lambda: observe(model, seed + 1, noise))
                    cases.append((f"{design.value}/{noise.value}/j{j}k{k}/m{m}", lines))

    # Hand-built exact rows: dependent rows of [A | B], dependent rows of A
    # only, and an exact corner of zeros.
    for name, j, k in (("rankdef-ab", 2, 0), ("rankdef-ab", 2, 1), ("rankdef-a", 2, 1),
                       ("zero-corner", 1, 1), ("zero-corner", 2, 2)):
        p = PartitionSpec(j=j, k=k, n=N, ell=ELL, m=300)
        model = generate_model(p, SIGMA, 17 + j + k)
        data = observe(model, 18 + j + k)
        a, b = data.a.copy(), data.b.copy()
        if name.startswith("rankdef"):
            a[1] = 3.0 * a[0]
            b[1] = 3.0 * b[0] if name == "rankdef-ab" else b[0] + 1.0
        else:
            a[:j, :k] = 0.0
        model = dataclasses.replace(model, a_bar=np.vstack([a[:j], model.a_bar[j:]]),
                                    b_bar=np.vstack([b[:j], model.b_bar[j:]]))
        lines = instance_lines(model, lambda: ObservedData(a=a.copy(), b=b.copy(), partition=p))
        cases.append((f"{name}/j{j}k{k}", lines))

    for j, k in SWEEP_PARTITIONS:
        names = [n for n in ("naive_ls", "tls", "ctls_columns", "ctls_rows",
                             "ctls_rowcol", "projection")
                 if (n != "ctls_columns" or (j == 0 and 0 < k < N))
                 and (n != "ctls_rows" or (k == 0 and j > 0))]
        config = SweepConfig(n=N, ell=ELL, j=j, k=k, m_values=(50, 500, 5000), trials=3,
                             sigma=SIGMA, estimators=tuple(names), base_seed=99)
        trace = run_sweep(config).to_json_dict()
        cells = trace["records"] + [stats for per_m in trace["aggregates"].values()
                                    for stats in per_m.values()]
        residuals = [{key: cell.pop(key) for key in RESIDUAL_KEYS if key in cell}
                     for cell in cells]
        cases.append((f"sweep/j{j}k{k}", [json.dumps(trace, sort_keys=True)]))
        cases.append((f"sweep/j{j}k{k}/residuals", [json.dumps(residuals, sort_keys=True)]))

    for name, n, ell, j, k in GRID_SWEEPS:
        config = SweepConfig(n=n, ell=ell, j=j, k=k, m_values=(50, 500), trials=3, sigma=0.0,
                             estimators=("naive_ls", "tls", "ctls_rowcol", "projection"),
                             base_seed=7, design=DesignKind.FIXED_GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimatorWarning)
            trace = run_sweep(config).to_json_dict()
        cases.append((name, [json.dumps(trace, sort_keys=True)]))

    for noise in NoiseKind:
        config = SweepConfig(n=10, ell=2, j=2, k=3, m_values=(2 * CHUNK_ROWS + 5,), trials=1,
                             sigma=SIGMA, estimators=("naive_ls", "tls", "ctls_rowcol", "projection"),
                             base_seed=5, noise=noise)
        trace = run_sweep(config).to_json_dict()
        cases.append((f"sweep/large/{noise.value}", [json.dumps(trace, sort_keys=True)]))

    for (j, k), failures in STACK_FAILURES.items():
        names = ["healthy", *failures]
        names = [name for pair in zip(names, ["healthy"] * len(names)) for name in pair]
        datas, grams = zip(*(mutated(j, k, name, seed) for seed, name in enumerate(names)))
        parts = [(*d.exact_rows, d.r_noisy, d.r_all) for d in datas]
        exact_a, exact_b, r_noisy, r_all = (np.stack(x) for x in zip(*parts))
        stack = ObservedData.stacked(exact_a, exact_b, datas[0].partition, r_noisy, r_all)
        runs = {name: fn for name, fn in harness.ESTIMATORS.items()
                if name != "projection" and harness._compatible(name, j, k, N)}
        for rule in est.MU_RULES:
            runs[f"projection_{rule}"] = (
                lambda d, rule=rule: est.projection_estimator(d, mu_rule=rule))
        runs["gram_residuals"] = lambda d: gram_residuals(np.stack(grams), STACK_SIGMA, d)
        for name, run in runs.items():
            lines = [f"{s}: {type(out).__name__}: {out}" if isinstance(out, CtlsError)
                     else f"{s}: {describe(out)}" for s, out in enumerate(run(stack))]
            cases.append((f"stack/j{j}k{k}/{name}", lines))

    # ``ctls estimate`` on CSV files in three layouts, below and above the
    # size at which the reader splits a file into spans.
    for m in ESTIMATE_ROWS:
        p = PartitionSpec(j=2, k=2, n=N, ell=ELL, m=m)
        model = generate_model(p, SIGMA, 41 + m)
        data = observe(model, 42 + m)
        for layout, relayout in CSV_LAYOUTS.items():
            with tempfile.TemporaryDirectory() as tmp:
                for name, mat in (("A.csv", data.a), ("B.csv", data.b)):
                    with open(os.path.join(tmp, name), "w", encoding="utf-8", newline="") as fh:
                        fh.write(relayout(format_csv(mat)))
                cases.append((f"estimate/{layout}/m{m}", estimate_lines(tmp)))
        # Error paths and a CSV --sigma-cov; the cov fits the methods with k = 2.
        b_lines = format_csv(data.b).splitlines(keepends=True)
        bad_b = b_lines[:]
        bad_b[3 * m // 4] = "0.5,oops\n"
        cov = 0.09 * np.eye(4) + 0.01
        variants = {"bad-b": {"B.csv": "".join(bad_b)}, "missing-b": {},
                    "short-b": {"B.csv": "".join(b_lines[:-1])},
                    "sigma-cov": {"B.csv": "".join(b_lines), "cov.csv": format_csv(cov)}}
        for name, files in variants.items():
            with tempfile.TemporaryDirectory() as tmp:
                for fname, text in {"A.csv": format_csv(data.a), **files}.items():
                    with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                        fh.write(text)
                extra = ("--sigma-cov", "cov.csv") if "cov.csv" in files else ()
                cases.append((f"estimate/{name}/m{m}", estimate_lines(tmp, extra)))

    return [(name, hashlib.sha256("\n".join(lines).encode()).hexdigest())
            for name, lines in cases]


def estimate_lines(workdir: str, extra: tuple = ()) -> list[str]:
    """Exit code, stdout, stderr and X file of ``ctls estimate`` on
    ``workdir``'s A.csv and B.csv, with the arguments ``extra``, for every
    method, run in-process."""
    from ctls.cli import main

    lines, cwd = [], os.getcwd()
    os.chdir(workdir)  # relative paths, so no message names the directory
    try:
        for method, j, k in ESTIMATE_METHODS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["estimate", "--a", "A.csv", "--b", "B.csv", "--j", str(j),
                             "--k", str(k), "--method", method, "--out", "X.csv", *extra])
            x_file = None
            if os.path.exists("X.csv"):
                with open("X.csv", "rb") as fh:
                    x_file = fh.read().hex()
                os.remove("X.csv")
            lines.append(f"{method}: {code} {out.getvalue()!r} {err.getvalue()!r} {x_file}")
    finally:
        os.chdir(cwd)
    return lines


def run_on(src: str) -> list[tuple[str, str]]:
    """The per-case digests of the package under ``src``, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--src", src, "--cases"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"error: digest of {src} failed:\n{proc.stderr}")
    return [tuple(line.split()) for line in proc.stdout.splitlines()]


def git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True).stdout


def src_lines(src: str) -> int:
    """The number of lines of the Python files under ``src``."""
    total = 0
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def compare(base: str) -> int:
    root = git(HERE, "rev-parse", "--show-toplevel").decode().strip()
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        for path in git(root, "ls-tree", "-r", "--name-only", base, "src").decode().split():
            os.makedirs(os.path.join(tmp, os.path.dirname(path)), exist_ok=True)
            with open(os.path.join(tmp, path), "wb") as fh:
                fh.write(git(root, "show", f"{base}:{path}"))
        before = run_on(os.path.join(tmp, "src"))
        lines_before = src_lines(os.path.join(tmp, "src"))
    after = run_on(os.path.join(root, "src"))
    print(f"src/ lines: {lines_before} at {base}, {src_lines(os.path.join(root, 'src'))} "
          "in the working tree")
    if [name for name, _ in before] != [name for name, _ in after]:
        print("the two trees produce different case lists")
        return 1
    differ = [name for (name, x), (_, y) in zip(before, after) if x != y]
    if differ:
        print(f"{len(differ)} of {len(after)} cases differ from {base}:")
        print("\n".join(f"  {name}" for name in differ))
        return 1
    print(f"all {len(after)} cases equal to {base}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare the working tree with")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                        help="directory that holds the ctls package (default: this tree's)")
    parser.add_argument("--cases", action="store_true", help="print one digest per case")
    args = parser.parse_args()
    if args.base:
        return compare(args.base)
    sys.path.insert(0, os.path.abspath(args.src))
    digests = case_digests()
    if args.cases:
        for name, digest in digests:
            print(name, digest)
    else:
        total = hashlib.sha256("".join(d for _, d in digests).encode()).hexdigest()
        print(f"{total}  ({len(digests)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
