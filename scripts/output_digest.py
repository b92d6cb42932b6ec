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
``k-equals-n/jX`` instances (n = k = 4, m = 300), whose columns are all
exact, the ``run_sweep`` traces of five partitions, and the exit code, stdout, stderr
and X file of ``ctls estimate`` for every method on CSV files written with
LF, with CRLF and with blank lines, both below and above the size at which
the reader splits a file, and on a B malformed in its second half, a missing
B, a B one row short and with a CSV ``--sigma-cov``.  A sweep trace is two cases: ``sweep/jXkY``
without and ``sweep/jXkY/residuals`` with only the Gram-residual fields of
its records and their medians, whose ground truth a sweep sums by chunks.
Two noise-free grid-design sweeps gate how a stacked sweep handles each
slice: in ``sweep/grid-n18-failed`` every ``naive_ls`` record fails with
NearSingularError, in ``sweep/grid-n16-flagged`` every other record carries
the ``eig_gap_degenerate`` flag.  In ``sweep/grid-unsampled`` (n = 8,
ell = 1, j = 7, k = 0) every cell's exact grid rows are numerically rank
deficient, so ``sample_stack`` raises; where ``run_sweep`` raises, the case
hashes the error's type name.  The ``sweep/large/<noise>`` cases are
one-trial sweeps (n = 10, ell = 2, j = 2, k = 3) of ``2 * CHUNK_ROWS + 5``
rows, whose instances are sampled in two chunks, on two CPUs where the
affinity mask has them.  The ``sweep/one-pass/<noise>`` cases add one-trial
cells of m = 1000 and 10000 to that sweep: with one pass of several chunks
in all, it runs in one process, not on the pool.  The ``sweep/cells/<design>-<noise>``
cases are five-trial sweeps (n = 4, ell = 2, j = 1, k = 1) of m = 30, 600 and
6000, whose cells a worker samples as one stack: flat, in one group, and in
groups of two and one.  The ``stack/jXkY/<run>`` cases gate a
stacked call with failing slices: a stack of healthy instances interleaved
with ones that fail at different stages (the mixed stacks of
``tests/test_stacks.py``), run once by every sweep estimator that takes the
partition, by the projection estimator under each ``mu_rule`` and by
``gram_residuals``; each slice's result, or its error type and message, is
hashed.  The ``stack/batches`` case hashes one ``sample_stack`` call of 100
instances (n = 3, ell = 1, j = k = 1, m = 10000, with ``all_rows``): its
``x_true``, exact rows, both factors and Gram matrices, and every such run on
the stack.  The first levels of its instances hold more rows than one chunk,
so it covers a stack whose second levels are factored in more than one call.

Each case also hashes every field on its own: ``x_hat``, ``sigma2_hat``,
``smallest_eigs``, ``mu``, each ``Diagnostics`` field, each key of
``gram_residuals``, each key of a sweep's records and aggregates, the error
a call raises, and the exit code, stdout, stderr and X file of an estimate.

``--base REV`` writes the ``src/`` files of ``REV`` into a temporary
directory with ``git show``, runs this script on them and on the working tree
(uncommitted changes included) and names every case whose digest differs,
with the fields that differ in it, then the number of such cases per field,
so a key that moves in every case reads as one line.  It prints the line
count of both trees' ``src/`` Python files, in total and per file, and their
settable values: the CLI flags (``add_argument`` calls) and the parameters
with a default of the functions in ``src/``.  It exits 1 if any case
differs.

Digests depend on the numpy and BLAS build, so they are compared between
two trees on one machine, never against a stored value.  The BLAS thread
count is pinned to 1.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ast
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

#: (j, k) partitions of the instance grid; with one exact row, as in (1, 0),
#: BLAS rounds the constraint residual's product by the layout of its operand.
PARTITIONS = ((0, 0), (0, 2), (2, 0), (1, 0), (1, 1), (2, 3), (3, 1), (1, 3), (3, 3))
#: The Gram-residual fields of a sweep record and of a cell's aggregates.
RESIDUAL_KEYS = ("shifted_gram_residual", "projected_gram_residual",
                 "median_shifted_gram", "median_projected_gram")
M_VALUES = (30, 300, 2000, 16641)
N, ELL, SIGMA = 4, 2, 0.3
SWEEP_PARTITIONS = ((0, 0), (0, 2), (2, 0), (1, 1), (2, 3))
#: Noise-free grid-design sweeps: (case, n, ell, j, k).
GRID_SWEEPS = (("sweep/grid-n18-failed", 18, 1, 0, 0), ("sweep/grid-n16-flagged", 16, 2, 1, 1))
#: (design, noise) of the ``sweep/cells/*`` cases: five trials per m, so
#: a worker samples a cell of three instances at m = 6000 in groups of two and one.
CELL_SWEEPS = (("iid", "gauss"), ("iid", "uniform"), ("iid", "rademacher"), ("grid", "gauss"))
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
#: The ``stack/batches`` case: one ``sample_stack`` call of this many
#: instances (n = 3, ell = 1, j = k = 1) of this many rows.
BATCH_SEEDS, BATCH_ROWS = 100, 10000
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
        sample_stack,
    )

    def runs_for(p: PartitionSpec) -> dict:
        runs = {"naive_ls": naive_ls, "tls": est.tls_from_data,
                "ctls_rowcol": est.ctls_rowcol}
        for name in ("ctls_columns", "ctls_rows"):
            if est.accepts_partition(name, p.j, p.k, p.n):
                runs[name] = getattr(est, name)
        for rule in est.MU_RULES:
            runs[f"projection_{rule}"] = (
                lambda d, rule=rule: est.projection_estimator(d, mu_rule=rule))
        return runs

    def encode(value) -> str:
        if value is None or isinstance(value, (str, int, float, list)):
            return repr(value)
        arr = np.asarray(value, dtype=float)
        return f"{arr.shape}:{np.ascontiguousarray(arr).tobytes().hex()}"

    def describe(result) -> dict:
        if isinstance(result, dict):  # gram_residuals
            return {key: repr(value) for key, value in sorted(result.items())}
        diag = result.diagnostics
        return {"x_hat": encode(result.x_hat), "sigma2_hat": repr(result.sigma2_hat),
                "smallest_eigs": encode(result.smallest_eigs), "mu": repr(result.mu),
                **{f.name: encode(getattr(diag, f.name)) for f in dataclasses.fields(diag)}}

    def outcome(fn, data) -> tuple[bool, dict]:
        try:
            result = fn(data)
        except CtlsError as exc:
            return False, {"error": type(exc).__name__}
        return True, describe(result)

    def entries_of(cells: list) -> list:
        """One entry per dict of ``cells``, a field per key."""
        return [(str(i), {key: json.dumps(value, sort_keys=True) for key, value in sorted(cell.items())})
                for i, cell in enumerate(cells)]

    def trace_entries(trace: dict) -> list:
        """A sweep trace's config, records and aggregates, one entry each."""
        return entries_of([{"config": trace["config"]}, *trace["records"],
                           *(stats for per_m in trace["aggregates"].values()
                             for stats in per_m.values())])

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

    def instance_entries(model, data_of) -> list:
        """Every run on one fresh instance per call order."""
        runs = runs_for(model.partition)
        entries = []
        for order in (list(runs), list(reversed(runs))):
            data = data_of()
            residuals = False
            for name in order:
                ok, fields = outcome(runs[name], data)
                residuals |= ok and name in ("ctls_rowcol", "projection_mean")
                entries.append((name, fields))
            if residuals:
                truth = model.truth_gram()
                entries.append(("gram_residuals", outcome(
                    lambda d: gram_residuals(truth, model.sigma, d), data)[1]))
        return entries

    cases = []
    for design in DesignKind:
        for noise in NoiseKind:
            for j, k in PARTITIONS:
                for m in M_VALUES:
                    p = PartitionSpec(j=j, k=k, n=N, ell=ELL, m=m)
                    seed = 1000 * j + 100 * k + m
                    model = generate_model(p, SIGMA, seed, design)
                    entries = instance_entries(model, lambda: observe(model, seed + 1, noise))
                    cases.append((f"{design.value}/{noise.value}/j{j}k{k}/m{m}", entries))

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
        entries = instance_entries(model, lambda: ObservedData(a=a.copy(), b=b.copy(), partition=p))
        cases.append((f"{name}/j{j}k{k}", entries))

    # Every column exact: only the estimators that need free columns fail.
    for j in (0, 2):
        p = PartitionSpec(j=j, k=N, n=N, ell=ELL, m=300)
        model = generate_model(p, SIGMA, 23 + j)
        entries = instance_entries(model, lambda: observe(model, 24 + j))
        cases.append((f"k-equals-n/j{j}", entries))

    for j, k in SWEEP_PARTITIONS:
        names = [n for n in ("naive_ls", "tls", "ctls_columns", "ctls_rows",
                             "ctls_rowcol", "projection") if est.accepts_partition(n, j, k, N)]
        config = SweepConfig(n=N, ell=ELL, j=j, k=k, m_values=(50, 500, 5000), trials=3,
                             sigma=SIGMA, estimators=tuple(names), base_seed=99)
        trace = run_sweep(config).to_json_dict()
        cells = trace["records"] + [stats for per_m in trace["aggregates"].values()
                                    for stats in per_m.values()]
        residuals = [{key: cell.pop(key) for key in RESIDUAL_KEYS if key in cell}
                     for cell in cells]
        cases.append((f"sweep/j{j}k{k}", trace_entries(trace)))
        cases.append((f"sweep/j{j}k{k}/residuals", entries_of(residuals)))

    for name, n, ell, j, k in GRID_SWEEPS:
        config = SweepConfig(n=n, ell=ell, j=j, k=k, m_values=(50, 500), trials=3, sigma=0.0,
                             estimators=("naive_ls", "tls", "ctls_rowcol", "projection"),
                             base_seed=7, design=DesignKind.FIXED_GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EstimatorWarning)
            trace = run_sweep(config).to_json_dict()
        cases.append((name, trace_entries(trace)))

    config = SweepConfig(n=8, ell=1, j=7, k=0, m_values=(100, 200), trials=2, sigma=SIGMA,
                         estimators=("tls", "ctls_rows"), base_seed=7,
                         design=DesignKind.FIXED_GRID)
    try:
        entries = trace_entries(run_sweep(config).to_json_dict())
    except CtlsError as exc:
        entries = [("run_sweep", {"error": type(exc).__name__})]
    cases.append(("sweep/grid-unsampled", entries))

    for noise in NoiseKind:
        for name, m_values in (("large", (2 * CHUNK_ROWS + 5,)),
                               ("one-pass", (1000, 10000, 2 * CHUNK_ROWS + 5))):
            config = SweepConfig(n=10, ell=2, j=2, k=3, m_values=m_values, trials=1, sigma=SIGMA,
                                 estimators=("naive_ls", "tls", "ctls_rowcol", "projection"),
                                 base_seed=5, noise=noise)
            trace = run_sweep(config).to_json_dict()
            cases.append((f"sweep/{name}/{noise.value}", trace_entries(trace)))

    for design, noise in CELL_SWEEPS:
        config = SweepConfig(n=N, ell=ELL, j=1, k=1, m_values=(30, 600, 6000), trials=5,
                             sigma=SIGMA, base_seed=11, design=DesignKind(design),
                             noise=NoiseKind(noise),
                             estimators=("naive_ls", "tls", "ctls_rowcol", "projection"))
        trace = run_sweep(config).to_json_dict()
        cases.append((f"sweep/cells/{design}-{noise}", trace_entries(trace)))

    def stack_runs(p: PartitionSpec, grams, sigma: float) -> dict:
        """Every sweep estimator that takes ``p``, the projection estimator
        under each ``mu_rule`` and ``gram_residuals``, each run on a stack."""
        runs = {name: fn for name, fn in harness.ESTIMATORS.items()
                if name != "projection" and est.accepts_partition(name, p.j, p.k, p.n)}
        for rule in est.MU_RULES:
            runs[f"projection_{rule}"] = (
                lambda d, rule=rule: est.projection_estimator(d, mu_rule=rule))
        runs["gram_residuals"] = lambda d: gram_residuals(grams, sigma, d)
        return runs

    def slice_entries(run, stack) -> list:
        """Each slice's result of ``run(stack)``, or its error type and message."""
        return [(str(s), {"error": f"{type(out).__name__}: {out}"}
                 if isinstance(out, CtlsError) else describe(out))
                for s, out in enumerate(run(stack))]

    for (j, k), failures in STACK_FAILURES.items():
        names = ["healthy", *failures]
        names = [name for pair in zip(names, ["healthy"] * len(names)) for name in pair]
        datas, grams = zip(*(mutated(j, k, name, seed) for seed, name in enumerate(names)))
        exact = np.stack([d.exact_rows for d in datas])
        r_noisy, r_all = np.stack([d.r_noisy for d in datas]), np.stack([d.r_all for d in datas])
        stack = ObservedData.stacked(exact, datas[0].partition, r_noisy, r_all)
        for name, run in stack_runs(stack.partition, np.stack(grams), STACK_SIGMA).items():
            cases.append((f"stack/j{j}k{k}/{name}", slice_entries(run, stack)))

    # One sample_stack call of BATCH_SEEDS instances at m = BATCH_ROWS:
    # more first levels than one chunk's worth of rows.
    p = PartitionSpec(j=1, k=1, n=3, ell=1, m=BATCH_ROWS)
    seeds = [(300 + s, 700 + s) for s in range(BATCH_SEEDS)]
    x_true, stack, grams = sample_stack(p, SIGMA, seeds, all_rows=True)
    entries = [("sample", {"x_true": encode(x_true), "exact_rows": encode(stack.exact_rows),
                           "r_noisy": encode(stack.r_noisy), "r_all": encode(stack.r_all),
                           "grams": encode(grams)})]
    for name, run in stack_runs(p, grams, SIGMA).items():
        entries += [(f"{name}/{label}", fields) for label, fields in slice_entries(run, stack)]
    cases.append(("stack/batches", entries))

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
                cases.append((f"estimate/{layout}/m{m}", estimate_entries(tmp)))
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
                cases.append((f"estimate/{name}/m{m}", estimate_entries(tmp, extra)))

    return [(name, *digests(entries)) for name, entries in cases]


def digests(entries: list) -> tuple[str, dict[str, str]]:
    """The digest of a case's ``(label, {field: value})`` entries, and the
    digest of each field over the entries that have it."""
    lines, fields = [], {}
    for label, values in entries:
        lines.append(f"{label}: " + "|".join(f"{key}={value}" for key, value in values.items()))
        for key, value in values.items():
            fields.setdefault(key, []).append(f"{label}: {value}")

    def sha(texts):
        return hashlib.sha256("\n".join(texts).encode()).hexdigest()

    return sha(lines), {key: sha(texts)[:16] for key, texts in fields.items()}


def estimate_entries(workdir: str, extra: tuple = ()) -> list:
    """Exit code, stdout, stderr and X file of ``ctls estimate`` on
    ``workdir``'s A.csv and B.csv, with the arguments ``extra``, for every
    method, run in-process."""
    from ctls.cli import main

    entries, cwd = [], os.getcwd()
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
            entries.append((method, {"exit": repr(code), "stdout": repr(out.getvalue()),
                                     "stderr": repr(err.getvalue()), "x_file": repr(x_file)}))
    finally:
        os.chdir(cwd)
    return entries


def run_on(src: str) -> list[tuple[str, str, dict[str, str]]]:
    """The per-case and per-field digests of the package under ``src``, in a
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--src", src, "--cases"],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"error: digest of {src} failed:\n{proc.stderr}")
    cases = []
    for line in proc.stdout.splitlines():
        name, digest, *fields = line.split()
        cases.append((name, digest, dict(field.rsplit("=", 1) for field in fields)))
    return cases


def git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True).stdout


def src_lines(src: str) -> dict[str, int]:
    """The number of lines of each Python file under ``src``, by its path
    relative to ``src``."""
    counts = {}
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    counts[os.path.relpath(path, src)] = fh.read().count(b"\n")
    return counts


def settable_values(src: str) -> tuple[int, int]:
    """The CLI flags (``add_argument`` calls) and the parameters with a
    default of the functions in the Python files under ``src``."""
    flags = defaults = 0
    for path in src_lines(src):
        with open(os.path.join(src, path), "rb") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defaults += len(node.args.defaults)
                defaults += sum(d is not None for d in node.args.kw_defaults)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                flags += 1
    return flags, defaults


def compare(base: str) -> int:
    root = git(HERE, "rev-parse", "--show-toplevel").decode().strip()
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        for path in git(root, "ls-tree", "-r", "--name-only", base, "src").decode().split():
            os.makedirs(os.path.join(tmp, os.path.dirname(path)), exist_ok=True)
            with open(os.path.join(tmp, path), "wb") as fh:
                fh.write(git(root, "show", f"{base}:{path}"))
        before = run_on(os.path.join(tmp, "src"))
        lines_before = src_lines(os.path.join(tmp, "src"))
        settable_before = settable_values(os.path.join(tmp, "src"))
    after = run_on(os.path.join(root, "src"))
    lines_after = src_lines(os.path.join(root, "src"))
    print(f"src/ lines: {sum(lines_before.values())} at {base}, "
          f"{sum(lines_after.values())} in the working tree")
    for path in sorted(lines_before.keys() | lines_after.keys()):
        old, new = lines_before.get(path, 0), lines_after.get(path, 0)
        print(f"  {path}: {old} -> {new} ({new - old:+d})")
    for name, old, new in zip(("CLI flags", "defaulted parameters"), settable_before,
                              settable_values(os.path.join(root, "src"))):
        print(f"src/ {name}: {old} -> {new} ({new - old:+d})")
    if [case[0] for case in before] != [case[0] for case in after]:
        print("the two trees produce different case lists")
        return 1
    differ = [(name, sorted(key for key in old_fields.keys() | new_fields.keys()
                            if old_fields.get(key) != new_fields.get(key)))
              for (name, old, old_fields), (_, new, new_fields) in zip(before, after)
              if old != new]
    if differ:
        print(f"{len(differ)} of {len(after)} cases differ from {base}:")
        print("\n".join(f"  {name}: {', '.join(keys)}" for name, keys in differ))
        counts = collections.Counter(key for _, keys in differ for key in keys)
        print("cases that differ, by field:")
        print("\n".join(f"  {key}: {count}" for key, count in sorted(counts.items())))
        return 1
    print(f"all {len(after)} cases equal to {base}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare the working tree with")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                        help="directory that holds the ctls package (default: this tree's)")
    parser.add_argument("--cases", action="store_true",
                        help="print one digest per case, then one per field of it")
    args = parser.parse_args()
    if args.base:
        return compare(args.base)
    sys.path.insert(0, os.path.abspath(args.src))
    cases = case_digests()
    if args.cases:
        for name, digest, fields in cases:
            print(name, digest, *(f"{key}={value}" for key, value in fields.items()))
    else:
        total = hashlib.sha256("".join(digest for _, digest, _ in cases).encode()).hexdigest()
        print(f"{total}  ({len(cases)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
