"""The three benchmark workloads.

One operation is one ``ctls`` CLI command, run in-process through
``ctls.cli.main(argv)``.  Each operation derives its inputs from
``(seed, op index)``.  ``prepare`` (inputs) and ``finish`` (parsing, cheap
checks, digests) run outside the timed region; ``check`` runs the oracle
checks on the first ``checked_ops`` operations after the timed loop.

* ``sweep-readme`` - the README sweep config: many tiny instances (Gram
  dimension 4-5), so per-call overhead in linalg, model, gram_residuals and
  trace writing dominates, not O(m) passes.
* ``sweep-wide`` - the wider sweep shape with m up to 1e5 and Gram dimension
  12-15: the Jacobi kernels and the repeated O(m) copies dominate.
* ``estimate-csv`` - ``ctls estimate`` on freshly written CSV files: CSV
  parsing dominates, and it is the one path through ``ctls_columns`` and
  ``ctls_rows``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from checks import aggregate_table, check_estimate


def op_seed(seed: int, index: int) -> int:
    digest = hashlib.blake2b(f"{seed}|{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFFFFFFFFFF


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


@dataclass
class Op:
    index: int
    argv: list[str]
    workdir: str
    context: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one finished operation contributes to the run's metrics."""

    ok: bool
    rows: int
    errors: dict[str, list[float]]
    trials: int = 0
    trials_ok: int = 0
    problems: list[str] = field(default_factory=list)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class SweepWorkload:
    """``ctls sweep --out-trace ... --csv ...`` on one fixed config shape."""

    checked_ops = 2

    def __init__(self, name: str, config: dict):
        self.name = name
        self.config = config
        self.instances_per_op = len(config["m_values"]) * config["trials"]
        self.rows_per_op = (
            sum(config["m_values"]) * config["trials"] * len(config["estimators"])
        )

    def prepare(self, index: int, seed: int, root: str) -> Op:
        workdir = os.path.join(root, f"op{index}")
        os.makedirs(workdir)
        cfg_path = os.path.join(workdir, "sweep.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(dict(self.config, base_seed=op_seed(seed, index)), fh)
        argv = [
            "sweep",
            "--config", cfg_path,
            "--out-trace", os.path.join(workdir, "trace.json"),
            "--csv", os.path.join(workdir, "trace.csv"),
        ]
        return Op(index, argv, workdir)

    def finish(self, op: Op, rc: int, stdout: str) -> tuple[Outcome, bytes]:
        trace_path = os.path.join(op.workdir, "trace.json")
        if rc != 0 or not os.path.exists(trace_path):
            return Outcome(False, 0, {}, problems=[f"op {op.index}: exit code {rc}"]), b""
        trace_bytes = _read(trace_path)
        records = json.loads(trace_bytes)["records"]
        problems = [
            f"op {op.index}: {r['estimator']} m={r['m']} trial={r['trial']}: {r['status']}"
            for r in records
            if r["status"] != "ok"
        ]
        if aggregate_table(records) != stdout.strip():
            problems.append(f"op {op.index}: aggregate table does not match the trace")
        m_max = max(self.config["m_values"])
        errors: dict[str, list[float]] = {}
        for r in records:
            if r["m"] == m_max and r["status"] == "ok":
                errors.setdefault(r["estimator"], []).append(r["err"])
        digest = trace_bytes + _read(os.path.join(op.workdir, "trace.csv")) + stdout.encode()
        n_ok = sum(r["status"] == "ok" for r in records)
        outcome = Outcome(
            not problems, self.rows_per_op, errors, len(records), n_ok, problems
        )
        return outcome, digest

    def check(self, op: Op) -> list[str]:
        """Recompute every estimate of the sweep and check it."""
        from ctls import estimators as est
        from ctls.harness import SweepConfig, naive_ls
        from ctls.model import generate_model, observe

        with open(os.path.join(op.workdir, "trace.json"), encoding="utf-8") as fh:
            trace = json.load(fh)
        config = SweepConfig.from_dict(trace["config"])
        estimators = {
            "naive_ls": naive_ls,
            "tls": lambda d: est.tls_solve(d.a, d.b),
            "ctls_columns": est.ctls_columns,
            "ctls_rows": est.ctls_rows,
            "ctls_rowcol": est.ctls_rowcol,
            "projection": est.projection_estimator,
        }
        failures = []
        for rec in trace["records"]:
            model = generate_model(
                config.partition_for(rec["m"]),
                config.sigma,
                rec["model_seed"],
                config.design,
            )
            data = observe(model, rec["noise_seed"], config.noise)
            x_hat = estimators[rec["estimator"]](data).x_hat
            err = float(np.linalg.norm(x_hat - model.x_true, "fro"))
            where = f"op {op.index} m={rec['m']} trial={rec['trial']}"
            if err != rec["err"]:
                failures.append(f"{where}: recomputed err {err!r} != traced {rec['err']!r}")
            failures += [
                f"{where}: {msg}"
                for msg in check_estimate(rec["estimator"], data, x_hat, rec["noise_seed"])
            ]
        return failures

    def cleanup(self, op: Op) -> None:
        shutil.rmtree(op.workdir, ignore_errors=True)


#: ``ctls estimate`` methods with the partition each one is given; harness
#: names key the output checks.
CSV_METHODS = (
    ("tls", 0, 0, "tls"),
    ("ctls-cols", 0, 3, "ctls_columns"),
    ("ctls-rows", 2, 0, "ctls_rows"),
    ("ctls-rowcol", 2, 3, "ctls_rowcol"),
    ("projection", 2, 3, "projection"),
)


def write_csv(path: str, matrix: np.ndarray) -> None:
    """Headerless CSV with 17 significant digits (exact round trip).

    The file is synced, so that no write-back of it overlaps the timed op.
    """
    row = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write((row * matrix.shape[0]) % tuple(matrix.ravel().tolist()))
        fh.flush()
        os.fsync(fh.fileno())


class EstimateCsvWorkload:
    """``ctls estimate --out ...`` on CSV files from the benchmark's generator.

    The files hold ``m`` rows, ``n`` left and ``ell`` right columns; the first
    ``j`` rows and ``k`` columns are noise-free.  Ops cycle through the five
    methods, each on a fresh instance.
    """

    checked_ops = len(CSV_METHODS)
    instances_per_op = 0

    def __init__(self, name: str, config: dict):
        self.name = name
        self.config = config

    def instance(self, seed: int, index: int):
        """Ground truth and noisy ``(A, B)`` for op ``index``."""
        c = self.config
        m, n, ell, j, k = c["m"], c["n"], c["ell"], c["j"], c["k"]
        rng = np.random.default_rng([seed, index])
        x_true = rng.uniform(-2.0, 2.0, size=(n, ell))
        a = rng.standard_normal((m, n))
        b = a @ x_true
        a[j:, k:] += c["sigma"] * rng.standard_normal((m - j, n - k))
        b[j:, :] += c["sigma"] * rng.standard_normal((m - j, ell))
        return x_true, a, b

    def prepare(self, index: int, seed: int, root: str) -> Op:
        workdir = os.path.join(root, f"op{index}")
        os.makedirs(workdir)
        x_true, a, b = self.instance(seed, index)
        write_csv(os.path.join(workdir, "A.csv"), a)
        write_csv(os.path.join(workdir, "B.csv"), b)
        method, j, k, _ = CSV_METHODS[index % len(CSV_METHODS)]
        argv = [
            "estimate",
            "--a", os.path.join(workdir, "A.csv"),
            "--b", os.path.join(workdir, "B.csv"),
            "--j", str(j),
            "--k", str(k),
            "--method", method,
            "--out", os.path.join(workdir, "xhat.csv"),
        ]
        return Op(index, argv, workdir, {"x_true": x_true, "seed": seed})

    def _x_hat(self, op: Op) -> np.ndarray:
        return np.loadtxt(os.path.join(op.workdir, "xhat.csv"), delimiter=",", ndmin=2)

    def finish(self, op: Op, rc: int, stdout: str) -> tuple[Outcome, bytes]:
        out_path = os.path.join(op.workdir, "xhat.csv")
        _, _, _, estimator = CSV_METHODS[op.index % len(CSV_METHODS)]
        if rc != 0 or not os.path.exists(out_path):
            return Outcome(False, 0, {}, problems=[f"op {op.index}: exit code {rc}"]), b""
        x_hat = self._x_hat(op)
        err = float(np.linalg.norm(x_hat - op.context["x_true"], "fro"))
        # Inputs are large; the heavy check regenerates them from the seed.
        for name in ("A.csv", "B.csv"):
            os.remove(os.path.join(op.workdir, name))
        outcome = Outcome(True, self.config["m"], {estimator: [err]})
        return outcome, _read(out_path) + stdout.encode()

    def check(self, op: Op) -> list[str]:
        from ctls.model import ObservedData, PartitionSpec

        _, j, k, estimator = CSV_METHODS[op.index % len(CSV_METHODS)]
        _, a, b = self.instance(op.context["seed"], op.index)
        partition = PartitionSpec(j=j, k=k, n=a.shape[1], ell=b.shape[1], m=a.shape[0])
        data = ObservedData(a=a, b=b, partition=partition)
        return [
            f"op {op.index}: {msg}"
            for msg in check_estimate(estimator, data, self._x_hat(op), op.index)
        ]

    def cleanup(self, op: Op) -> None:
        shutil.rmtree(op.workdir, ignore_errors=True)


WORKLOADS = {
    "sweep-readme": (
        SweepWorkload,
        {
            "n": 3, "ell": 1, "j": 1, "k": 1,
            "m_values": [100, 1000, 10000],
            "trials": 30, "sigma": 0.1,
            "estimators": ["projection", "ctls_rowcol"],
            "design": "iid", "noise": "gauss",
        },
    ),
    "sweep-wide": (
        SweepWorkload,
        {
            "n": 10, "ell": 2, "j": 2, "k": 3,
            "m_values": [1000, 10000, 100000],
            "trials": 1, "sigma": 0.1,
            "estimators": ["naive_ls", "tls", "ctls_rowcol", "projection"],
            "design": "iid", "noise": "gauss",
        },
    ),
    "estimate-csv": (
        EstimateCsvWorkload,
        {"m": 20000, "n": 10, "ell": 2, "j": 2, "k": 3, "sigma": 0.1},
    ),
}


def make(name: str, **overrides):
    cls, config = WORKLOADS[name]
    return cls(name, dict(config, **overrides))
