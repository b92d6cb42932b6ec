"""Command-line interface: estimate from files, simulate instances, run sweeps.

Exit codes: 0 success, 1 I/O / flag / config error, 2 estimator error (the
message names the error case), 3 sweep failure rate above 5% in some cell.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import CtlsError
from .estimators import tls_solve
from .fileio import format_csv, read_matrices, write_matrix
from .harness import SweepConfig, _run_estimator, run_sweep
from .model import (
    DesignKind,
    NoiseKind,
    ObservedData,
    PartitionSpec,
    generate_model,
    observe,
    unwhiten_estimate,
    whiten,
)

#: ``--method`` -> its name in ``harness.ESTIMATORS``.
METHODS = {"tls": "tls", "ctls-cols": "ctls_columns", "ctls-rows": "ctls_rows",
           "ctls-rowcol": "ctls_rowcol", "projection": "projection"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports flag errors through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate X from matrix files")
    est.add_argument("--a", required=True, help="left-hand side matrix file")
    est.add_argument("--b", required=True, help="right-hand side matrix file")
    est.add_argument("--j", type=int, default=0, help="number of exact leading rows")
    est.add_argument("--k", type=int, default=0, help="number of exact leading columns")
    est.add_argument("--method", required=True, choices=METHODS)
    est.add_argument("--mu", choices=("min", "mean", "max"), default="mean")
    est.add_argument("--sigma-cov", help="noise covariance file (whitened before estimation)")
    est.add_argument("--out", help="write X to this file instead of stdout")
    est.add_argument("--format", choices=("csv", "mtxjson"), default="csv")

    sim = sub.add_parser("simulate", help="generate a synthetic instance")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--ell", type=int, required=True)
    sim.add_argument("--j", type=int, default=0)
    sim.add_argument("--k", type=int, default=0)
    sim.add_argument("--m", type=int, required=True)
    sim.add_argument("--sigma", type=float, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--design", choices=("iid", "grid"), default="iid")
    sim.add_argument(
        "--noise", choices=("gauss", "uniform", "rademacher"), default="gauss"
    )
    sim.add_argument("--out-dir", required=True)

    swp = sub.add_parser("sweep", help="run a Monte-Carlo sweep from a JSON config")
    swp.add_argument("--config", required=True)
    swp.add_argument("--out-trace", required=True)
    swp.add_argument("--csv", help="also write the flat per-trial CSV here")

    return parser


def _cmd_estimate(args) -> int:
    try:
        a, b, *cov = read_matrices([args.a, args.b] + ([args.sigma_cov] if args.sigma_cov else []))
        partition = PartitionSpec(
            j=args.j, k=args.k, n=a.shape[1], ell=b.shape[1], m=a.shape[0]
        )
        data = ObservedData(a=a, b=b, partition=partition)
    except (CtlsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        name = METHODS[args.method]
        options = {"mu_rule": args.mu} if name == "projection" else {}
        if cov:
            stack, transform = whiten(data, cov[0])
            (result,) = _run_estimator(name, stack, **options)
            if isinstance(result, CtlsError):
                raise result
            result.x_hat = unwhiten_estimate(result.x_hat, partition, transform)
        else:  # tls as tls_solve, which perfbench's self-test perturbs and its tracer times
            result = tls_solve(a, b) if name == "tls" else _run_estimator(name, data, **options)
    except ValueError as exc:  # a --sigma-cov of the wrong shape
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CtlsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    diag = result.diagnostics
    report = [
        f"sigma2_hat = {result.sigma2_hat:.17g}",
        "smallest_eigs = "
        + " ".join(f"{v:.17g}" for v in np.atleast_1d(result.smallest_eigs)),
    ]
    if result.mu is not None:
        report.append(f"mu = {result.mu:.17g}")
    if diag.eig_gap is not None:
        report.append(f"eig_gap = {diag.eig_gap:.17g}")
    if diag.z_lower_smallest_sv is not None:
        report.append(f"z_lower_smallest_sv = {diag.z_lower_smallest_sv:.17g}")
    if diag.c21_gram_condition is not None:
        report.append(f"c21_gram_condition = {diag.c21_gram_condition:.17g}")
    if diag.constraint_residual is not None:
        report.append(f"constraint_residual = {diag.constraint_residual:.17g}")
    report.append(f"flags = {','.join(diag.flags) if diag.flags else 'none'}")

    try:
        if args.out:
            write_matrix(args.out, result.x_hat, args.format)
        else:
            sys.stdout.write(format_csv(result.x_hat))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report))
    return 0


def _cmd_simulate(args) -> int:
    try:
        partition = PartitionSpec(j=args.j, k=args.k, n=args.n, ell=args.ell, m=args.m)
        # Independent child seeds: one seed for both would make the noise a
        # shifted copy of the design's normal draws.
        model_seed, noise_seed = (
            int(child.generate_state(1, np.uint64)[0])
            for child in np.random.SeedSequence(args.seed).spawn(2)
        )
        model = generate_model(
            partition, args.sigma, model_seed, DesignKind(args.design)
        )
        data = observe(model, noise_seed, NoiseKind(args.noise))
        os.makedirs(args.out_dir, exist_ok=True)
        write_matrix(os.path.join(args.out_dir, "A.csv"), data.a, "csv")
        write_matrix(os.path.join(args.out_dir, "B.csv"), data.b, "csv")
        write_matrix(os.path.join(args.out_dir, "X_true.csv"), model.x_true, "csv")
        meta = {
            "n": args.n,
            "ell": args.ell,
            "j": args.j,
            "k": args.k,
            "m": args.m,
            "sigma": args.sigma,
            "seed": args.seed,
            "design": args.design,
            "noise": args.noise,
        }
        with open(os.path.join(args.out_dir, "model.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)
            fh.write("\n")
    except (CtlsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        config = SweepConfig.from_dict(payload)
    except (CtlsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    trace = run_sweep(config)
    try:
        trace.write_json(args.out_trace)
        if args.csv:
            trace.write_csv(args.csv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(trace.aggregate_table())
    if trace.max_failure_rate() > 0.05:
        print("error: failure rate above 5% in at least one cell", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
