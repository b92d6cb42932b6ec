"""Output checks on estimates, run outside the timed region.

Each check returns a list of failure messages; an empty list means the
estimate passed.  The checks lean on ``ctls.oracle`` (closed-form perturbation
objectives and a feasible-manifold sampler) and on an independent
``numpy.linalg.svd``, never on the estimator code they check.
"""

from __future__ import annotations

import numpy as np

#: Estimators whose output minimizes the (constrained) TLS objective.
MINIMIZERS = ("tls", "ctls_columns", "ctls_rows", "ctls_rowcol")

#: Estimators that must satisfy the exact rows.
ROW_CONSTRAINED = ("ctls_rows", "ctls_rowcol", "projection")

#: Candidate radii (times ``1 + |X|``) and count per radius for the sampler.
RADII = (1e-4, 1e-3)
CANDIDATES = 40

#: Relative slack for "no candidate beats the estimate" (objective roundoff).
OBJECTIVE_SLACK = 1e-10

#: Relative agreement required between ``tls`` and the SVD reference.
TLS_AGREEMENT = 1e-8


def svd_tls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Classical TLS from ``numpy.linalg.svd`` of ``[A | B]``."""
    n, ell = a.shape[1], b.shape[1]
    _, _, vt = np.linalg.svd(np.hstack([a, b]), full_matrices=False)
    z = vt[-ell:, :].T
    return -np.linalg.solve(z[n:, :].T, z[:n, :].T).T


def check_estimate(estimator: str, data, x_hat, seed: int) -> list[str]:
    """Check one estimate of ``estimator`` (harness name) on ``data``."""
    from ctls.estimators import build_blocks
    from ctls.model import ObservedData, PartitionSpec
    from ctls.oracle import constrained_objective, feasible_sampler, tls_objective

    p = data.partition
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.shape != (p.n, p.ell) or not np.all(np.isfinite(x_hat)):
        return [f"{estimator}: estimate has shape {x_hat.shape} or non-finite entries"]
    failures = []
    if estimator == "tls":
        # TLS ignores the partition: it perturbs every entry.
        p = PartitionSpec(j=0, k=0, n=p.n, ell=p.ell, m=p.m)
        ref = svd_tls(data.a, data.b)
        gap = np.linalg.norm(x_hat - ref)
        if gap > TLS_AGREEMENT * (1.0 + np.linalg.norm(ref)):
            failures.append(f"tls: differs from the numpy SVD solution by {gap:.3e}")
    blocks = build_blocks(ObservedData(a=data.a, b=data.b, partition=p))
    if estimator in ROW_CONSTRAINED and not constrained_objective(blocks, x_hat).feasible:
        failures.append(f"{estimator}: exact rows violated beyond FEASIBILITY_TOL")
        return failures
    if estimator not in MINIMIZERS:
        return failures

    def cost(x):
        if estimator == "tls":
            return tls_objective(data.a, data.b, x)
        return constrained_objective(blocks, x).objective

    base = cost(x_hat)
    scale = 1.0 + np.linalg.norm(x_hat)
    for i, radius in enumerate(RADII):
        for cand in feasible_sampler(blocks, x_hat, radius * scale, CANDIDATES, seed + i):
            value = cost(cand)
            if value is None or value < base - OBJECTIVE_SLACK * (1.0 + base):
                failures.append(
                    f"{estimator}: a feasible candidate at radius {radius:g} "
                    f"beats the estimate ({value} < {base})"
                )
                return failures
    return failures


def aggregate_table(records: list[dict]) -> str:
    """The sweep's stdout table, recomputed from its trace records."""
    cells: dict[tuple[str, int], list[dict]] = {}
    for rec in records:
        cells.setdefault((rec["estimator"], rec["m"]), []).append(rec)
    lines = ["estimator m median_err median_sigma2_hat failed/trials"]
    for est, m in sorted(cells):
        cell = cells[(est, m)]
        ok = [r for r in cell if r["status"] == "ok"]
        med_err = format(np.median([r["err"] for r in ok]), ".6e") if ok else ""
        med_s2 = format(np.median([r["sigma2_hat"] for r in ok]), ".6e") if ok else ""
        lines.append(f"{est} {m} {med_err} {med_s2} {len(cell) - len(ok)}/{len(cell)}")
    return "\n".join(lines)
