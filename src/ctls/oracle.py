"""Brute-force verification of estimator outputs on small instances.

The oracle answers one question: given a candidate coefficient matrix, what
is the smallest perturbation of the perturbable blocks that makes the system
consistent?  With the candidate fixed the minimization is a row-wise least
squares problem with the closed form

    cost(x) = trace( (R.T @ R) @ inv(N) ),   N = x2.T @ x2 + I,

where ``R`` is the residual of the perturbable rows and ``x2`` the
coefficients multiplying perturbable columns.  Estimates are then probed by
sampling competitors on the feasible manifold (candidates that keep the
exact rows exactly satisfied) and checking the estimator's cost wins.

This module shares no solver code with the estimators.  Both sides now sit
on ``numpy.linalg``, but the oracle only evaluates closed-form objectives
and scans; it never factors the data or solves the eigenproblems the
estimators solve, so the two sides of every comparison stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import CBlocks

#: Feasibility slack for the exact-row constraints, relative to the scale of
#: the right-hand side.
FEASIBILITY_TOL = 1e-8


@dataclass(frozen=True)
class ObjectiveProbe:
    """Outcome of evaluating one candidate: minimal perturbation cost and
    whether the candidate satisfies the hard constraints (``objective`` is
    ``None`` for infeasible candidates)."""

    x_candidate: np.ndarray
    objective: float | None
    feasible: bool


def tls_objective(a, b, x) -> float:
    """Minimal squared perturbation of ``[A B]`` making ``(A+dA) x = B+dB``.

    Validated during bring-up against direct numerical minimization over the
    perturbations on tiny instances; the closed form is exact for any
    candidate, not only the optimum.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    resid = a @ x - b
    nmat = x.T @ x + np.eye(x.shape[1])
    return float(np.trace(np.linalg.solve(nmat, resid.T @ resid)))


def constrained_objective(blocks: CBlocks, x) -> ObjectiveProbe:
    """Minimal perturbation cost of the noisy block for a fixed candidate.

    The exact rows must hold to :data:`FEASIBILITY_TOL` (relative), else the
    probe comes back infeasible.  Only the noisy block may absorb the lower
    residual, so the coordinates multiplying fixed columns do not enter the
    normalization matrix.
    """
    p = blocks.partition
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n, p.ell):
        raise ValueError(f"candidate must be {p.n}x{p.ell}, got {x.shape}")

    feasible = True
    if p.j > 0:
        upper = np.hstack([blocks.c11, blocks.c12[:, : p.n_free]])
        b1 = blocks.c12[:, p.n_free :]
        gap = np.linalg.norm(upper @ x - b1)
        feasible = gap <= FEASIBILITY_TOL * (1.0 + np.linalg.norm(b1))
    if not feasible:
        return ObjectiveProbe(x_candidate=x, objective=None, feasible=False)

    x1 = x[: p.k, :]
    x2 = x[p.k :, :]
    a22 = blocks.c22[:, : p.n_free]
    b2 = blocks.c22[:, p.n_free :]
    resid = a22 @ x2 - b2 + blocks.c21 @ x1
    nmat = x2.T @ x2 + np.eye(p.ell)
    cost = float(np.trace(np.linalg.solve(nmat, resid.T @ resid)))
    return ObjectiveProbe(x_candidate=x, objective=cost, feasible=True)


def grid_scan_tls_1d(a, b, lo: float = -10.0, hi: float = 10.0, num: int = 100001
                     ) -> tuple[float, float]:
    """Dense 1-D scan of ``q(x) = |Ax - B|^2 / (1 + x^2)`` for n = ell = 1.

    Returns the grid argmin and the minimal value.  This is the global
    verification route for scalar problems: the scan is exhaustive up to the
    grid resolution ``(hi - lo) / (num - 1)`` and shares nothing with the
    eigenvalue-based solver.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    xs = np.linspace(lo, hi, num)
    aa = float(a @ a)
    ab = float(a @ b)
    bb = float(b @ b)
    q = (aa * xs * xs - 2.0 * ab * xs + bb) / (1.0 + xs * xs)
    idx = int(np.argmin(q))
    return float(xs[idx]), float(q[idx])


def feasible_sampler(
    blocks: CBlocks,
    center: np.ndarray,
    radius: float,
    count: int,
    seed: int,
) -> list[np.ndarray]:
    """Sample candidates around ``center`` that keep the exact rows satisfied.

    Perturbation directions live in the null space of the exact rows of
    ``A`` (every column of the perturbation does), scaled to Frobenius norm
    ``radius``.  With ``j = 0`` the whole space is feasible.
    """
    p = blocks.partition
    center = np.asarray(center, dtype=float)
    if p.j > 0:
        a_upper = np.hstack([blocks.c11, blocks.c12[:, : p.n_free]])
        _, sv, vt = np.linalg.svd(a_upper)
        rank = int(np.count_nonzero(sv > 1e-10 * sv[0])) if sv[0] > 0 else 0
        w = vt[rank:, :].T
    else:
        w = np.eye(p.n)
    rng = np.random.default_rng(seed)
    candidates = []
    for _ in range(count):
        delta = rng.standard_normal((w.shape[1], p.ell))
        step = w @ delta
        norm = np.linalg.norm(step)
        if norm > 0.0 and radius > 0.0:
            step *= radius / norm
        else:
            step = np.zeros_like(step)
        candidates.append(center + step)
    return candidates
