"""Estimators for regression with noise in both sides of the system.

Five estimators share one pipeline on ``C = [A | B]``:

1. Factor the noisy rows once.  ``ObservedData.r_noisy`` caches the square
   ``R`` with ``R.T @ R = C_noisy.T @ C_noisy`` (one O(m) pass); everything
   after it costs O((n + ell)^3), independent of ``m``.
2. Eliminate an exact ``j x k`` corner, if any (:func:`precondition_rowcol`).
   The elimination is a column transform built from the exact rows only, so
   it is applied to ``R`` and the result is re-triangularised.
3. Split the factor after the exact columns,
   ``R = [[R11, R12], [0, R22]]``: ``R22.T @ R22`` is the Schur complement
   that eliminates the exact columns.
4. Restrict to the null space ``P`` of the exact rows and take the ``ell``
   smallest right singular vectors of ``R22 @ P``.  Their basis
   ``Z = [Z_upper; Z_lower]`` normalizes into ``X = -Z_upper @ inv(Z_lower)``,
   and the exact-column coefficients are ``R11^-1 R12 [-X; I]``.

The SVD of the factor, not an eigensolver on its Gram matrix, keeps the
relative accuracy of the small singular values the solution is made of.
With ``j = 0`` or ``k = 0`` the partition blocks that have no rows or no
columns are ordinary zero-size arrays, so the block algebra needs no special
cases for them.

* :func:`tls_solve` - no constraints; the factor covers all rows.
* :func:`ctls_rowcol` - the first ``j`` rows and ``k`` columns are exact.
* :func:`ctls_columns` (``j = 0``) and :func:`ctls_rows` (``k = 0``) - thin
  wrappers over :func:`ctls_rowcol` that check the partition.
* :func:`projection_estimator` - shifts the noisy columns of ``R.T @ R`` by
  an estimate ``mu`` of the accumulated noise variance before projecting
  onto the null space of the exact rows; ``mu / m`` doubles as the
  noise-variance estimate.  The shifted matrix is indefinite, so this is the
  one step that takes a (small) symmetric eigendecomposition.

Every matrix inverse is realized as a linear solve, and the conditioning of
each solve is surfaced in the returned diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EstimatorWarning,
    InvalidPartitionError,
    LowerBlockSingularError,
    NearSingularError,
    RankDeficientFixedColumnsError,
    RankDeficientUpperRowsError,
)
from .linalg import (
    RANK_TOL,
    SymEigenResult,
    as_matrix,
    gram_condition,
    gram_eigen,
    matrix_rank,
    null_space_basis,
    singular_values,
    solve_linear,
    solve_upper_triangular,
    svd,
    sym_eigen,
    tall_r,
)
from .model import ObservedData, PartitionSpec

#: Relative eigenvalue-gap threshold below which the solution subspace is
#: flagged as not numerically unique.
EIG_GAP_TOL = 1e-10

#: Absolute smallest-singular-value threshold for the trailing block of the
#: solution eigenvectors (their columns have unit norm, so the scale is 1).
LOWER_BLOCK_TOL = 1e-12

MU_RULES = ("min", "mean", "max")


@dataclass
class Diagnostics:
    """Conditioning report attached to every estimate.

    ``flags`` carries non-fatal conditions (currently only
    ``"eig_gap_degenerate"``); ``rank_notes`` records every rank decision
    taken on the way to the estimate.
    """

    z_lower_smallest_sv: float | None = None
    c21_gram_condition: float | None = None
    eig_gap: float | None = None
    constraint_residual: float | None = None
    g_smallest_eigs: np.ndarray | None = None
    flags: list[str] = field(default_factory=list)
    rank_notes: list[str] = field(default_factory=list)


@dataclass
class EstimateResult:
    """An estimate plus the quantities needed to judge it.

    ``smallest_eigs`` holds the ``ell`` smallest eigenvalues (or Ritz
    values) consumed by the estimator, ascending.  ``mu`` is set by the
    projection estimator only; ``sigma2_hat`` is ``mu / m`` there and the
    mean of ``smallest_eigs`` over ``m`` for the eigenvalue-based
    estimators.
    """

    x_hat: np.ndarray
    sigma2_hat: float
    smallest_eigs: np.ndarray
    diagnostics: Diagnostics
    mu: float | None = None


@dataclass(frozen=True)
class CBlocks:
    """The observed data ``[A | B]`` split along the partition.

    ``c11 = A11`` (exact), ``c12 = [A12 B1]`` (exact rows), ``c21 = A21``
    (exact columns), ``c22 = [A22 B2]`` (the noisy block).  With ``j = 0``
    the exact-row blocks have zero rows, with ``k = 0`` the exact-column
    blocks have zero columns.  In the blocks of :func:`factor_blocks`,
    ``c21`` and ``c22`` are the columns of the R factor of the noisy rows
    instead of the rows themselves.
    """

    c11: np.ndarray
    c12: np.ndarray
    c21: np.ndarray
    c22: np.ndarray
    partition: PartitionSpec

    def assemble(self) -> np.ndarray:
        """Reassemble the blocks into the full ``m x (n + ell)`` matrix."""
        return np.block([[self.c11, self.c12], [self.c21, self.c22]])


def _split(data: ObservedData, noisy: np.ndarray) -> CBlocks:
    """Exact-row blocks of ``data`` plus the noisy columns ``noisy = [c21 | c22]``."""
    p = data.partition
    j, k = p.j, p.k
    return CBlocks(
        c11=data.a[:j, :k].copy(),
        c12=np.hstack([data.a[:j, k:], data.b[:j, :]]),
        c21=noisy[:, :k],
        c22=noisy[:, k:],
        partition=p,
    )


def build_blocks(data: ObservedData) -> CBlocks:
    """Slice the observed data into the four partition blocks."""
    j = data.partition.j
    return _split(data, np.hstack([data.a[j:, :], data.b[j:, :]]))


def factor_blocks(data: ObservedData) -> CBlocks:
    """:func:`build_blocks` with the noisy rows replaced by ``data.r_noisy``.

    Every Gram product of ``c21`` and ``c22`` is unchanged, but they have
    ``n + ell`` rows instead of ``m - j``.
    """
    return _split(data, data.r_noisy)


def noisy_factor(blocks: CBlocks) -> np.ndarray:
    """Square R factor of the noisy columns ``[c21 | c22]`` of ``blocks``."""
    return tall_r(np.hstack([blocks.c21, blocks.c22]))


def _normalize_subspace(
    eig: SymEigenResult,
    basis: np.ndarray | None,
    n_upper: int,
    ell: int,
) -> tuple[np.ndarray, np.ndarray, float | None, float, list[str]]:
    """Lift the ``ell`` smallest eigenvectors of ``eig`` through ``basis``
    and normalize the trailing block to ``-I``.

    Returns ``(x, smallest_values, gap, z_lower_min_sv, flags)``.
    """
    values = eig.values
    flags: list[str] = []
    gap: float | None = None
    if values.size > ell:
        gap = float(values[ell] - values[ell - 1])
        # The Frobenius norm of the decomposed symmetric matrix.
        scale = float(np.linalg.norm(values))
        if gap < EIG_GAP_TOL * scale:
            flags.append("eig_gap_degenerate")
            warnings.warn(
                f"eigenvalue gap {gap:.3e} below {EIG_GAP_TOL:.0e} * |F|; "
                "the solution subspace is not numerically unique",
                EstimatorWarning,
                stacklevel=3,
            )
    z_small = eig.vectors[:, :ell]
    z = basis @ z_small if basis is not None else z_small
    z_upper = z[:n_upper, :]
    z_lower = z[n_upper:, :]
    sv_low = singular_values(z_lower)
    if sv_low[-1] <= LOWER_BLOCK_TOL:
        raise LowerBlockSingularError(
            f"trailing {ell}x{ell} eigenvector block is singular "
            f"(smallest singular value {sv_low[-1]:.3e})"
        )
    try:
        x = solve_linear(z_lower.T, -z_upper.T).T
    except NearSingularError as exc:
        raise LowerBlockSingularError(str(exc)) from exc
    return x, values[:ell].copy(), gap, float(sv_low[-1]), flags


def tls_from_data(data: ObservedData) -> EstimateResult:
    """Classical TLS on all of ``[A | B]``, ignoring the partition.

    Works from the cached factor ``data.r_all``, so a sweep shares it with
    :func:`ctls.harness.naive_ls`; see :func:`tls_solve`.
    """
    p = data.partition
    x, eigs, gap, z_min, flags = _normalize_subspace(
        gram_eigen(data.r_all), None, p.n, p.ell
    )
    diag = Diagnostics(z_lower_smallest_sv=z_min, eig_gap=gap, flags=flags)
    sigma2 = max(0.0, float(np.mean(eigs))) / p.m
    return EstimateResult(x_hat=x, sigma2_hat=sigma2, smallest_eigs=eigs, diagnostics=diag)


def tls_solve(a, b) -> EstimateResult:
    """Classical total least squares.

    Factors ``C = [A | B]`` as ``R`` and takes the ``ell`` smallest right
    singular vectors of ``R`` (the smallest eigenpairs of ``C.T @ C``),
    normalized into the coefficient matrix.  The noise variance estimate is
    the mean of those eigenvalues over ``m``.

    Raises
    ------
    LowerBlockSingularError
        Nongeneric instance: the solution subspace cannot be normalized.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    m, n = a.shape
    partition = PartitionSpec(j=0, k=0, n=n, ell=b.shape[1], m=m)
    return tls_from_data(ObservedData(a=a, b=b, partition=partition))


def ctls_columns(data: ObservedData) -> EstimateResult:
    """Constrained TLS with exactly-known leading columns (j = 0, 0 < k < n).

    Eliminating the fixed columns inside the factor reduces the problem to
    an unconstrained one on the orthogonal complement of their range; the
    fixed-column coefficients then solve the least-squares problem that the
    reduced solution leaves.  This is :func:`ctls_rowcol` with ``j = 0``.

    Raises
    ------
    InvalidPartitionError
        If the partition is not j = 0 with 0 < k < n (k = n would be
        ordinary least squares, which is out of scope here).
    RankDeficientFixedColumnsError
        If the fixed columns are not of full column rank.
    """
    p = data.partition
    if p.j != 0 or p.k == 0 or p.k >= p.n:
        raise InvalidPartitionError(
            f"ctls_columns needs j=0 and 0<k<n, got j={p.j}, k={p.k}, n={p.n}"
        )
    p.require_overdetermined()
    sv = singular_values(data.r_noisy[: p.k, : p.k])
    if sv[0] == 0.0 or sv[-1] <= RANK_TOL * sv[0]:
        raise RankDeficientFixedColumnsError(
            f"fixed columns have singular values {sv}; full column rank required"
        )
    return ctls_rowcol(data)


@dataclass(frozen=True)
class PreconditionRecord:
    """Everything needed to undo the fixed-corner elimination.

    The transform diagonalizes the exact ``j x k`` corner with an SVD
    ``A11 = u @ diag(sigma_r, 0) @ v.T``, then eliminates the leading
    ``rank`` pivots by row operations using exact rows only, and finally
    drops those pivot rows and columns from the problem.  ``pivot_c12``
    stores the ``rank`` dropped rows so their coefficients can be
    reconstructed, and ``v`` un-mixes the fixed-column coefficients.
    """

    u: np.ndarray
    v: np.ndarray
    rank: int
    sigma_r: np.ndarray
    pivot_c12: np.ndarray
    partition: PartitionSpec
    reduced_partition: PartitionSpec

    def transform_blocks(self, blocks: CBlocks) -> CBlocks:
        """Apply the stored transform to a compatible block partition.

        The transform is built from the exact blocks only, so it applies
        verbatim to ground-truth blocks that share them (the noisy block is
        shifted by fixed quantities, never rescaled).  On the noisy columns
        it is a column transform, so it applies to the blocks of
        :func:`factor_blocks` as well.
        """
        r = self.rank
        c12t = self.u.T @ blocks.c12
        c21t = blocks.c21 @ self.v
        mult = c21t[:, :r] / self.sigma_r
        rp = self.reduced_partition
        return CBlocks(
            c11=np.zeros((rp.j, rp.k)),
            c12=c12t[r:, :].copy(),
            c21=c21t[:, r:].copy(),
            c22=blocks.c22 - mult @ c12t[:r, :],
            partition=rp,
        )

    def recover(self, x_reduced: np.ndarray) -> np.ndarray:
        """Map a solution of the reduced problem back to original coordinates."""
        k, n_free = self.partition.k, self.partition.n_free
        x_free = x_reduced[k - self.rank :, :]
        pivot_a = self.pivot_c12[:, :n_free]
        pivot_b = self.pivot_c12[:, n_free:]
        x_pivot = (pivot_b - pivot_a @ x_free) / self.sigma_r[:, None]
        x_prime = np.vstack([x_pivot, x_reduced])
        return np.vstack([self.v @ x_prime[:k, :], x_prime[k:, :]])


def precondition_rowcol(
    blocks: CBlocks, rank_tol: float = RANK_TOL
) -> tuple[CBlocks, PreconditionRecord]:
    """Zero the exact ``j x k`` corner and shrink the problem accordingly.

    SVD of the corner rotates the exact rows and fixed columns so the corner
    becomes ``diag(sigma_r, 0)``; block elimination on the ``rank``
    nonsingular pivots then zeroes the fixed columns below them.  The pivot
    rows determine their coefficients a posteriori, so they are dropped,
    leaving a problem whose exact corner is identically zero.  An already
    zero corner yields the identity transform.
    """
    p = blocks.partition
    if p.j == 0 or p.k == 0:
        raise InvalidPartitionError("precondition_rowcol needs j > 0 and k > 0")
    dec = svd(blocks.c11)
    sv = dec.singular_values
    r = int(np.count_nonzero(sv > rank_tol * sv[0]))
    reduced = PartitionSpec(
        j=p.j - r, k=p.k - r, n=p.n - r, ell=p.ell, m=p.m - r
    )
    record = PreconditionRecord(
        u=dec.u,
        v=dec.v,
        rank=r,
        sigma_r=sv[:r].copy(),
        pivot_c12=(dec.u.T @ blocks.c12)[:r, :].copy(),
        partition=p,
        reduced_partition=reduced,
    )
    return record.transform_blocks(blocks), record


def reduced_factor(
    data: ObservedData, rank_tol: float = RANK_TOL
) -> tuple[CBlocks, PreconditionRecord | None, np.ndarray]:
    """The factor blocks of ``data`` after the exact corner is eliminated.

    Returns the blocks, the record that undoes the elimination (None when
    there is no corner) and the re-triangularised R factor of the blocks'
    noisy columns.
    """
    blocks = factor_blocks(data)
    p = data.partition
    if p.j == 0 or p.k == 0:
        return blocks, None, data.r_noisy
    blocks, record = precondition_rowcol(blocks, rank_tol)
    return blocks, record, noisy_factor(blocks)


def ctls_rowcol(data: ObservedData, rank_tol: float = RANK_TOL) -> EstimateResult:
    """Constrained TLS with exact leading rows and columns.

    Pipeline: eliminate the exact corner inside the factor
    (:func:`reduced_factor`), restrict the Schur-complement factor ``R22``
    to the null space ``P`` of the remaining exact rows, take the ``ell``
    smallest Ritz pairs from the SVD of ``R22 @ P``, normalize them into
    the free-column coefficients, then solve the fixed-column least-squares
    problem with ``R11`` and undo the preconditioning.  Degenerate
    partitions collapse to the simpler estimators (j = k = 0 is plain TLS).

    Raises
    ------
    RankDeficientUpperRowsError
        If the exact rows are rank deficient; select independent rows first.
    NearSingularError
        If the fixed-column Gram matrix is numerically singular.
    LowerBlockSingularError
        Nongeneric instance (see :func:`tls_solve`).
    """
    p = data.partition
    if p.j == 0 and p.k == 0:
        return tls_from_data(data)
    p.require_overdetermined()
    m, ell = p.m, p.ell
    n_free = p.n_free

    if p.j > 0 and matrix_rank(data.a[: p.j, :], rank_tol) != p.j:
        raise RankDeficientUpperRowsError(
            f"the {p.j} exact rows of A are rank deficient"
        )

    blocks, record, r = reduced_factor(data, rank_tol)
    rp = blocks.partition

    notes = []
    if record is not None:
        notes.append(
            f"fixed-corner rank {record.rank} eliminated (j {p.j}->{rp.j}, "
            f"k {p.k}->{rp.k})"
        )

    if rp.j > 0:
        c12 = blocks.c12
        if rp.j > n_free or matrix_rank(c12, rank_tol) != rp.j:
            raise RankDeficientUpperRowsError(
                "exact rows remaining after preconditioning are rank deficient "
                f"or too many (j'={rp.j}, free columns={n_free})"
            )
        basis = null_space_basis(c12, rank_tol)
    else:
        basis = None

    k = rp.k
    cond21 = gram_condition(r[:k, :k]) if k > 0 else None
    r22 = r[k:, k:]
    ritz_factor = r22 @ basis if basis is not None else r22
    x_lower, ritz, gap, z_min, flags = _normalize_subspace(
        gram_eigen(ritz_factor), basis, n_free, ell
    )

    if k > 0:
        y = np.vstack([-x_lower, np.eye(ell)])
        x_top = solve_upper_triangular(r[:k, :k], r[:k, k:] @ y)
        x_reduced = np.vstack([x_top, x_lower])
    else:
        x_reduced = x_lower

    x_hat = record.recover(x_reduced) if record is not None else x_reduced

    constraint_residual = None
    if p.j > 0:
        constraint_residual = float(
            np.linalg.norm(data.a[: p.j] @ x_hat - data.b[: p.j], "fro")
        )
    diag = Diagnostics(
        z_lower_smallest_sv=z_min,
        c21_gram_condition=cond21,
        eig_gap=gap,
        constraint_residual=constraint_residual,
        flags=flags,
        rank_notes=notes,
    )
    sigma2 = max(0.0, float(np.mean(ritz))) / m
    return EstimateResult(
        x_hat=x_hat, sigma2_hat=sigma2, smallest_eigs=ritz, diagnostics=diag
    )


def ctls_rows(data: ObservedData) -> EstimateResult:
    """Constrained TLS with exactly-known leading rows (k = 0, 0 < j < n).

    The row+column machinery covers this case with an empty fixed-column
    block, so this is a thin wrapper that validates the partition.
    """
    p = data.partition
    if p.k != 0 or p.j == 0:
        raise InvalidPartitionError(
            f"ctls_rows needs k=0 and j>0, got j={p.j}, k={p.k}"
        )
    return ctls_rowcol(data)


def shifted_gram(
    r: np.ndarray, k: int, ell: int, mu_rule: str = "mean"
) -> tuple[np.ndarray, float, np.ndarray]:
    """The shifted Gram matrix of the projection estimator.

    ``r`` is the factor of the noisy rows with ``k`` exact leading columns.
    Returns ``(g_eigs, mu, f)``: the ``ell`` smallest eigenvalues of the
    Schur complement ``R22.T @ R22``, the shift ``mu`` that ``mu_rule``
    picks among them, and ``r.T @ r`` minus ``mu`` on the diagonal of its
    noisy columns.
    """
    g_eigs = gram_eigen(r[k:, k:]).values[:ell]
    if mu_rule == "min":
        mu = float(g_eigs[0])
    elif mu_rule == "max":
        mu = float(g_eigs[-1])
    else:
        mu = float(np.mean(g_eigs))
    f = r.T @ r
    f[k:, k:] -= mu * np.eye(f.shape[0] - k)
    return g_eigs, mu, f


def projection_estimator(
    data: ObservedData, mu_rule: str = "mean", rank_tol: float = RANK_TOL
) -> EstimateResult:
    """Orthogonal-projection estimator with a noise-variance shift.

    The noisy columns of ``R.T @ R`` are shifted by ``mu``, a point in the
    range of the ``ell`` smallest eigenvalues of the column-eliminated Gram
    matrix ``G = R22.T @ R22``; the shifted matrix is then projected onto
    the null space of the exact rows and the ``ell`` smallest Ritz pairs
    give the estimate.  ``mu / m`` estimates the noise variance.

    ``mu_rule`` picks the representative in {"min", "mean", "max"} of those
    eigenvalues (any choice is admissible; the mean is the symmetric
    default).
    """
    if mu_rule not in MU_RULES:
        raise ValueError(f"mu_rule must be one of {MU_RULES}, got {mu_rule!r}")
    p = data.partition
    p.require_overdetermined()
    m, n, ell, j, k = p.m, p.n, p.ell, p.j, p.k

    basis = None
    if j > 0:
        c_upper = np.hstack([data.a[:j], data.b[:j]])
        if matrix_rank(c_upper, rank_tol) != j:
            raise RankDeficientUpperRowsError(
                f"the {j} exact rows of [A | B] are rank deficient"
            )
        basis = null_space_basis(c_upper, rank_tol)

    r = data.r_noisy
    cond21 = gram_condition(r[:k, :k]) if k > 0 else None
    g_eigs, mu, f = shifted_gram(r, k, ell, mu_rule)
    fmat = basis.T @ f @ basis if basis is not None else f
    x_hat, ritz, gap, z_min, flags = _normalize_subspace(sym_eigen(fmat), basis, n, ell)

    constraint_residual = None
    if j > 0:
        constraint_residual = float(
            np.linalg.norm(data.a[:j] @ x_hat - data.b[:j], "fro")
        )
    diag = Diagnostics(
        z_lower_smallest_sv=z_min,
        c21_gram_condition=cond21,
        eig_gap=gap,
        constraint_residual=constraint_residual,
        g_smallest_eigs=g_eigs.copy(),
        flags=flags,
    )
    return EstimateResult(
        x_hat=x_hat,
        sigma2_hat=max(0.0, mu) / m,
        smallest_eigs=ritz,
        diagnostics=diag,
        mu=mu,
    )

