"""Estimators for regression with noise in both sides of the system.

Four TLS-type estimators run one pipeline on ``C = [A | B]``, and the
projection estimator shares its first and last steps:

1. Factor the noisy rows once.  ``ObservedData.r_noisy`` caches the square
   ``R`` with ``R.T @ R = C_noisy.T @ C_noisy``.  It shares its first TSQR
   level (the triangles of the 256-row blocks) with ``ObservedData.r_all``,
   the factor of all rows that TLS reads, so one instance makes one O(m)
   pass; everything after it costs O((n + ell)^3), independent of ``m``.
2. Eliminate the exact ``j x k`` corner (:func:`precondition_rowcol`).
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
Every partition runs these steps: with ``j = 0`` or ``k = 0`` the empty
blocks are zero-size arrays, the corner elimination is the identity and,
with ``j = 0``, ``P = I``.  Products with ``I`` are exact.

* :func:`tls_solve` - no constraints: the pipeline on a ``j = k = 0`` view
  whose noisy factor is ``r_all`` (:func:`tls_from_data`).
* :func:`ctls_rowcol` - the first ``j`` rows and ``k`` columns are exact;
  it checks that ``m > n + ell`` and that the exact rows are independent.
* :func:`ctls_columns` (``j = 0``) and :func:`ctls_rows` (``k = 0``) - thin
  wrappers that check the partition (:func:`accepts_partition`).
* :func:`projection_estimator` - shifts the noisy columns of ``R.T @ R`` by
  an estimate ``mu`` of the accumulated noise variance before projecting
  onto the null space of the exact rows; ``mu / m`` doubles as the
  noise-variance estimate.  The shifted matrix is indefinite, so this is the
  one step that takes a (small) symmetric eigendecomposition.

Every matrix inverse is realized as a linear solve, and the conditioning of
each solve is surfaced in the returned diagnostics.

The stages that several estimators and the sweep's residuals take of one
stack run once on it, whichever caller comes first
(:func:`ctls.model.instance_stage`): :func:`reduced_factor` (the reduced
blocks, the elimination record, the re-triangularised factor and ``P``),
:func:`noisy_gram` (before any shift ``mu``) and :func:`fixed_sv`.

Stacks: every stage runs on a stack of instances of one partition
(:meth:`ObservedData.stacked`), and each slice of a result is bit for bit
what the instance alone gives.  Through :func:`per_slice`, an estimator
returns for a stack one entry per slice, its result or the ``CtlsError``
its own call raises, and for one instance (a stack of one) its result or
its error.  A stacked call that raises any ``CtlsError`` runs again one
slice at a time, so a failing instance costs its stack what the instances
cost alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .errors import (
    CtlsError,
    EstimatorWarning,
    InvalidPartitionError,
    LowerBlockSingularError,
    NearSingularError,
    RankDeficientFixedColumnsError,
    RankDeficientUpperRowsError,
)
from .linalg import (
    SymEigenResult,
    _flat_r,
    as_matrix,
    check_slices,
    gram_condition,
    gram_eigen,
    matrix_rank,
    null_space_basis,
    rank_of,
    same_rank,
    singular_values,
    solve_linear,
    solve_upper_triangular,
    svd,
    sym_eigen,
)
from .model import ObservedData, PartitionSpec, instance_stage

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
    blocks have zero columns.  In the blocks of :func:`reduced_factor`,
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


def per_slice(run, data: ObservedData, *sliced):
    """``run(stack, *sliced)``, a list with an entry per slice of the stack
    and of each array of ``sliced``: each slice's entry or the ``CtlsError``
    its own call raises.  On one instance, its entry or its error raised.
    EstimatorWarning fires once per flagged estimate, at the caller of the
    function that calls ``per_slice``, so a ``run`` calls other estimators
    through their undecorated bodies (``.body`` of :func:`stacked`)."""
    one = data.stack_size is None
    if one:
        data, sliced = data.stack, [x[None] for x in sliced]
    outs = _slices(run, data, *sliced)
    for out in outs:
        if isinstance(out, EstimateResult) and out.diagnostics.flags:
            warnings.warn(
                f"eigenvalue gap {out.diagnostics.eig_gap:.3e} below {EIG_GAP_TOL:.0e} * |F|; "
                "the solution subspace is not numerically unique",
                EstimatorWarning,
                stacklevel=3,
            )
    if one and isinstance(outs[0], CtlsError):
        raise outs[0]
    return outs[0] if one else outs


def _slices(run, stack: ObservedData, *sliced) -> list:
    """``run`` on the stack, or, if that raises, on each slice alone."""
    try:
        return run(stack, *sliced)
    except CtlsError as exc:
        if stack.stack_size == 1:
            return [exc]
    return [out for i in range(stack.stack_size)
            for out in _slices(run, stack.take([i]), *(x[[i]] for x in sliced))]


def stacked(run):
    """``run(stack, *args, **kwargs)`` as a function of one instance or of a
    stack, through :func:`per_slice`; ``run`` is its ``body``, which a
    ``functools.wraps`` wrapper carries too."""

    @wraps(run)
    def call(data: ObservedData, *args, **kwargs):
        return per_slice(lambda stack: run(stack, *args, **kwargs), data)

    call.body = run
    return call


def slice_estimates(x_hat, sigma2_hat, smallest_eigs, mu=None, **diagnostics) -> list[EstimateResult]:
    """One EstimateResult per slice, from values with one entry per slice
    (None for none)."""
    size = len(x_hat)
    sigma2_hat, mu, *columns = (  # one Python value or array per slice
        [None] * size if v is None else v.tolist() if isinstance(v, np.ndarray) and v.ndim == 1 else v
        for v in (sigma2_hat, mu, *diagnostics.values())
    )
    return [
        EstimateResult(x_hat[s], sigma2_hat[s], smallest_eigs[s],
                       Diagnostics(**{key: col[s] for key, col in zip(diagnostics, columns)}),
                       mu[s])
        for s in range(size)
    ]


def split_blocks(data: ObservedData, noisy: np.ndarray) -> CBlocks:
    """Exact-row blocks of ``data`` plus the noisy columns ``noisy = [c21 | c22]``.

    ``noisy`` is the noisy rows themselves or any matrix with the same Gram
    matrix, such as their R factor.
    """
    k = data.partition.k
    return CBlocks(
        c11=data.exact_rows[..., :k].copy(),
        c12=data.exact_rows[..., k:],
        c21=noisy[..., :k],
        c22=noisy[..., k:],
        partition=data.partition,
    )


def build_blocks(data: ObservedData) -> CBlocks:
    """Slice the observed rows into the four partition blocks.  Raises
    ShapeError unless ``data`` is row-built."""
    a, b = data.rows
    j = data.partition.j
    return split_blocks(data, np.hstack([a[j:, :], b[j:, :]]))


def noisy_factor(blocks: CBlocks) -> np.ndarray:
    """Square R factor of the noisy columns ``[c21 | c22]`` of the factor
    blocks ``blocks`` (at most ``n + ell`` rows)."""
    return _flat_r(np.concatenate([blocks.c21, blocks.c22], axis=-1))


def _normalize_subspace(
    eig: SymEigenResult,
    basis: np.ndarray,
    n_upper: int,
    ell: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, list[list[str]]]:
    """Lift the ``ell`` smallest eigenvectors of each slice of ``eig`` through
    ``basis`` and normalize the trailing block to ``-I``.

    Returns ``(x, smallest_values, gap, z_lower_min_sv, flags)``, with one
    entry per slice.
    """
    values = eig.values
    flags: list[list[str]] = [[] for _ in range(len(values))]
    gap = None
    if values.shape[-1] > ell:
        gap = values[:, ell] - values[:, ell - 1]
        # The Frobenius norm of the decomposed symmetric matrix, a dot
        # product as np.linalg.norm takes it.
        scale = np.sqrt(values[:, None, :] @ values[:, :, None])[:, 0, 0]
        for s in (gap < EIG_GAP_TOL * scale).nonzero()[0]:
            flags[s].append("eig_gap_degenerate")
    z = basis @ eig.vectors[..., :ell]
    z_upper = z[..., :n_upper, :]
    z_lower = z[..., n_upper:, :]
    sv_low = singular_values(z_lower)
    check_slices(sv_low[:, -1] <= LOWER_BLOCK_TOL, lambda i: LowerBlockSingularError(
        f"trailing {ell}x{ell} eigenvector block is singular "
        f"(smallest singular value {sv_low[i, -1]:.3e})"
    ))
    try:
        x = solve_linear(z_lower.swapaxes(-1, -2), -z_upper.swapaxes(-1, -2), sv=sv_low)
    except NearSingularError as exc:
        raise LowerBlockSingularError(str(exc)) from exc
    return x.swapaxes(-1, -2), values[:, :ell], gap, sv_low[:, -1], flags


@stacked
def tls_from_data(data: ObservedData) -> EstimateResult:
    """Classical TLS on all of ``[A | B]``, ignoring the partition.

    The pipeline of :func:`ctls_rowcol`, without its checks, on a view of
    the stack with no exact rows, ``j = k = 0`` and the cached factor of all
    rows ``data.r_all`` as its noisy factor, which a sweep shares with
    :func:`ctls.harness.naive_ls`; see :func:`tls_solve`.
    """
    p = data.partition
    return _pipeline(ObservedData.stacked(data.exact_rows[:, :0],
                                          PartitionSpec(0, 0, p.n, p.ell, p.m), data.r_all))


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
    return per_slice(tls_from_data.body, ObservedData(a=a, b=b, partition=partition))


def accepts_partition(name: str, j: int, k: int, n: int) -> bool:
    """Whether the estimator ``name`` (a :data:`ctls.harness.ESTIMATORS`
    name) takes ``j`` exact rows and ``k`` exact columns of ``n``:
    ``ctls_columns`` needs ``j = 0`` and ``0 < k < n``, ``ctls_rows``
    needs ``k = 0`` and ``j > 0``, ``ctls_rowcol`` needs ``k < n``, and the
    others take any partition."""
    return {"ctls_columns": j == 0 and 0 < k < n, "ctls_rows": k == 0 and j > 0,
            "ctls_rowcol": k < n}.get(name, True)


@stacked
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
        ordinary least squares, which is out of scope here) or m <= n + ell.
    RankDeficientFixedColumnsError
        If the fixed columns are not of full column rank.
    """
    p = data.partition
    if not accepts_partition("ctls_columns", p.j, p.k, p.n):
        raise InvalidPartitionError(
            f"ctls_columns needs j=0 and 0<k<n, got j={p.j}, k={p.k}, n={p.n}"
        )
    p.require_overdetermined()
    sv = fixed_sv(data)
    check_slices(rank_of(sv) != p.k, lambda i: RankDeficientFixedColumnsError(
        f"fixed columns have singular values {sv[i]}; full column rank required"
    ))
    return _pipeline(data)  # j = 0: ctls_rowcol's exact-row check has no rows


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
        it is a column transform, so it applies to the factor blocks of
        :func:`reduced_factor` as well.
        """
        r = self.rank
        c12t = self.u.swapaxes(-1, -2) @ blocks.c12
        c21t = blocks.c21 @ self.v
        mult = c21t[..., :r] / self.sigma_r[..., None, :]
        rp = self.reduced_partition
        return CBlocks(
            c11=np.zeros(blocks.c11.shape[:-2] + (rp.j, rp.k)),
            c12=c12t[..., r:, :].copy(),
            c21=c21t[..., r:].copy(),
            c22=blocks.c22 - mult @ c12t[..., :r, :],
            partition=rp,
        )

    def recover(self, x_reduced: np.ndarray) -> np.ndarray:
        """Map a solution of the reduced problem back to original coordinates.
        Works on a C-contiguous ``x_reduced``: with one pivot row BLAS rounds
        ``pivot_a @ x_free`` by the memory layout."""
        x_reduced = np.ascontiguousarray(x_reduced)
        k, n_free = self.partition.k, self.partition.n_free
        x_free = x_reduced[..., k - self.rank :, :]
        pivot_a = self.pivot_c12[..., :n_free]
        pivot_b = self.pivot_c12[..., n_free:]
        x_pivot = (pivot_b - pivot_a @ x_free) / self.sigma_r[..., :, None]
        x_prime = np.concatenate([x_pivot, x_reduced], axis=-2)
        return np.concatenate([self.v @ x_prime[..., :k, :], x_prime[..., k:, :]], axis=-2)


def precondition_rowcol(blocks: CBlocks) -> tuple[CBlocks, PreconditionRecord]:
    """Zero the exact ``j x k`` corner and shrink the problem accordingly.

    SVD of the corner rotates the exact rows and fixed columns so the corner
    becomes ``diag(sigma_r, 0)``; block elimination on the ``rank``
    nonsingular pivots then zeroes the fixed columns below them.  The pivot
    rows determine their coefficients a posteriori, so they are dropped,
    leaving a problem whose exact corner is identically zero.  Without a
    corner (``j = 0`` or ``k = 0``) or with a zero one, the record is the
    identity: rank 0, ``u = I_j``, ``v = I_k``, no SVD, and ``blocks``
    come back as they are.  A stack whose corners differ in rank raises
    CtlsError.
    """
    p = blocks.partition
    if blocks.c11.any():  # a zero corner has rank 0, so same_rank rejects a mix
        dec = svd(blocks.c11)
        sv = dec.singular_values
        r = same_rank(rank_of(sv))
        u, v, sigma_r = dec.u, dec.v, sv[..., :r].copy()
    else:
        r, u, v, sigma_r = 0, np.eye(p.j), np.eye(p.k), np.zeros(0)
    record = PreconditionRecord(
        u=u,
        v=v,
        rank=r,
        sigma_r=sigma_r,
        pivot_c12=(u.swapaxes(-1, -2) @ blocks.c12)[..., :r, :].copy(),
        partition=p,
        reduced_partition=PartitionSpec(
            j=p.j - r, k=p.k - r, n=p.n - r, ell=p.ell, m=p.m - r
        ),
    )
    return (record.transform_blocks(blocks) if r else blocks), record


def _exact_row_basis(rows: np.ndarray, max_rows: int) -> np.ndarray:
    """Orthonormal basis ``P`` of the null space of ``rows``; ``I`` without rows.

    ``max_rows`` is below the column count, so the null space is never
    empty and its size gives the rank.  Raises RankDeficientUpperRowsError
    if the rows are rank deficient or more than ``max_rows``.
    """
    j, cols = rows.shape[-2:]
    if j == 0:
        return np.eye(cols)
    if j > max_rows or cols - (basis := null_space_basis(rows)).shape[-1] != j:
        raise _exact_rows_error(j, max_rows)
    return basis


def _exact_rows_error(j: int, max_rows: int) -> RankDeficientUpperRowsError:
    return RankDeficientUpperRowsError(
        f"the {j} exact rows are rank deficient or more than {max_rows}"
    )


def _constraint_residual(data: ObservedData, x_hat: np.ndarray) -> np.ndarray | None:
    """``|A1 @ x_hat - B1|_F`` per slice over the exact rows; None without
    exact rows.  The product takes C-contiguous copies of ``A1`` and
    ``x_hat``: with one exact row BLAS rounds it by the memory layout.  The
    sum of squares is a dot product of the flat residual, as
    ``np.linalg.norm`` takes it."""
    rows, n = data.exact_rows, data.partition.n
    if not rows.shape[-2]:
        return None
    a1 = rows[..., :n].copy()
    flat = (a1 @ np.ascontiguousarray(x_hat) - rows[..., n:]).reshape(len(rows), 1, -1)
    return np.sqrt(flat @ flat.swapaxes(-1, -2))[:, 0, 0]


@instance_stage
def reduced_factor(
    data: ObservedData,
) -> tuple[CBlocks, PreconditionRecord, np.ndarray, np.ndarray]:
    """The blocks of ``data``, noisy rows replaced by the factor ``data.r_noisy``
    (same Gram products), after the exact corner is eliminated.

    Returns the reduced blocks, the record that undoes the elimination, the
    re-triangularised R factor of the blocks' noisy columns and the
    null-space basis ``P`` of the remaining exact rows (``I`` when none
    remain).  With no pivot eliminated the blocks and the factor are those
    of ``data.r_noisy`` itself.  Raises RankDeficientUpperRowsError as
    :func:`_exact_row_basis` does.
    """
    blocks, record = precondition_rowcol(split_blocks(data, data.r_noisy))
    basis = _exact_row_basis(blocks.c12, data.partition.n_free)
    return blocks, record, noisy_factor(blocks) if record.rank else data.r_noisy, basis


@stacked
def ctls_rowcol(data: ObservedData) -> EstimateResult:
    """Constrained TLS with exact leading rows and columns.

    Checks that ``m > n + ell`` and that the exact rows of ``A`` are
    independent, then runs the pipeline: eliminate the exact corner inside
    the factor (:func:`reduced_factor`), restrict the Schur-complement
    factor ``R22`` to the null space ``P`` of the remaining exact rows, take
    the ``ell`` smallest Ritz pairs from the SVD of ``R22 @ P``, normalize
    them into the free-column coefficients, then solve the fixed-column
    least-squares problem with ``R11`` and undo the preconditioning.
    Without exact rows or columns its steps are identities, and
    :func:`tls_from_data` runs it, unchecked, on a ``j = k = 0`` view.

    Raises
    ------
    InvalidPartitionError
        If ``k = n`` (ordinary least squares, out of scope) or ``m <= n + ell``.
    RankDeficientUpperRowsError
        If the exact rows are rank deficient; select independent rows first.
    NearSingularError
        If the fixed-column Gram matrix is numerically singular.
    LowerBlockSingularError
        Nongeneric instance (see :func:`tls_solve`).
    """
    _check_rowcol(data)
    return _pipeline(data)


def _check_rowcol(data: ObservedData) -> None:
    """The checks of :func:`ctls_rowcol`: ``k < n``, ``m > n + ell`` and exact
    rows of ``A`` that are independent on their own (``j < n``)."""
    p = data.partition
    if not accepts_partition("ctls_rowcol", p.j, p.k, p.n):
        raise InvalidPartitionError(f"ctls_rowcol needs k<n, got k={p.k}, n={p.n}")
    p.require_overdetermined()
    if p.j:
        check_slices(matrix_rank(data.exact_rows[..., : p.n]) != p.j,
                     lambda i: _exact_rows_error(p.j, p.n - 1))


def _pipeline(data: ObservedData) -> list[EstimateResult]:
    """The pipeline of :func:`ctls_rowcol` on a stack, without its checks."""
    p = data.partition
    blocks, record, r, basis = reduced_factor(data)
    rp = blocks.partition
    k = rp.k

    notes = ([f"fixed-corner rank {record.rank} eliminated (j {p.j}->{rp.j}, k {p.k}->{k})"]
             if p.j and p.k else [])
    # With no pivot eliminated, r is data.r_noisy.
    sv = fixed_sv(data) if k > 0 and record.rank == 0 else None
    cond21 = gram_condition(r[..., :k, :k], sv) if k > 0 else None
    x_lower, ritz, gap, z_min, flags = _normalize_subspace(
        gram_eigen(r[..., k:, k:] @ basis), basis, p.n_free, p.ell
    )
    # The exact-column coefficients; with k = 0 a 0 x 0 solve.
    eye = np.broadcast_to(np.eye(p.ell), x_lower.shape[:-2] + (p.ell, p.ell))
    y = np.concatenate([-x_lower, eye], axis=-2)
    x_top = solve_upper_triangular(r[..., :k, :k], r[..., :k, k:] @ y)
    x_hat = record.recover(np.concatenate([x_top, x_lower], axis=-2))
    return slice_estimates(
        x_hat,
        np.maximum(0.0, np.mean(ritz, axis=-1)) / p.m,
        ritz,
        z_lower_smallest_sv=z_min,
        c21_gram_condition=cond21,
        eig_gap=gap,
        constraint_residual=_constraint_residual(data, x_hat),
        flags=flags,
        rank_notes=[list(notes) for _ in flags],
    )


@stacked
def ctls_rows(data: ObservedData) -> EstimateResult:
    """Constrained TLS with exactly-known leading rows (k = 0, 0 < j < n).

    The row+column machinery covers this case with an empty fixed-column
    block, so this is a thin wrapper that validates the partition.
    """
    p = data.partition
    if not accepts_partition("ctls_rows", p.j, p.k, p.n):
        raise InvalidPartitionError(f"ctls_rows needs k=0 and j>0, got j={p.j}, k={p.k}")
    _check_rowcol(data)
    return _pipeline(data)


@instance_stage
def fixed_sv(data: ObservedData) -> np.ndarray:
    """Singular values of ``R11``, the exact-column corner of ``data.r_noisy`` (k > 0)."""
    k = data.partition.k
    return singular_values(data.r_noisy[..., :k, :k])


@instance_stage
def noisy_gram(data: ObservedData) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of ``R22.T @ R22`` and ``R.T @ R`` for ``R = data.r_noisy``."""
    r, k = data.r_noisy, data.partition.k
    return gram_eigen(r[..., k:, k:]).values, r.swapaxes(-1, -2) @ r


def shifted_gram(
    data: ObservedData, mu_rule: str = "mean"
) -> tuple[np.ndarray, float, np.ndarray]:
    """The shifted Gram matrix of the projection estimator.

    With ``R = data.r_noisy`` split after the ``k`` exact columns, returns
    ``(g_eigs, mu, f)``: the ``ell`` smallest eigenvalues of the Schur
    complement ``R22.T @ R22``, the shift ``mu`` that ``mu_rule`` picks
    among them, and ``R.T @ R`` minus ``mu`` on the diagonal of its noisy
    columns.
    """
    k = data.partition.k
    eigs, gram = noisy_gram(data)
    g_eigs = eigs[..., : data.partition.ell]
    if mu_rule == "min":
        mu = g_eigs[..., 0]
    elif mu_rule == "max":
        mu = g_eigs[..., -1]
    else:
        mu = np.mean(g_eigs, axis=-1)
    f = gram.copy()
    f[..., k:, k:] -= np.multiply.outer(mu, np.eye(f.shape[-1] - k))
    return g_eigs, mu, f


@stacked
def projection_estimator(data: ObservedData, mu_rule: str = "mean") -> EstimateResult:
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
    m, n, ell, k = p.m, p.n, p.ell, p.k

    # j < n, so the exact rows never fill the n + ell columns.
    basis = _exact_row_basis(data.exact_rows, n - 1)
    cond21 = gram_condition(data.r_noisy[..., :k, :k], fixed_sv(data)) if k > 0 else None
    g_eigs, mu, f = shifted_gram(data, mu_rule)
    x_hat, ritz, gap, z_min, flags = _normalize_subspace(
        sym_eigen(basis.swapaxes(-1, -2) @ f @ basis), basis, n, ell
    )
    return slice_estimates(
        x_hat,
        np.maximum(0.0, mu) / m,
        ritz,
        mu=mu,
        z_lower_smallest_sv=z_min,
        c21_gram_condition=cond21,
        eig_gap=gap,
        constraint_residual=_constraint_residual(data, x_hat),
        g_smallest_eigs=g_eigs.copy(),
        flags=flags,
    )

