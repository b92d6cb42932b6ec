"""Dense linear-algebra kernels on LAPACK (``numpy.linalg``), with explicit contracts.

* ``tall_r`` factors a tall matrix once: blocks of ``BLOCK_ROWS`` rows go
  through one batched QR and the stacked triangles through one more (one
  level of TSQR), giving a square ``R`` with ``R.T @ R = C.T @ C``.  The
  estimators see their O(m) data only through such factors.
* ``gram_eigen`` takes the eigenpairs of ``R.T @ R`` from the SVD of ``R``.
  Forming the Gram matrix first would square the condition number and lose
  the relative accuracy of the small eigenvalues that the TLS solutions are
  made of.
* ``sym_eigen``, ``svd``, ``singular_values``, ``null_space_basis``, the QR
  functions, ``cholesky_lower`` and the solves are thin wrappers over the
  matching ``numpy.linalg`` routine.
* ``solve_linear`` and ``gram_condition`` refuse matrices whose condition
  exceeds the working threshold instead of returning garbage.

The contracts hold on top of LAPACK: eigenvalues ascend, singular values do
not increase, every eigenvector and right-singular-vector sign is pinned so
that its first entry larger than ``SIGN_TOL`` in magnitude is positive, QR
factors have a nonnegative diagonal, inputs must be finite and nonempty
(:func:`as_matrix` raises :class:`ShapeError` otherwise), and a LAPACK
failure (``numpy.linalg.LinAlgError``) surfaces as :class:`LapackError`, so
callers that count ``CtlsError`` count it too.

Every function is a pure function of its inputs and never mutates them.
Identical inputs give bit-identical outputs for one numpy/BLAS build and one
BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FullRankError,
    LapackError,
    NearSingularError,
    NonFiniteError,
    NonSquareError,
    NotPositiveDefiniteError,
    ShapeError,
    WideMatrixError,
)

#: Magnitude below which an entry does not qualify as the sign-fixing pivot.
SIGN_TOL = 1e-12

#: Default relative tolerance for rank decisions (singular values below
#: ``RANK_TOL * sigma_max`` count as zero).
RANK_TOL = 1e-10

#: Relative conditioning threshold used by ``solve_linear``.
SOLVE_COND_TOL = 1e-12

#: Rows per block in the first level of :func:`tall_r`.
BLOCK_ROWS = 256


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Validate and return ``obj`` as a 2-D float array with finite entries.

    Raises
    ------
    ShapeError
        If the input is not 2-D or has a zero dimension.
    NonFiniteError
        If any entry is NaN or infinite.
    """
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} has a zero dimension {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SymEigenResult:
    """All eigenpairs of a symmetric matrix, eigenvalues ascending.

    ``vectors`` has orthonormal columns; column ``i`` pairs with
    ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class QrResult:
    """Full QR factorization ``M = q1 @ r_top`` with ``q_full`` square.

    ``q1`` holds the first ``k`` columns of ``q_full`` and ``q2`` the
    remaining ``m - k`` (zero columns when ``m == k``).  The diagonal of
    ``r_top`` is nonnegative.
    """

    q_full: np.ndarray
    r_top: np.ndarray
    q1: np.ndarray
    q2: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Full SVD ``M = u @ diag(singular_values) @ v.T`` (rectangular diag).

    ``singular_values`` is nonincreasing and nonnegative, with
    ``min(rows, cols)`` entries.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def _lapack(fn, *args, **kwargs):
    """Call a ``numpy.linalg`` routine, turning its failures into LapackError."""
    try:
        return fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise LapackError(f"numpy.linalg.{fn.__name__}: {exc}") from exc


def _sign_flips(vectors: np.ndarray) -> np.ndarray:
    """Per column, -1 where the first entry above ``SIGN_TOL`` is negative, else 1."""
    above = np.abs(vectors) > SIGN_TOL
    lead = vectors[np.argmax(above, axis=0), np.arange(vectors.shape[1])]
    return np.where(above.any(axis=0) & (lead < 0.0), -1.0, 1.0)


def _square(a: np.ndarray, what: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{what} needs a square matrix, got {a.shape}")


def tall_r(c) -> np.ndarray:
    """Square upper-triangular ``R`` with ``R.T @ R = C.T @ C`` up to roundoff.

    Blocks of ``BLOCK_ROWS`` rows are factored in one batched
    ``numpy.linalg.qr(..., mode="r")`` call, and the stacked triangles plus
    the leftover rows once more; one flat QR of a 1e5 x 12 matrix took
    about twice as long (OpenBLAS 0.3.31, one thread, 2-CPU x86-64 VM).
    Row signs are LAPACK's.  With fewer rows than columns the trapezoidal
    factor is padded with zero rows.
    """
    a = as_matrix(c, "C")
    rows, cols = a.shape
    full = rows // BLOCK_ROWS
    if full > 1 and cols < BLOCK_ROWS:
        head = a[: full * BLOCK_ROWS].reshape(full, BLOCK_ROWS, cols)
        triangles = _lapack(np.linalg.qr, head, mode="r").reshape(-1, cols)
        a = np.vstack([triangles, a[full * BLOCK_ROWS :]])
    r = _lapack(np.linalg.qr, a, mode="r")
    if r.shape[0] < cols:
        r = np.vstack([r, np.zeros((cols - r.shape[0], cols))])
    return r


def gram_eigen(r) -> SymEigenResult:
    """Eigenpairs of ``r.T @ r`` from the SVD of ``r``, eigenvalues ascending.

    The eigenvalues are the squared singular values (plus zeros when ``r``
    has fewer rows than columns), so they keep the relative accuracy of the
    SVD; vectors carry the sign convention.
    """
    a = as_matrix(r, "R")
    _, sv, vt = _lapack(np.linalg.svd, a)
    values = np.concatenate([np.zeros(a.shape[1] - sv.size), (sv * sv)[::-1]])
    vectors = vt[::-1].T
    return SymEigenResult(values=values, vectors=vectors * _sign_flips(vectors))


def sym_eigen(s) -> SymEigenResult:
    """Eigendecomposition of a symmetric matrix (LAPACK ``syevd``).

    The input is symmetrized as ``(S + S.T) / 2`` before solving, since Gram
    products routinely carry 1e-15-scale asymmetry.  Eigenvalues come back
    ascending; the vectors carry the deterministic sign convention.

    Raises
    ------
    NonSquareError
        If the matrix is not square.
    """
    a = as_matrix(s, "S")
    _square(a, "sym_eigen")
    values, vectors = _lapack(np.linalg.eigh, 0.5 * (a + a.T))
    return SymEigenResult(values=values, vectors=vectors * _sign_flips(vectors))


def _signed_qr(m, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.qr`` with the leading columns of Q flipped so R's diagonal is >= 0."""
    a = as_matrix(m, "M")
    rows, cols = a.shape
    if rows < cols:
        raise WideMatrixError(f"QR needs rows >= cols, got {a.shape}")
    q, r = _lapack(np.linalg.qr, a, mode=mode)
    flips = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q[:, :cols] *= flips
    r[:cols] *= flips[:, None]
    return q, r


def qr_thin(m) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR: ``m = q1 @ r1`` with ``q1`` of shape rows x cols.

    Same sign convention as :func:`qr_decompose`: nonnegative diagonal of
    ``r1``.
    """
    return _signed_qr(m, "reduced")


def qr_decompose(m) -> QrResult:
    """Full QR of a tall matrix.

    Raises
    ------
    WideMatrixError
        If the matrix has fewer rows than columns.
    """
    q, r = _signed_qr(m, "complete")
    cols = r.shape[1]
    return QrResult(q_full=q, r_top=r[:cols], q1=q[:, :cols], q2=q[:, cols:])


def svd(m) -> SvdResult:
    """Full SVD (LAPACK ``gesdd``).

    Each right-singular vector carries the sign convention and its paired
    left vector flips with it.  Singular values keep high relative accuracy,
    making the ``1e-10`` rank threshold meaningful.
    """
    a = as_matrix(m, "M")
    u, sv, vt = _lapack(np.linalg.svd, a)
    v = vt.T
    flips = _sign_flips(v)
    u[:, : sv.size] *= flips[: sv.size]
    return SvdResult(u=u, singular_values=sv, v=v * flips)


def singular_values(m) -> np.ndarray:
    """Nonincreasing singular values of ``m``."""
    return _lapack(np.linalg.svd, as_matrix(m, "M"), compute_uv=False)


def matrix_rank(m, rank_tol: float = RANK_TOL) -> int:
    """Rank by counting singular values above ``rank_tol * sigma_max``."""
    sv = singular_values(m)
    return int(np.count_nonzero(sv > rank_tol * sv[0]))


def null_space_basis(m, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the null space of ``m``.

    Returned as a cols x (cols - rank) matrix ``P`` with ``P.T @ P = I`` and
    ``m @ P = 0`` up to roundoff; the basis vectors are the right singular
    vectors paired with singular values at or below ``rank_tol * sigma_max``.

    Raises
    ------
    FullRankError
        If the null space is empty; callers decide whether that is fatal.
    """
    if rank_tol <= 0.0:
        raise ValueError("rank_tol must be positive")
    a = as_matrix(m, "M")
    _, sv, vt = _lapack(np.linalg.svd, a)
    rank = int(np.count_nonzero(sv > rank_tol * sv[0]))
    if rank == a.shape[1]:
        raise FullRankError(f"matrix of shape {a.shape} has an empty null space")
    basis = vt[rank:].T
    return basis * _sign_flips(basis)


def _near_singular(cond: float, what: str) -> NearSingularError:
    return NearSingularError(
        f"{what} is singular to working precision (condition ~ {cond:.3e})",
        condition=cond,
    )


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for square, well-conditioned ``a``.

    Conditioning is estimated from the singular values first; matrices with
    ``sigma_min <= SOLVE_COND_TOL * sigma_max`` are rejected so that every
    implicit inverse in the estimators surfaces its conditioning instead of
    silently amplifying noise.

    Raises
    ------
    NonSquareError
        If ``a`` is not square.
    NearSingularError
        If the condition estimate exceeds the threshold; carries the estimate.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    _square(a, "solve_linear")
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"right-hand side has {b.shape[0]} rows, expected {a.shape[0]}")
    sv = singular_values(a)
    if sv[0] == 0.0 or sv[-1] <= SOLVE_COND_TOL * sv[0]:
        raise _near_singular(
            float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1]), "matrix"
        )
    return _lapack(np.linalg.solve, a, b)


def gram_condition(r) -> float:
    """Condition number of ``r.T @ r`` for square ``r``, from the singular values of ``r``.

    Raises NearSingularError where :func:`solve_linear` would reject the
    Gram matrix itself (condition at or above ``1 / SOLVE_COND_TOL``), so a
    triangular solve with ``r`` can stand in for a solve with its Gram
    matrix without forming it.
    """
    sv = singular_values(r)
    cond = float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1]) ** 2
    if cond * SOLVE_COND_TOL >= 1.0:
        raise _near_singular(cond, "Gram matrix")
    return cond


def cholesky_lower(a) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Only the lower triangle of ``a`` is read.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot falls at or below ``1e-12`` times the largest diagonal
        entry (positive semidefinite inputs are rejected too).
    """
    s = as_matrix(a, "sigma_cov")
    _square(s, "cholesky")
    scale = float(np.max(np.diag(s)))
    if scale <= 0.0:
        raise NotPositiveDefiniteError("diagonal is not positive")
    try:
        lower = _lapack(np.linalg.cholesky, s)
    except LapackError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    pivots = np.diag(lower) ** 2
    bad = np.flatnonzero(pivots <= 1e-12 * scale)
    if bad.size:
        raise NotPositiveDefiniteError(
            f"pivot {pivots[bad[0]]:.3e} at position {bad[0]} is not positive"
        )
    return lower


def solve_lower_triangular(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``lower @ x = b`` (b may have many columns)."""
    return _lapack(np.linalg.solve, lower, b)


def solve_upper_triangular(upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``upper @ x = b``; partial pivoting leaves a triangular matrix as it is."""
    return _lapack(np.linalg.solve, upper, b)
