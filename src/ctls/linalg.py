"""Dense linear-algebra kernels on LAPACK (``numpy.linalg``), with explicit contracts.

* ``tall_r`` factors a tall matrix once: blocks of ``BLOCK_ROWS`` rows go
  through batched QRs and the stacked triangles through one more (one
  level of TSQR), giving a square ``R`` with ``R.T @ R = C.T @ C``.  The
  estimators see their O(m) data only through such factors.
  ``tall_r_chunks`` runs the first level ``CHUNK_ROWS`` rows at a time
  over a chunk source, which ``tall_r_pair`` feeds from the column blocks
  of ``C`` and ``ctls.model`` from its generators (a chunk of one instance
  or a group of whole ones), and shares it between the factors of all rows
  and of the rows below an offset; a sweep's large sampling pass hands each
  chunk's block QRs to a helper thread (``ctls.parallel.beside``).
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

Stacks: the wrappers and solves also take a stack of matrices (one leading
axis), as ``numpy.linalg`` does, and each slice of a result is bit for bit
the result for that slice alone.  A stack raises as one: a check raises
the error of its first failing slice (:func:`check_slices`), and slices of
different rank a plain :class:`~ctls.errors.CtlsError` (:func:`same_rank`).

Every function is a pure function of its inputs and never mutates them.
Identical inputs give bit-identical outputs for one numpy/BLAS build and one
BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CtlsError,
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

#: Rows per chunk (64 blocks) in which :func:`tall_r_chunks` factors the
#: blocks and ``ctls.model`` draws its rows and noise.
CHUNK_ROWS = 64 * BLOCK_ROWS


def as_matrix(obj, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate and return ``obj`` as a 2-D float array with finite entries;
    with ``stack``, a stack of them (one leading axis) is accepted too.

    Raises
    ------
    ShapeError
        If the input is not 2-D (or a stack) or a matrix has a zero dimension.
    NonFiniteError
        If any entry is NaN or infinite.
    """
    arr = np.asarray(obj, dtype=float)
    if arr.ndim not in ((2, 3) if stack else (2,)):
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[-2] < 1 or arr.shape[-1] < 1:
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


def check_slices(bad, error_of) -> None:
    """Raise ``error_of(i)`` for the first ``i`` where ``bad[i]``: ``i = ()``
    for one matrix (``bad`` 0-d), an integer for a stack."""
    if np.count_nonzero(bad):
        raise error_of(np.flatnonzero(bad)[0] if bad.ndim else ())


def same_rank(ranks) -> int:
    """The rank that all ``ranks`` of a stack share; raises CtlsError unless
    they agree."""
    if ranks.size > 1 and np.count_nonzero(ranks != ranks.flat[0]):
        raise CtlsError(f"the slices of a stack differ in rank: {np.unique(ranks).tolist()}")
    return int(ranks.flat[0])


def _sign_flips(vectors: np.ndarray) -> np.ndarray:
    """Per column, -1 where the first entry above ``SIGN_TOL`` is negative, else 1
    (shape ``(..., 1, cols)``)."""
    above = np.abs(vectors) > SIGN_TOL
    first = above & (above.cumsum(axis=-2) == 1)
    return np.where(np.logical_or.reduce(first & (vectors < 0.0), axis=-2, keepdims=True), -1.0, 1.0)


def _square(a: np.ndarray, what: str) -> None:
    if a.shape[-2] != a.shape[-1]:
        raise NonSquareError(f"{what} needs a square matrix, got {a.shape}")


def _flat_r(a: np.ndarray) -> np.ndarray:
    """One QR of ``a`` (``mode="r"``), padded with zero rows to a square."""
    r = _lapack(np.linalg.qr, a, mode="r")
    rows, cols = r.shape[-2:]
    if rows < cols:
        r = np.concatenate([r, np.zeros(r.shape[:-2] + (cols - rows, cols))], axis=-2)
    return r


def tall_r(c) -> np.ndarray:
    """Square upper-triangular ``R`` with ``R.T @ R = C.T @ C`` up to roundoff.

    Blocks of ``BLOCK_ROWS`` rows are factored in batched
    ``numpy.linalg.qr(..., mode="r")`` calls, and the stacked triangles plus
    the leftover rows once more; one flat QR of a 1e5 x 12 matrix took
    about twice as long (OpenBLAS 0.3.31, one thread, 2-CPU x86-64 VM).
    Row signs are LAPACK's.  With fewer rows than columns the trapezoidal
    factor is padded with zero rows.  The result is read-only.
    """
    return tall_r_pair([c], 0).r_all


@dataclass(frozen=True)
class TallRPair:
    """The first TSQR level of ``C``, shared by the factors of its rows
    ``0:`` and ``j:``; each second level runs on its first read.

    ``stack`` holds the triangles of the ``BLOCK_ROWS``-row blocks followed
    by the leftover rows (below two full blocks, or with ``BLOCK_ROWS`` or
    more columns, ``C`` itself).  The rows ``j:`` stack as the triangle of
    ``head`` (the part of a block below row ``j``, or None) on top of
    ``stack[skip:]``; ``r_low`` writes that triangle into the rows just
    above ``skip`` for its QR rather than copy the stack, then restores
    them.  With a leading axis on ``stack`` and ``head``, the pair is a
    stack of first levels and each factor a stack.  Both factors are
    read-only.
    """

    stack: np.ndarray
    skip: int
    head: np.ndarray | None

    @cached_property
    def r_all(self) -> np.ndarray:
        """``tall_r(C)``."""
        return _read_only(_flat_r(self.stack))

    @cached_property
    def r_low(self) -> np.ndarray:
        """The factor of the rows ``j:``; ``r_all`` itself when ``j = 0``."""
        if self.skip == 0:
            return self.r_all
        if self.head is None:
            return _read_only(_flat_r(self.stack[..., self.skip :, :]))
        # Factor the head in place of the rows above skip, not in a copy of
        # the stack, and restore those rows for r_all.
        head = _lapack(np.linalg.qr, self.head, mode="r")
        rows = self.stack[..., self.skip - head.shape[-2] : self.skip, :]
        saved = rows.copy()
        rows[...] = head
        r = _flat_r(self.stack[..., self.skip - head.shape[-2] :, :])
        rows[...] = saved
        return _read_only(r)


def _read_only(r: np.ndarray) -> np.ndarray:
    r.flags.writeable = False
    return r


def tall_r_pair(blocks, j: int) -> TallRPair:
    """:func:`tall_r_chunks` of ``C = np.hstack(blocks)``, fed from its column
    blocks (for example ``(A, B)``) one chunk at a time, so the pass copies
    no more of ``C`` than a chunk (except where ``C`` is factored flat).

    Raises ShapeError if a block is not 2-D, the blocks differ in rows, ``C``
    has a zero dimension or ``j`` is not in ``[0, rows)``, and NonFiniteError
    if any entry is NaN or infinite.
    """
    parts = [np.asarray(x, dtype=float) for x in blocks]
    if any(x.ndim != 2 for x in parts) or len({x.shape[0] for x in parts}) != 1:
        raise ShapeError(
            f"column blocks of C must be 2-D with equal rows, got {[x.shape for x in parts]}"
        )
    rows, cols = parts[0].shape[0], sum(x.shape[1] for x in parts)
    return tall_r_chunks(lambda lo, hi: np.hstack([x[lo:hi] for x in parts]), rows, cols, j)


def _full_blocks(rows: int, cols: int) -> int:
    """The full blocks of a ``rows x cols`` matrix that :func:`tall_r_chunks`
    factors: 0 (flat) below two, or with ``BLOCK_ROWS`` or more columns."""
    return 0 if rows < 2 * BLOCK_ROWS or cols >= BLOCK_ROWS else rows // BLOCK_ROWS


def chunk_bounds(rows: int, cols: int) -> list[tuple[int, int]]:
    """The row ranges ``(lo, hi)`` in which :func:`tall_r_chunks` asks for a
    ``rows x cols`` matrix, in order: ``CHUNK_ROWS`` rows each, the leftover
    below the last full block in the last; all rows where it is factored
    flat."""
    if not (full := _full_blocks(rows, cols)):
        return [(0, rows)]
    cuts = [*range(CHUNK_ROWS, full * BLOCK_ROWS, CHUNK_ROWS), rows]
    return list(zip([0, *cuts[:-1]], cuts))


def _at_once(fn, *args):
    """Run ``fn(*args)`` now: the job returns its result."""
    out = fn(*args)
    return lambda: out


def tall_r_chunks(chunk_of, rows: int, cols: int, j: int, run=_at_once,
                  lead: tuple = ()) -> TallRPair:
    """The first TSQR level of a ``rows x cols`` matrix ``C`` and of its rows ``j:``.

    ``chunk_of(lo, hi)`` returns the rows ``lo:hi`` of ``C``, or of each
    matrix of a stack of them whose leading axes ``lead`` the pair keeps.
    It is called on the ranges of :func:`chunk_bounds` in order, so it may
    build each chunk when asked; below two full blocks, or with
    ``BLOCK_ROWS`` or more columns, ``C`` is factored flat.  Each chunk's
    batched block QR is a job of the runner ``run`` (of
    :func:`ctls.parallel.beside`; by default it runs at once, while the
    chunk is in cache), awaited once the next chunk's is handed over, so at
    most two chunks are held.  The per-block QRs are independent, so the
    triangles depend neither on the chunking nor on where they ran.
    ``r_low`` stacks the same triangles with those above row ``j`` replaced
    by the triangle of the block rows from ``j`` on (TSQR, Demmel, Grigori,
    Hoemmen & Langou 2012), so it equals ``tall_r(C[j:])`` up to roundoff
    and row signs.  Raises ShapeError if ``C`` has a zero dimension or ``j``
    is not in ``[0, rows)``, NonFiniteError on a NaN or infinite entry.
    """
    if not 0 <= j < rows:
        raise ShapeError(f"row offset j={j} is outside [0, {rows})")
    if not (full := _full_blocks(rows, cols)):
        return TallRPair(stack=as_matrix(chunk_of(0, rows), "C", stack=True), skip=j, head=None)
    # Held to the end, so allocated before the chunks come and go: placed
    # after the first chunk, it let the heap shrink and refault mid-pass.
    stack = np.empty(lead + (first_level_rows(rows, cols), cols))
    block, offset = divmod(j, BLOCK_ROWS)
    head, jobs = None, []
    for lo, end in chunk_bounds(rows, cols):
        hi = min(end, full * BLOCK_ROWS)
        chunk = as_matrix(chunk_of(lo, end), "C", stack=True)
        jobs.append(run(_block_triangles, chunk[..., : hi - lo, :],
                        stack[..., lo // BLOCK_ROWS * cols : hi // BLOCK_ROWS * cols, :]))
        if offset and lo <= j < hi:
            head = chunk[..., j - lo : (block + 1) * BLOCK_ROWS - lo, :].copy()
        if len(jobs) == 2:  # at most two chunks in flight
            jobs.pop(0)()
    stack[..., full * cols :, :] = chunk[..., hi - lo :, :]
    jobs.pop()()
    if block >= full:
        skip = full * cols + j - full * BLOCK_ROWS
    else:
        skip = (block + (head is not None)) * cols
    return TallRPair(stack=stack, skip=skip, head=head)


def first_level_rows(rows: int, cols: int) -> int:
    """The rows of the first level of :func:`tall_r_chunks` of a ``rows x
    cols`` matrix: ``rows`` where it is factored flat."""
    full = _full_blocks(rows, cols)
    return full * cols + rows - full * BLOCK_ROWS


def _block_triangles(rows: np.ndarray, out: np.ndarray) -> None:
    """The triangles of the ``BLOCK_ROWS``-row blocks of ``rows`` (or of each
    matrix of a stack), stacked into ``out``."""
    blocks = rows.reshape(rows.shape[:-2] + (-1, BLOCK_ROWS, rows.shape[-1]))
    out[...] = _lapack(np.linalg.qr, blocks, mode="r").reshape(out.shape)


def gram_eigen(r) -> SymEigenResult:
    """Eigenpairs of ``r.T @ r`` from the SVD of ``r``, eigenvalues ascending.

    The eigenvalues are the squared singular values (plus zeros when ``r``
    has fewer rows than columns), so they keep the relative accuracy of the
    SVD; vectors carry the sign convention.
    """
    a = as_matrix(r, "R", stack=True)
    _, sv, vt = _lapack(np.linalg.svd, a)
    zeros = np.zeros(sv.shape[:-1] + (a.shape[-1] - sv.shape[-1],))
    values = np.concatenate([zeros, (sv * sv)[..., ::-1]], axis=-1)
    vectors = vt[..., ::-1, :].swapaxes(-1, -2)
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
    a = as_matrix(s, "S", stack=True)
    _square(a, "sym_eigen")
    values, vectors = _lapack(np.linalg.eigh, 0.5 * (a + a.swapaxes(-1, -2)))
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
    a = as_matrix(m, "M", stack=True)
    u, sv, vt = _lapack(np.linalg.svd, a)
    v = vt.swapaxes(-1, -2)
    flips = _sign_flips(v)
    u[..., : sv.shape[-1]] *= flips[..., : sv.shape[-1]]
    return SvdResult(u=u, singular_values=sv, v=v * flips)


def singular_values(m) -> np.ndarray:
    """Nonincreasing singular values of ``m``."""
    return _lapack(np.linalg.svd, as_matrix(m, "M", stack=True), compute_uv=False)


def rank_of(sv: np.ndarray, rank_tol: float = RANK_TOL):
    """The number of singular values in ``sv`` (nonincreasing, last axis)
    above ``rank_tol * sigma_max``."""
    return (sv > rank_tol * sv[..., :1]).sum(axis=-1)


def matrix_rank(m, rank_tol: float = RANK_TOL):
    """Rank by counting singular values above ``rank_tol * sigma_max``
    (an int, or an integer array for a stack)."""
    rank = rank_of(singular_values(m), rank_tol)
    return rank if rank.ndim else int(rank)


def null_space_basis(m, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the null space of ``m``.

    Returned as a cols x (cols - rank) matrix ``P`` with ``P.T @ P = I`` and
    ``m @ P = 0`` up to roundoff; the basis vectors are the right singular
    vectors paired with singular values at or below ``rank_tol * sigma_max``.

    Raises
    ------
    FullRankError
        If the null space is empty; callers decide whether that is fatal.
    CtlsError
        On a stack whose slices differ in rank.
    """
    if rank_tol <= 0.0:
        raise ValueError("rank_tol must be positive")
    a = as_matrix(m, "M", stack=True)
    _, sv, vt = _lapack(np.linalg.svd, a)
    rank = same_rank(rank_of(sv, rank_tol))
    if rank == a.shape[-1]:
        raise FullRankError(f"matrix of shape {a.shape} has an empty null space")
    basis = vt[..., rank:, :].swapaxes(-1, -2)
    return basis * _sign_flips(basis)


def _near_singular(cond, what: str) -> NearSingularError:
    cond = float(cond)
    return NearSingularError(
        f"{what} is singular to working precision (condition ~ {cond:.3e})",
        condition=cond,
    )


def solve_linear(a, b, sv=None) -> np.ndarray:
    """Solve ``a @ x = b`` for square, well-conditioned ``a``.

    Conditioning is estimated from the singular values first; matrices with
    ``sigma_min <= SOLVE_COND_TOL * sigma_max`` are rejected so that every
    implicit inverse in the estimators surfaces its conditioning instead of
    silently amplifying noise.  A caller that already holds the singular
    values of ``a`` (or of ``a.T``) passes them as ``sv`` to skip the SVD.

    Raises
    ------
    NonSquareError
        If ``a`` is not square.
    NearSingularError
        If the condition estimate exceeds the threshold; carries the estimate.
    """
    a = as_matrix(a, "A", stack=True)
    b = as_matrix(b, "B", stack=True)
    _square(a, "solve_linear")
    if b.shape[-2] != a.shape[-2]:
        raise ShapeError(f"right-hand side has {b.shape[-2]} rows, expected {a.shape[-2]}")
    if sv is None:
        sv = singular_values(a)
    check_slices(
        (sv[..., 0] == 0.0) | (sv[..., -1] <= SOLVE_COND_TOL * sv[..., 0]),
        lambda i: _near_singular(_ratio(sv[i]), "matrix"),
    )
    return _lapack(np.linalg.solve, a, b)


def _ratio(sv: np.ndarray):
    """``sv[..., 0] / sv[..., -1]``, infinite where the last is zero."""
    last = sv[..., -1]
    return np.divide(sv[..., 0], last, out=np.full(last.shape, np.inf), where=last != 0.0)


def gram_condition(r, sv=None) -> float:
    """Condition number of ``r.T @ r`` for square ``r``, from the singular values of ``r``.

    Raises NearSingularError where :func:`solve_linear` would reject the
    Gram matrix itself (condition at or above ``1 / SOLVE_COND_TOL``), so a
    triangular solve with ``r`` can stand in for a solve with its Gram
    matrix without forming it.  A caller that already holds the singular
    values of ``r`` passes them as ``sv`` to skip the SVD.  Returns a float,
    or an array for a stack.
    """
    sv = singular_values(r) if sv is None else sv
    cond = _ratio(sv) ** 2
    check_slices(cond * SOLVE_COND_TOL >= 1.0, lambda i: _near_singular(cond[i], "Gram matrix"))
    return cond if cond.ndim else float(cond)


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
