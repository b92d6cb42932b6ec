"""Kernel contracts: eigensolver, QR, SVD, null spaces, solves.

The eigenvalue oracle is an independent route: characteristic-polynomial
coefficients from the Faddeev-LeVerrier recurrence, rooted through the
companion matrix (``np.roots``).  It never touches the LAPACK eigensolver it
checks.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctls.errors import (
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
from ctls.linalg import (
    BLOCK_ROWS,
    CHUNK_ROWS,
    as_matrix,
    cholesky_lower,
    gram_condition,
    gram_eigen,
    matrix_rank,
    null_space_basis,
    qr_decompose,
    qr_thin,
    singular_values,
    solve_linear,
    solve_lower_triangular,
    solve_upper_triangular,
    svd,
    sym_eigen,
    tall_r,
    tall_r_chunks,
)

from conftest import seeded_symmetric


def charpoly_roots(s: np.ndarray) -> np.ndarray:
    """Eigenvalue oracle: Faddeev-LeVerrier coefficients + companion roots."""
    n = s.shape[0]
    coeffs = [1.0]
    mat = np.zeros_like(s)
    for k in range(1, n + 1):
        mat = s @ (mat + coeffs[-1] * np.eye(n)) if k > 1 else s.copy()
        coeffs.append(-np.trace(mat) / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


# --- input validation ---------------------------------------------------------


def test_as_matrix_rejects_nan():
    with pytest.raises(NonFiniteError):
        as_matrix([[1.0, np.nan]])


def test_as_matrix_rejects_zero_dim():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,), (2, 2, 2)])
def test_as_matrix_shape_errors_are_ctls_errors(shape):
    with pytest.raises(ShapeError) as info:
        as_matrix(np.ones(shape))
    assert isinstance(info.value, CtlsError) and isinstance(info.value, ValueError)


def test_shape_error_is_exported():
    import ctls

    assert ctls.ShapeError is ShapeError and "ShapeError" in ctls.__all__


# --- sym_eigen ----------------------------------------------------------------


def test_sym_eigen_diagonal():
    res = sym_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(res.values, [1.0, 2.0, 3.0])
    # signed permutation of the identity
    assert np.allclose(np.abs(res.vectors), np.eye(3)[:, [1, 2, 0]])


def test_sym_eigen_textbook_2x2():
    res = sym_eigen([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(res.values, [1.0, 3.0])
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(res.vectors[:, 0], [inv_sqrt2, -inv_sqrt2])
    assert np.allclose(res.vectors[:, 1], [inv_sqrt2, inv_sqrt2])


def test_sym_eigen_matches_charpoly_oracle():
    s = seeded_symmetric(123, 6)
    res = sym_eigen(s)
    oracle = charpoly_roots(s)
    assert np.max(np.abs(res.values - oracle)) <= 1e-8 * (1.0 + np.abs(oracle).max())


def test_sym_eigen_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        sym_eigen(np.ones((2, 3)))


def test_sym_eigen_1x1_and_zero():
    assert sym_eigen([[4.0]]).values[0] == 4.0
    res = sym_eigen(np.zeros((3, 3)))
    assert np.all(res.values == 0.0)
    assert np.array_equal(res.vectors, np.eye(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_sym_eigen_contracts(seed, dim):
    s = seeded_symmetric(seed, dim)
    res = sym_eigen(s)
    fro = np.linalg.norm(s, "fro")
    # ascending values
    assert np.all(np.diff(res.values) >= 0.0)
    # orthonormality
    gram = res.vectors.T @ res.vectors
    assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
    # eigenpair residuals
    for i in range(dim):
        resid = s @ res.vectors[:, i] - res.values[i] * res.vectors[:, i]
        assert np.linalg.norm(resid) <= 1e-8 * (1.0 + fro)
    # trace and Frobenius identities
    assert abs(np.trace(s) - res.values.sum()) <= 1e-8 * (1.0 + abs(np.trace(s)))
    assert abs(fro**2 - (res.values**2).sum()) <= 1e-8 * (1.0 + fro**2)


def test_sym_eigen_orthonormal_at_dim_120():
    s = seeded_symmetric(7, 120)
    res = sym_eigen(s)
    gram = res.vectors.T @ res.vectors
    assert np.max(np.abs(gram - np.eye(120))) <= 1e-10
    resid = s @ res.vectors - res.vectors * res.values
    assert np.max(np.abs(resid)) <= 1e-8 * (1.0 + np.linalg.norm(s, "fro"))


def test_sym_eigen_symmetrizes_slightly_asymmetric_input():
    s = seeded_symmetric(5, 4)
    bumped = s.copy()
    bumped[0, 1] += 1e-15
    assert np.allclose(sym_eigen(bumped).values, sym_eigen(s).values, atol=1e-12)


def test_sym_eigen_deterministic():
    s = seeded_symmetric(99, 5)
    r1 = sym_eigen(s)
    r2 = sym_eigen(s.copy())
    assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(r1.vectors, r2.vectors)


# --- QR -------------------------------------------------------------------------


def test_qr_identity():
    res = qr_decompose(np.eye(3))
    assert np.array_equal(res.q_full, np.eye(3))
    assert np.array_equal(res.r_top, np.eye(3))
    assert res.q2.shape == (3, 0)


def test_qr_unit_345_column():
    res = qr_decompose([[3.0], [4.0]])
    assert np.allclose(res.r_top, [[5.0]])
    assert np.allclose(res.q1, [[0.6], [0.8]])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_qr_contracts(seed):
    g = np.random.default_rng(seed)
    m = g.standard_normal((8, 3))
    res = qr_decompose(m)
    assert np.max(np.abs(res.q_full.T @ res.q_full - np.eye(8))) <= 1e-10
    assert np.linalg.norm(m - res.q1 @ res.r_top, "fro") <= 1e-10 * (
        1.0 + np.linalg.norm(m, "fro")
    )
    assert np.all(np.diag(res.r_top) >= 0.0)
    assert np.allclose(res.r_top, np.triu(res.r_top))
    assert np.array_equal(res.q2, res.q_full[:, 3:])


def test_qr_thin_matches_full():
    g = np.random.default_rng(11)
    m = g.standard_normal((10, 4))
    full = qr_decompose(m)
    q1, r1 = qr_thin(m)
    assert np.allclose(q1, full.q1, atol=1e-12)
    assert np.allclose(r1, full.r_top, atol=1e-12)


def test_qr_rejects_wide():
    with pytest.raises(WideMatrixError):
        qr_decompose(np.ones((2, 3)))


# --- SVD -------------------------------------------------------------------------


def test_svd_diagonal():
    res = svd(np.diag([2.0, 1.0]))
    assert np.allclose(res.singular_values, [2.0, 1.0])
    assert np.allclose(np.abs(res.u), np.eye(2))
    assert np.allclose(np.abs(res.v), np.eye(2))


def test_svd_zero_matrix():
    res = svd(np.zeros((2, 3)))
    assert np.array_equal(res.singular_values, [0.0, 0.0])
    assert np.allclose(res.u.T @ res.u, np.eye(2))
    assert np.allclose(res.v.T @ res.v, np.eye(3))


def test_svd_cross_check_with_sym_eigen():
    g = np.random.default_rng(21)
    m = g.standard_normal((4, 4))
    res = svd(m)
    lam = sym_eigen(m.T @ m).values[::-1]
    assert np.max(np.abs(res.singular_values - np.sqrt(np.clip(lam, 0, None)))) <= 1e-8


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4), (6, 1), (1, 6)])
@pytest.mark.parametrize("seed", [0, 7])
def test_svd_contracts(shape, seed):
    g = np.random.default_rng(seed)
    m = g.standard_normal(shape)
    res = svd(m)
    sv = res.singular_values
    assert np.all(sv >= 0.0)
    assert np.all(np.diff(sv) <= 1e-12)
    sigma = np.zeros(shape)
    np.fill_diagonal(sigma, sv)
    recon = res.u @ sigma @ res.v.T
    assert np.linalg.norm(m - recon, "fro") <= 1e-8 * (1.0 + np.linalg.norm(m, "fro"))
    assert np.max(np.abs(res.u.T @ res.u - np.eye(shape[0]))) <= 1e-10
    assert np.max(np.abs(res.v.T @ res.v - np.eye(shape[1]))) <= 1e-10


def test_svd_rank_deficient():
    g = np.random.default_rng(3)
    base = g.standard_normal((6, 2))
    m = base @ g.standard_normal((2, 4))  # rank 2
    res = svd(m)
    assert res.singular_values[2] <= 1e-12 * res.singular_values[0]
    assert matrix_rank(m) == 2


# --- null space -------------------------------------------------------------------


def test_null_space_single_row():
    m = np.array([[1.0, 0.0, 0.0]])
    p = null_space_basis(m)
    assert p.shape == (3, 2)
    assert np.max(np.abs(m @ p)) <= 1e-10
    assert np.max(np.abs(p.T @ p - np.eye(2))) <= 1e-10


def test_null_space_full_rank_square_errors():
    with pytest.raises(FullRankError):
        null_space_basis(np.eye(2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_null_space_contracts(seed):
    g = np.random.default_rng(seed)
    m = g.standard_normal((2, 5))
    p = null_space_basis(m)
    scale = 1.0 + np.linalg.norm(m, "fro")
    assert p.shape == (5, 3)
    assert np.max(np.abs(m @ p)) <= 1e-10 * scale
    assert np.max(np.abs(p.T @ p - np.eye(3))) <= 1e-10 * scale
    assert p.shape[1] == 5 - matrix_rank(m)


def test_null_space_deterministic():
    g = np.random.default_rng(17)
    m = g.standard_normal((3, 6))
    assert np.array_equal(null_space_basis(m), null_space_basis(m.copy()))


# --- solves ------------------------------------------------------------------------


def test_solve_identity_roundtrip():
    b = np.arange(6.0).reshape(3, 2) + 1.0
    assert np.array_equal(solve_linear(np.eye(3), b), b)


def test_solve_diagonal():
    x = solve_linear(np.diag([2.0, 4.0]), [[2.0], [8.0]])
    assert np.allclose(x, [[1.0], [2.0]])


def test_solve_construct_then_recover():
    g = np.random.default_rng(8)
    a = g.standard_normal((5, 5)) + 5.0 * np.eye(5)
    x0 = g.standard_normal((5, 2))
    x = solve_linear(a, a @ x0)
    assert np.max(np.abs(x - x0)) <= 1e-8


def test_solve_residual_contract():
    g = np.random.default_rng(9)
    a = g.standard_normal((6, 6))
    b = g.standard_normal((6, 3))
    x = solve_linear(a, b)
    assert np.linalg.norm(a @ x - b, "fro") <= 1e-8 * (
        1.0 + np.linalg.norm(a, "fro") * np.linalg.norm(x, "fro")
    )


def test_solve_rejects_singular_with_condition():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(NearSingularError) as exc:
        solve_linear(a, np.eye(2))
    assert exc.value.condition > 1e12


def test_solve_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        solve_linear(np.ones((2, 3)), np.ones((2, 1)))


def test_triangular_solves():
    g = np.random.default_rng(10)
    lower = np.tril(g.standard_normal((4, 4))) + 4.0 * np.eye(4)
    b = g.standard_normal((4, 2))
    assert np.allclose(lower @ solve_lower_triangular(lower, b), b)
    upper = lower.T
    assert np.allclose(upper @ solve_upper_triangular(upper, b), b)


def test_cholesky_roundtrip_and_rejection():
    g = np.random.default_rng(12)
    a = g.standard_normal((4, 4))
    spd = a @ a.T + 4.0 * np.eye(4)
    lower = cholesky_lower(spd)
    assert np.allclose(lower @ lower.T, spd)
    assert np.allclose(lower, np.tril(lower))
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_lower(-np.eye(2))
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_lower(np.diag([1.0, 0.0]))


def test_singular_values_accuracy_small():
    # one-sided sweep keeps relative accuracy where a Gram route would not
    m = np.diag([1.0, 1e-9])
    sv = singular_values(m)
    assert np.allclose(sv, [1.0, 1e-9], rtol=1e-12)


def test_kernels_are_pure():
    g = np.random.default_rng(13)
    s = seeded_symmetric(13, 4)
    before = s.copy()
    sym_eigen(s)
    assert np.array_equal(s, before)
    m = g.standard_normal((5, 3))
    before = m.copy()
    qr_decompose(m)
    svd(m)
    singular_values(m)
    assert np.array_equal(m, before)


# --- tall_r (blocked TSQR) -----------------------------------------------------------


@pytest.mark.parametrize("rows", [3, 5, 255, 256, 257, 513, 2000])
def test_tall_r_matches_flat_qr(rows):
    g = np.random.default_rng(rows)
    c = g.standard_normal((rows, 5)) * [1.0, 10.0, 0.1, 3.0, 1e-3]
    r = tall_r(c)
    assert r.shape == (5, 5)
    assert np.array_equal(r, np.triu(r))
    gram = c.T @ c
    assert np.max(np.abs(r.T @ r - gram)) <= 1e-12 * np.max(np.abs(gram))
    flat = np.linalg.qr(c, mode="r")
    top = min(rows, 5)
    assert np.allclose(np.abs(r[:top]), np.abs(flat), rtol=1e-10, atol=1e-12)
    # m < d: the trapezoidal factor is padded with zero rows
    assert np.array_equal(r[top:], np.zeros((5 - top, 5)))


def test_tall_r_non_contiguous_input():
    g = np.random.default_rng(40)
    wide = g.standard_normal((600, 8))
    c = wide[:, ::2]
    assert not c.flags.c_contiguous
    r = tall_r(c)
    assert np.array_equal(r, tall_r(np.ascontiguousarray(c)))
    assert np.allclose(r.T @ r, c.T @ c, rtol=1e-12, atol=1e-10)


def test_tall_r_rejects_non_finite():
    c = np.ones((600, 3))
    c[550, 1] = np.inf
    with pytest.raises(NonFiniteError):
        tall_r(c)


def chunked_pair(c, j):
    """:func:`tall_r_chunks` of the rows of ``c``."""
    return tall_r_chunks(lambda lo, hi: c[lo:hi], *c.shape, j)


@pytest.mark.parametrize("shape", [(600,), (2, 600, 3), (0, 3)])
def test_tall_r_rejects_non_matrix(shape):
    with pytest.raises(ShapeError):
        tall_r(np.ones(shape))


@st.composite
def first_levels(draw):
    """``(rows, cols, j, size, seed)`` for :func:`tall_r_chunks`: up to 255
    columns (the blocked path needs fewer than ``BLOCK_ROWS``), j < cols,
    more rows than columns and a stack of 1 to 3 matrices."""
    cols = draw(st.integers(1, BLOCK_ROWS - 1))
    return (draw(st.integers(cols + 1, 1100)), cols, draw(st.integers(0, cols - 1)),
            draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=30, deadline=None)
@given(first_levels())
@example((800, 4, 0, 1, 42))
@example((800, 4, 1, 1, 42))
@example((800, 4, 2, 1, 42))
@example((800, 4, 3, 1, 42))
@example((600, 200, 100, 1, 43))  # BLOCK_ROWS - j < cols: a short head triangle
@example((600, 200, 199, 1, 43))
@example((2 * CHUNK_ROWS + 7, 4, 2, 2, 44))  # two chunks, the leftover rows in the second
def test_tall_r_chunks_offsets(case):
    """Each slice of a stacked pass is its own pass bit for bit, ``r_all``
    is ``tall_r(C)`` bit for bit, ``r_low`` factors ``C[j:]`` (and is
    ``r_all`` exactly when j = 0), and reading the factors in either order
    gives the same factors and leaves the first level as the pass wrote it."""
    rows, cols, j, size, seed = case
    c = np.random.default_rng(seed).standard_normal((size, rows, cols))
    stacked = tall_r_chunks(lambda lo, hi: c[:, lo:hi], rows, cols, j, lead=(size,))
    r_all, r_low = stacked.r_all, stacked.r_low
    assert (r_low is r_all) == (j == 0)
    for s in range(size):
        alone = chunked_pair(c[s], j)
        assert np.array_equal(alone.r_all, r_all[s])
        assert np.array_equal(alone.r_low, r_low[s])
        assert np.array_equal(r_all[s], tall_r(c[s]))
        assert np.array_equal(r_low[s], np.triu(r_low[s]))
        low = c[s, j:]
        assert np.allclose(r_low[s].T @ r_low[s], low.T @ low, rtol=1e-12, atol=1e-10)
    low_first = tall_r_chunks(lambda lo, hi: c[:, lo:hi], rows, cols, j, lead=(size,))
    first_level = low_first.stack.copy()
    assert np.array_equal(low_first.r_low, r_low)
    assert np.array_equal(low_first.stack, first_level)
    assert np.array_equal(low_first.r_all, r_all)


def test_tall_r_chunks_low_factor_does_not_copy_the_stack():
    """Read first, r_low allocates only the QR's own working copy of the
    stack (numpy's qr copies its input), not a stacked copy besides."""
    c = np.random.default_rng(44).standard_normal((200_000, 12))
    pair = chunked_pair(c, 2)
    tracemalloc.start()
    try:
        pair.r_low
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pair.stack.nbytes


@pytest.mark.parametrize("j", [-1, 4, 800])
def test_tall_r_chunks_rejects_offset_outside_rows_and_columns(j):
    with pytest.raises(ShapeError):
        chunked_pair(np.ones((800, 4)), j)


def test_gram_eigen_keeps_small_eigenvalues():
    # eigh of the Gram matrix would resolve these only to ~1e-16 absolute
    r = np.diag([1.0, 1e-7, 1e-9])
    res = gram_eigen(r)
    assert np.allclose(res.values, [1e-18, 1e-14, 1.0], rtol=1e-12)
    assert np.allclose(np.abs(res.vectors), np.eye(3)[:, ::-1])


def test_gram_condition_matches_solve_linear_rule():
    assert gram_condition(np.diag([2.0, 1.0])) == pytest.approx(4.0)
    # Given singular values stand in for the SVD of r.
    assert gram_condition(np.eye(2), sv=np.array([2.0, 1.0])) == pytest.approx(4.0)
    with pytest.raises(NearSingularError) as exc:
        gram_condition(np.diag([1.0, 1e-7]))
    assert exc.value.condition == pytest.approx(1e14)


def test_stack_checks_raise_a_plain_error():
    """A stack with bad slices raises the error that the first of them raises
    alone, and a stack whose slices differ in rank a plain CtlsError."""
    g = np.random.default_rng(43)
    a = g.standard_normal((4, 3, 3))
    a[1] = np.diag([1.0, 1.0, 1e-13])
    a[3] = np.diag([1.0, 1.0, 1e-14])
    b = g.standard_normal((4, 3, 2))
    for call in (solve_linear, lambda x, _: gram_condition(x)):
        with pytest.raises(NearSingularError) as stacked:
            call(a, b)
        with pytest.raises(NearSingularError) as alone:
            call(a[1], b[1])
        assert type(stacked.value) is NearSingularError
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.condition == alone.value.condition
    rows = g.standard_normal((3, 2, 5))
    rows[1, 1] = 2.0 * rows[1, 0]
    with pytest.raises(CtlsError) as mixed:
        null_space_basis(rows)
    assert type(mixed.value) is CtlsError
    assert "differ in rank: [1, 2]" in str(mixed.value)
    assert null_space_basis(rows[[0, 2]]).shape == (2, 5, 3)


def test_lapack_failure_becomes_ctls_error(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", broken)
    m = np.random.default_rng(41).standard_normal((4, 3))
    for kernel in (singular_values, svd, null_space_basis, gram_eigen, matrix_rank):
        with pytest.raises(LapackError) as exc:
            kernel(m)
        assert isinstance(exc.value, CtlsError)
        assert "did not converge" in str(exc.value)
