"""Estimator contracts: exact recovery, identities, equivalences, diagnostics."""

import numpy as np
import pytest

from ctls.errors import (
    EstimatorWarning,
    InvalidPartitionError,
    LowerBlockSingularError,
    RankDeficientFixedColumnsError,
    RankDeficientUpperRowsError,
)
from ctls import estimators
from ctls.estimators import (
    MU_RULES,
    _exact_row_basis,
    build_blocks,
    ctls_columns,
    ctls_rowcol,
    ctls_rows,
    precondition_rowcol,
    projection_estimator,
    tls_solve,
)
from ctls.linalg import null_space_basis, sym_eigen
from ctls.model import ObservedData, PartitionSpec, RegressionModel, observe, sample_stack
from ctls.oracle import grid_scan_tls_1d

from conftest import make_instance


def constraint_gap(data, x_hat):
    j = data.partition.j
    return float(np.linalg.norm(data.a[:j] @ x_hat - data.b[:j], "fro"))


# --- build_blocks ------------------------------------------------------------


def test_build_blocks_unconstrained_collapses():
    _, data = make_instance(j=0, k=0, n=2, ell=1, m=10, sigma=0.1)
    blocks = build_blocks(data)
    assert blocks.c11.shape == (0, 0)
    assert blocks.c12.shape == (0, 3) and blocks.c21.shape == (10, 0)
    assert np.array_equal(blocks.c22, np.hstack([data.a, data.b]))


def test_build_blocks_slicing_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    b = np.array([[7.0], [8.0], [9.0]])
    data = ObservedData(a=a, b=b, partition=PartitionSpec(j=1, k=1, n=2, ell=1, m=3))
    blocks = build_blocks(data)
    assert np.array_equal(blocks.c11, [[1.0]])
    assert np.array_equal(blocks.c12, [[2.0, 7.0]])
    assert np.array_equal(blocks.c21, [[3.0], [5.0]])
    assert np.array_equal(blocks.c22, [[4.0, 8.0], [6.0, 9.0]])


def test_build_blocks_roundtrip():
    m, n, ell = 30, 4, 2
    for j, k in [(0, 0), (0, 2), (2, 0), (2, 1)]:
        _, data = make_instance(j=j, k=k, n=n, ell=ell, m=m, sigma=0.4)
        blocks = build_blocks(data)
        assert blocks.c11.shape == (j, k)
        assert blocks.c12.shape == (j, n - k + ell)
        assert blocks.c21.shape == (m - j, k)
        assert blocks.c22.shape == (m - j, n - k + ell)
        assert np.array_equal(blocks.assemble(), np.hstack([data.a, data.b]))


# --- tls_solve -----------------------------------------------------------------


def test_tls_exact_consistent_column():
    a = np.array([[1.0], [2.0], [3.0]])
    b = 2.0 * a
    result = tls_solve(a, b)
    assert np.allclose(result.x_hat, [[2.0]], atol=1e-12)
    assert result.smallest_eigs[0] == pytest.approx(0.0, abs=1e-12)


def test_tls_square_consistent_identity():
    result = tls_solve(np.eye(2), [[1.0], [2.0]])
    assert np.allclose(result.x_hat, [[1.0], [2.0]], atol=1e-10)


def test_tls_two_independent_oracles_agree():
    """Scalar instance: the eigen route must match the dense scan of
    |Ax-B|^2/(1+x^2)."""
    a = np.array([[1.0], [2.0]])
    b = np.array([[3.0], [1.0]])
    result = tls_solve(a, b)
    x_grid, q_min = grid_scan_tls_1d(a, b, -10.0, 10.0, 2_000_001)
    assert abs(float(result.x_hat[0, 0]) - x_grid) <= 1e-5
    assert result.smallest_eigs[0] == pytest.approx(q_min, abs=1e-6)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    assert result.x_hat[0, 0] == pytest.approx(golden, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_tls_secular_identity(seed):
    _, data = make_instance(j=0, k=0, n=3, ell=1, m=60, sigma=0.3,
                            model_seed=seed, noise_seed=seed + 100)
    result = tls_solve(data.a, data.b)
    lam1 = result.smallest_eigs[0]
    lhs = (data.a.T @ data.a - lam1 * np.eye(3)) @ result.x_hat
    rhs = data.a.T @ data.b
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs))


def test_tls_warns_on_degenerate_gap():
    g = np.random.default_rng(0)
    u3 = np.linalg.qr(g.standard_normal((12, 12)))[0][:, :3]
    v = np.column_stack(
        [
            np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
            np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0),
            np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
        ]
    )
    c = u3 @ np.diag([2.0, 1.0e-6, 1.5e-6]) @ v.T
    with pytest.warns(EstimatorWarning):
        result = tls_solve(c[:, :2], c[:, 2:])
    assert "eig_gap_degenerate" in result.diagnostics.flags
    assert np.allclose(result.x_hat, [[0.5], [0.5]], atol=1e-6)


def test_tls_degenerate_gap_through_blocked_factor():
    """The degenerate-gap case above, embedded in 2000 rows so that the
    factor goes through the batched QR path; x must still resolve the 1e-6
    singular direction (an eigensolver on C.T @ C misses it by ~1e-4)."""
    g = np.random.default_rng(0)
    u3 = np.linalg.qr(g.standard_normal((2000, 3)))[0]
    v = np.column_stack(
        [
            np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
            np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0),
            np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
        ]
    )
    c = u3 @ np.diag([2.0, 1.0e-6, 1.5e-6]) @ v.T
    with pytest.warns(EstimatorWarning):
        result = tls_solve(c[:, :2], c[:, 2:])
    assert "eig_gap_degenerate" in result.diagnostics.flags
    assert np.allclose(result.x_hat, [[0.5], [0.5]], atol=1e-6)


def test_tls_lower_block_singular():
    # the near-null direction has a zero response coordinate
    g = np.random.default_rng(1)
    u2 = np.linalg.qr(g.standard_normal((10, 10)))[0][:, :2]
    v = np.column_stack(
        [
            np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
            np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0),
            np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0),
        ]
    )
    c = u2 @ np.diag([2.0, 1.0]) @ v[:, :2].T  # null direction = v3, last coord 0
    with pytest.raises(LowerBlockSingularError):
        tls_solve(c[:, :2], c[:, 2:])


def test_tls_result_invariants():
    _, data = make_instance(j=0, k=0, n=4, ell=2, m=50, sigma=0.3)
    result = tls_solve(data.a, data.b)
    assert np.all(np.isfinite(result.x_hat))
    assert np.all(np.diff(result.smallest_eigs) >= 0.0)
    assert result.sigma2_hat >= 0.0
    assert result.mu is None


# --- ctls_columns ------------------------------------------------------------------


def test_ctls_columns_exact_recovery():
    model, data = make_instance(j=0, k=2, n=4, ell=2, m=40, sigma=0.0)
    result = ctls_columns(data)
    err = np.linalg.norm(result.x_hat - model.x_true, "fro")
    assert err <= 1e-8 * (1.0 + np.linalg.norm(model.x_true, "fro"))


def test_ctls_columns_rejects_all_columns_fixed():
    _, data = make_instance(j=0, k=0, n=3, ell=1, m=30, sigma=0.1)
    full = ObservedData(
        a=data.a, b=data.b, partition=PartitionSpec(j=0, k=3, n=3, ell=1, m=30)
    )
    with pytest.raises(InvalidPartitionError):
        ctls_columns(full)


@pytest.mark.parametrize("j", [0, 2])
def test_ctls_rowcol_rejects_all_columns_fixed(j):
    """With k = n no column is free: ctls_rowcol raises before any work, on
    an instance and on each slice of a stack, while the estimators that take
    any partition still run."""
    from ctls.harness import naive_ls

    p = PartitionSpec(j=j, k=3, n=3, ell=1, m=40)
    _, data = make_instance(j=j, k=3, n=3, ell=1, m=40, sigma=0.1)
    _, stack, _ = sample_stack(p, 0.1, [(1, 2), (3, 4)])
    assert not estimators.accepts_partition("ctls_rowcol", j, 3, 3)
    with pytest.raises(InvalidPartitionError, match="ctls_rowcol needs k<n, got k=3, n=3"):
        ctls_rowcol(data)
    assert [type(out) for out in ctls_rowcol(stack)] == [InvalidPartitionError] * 2
    for fn in (estimators.tls_from_data, projection_estimator, naive_ls):
        assert np.all(np.isfinite(fn(data).x_hat))
        assert all(np.all(np.isfinite(out.x_hat)) for out in fn(stack))


def test_ctls_columns_rejects_rank_deficient_fixed_columns():
    _, data = make_instance(j=0, k=0, n=3, ell=1, m=30, sigma=0.1)
    a = data.a.copy()
    a[:, 1] = 2.0 * a[:, 0]
    bad = ObservedData(
        a=a, b=data.b, partition=PartitionSpec(j=0, k=2, n=3, ell=1, m=30)
    )
    with pytest.raises(RankDeficientFixedColumnsError):
        ctls_columns(bad)


def test_ctls_columns_constraint_and_perturbation_consistency():
    """The corrected data must satisfy the constraint with the fixed columns
    untouched; equivalently A1.T times the constraint residual vanishes."""
    _, data = make_instance(j=0, k=1, n=3, ell=1, m=50, sigma=0.2,
                            model_seed=5, noise_seed=6)
    result = ctls_columns(data)
    # any remaining residual must be orthogonal to the perturbable space's
    # complement only through the fixed columns
    resid = data.a @ result.x_hat - data.b
    # The inner reduction guarantees the minimal correction keeps the fixed
    # columns exact; check the normal equations of the recovery step.
    a1 = data.a[:, :1]
    assert np.linalg.norm(a1.T @ resid) <= 1e-8 * (1.0 + np.linalg.norm(resid))


# --- precondition_rowcol -------------------------------------------------------------


def test_precondition_zero_corner_is_identity():
    _, data = make_instance(j=1, k=1, n=3, ell=1, m=20, sigma=0.1)
    a = data.a.copy()
    a[:1, :1] = 0.0
    blocks = build_blocks(
        ObservedData(a=a, b=data.b, partition=data.partition)
    )
    reduced, record = precondition_rowcol(blocks)
    assert record.rank == 0
    assert np.array_equal(record.u, np.eye(1))
    assert np.array_equal(record.v, np.eye(1))
    assert reduced.partition == blocks.partition
    assert np.array_equal(reduced.c22, blocks.c22)
    x = np.arange(3.0).reshape(3, 1)
    assert np.array_equal(record.recover(x), x)


@pytest.mark.parametrize("j,k", [(0, 2), (2, 0)])
def test_precondition_without_corner_is_the_identity(j, k, monkeypatch):
    """No exact rows or no exact columns: no corner to eliminate, so the
    record is the identity, no SVD runs and no block or solution moves."""
    def no_svd(*args):
        raise AssertionError("precondition_rowcol ran an SVD")

    monkeypatch.setattr(estimators, "svd", no_svd)
    _, data = make_instance(j=j, k=k, n=4, ell=2, m=30, sigma=0.2)
    blocks = build_blocks(data)
    reduced, record = precondition_rowcol(blocks)
    assert record.rank == 0 and record.sigma_r.size == 0
    assert np.array_equal(record.u, np.eye(j)) and np.array_equal(record.v, np.eye(k))
    assert record.pivot_c12.shape == (0, 4 - k + 2)
    assert reduced.partition == record.reduced_partition == blocks.partition
    for got in (reduced, record.transform_blocks(blocks)):
        for name in ("c11", "c12", "c21", "c22"):
            a, b = getattr(got, name), getattr(blocks, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    x = np.random.default_rng(5).standard_normal((4, 2))
    assert np.array_equal(record.recover(x), x)


def test_exact_row_basis_is_identity_without_rows():
    assert np.array_equal(_exact_row_basis(np.zeros((0, 5)), 3), np.eye(5))
    rows = np.random.default_rng(3).standard_normal((2, 5))
    basis = _exact_row_basis(rows, 3)
    assert basis.shape == (5, 3)
    assert np.max(np.abs(rows @ basis)) <= 1e-12
    assert np.max(np.abs(basis.T @ basis - np.eye(3))) <= 1e-12


def test_exact_row_basis_rejects_repeated_and_surplus_rows():
    rows = np.random.default_rng(4).standard_normal((2, 5))
    with pytest.raises(RankDeficientUpperRowsError):
        _exact_row_basis(np.vstack([rows, rows[:1]]), 3)
    with pytest.raises(RankDeficientUpperRowsError):
        _exact_row_basis(rows, 1)


def test_precondition_square_nonsingular_matches_block_elimination():
    """Square nonsingular corner reduces to the explicit Schur update of the
    noisy block with the fixed rows and columns fully consumed."""
    g = np.random.default_rng(14)
    p = PartitionSpec(j=2, k=2, n=4, ell=1, m=12)
    a = g.standard_normal((12, 4))
    b = g.standard_normal((12, 1))
    blocks = build_blocks(ObservedData(a=a, b=b, partition=p))
    reduced, record = precondition_rowcol(blocks)
    assert record.rank == 2
    assert reduced.partition.j == 0 and reduced.partition.k == 0
    assert reduced.c11.size == 0 and reduced.c12.size == 0 and reduced.c21.size == 0
    a11, a12 = a[:2, :2], a[:2, 2:]
    a21, a22 = a[2:, :2], a[2:, 2:]
    b1, b2 = b[:2], b[2:]
    mult = a21 @ np.linalg.inv(a11)
    expected = np.hstack([a22 - mult @ a12, b2 - mult @ b1])
    assert np.max(np.abs(reduced.c22 - expected)) <= 1e-10 * (1.0 + np.max(np.abs(expected)))


def test_transform_blocks_full_rank_corner_leaves_zero_size_blocks():
    """A full-rank square corner consumes every exact row and column: the
    transform maps other blocks sharing the exact rows (here the ground
    truth) to zero-size exact blocks and the Schur-updated noisy block."""
    model, data = make_instance(j=2, k=2, n=4, ell=1, m=12, sigma=0.3,
                                model_seed=17, noise_seed=18)
    _, record = precondition_rowcol(build_blocks(data))
    assert record.rank == 2 and record.pivot_c12.shape == (2, 3)
    bar = ObservedData(a=model.a_bar, b=model.b_bar, partition=data.partition)
    reduced = record.transform_blocks(build_blocks(bar))
    assert reduced.c11.shape == (0, 0)
    assert reduced.c12.shape == (0, 3)
    assert reduced.c21.shape == (10, 0)
    assert reduced.c22.shape == (10, 3)
    assert reduced.assemble().shape == (10, 3)
    a11, a12 = model.a_bar[:2, :2], model.a_bar[:2, 2:]
    mult = model.a_bar[2:, :2] @ np.linalg.inv(a11)
    expected = np.hstack([model.a_bar[2:, 2:] - mult @ a12,
                          model.b_bar[2:] - mult @ model.b_bar[:2]])
    assert np.max(np.abs(reduced.c22 - expected)) <= 1e-10 * (1.0 + np.max(np.abs(expected)))


def test_precondition_zero_corner_keeps_an_empty_pivot_block():
    _, data = make_instance(j=1, k=2, n=4, ell=1, m=20, sigma=0.1)
    a = data.a.copy()
    a[:1, :2] = 0.0
    blocks = build_blocks(ObservedData(a=a, b=data.b, partition=data.partition))
    reduced, record = precondition_rowcol(blocks)
    assert record.rank == 0 and record.pivot_c12.shape == (0, 3)
    assert np.array_equal(reduced.c11, np.zeros((1, 2)))
    x = np.arange(4.0).reshape(4, 1)
    assert np.array_equal(record.recover(x), np.vstack([record.v @ x[:2], x[2:]]))


def test_precondition_rank_deficient_corner_zeroes_upper_left():
    g = np.random.default_rng(15)
    p = PartitionSpec(j=2, k=3, n=6, ell=1, m=24)
    a = g.standard_normal((24, 6))
    a[:2, :3] = np.outer(g.standard_normal(2), g.standard_normal(3))  # rank 1
    b = g.standard_normal((24, 1))
    blocks = build_blocks(ObservedData(a=a, b=b, partition=p))
    reduced, record = precondition_rowcol(blocks)
    assert record.rank == 1
    assert reduced.partition.j == 1 and reduced.partition.k == 2
    assert np.max(np.abs(reduced.c11)) <= 1e-10
    assert np.array_equal(reduced.c11, np.zeros((1, 2)))


def test_recover_ignores_memory_layout():
    """A rank-1 corner leaves one pivot row, whose product with the reduced
    solution BLAS rounds by the solution's layout: C- and F-ordered copies
    of one reduced solution recover to the same bits."""
    _, data = make_instance(j=1, k=1, n=4, ell=2, m=20, sigma=0.3)
    _, record = precondition_rowcol(build_blocks(data))
    assert record.rank == 1 and record.reduced_partition.k == 0
    g = np.random.default_rng(1)
    for _ in range(10):
        x = g.standard_normal((3, 2))
        c, f = record.recover(np.ascontiguousarray(x)), record.recover(np.asfortranarray(x))
        assert c.tobytes() == f.tobytes()


# --- ctls_rows / ctls_rowcol ----------------------------------------------------------


def test_ctls_rows_exact_recovery_and_interpolation():
    model, data = make_instance(j=2, k=0, n=4, ell=1, m=50, sigma=0.0)
    result = ctls_rows(data)
    assert np.linalg.norm(result.x_hat - model.x_true) <= 1e-8
    noisy_model, noisy = make_instance(j=2, k=0, n=4, ell=1, m=50, sigma=0.4)
    res2 = ctls_rows(noisy)
    scale = 1.0 + np.linalg.norm(noisy.b[:2], "fro")
    assert constraint_gap(noisy, res2.x_hat) <= 1e-8 * scale


def test_ctls_rows_partition_validation():
    _, data = make_instance(j=1, k=1, n=3, ell=1, m=30, sigma=0.1)
    with pytest.raises(InvalidPartitionError):
        ctls_rows(data)


def test_ctls_rows_matches_independent_reimplementation():
    """Dual path: numpy-only reimplementation of the row-constrained solve
    (null-space restriction of the lower-block Gram matrix)."""
    _, data = make_instance(j=1, k=0, n=3, ell=1, m=80, sigma=0.2,
                            model_seed=21, noise_seed=22)
    result = ctls_rows(data)

    c = np.hstack([data.a, data.b])
    upper, lower = c[:1], c[1:]
    _, _, vt = np.linalg.svd(upper)
    p_t = vt[1:, :].T  # null space of the exact row
    g = lower.T @ lower
    lam, vec = np.linalg.eigh(p_t.T @ g @ p_t)
    z = p_t @ vec[:, :1]
    x_indep = -z[:3] / z[3, 0]
    assert np.max(np.abs(result.x_hat - x_indep)) <= 1e-8


def test_ctls_rowcol_exact_recovery_all_partitions():
    for (j, k) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        model, data = make_instance(j=j, k=k, n=5, ell=2, m=40, sigma=0.0,
                                    model_seed=j * 10 + k, noise_seed=99)
        result = ctls_rowcol(data)
        err = np.linalg.norm(result.x_hat - model.x_true, "fro")
        assert err <= 1e-8 * (1.0 + np.linalg.norm(model.x_true, "fro"))


def test_ctls_rowcol_delegates_to_tls():
    _, data = make_instance(j=0, k=0, n=3, ell=2, m=40, sigma=0.3)
    r1 = ctls_rowcol(data)
    r2 = tls_solve(data.a, data.b)
    assert np.array_equal(r1.x_hat, r2.x_hat)
    assert np.array_equal(r1.smallest_eigs, r2.smallest_eigs)


def test_ctls_rowcol_matches_ctls_columns():
    _, data = make_instance(j=0, k=2, n=4, ell=1, m=60, sigma=0.2,
                            model_seed=31, noise_seed=32)
    r1 = ctls_rowcol(data)
    r2 = ctls_columns(data)
    assert np.max(np.abs(r1.x_hat - r2.x_hat)) <= 1e-8


def test_ctls_rowcol_hard_constraints_with_noise():
    for (j, k) in [(1, 1), (2, 1), (1, 2)]:
        _, data = make_instance(j=j, k=k, n=4, ell=2, m=60, sigma=0.5,
                                model_seed=j, noise_seed=k + 50)
        result = ctls_rowcol(data)
        scale = 1.0 + np.linalg.norm(data.b[:j], "fro")
        assert constraint_gap(data, result.x_hat) <= 1e-8 * scale
        assert result.diagnostics.constraint_residual <= 1e-8 * scale


@pytest.mark.parametrize("k", [0, 1])
def test_constraint_residual_ignores_memory_layout(k):
    """With one exact row, BLAS rounds ``A1 @ x_hat`` by the memory layout
    of ``x_hat``; the residual takes it on a C-contiguous copy, so C- and
    F-ordered copies of one estimate give the same residuals."""
    p = PartitionSpec(j=1, k=k, n=4, ell=2, m=60)
    _, stack, _ = sample_stack(p, 0.3, [(s, s + 100) for s in range(20)])
    x_hat = np.stack([result.x_hat for result in ctls_rowcol(stack)])
    c_order = np.ascontiguousarray(x_hat)
    f_order = x_hat.swapaxes(-1, -2).copy().swapaxes(-1, -2)
    assert c_order.flags.c_contiguous and f_order[0].flags.f_contiguous
    assert np.array_equal(estimators._constraint_residual(stack, c_order),
                          estimators._constraint_residual(stack, f_order))


def test_ctls_rowcol_ritz_sum_equals_objective():
    """Constrained analogue of the eigenvalue-sum identity: the minimal
    perturbation cost at the solution equals the sum of the smallest Ritz
    values consumed, even through a partial-rank corner elimination."""
    from ctls.oracle import constrained_objective

    g = np.random.default_rng(55)
    p = PartitionSpec(j=2, k=3, n=6, ell=1, m=60)
    x_true = g.uniform(-2.0, 2.0, (6, 1))
    a_bar = g.standard_normal((60, 6))
    a_bar[:2, :3] = np.outer(g.standard_normal(2), g.standard_normal(3))
    model = RegressionModel(
        a_bar=a_bar, b_bar=a_bar @ x_true, x_true=x_true, sigma=0.1, partition=p
    )
    data = observe(model, seed=77)
    result = ctls_rowcol(data)
    probe = constrained_objective(build_blocks(data), result.x_hat)
    assert probe.feasible
    ritz_sum = float(np.sum(result.smallest_eigs))
    assert abs(probe.objective - ritz_sum) <= 1e-8 * (1.0 + ritz_sum)


def test_exact_row_frame_is_orthogonal():
    """The range basis of the exact rows and the null basis used by the
    row-constrained solvers assemble into a full orthogonal frame."""
    from ctls.linalg import svd

    _, data = make_instance(j=2, k=1, n=5, ell=1, m=40, sigma=0.2,
                            model_seed=23, noise_seed=24)
    blocks = build_blocks(data)
    c12 = blocks.c12
    basis_null = null_space_basis(c12)
    dec = svd(c12)
    rank = int(np.count_nonzero(dec.singular_values > 1e-10 * dec.singular_values[0]))
    frame = np.hstack([dec.v[:, :rank], basis_null])
    assert frame.shape[0] == frame.shape[1]
    assert np.max(np.abs(frame.T @ frame - np.eye(frame.shape[1]))) <= 1e-10


def test_ctls_rowcol_unconstrained_needs_more_rows_than_columns():
    """j = k = 0 runs the same pipeline as every other partition, so it
    refuses m <= n + ell as they do."""
    g = np.random.default_rng(31)
    data = ObservedData(a=g.standard_normal((3, 2)), b=g.standard_normal((3, 1)),
                        partition=PartitionSpec(j=0, k=0, n=2, ell=1, m=3))
    with pytest.raises(InvalidPartitionError):
        ctls_rowcol(data)


def test_ctls_rowcol_rejects_rank_deficient_rows():
    _, data = make_instance(j=2, k=1, n=4, ell=1, m=30, sigma=0.1)
    a = data.a.copy()
    a[1] = 3.0 * a[0]
    b = data.b.copy()
    b[1] = 3.0 * b[0]
    bad = ObservedData(a=a, b=b, partition=data.partition)
    with pytest.raises(RankDeficientUpperRowsError):
        ctls_rowcol(bad)


def test_ctls_rowcol_rank_deficient_corner_end_to_end():
    g = np.random.default_rng(55)
    p = PartitionSpec(j=2, k=3, n=6, ell=1, m=60)
    x_true = g.uniform(-2.0, 2.0, (6, 1))
    a_bar = g.standard_normal((60, 6))
    a_bar[:2, :3] = np.outer(g.standard_normal(2), g.standard_normal(3))
    model = RegressionModel(
        a_bar=a_bar, b_bar=a_bar @ x_true, x_true=x_true, sigma=0.05, partition=p
    )
    data = observe(model, seed=56)
    result = ctls_rowcol(data)
    assert constraint_gap(data, result.x_hat) <= 1e-8 * (
        1.0 + np.linalg.norm(data.b[:2], "fro")
    )
    exact = observe(
        RegressionModel(a_bar=a_bar, b_bar=a_bar @ x_true, x_true=x_true,
                        sigma=0.0, partition=p),
        seed=57,
    )
    r0 = ctls_rowcol(exact)
    assert np.linalg.norm(r0.x_hat - x_true) <= 1e-8 * (1.0 + np.linalg.norm(x_true))


def test_ctls_rowcol_beats_naive_least_squares():
    """Large seeded instance: the constrained estimator must land closer to
    the truth than the normal-equations baseline."""
    from ctls.harness import naive_ls

    model, data = make_instance(j=1, k=1, n=4, ell=2, m=4000, sigma=0.05,
                                model_seed=401, noise_seed=402)
    err_ctls = np.linalg.norm(ctls_rowcol(data).x_hat - model.x_true, "fro")
    err_naive = np.linalg.norm(naive_ls(data).x_hat - model.x_true, "fro")
    assert err_ctls < err_naive


def test_tls_rank_reduction_perturbation_identity():
    """The minimal perturbation reconstructed from the solution satisfies the
    constraint exactly and has squared norm lambda_1 (ell = 1)."""
    _, data = make_instance(j=0, k=0, n=3, ell=1, m=40, sigma=0.3,
                            model_seed=17, noise_seed=18)
    result = tls_solve(data.a, data.b)
    c = np.hstack([data.a, data.b])
    y = np.vstack([result.x_hat, -np.eye(1)])
    delta = -(c @ y) @ np.linalg.solve(y.T @ y, y.T)
    lam1 = float(result.smallest_eigs[0])
    assert np.linalg.norm((c + delta) @ y) <= 1e-10 * (1.0 + np.linalg.norm(c))
    assert np.linalg.norm(delta, "fro") ** 2 == pytest.approx(lam1, rel=1e-8)


# --- projection_estimator ---------------------------------------------------------------


def test_projection_equals_tls_unconstrained():
    _, data = make_instance(j=0, k=0, n=3, ell=2, m=50, sigma=0.3)
    r1 = projection_estimator(data)
    r2 = tls_solve(data.a, data.b)
    assert np.max(np.abs(r1.x_hat - r2.x_hat)) <= 1e-10


@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize("m", [60, 2000])
@pytest.mark.parametrize("mu_rule", MU_RULES)
def test_projection_and_ctls_rowcol_agree_without_exact_columns(j, m, mu_rule):
    """With k = 0 the shift mu falls on every column, so P.T (F - mu I) P =
    P.T F P - mu I: projection (eigh of a Gram matrix) and ctls_rowcol (SVD
    of R P) solve one subspace problem by two routes, under every mu_rule.
    They agree to eps times a TLS condition estimate from the gap
    sigma_{n-j}(A') - sigma_{n-j+1}(C') of the problem restricted to the
    exact rows' null space (Golub & Van Loan 1980), squared as the Gram
    route squares it.  Over these 60 slices per rule the worst difference
    was 0.70 of that unit (min), 0.98 (mean) and 0.66 (max).  Part of C16,
    whose other identities test_acceptance.py checks."""
    n, ell = 4, 2
    eps = np.finfo(float).eps
    p = PartitionSpec(j=j, k=0, n=n, ell=ell, m=m)
    stack = sample_stack(p, 0.3, [(seed, 100 + seed) for seed in range(10)], all_rows=False)[1]
    x_proj = np.stack([r.x_hat for r in projection_estimator(stack, mu_rule=mu_rule)])
    x_ctls = np.stack([r.x_hat for r in ctls_rowcol(stack)])
    for s in range(stack.stack_size):
        r, exact = stack.r_noisy[s], stack.exact_rows[s]
        p_c = null_space_basis(exact) if j else np.eye(n + ell)
        p_a = null_space_basis(exact[:, :n]) if j else np.eye(n)
        s_c = np.linalg.svd(r @ p_c, compute_uv=False)
        s_a = np.linalg.svd(r[:, :n] @ p_a, compute_uv=False)
        low, high = s_a[n - j - 1], s_c[n - j]
        kappa = s_c[0] ** 2 / ((low - high) * (low + high))
        tol = 32 * eps * kappa * (1.0 + np.linalg.norm(x_ctls[s]))
        assert np.max(np.abs(x_proj[s] - x_ctls[s])) <= tol, s


def test_projection_exact_recovery():
    model, data = make_instance(j=1, k=1, n=3, ell=1, m=40, sigma=0.0)
    result = projection_estimator(data)
    assert np.linalg.norm(result.x_hat - model.x_true) <= 1e-8
    assert result.sigma2_hat <= 1e-10


def test_projection_rotation_invariance():
    """Left-multiplying the noisy rows by an orthogonal matrix must not move
    the estimate (the data enters only through Gram matrices)."""
    _, data = make_instance(j=1, k=1, n=3, ell=1, m=30, sigma=0.2,
                            model_seed=61, noise_seed=62)
    result = projection_estimator(data)
    g = np.random.default_rng(63)
    q = np.linalg.qr(g.standard_normal((29, 29)))[0]
    a2 = data.a.copy()
    b2 = data.b.copy()
    a2[1:] = q @ data.a[1:]
    b2[1:] = q @ data.b[1:]
    rotated = ObservedData(a=a2, b=b2, partition=data.partition)
    r2 = projection_estimator(rotated)
    assert np.max(np.abs(result.x_hat - r2.x_hat)) <= 1e-10


def test_ritz_residual_of_row_restricted_gram():
    """Each Ritz pair of the row-restricted Gram matrix satisfies the eigen
    residual bound relative to the unprojected scale (the geometry of the
    row-constrained solvers: basis from the exact rows, Gram from the noisy
    block, both in the same coordinate frame)."""
    _, data = make_instance(j=1, k=0, n=4, ell=2, m=50, sigma=0.2,
                            model_seed=71, noise_seed=72)
    blocks = build_blocks(data)
    p = data.partition
    g = blocks.c22.T @ blocks.c22
    basis = null_space_basis(blocks.c12)
    shifted = basis.T @ g @ basis
    eig = sym_eigen(shifted)
    scale = 1.0 + np.linalg.norm(g, "fro")
    for i in range(p.ell):
        resid = (
            basis.T @ (g @ (basis @ eig.vectors[:, i]))
            - eig.values[i] * eig.vectors[:, i]
        )
        assert np.linalg.norm(resid) <= 1e-8 * scale


def test_projection_mu_rules():
    _, data = make_instance(j=1, k=1, n=3, ell=2, m=60, sigma=0.3,
                            model_seed=81, noise_seed=82)
    lo = projection_estimator(data, mu_rule="min")
    mid = projection_estimator(data, mu_rule="mean")
    hi = projection_estimator(data, mu_rule="max")
    assert lo.mu <= mid.mu <= hi.mu
    with pytest.raises(ValueError):
        projection_estimator(data, mu_rule="median")


def test_projection_rejects_rank_deficient_rows():
    _, data = make_instance(j=2, k=0, n=4, ell=1, m=30, sigma=0.1)
    a = data.a.copy()
    b = data.b.copy()
    a[1] = a[0]
    b[1] = b[0]
    bad = ObservedData(a=a, b=b, partition=data.partition)
    with pytest.raises(RankDeficientUpperRowsError):
        projection_estimator(bad)


def test_projection_constraint_rows_satisfied():
    _, data = make_instance(j=2, k=1, n=4, ell=1, m=80, sigma=0.3,
                            model_seed=91, noise_seed=92)
    result = projection_estimator(data)
    scale = 1.0 + np.linalg.norm(data.b[:2], "fro")
    assert constraint_gap(data, result.x_hat) <= 1e-8 * scale


# --- noise-variance estimate (sigma2_hat) ---------------------------------------------


def test_estimate_sigma_zero_noise():
    _, data = make_instance(j=1, k=1, n=3, ell=1, m=50, sigma=0.0)
    result = projection_estimator(data)
    assert result.sigma2_hat <= 1e-8


def test_estimate_sigma_arithmetic():
    _, data = make_instance(j=1, k=1, n=3, ell=1, m=500, sigma=0.2,
                            model_seed=61, noise_seed=62)
    result = projection_estimator(data)
    assert result.sigma2_hat == max(0.0, result.mu) / 500


def test_estimate_sigma_monte_carlo_band():
    """30-trial median of the estimate within 10% of 0.09 at m = 1e5."""
    sigma = 0.3
    values = []
    for t in range(30):
        _, data = make_instance(j=1, k=1, n=3, ell=1, m=100_000, sigma=sigma,
                                model_seed=7000 + t, noise_seed=8000 + t)
        result = projection_estimator(data)
        values.append(result.sigma2_hat)
    med = float(np.median(values))
    assert 0.081 <= med <= 0.099
