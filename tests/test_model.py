"""Model generation, noise injection and covariance whitening."""

import numpy as np
import pytest

from ctls.errors import InvalidPartitionError, NotPositiveDefiniteError, ShapeError
from ctls.estimators import ctls_rowcol, projection_estimator, tls_solve
from ctls.model import (
    DesignKind,
    NoiseKind,
    ObservedData,
    PartitionSpec,
    generate_model,
    observe,
    unwhiten_estimate,
    whiten,
)

from conftest import make_instance


# --- PartitionSpec -----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(j=-1, k=0, n=3, ell=1, m=10),
        dict(j=0, k=4, n=3, ell=1, m=10),
        dict(j=3, k=0, n=3, ell=1, m=10),
        dict(j=0, k=0, n=3, ell=0, m=10),
        dict(j=5, k=0, n=6, ell=1, m=5),
    ],
)
def test_partition_rejects_inconsistent(kwargs):
    with pytest.raises(InvalidPartitionError):
        PartitionSpec(**kwargs)


def test_partition_overdetermination_is_separate():
    p = PartitionSpec(j=1, k=1, n=2, ell=1, m=3)  # m == n + ell: slicing ok
    with pytest.raises(InvalidPartitionError):
        p.require_overdetermined()


# --- generate_model ------------------------------------------------------------


def test_generate_defining_identity():
    p = PartitionSpec(j=0, k=0, n=2, ell=1, m=50)
    model = generate_model(p, 0.0, seed=7)
    resid = np.linalg.norm(model.a_bar @ model.x_true - model.b_bar, "fro")
    assert resid <= 1e-10 * (1.0 + np.linalg.norm(model.b_bar, "fro"))


def test_generate_upper_rows_nonzero_rank():
    p = PartitionSpec(j=1, k=1, n=3, ell=2, m=100)
    model = generate_model(p, 0.0, seed=1)
    upper = np.hstack([model.a_bar[:1], model.b_bar[:1]])
    assert np.linalg.norm(upper) > 0.0


def test_generate_determinism_and_seed_sensitivity():
    p = PartitionSpec(j=0, k=0, n=3, ell=1, m=30)
    m1 = generate_model(p, 0.2, seed=5)
    m2 = generate_model(p, 0.2, seed=5)
    m3 = generate_model(p, 0.2, seed=6)
    assert np.array_equal(m1.a_bar, m2.a_bar)
    assert np.array_equal(m1.x_true, m2.x_true)
    assert np.linalg.norm(m1.a_bar - m3.a_bar) > 0.0


def test_generate_fixed_grid_is_polynomial_design():
    p = PartitionSpec(j=1, k=0, n=3, ell=1, m=11)
    model = generate_model(p, 0.0, seed=9, design=DesignKind.FIXED_GRID)
    t = np.linspace(-1.0, 1.0, 11)
    assert np.array_equal(model.a_bar[:, 0], np.ones(11))
    assert np.array_equal(model.a_bar[:, 1], t)
    assert np.array_equal(model.a_bar[:, 2], t**2)


def test_generate_rejects_negative_sigma_and_small_m():
    p = PartitionSpec(j=0, k=0, n=3, ell=1, m=30)
    with pytest.raises(InvalidPartitionError):
        generate_model(p, -0.1, seed=1)
    tight = PartitionSpec(j=0, k=0, n=3, ell=1, m=4)
    with pytest.raises(InvalidPartitionError):
        generate_model(tight, 0.1, seed=1)


# --- observe ---------------------------------------------------------------------


def test_observe_zero_noise_is_bit_exact():
    model, data = make_instance(j=1, k=1, n=3, ell=2, m=40, sigma=0.0)
    assert np.array_equal(data.a, model.a_bar)
    assert np.array_equal(data.b, model.b_bar)


def test_observe_keeps_constraints_bit_exact():
    model, data = make_instance(j=2, k=1, n=4, ell=1, m=60, sigma=0.7)
    assert np.array_equal(data.a[:2], model.a_bar[:2])
    assert np.array_equal(data.b[:2], model.b_bar[:2])
    assert np.array_equal(data.a[:, :1], model.a_bar[:, :1])
    assert np.linalg.norm(data.a[2:, 1:] - model.a_bar[2:, 1:]) > 0.0


@pytest.mark.parametrize("noise", list(NoiseKind))
def test_observe_noise_variance(noise):
    model, data = make_instance(
        j=0, k=0, n=2, ell=1, m=100_000, sigma=0.5, noise=noise
    )
    e = np.hstack([data.a - model.a_bar, data.b - model.b_bar])
    var = float(np.var(e))
    assert 0.24 <= var <= 0.26
    assert abs(float(np.mean(e))) < 0.01


def test_observe_determinism():
    model, _ = make_instance(sigma=0.3)
    d1 = observe(model, seed=77)
    d2 = observe(model, seed=77)
    assert np.array_equal(d1.a, d2.a)
    assert np.array_equal(d1.b, d2.b)


# --- SLLN-style empirical checks ---------------------------------------------------


def test_cross_term_decays_with_m():
    """Median of |C21_bar.T @ E / m|_max must shrink as m grows."""
    medians = []
    for m in (100, 1000, 10000):
        vals = []
        for t in range(20):
            model, data = make_instance(
                j=1, k=1, n=3, ell=1, m=m, sigma=0.5,
                model_seed=500 + t, noise_seed=900 + t,
            )
            p = model.partition
            c21_bar = model.a_bar[p.j :, : p.k]
            e = np.hstack(
                [
                    data.a[p.j :, p.k :] - model.a_bar[p.j :, p.k :],
                    data.b[p.j :] - model.b_bar[p.j :],
                ]
            )
            vals.append(np.max(np.abs(c21_bar.T @ e)) / m)
        medians.append(np.median(vals))
    assert medians[0] > medians[1] > medians[2]


def test_noise_second_moment_converges():
    """|E.T E / m - sigma^2 I|_max below 0.05 sigma^2 in median at m = 1e5."""
    sigma = 0.5
    vals = []
    for t in range(20):
        model, data = make_instance(
            j=0, k=0, n=2, ell=1, m=100_000, sigma=sigma,
            model_seed=100 + t, noise_seed=300 + t,
        )
        e = np.hstack([data.a - model.a_bar, data.b - model.b_bar])
        vals.append(np.max(np.abs(e.T @ e / model.partition.m - sigma**2 * np.eye(3))))
    assert np.median(vals) < 0.05 * sigma**2


# --- ObservedData ----------------------------------------------------------------


def test_observed_data_rejects_partition_with_other_m():
    a, b = np.ones((5, 2)), np.ones((5, 1))
    with pytest.raises(ShapeError, match="do not match the partition"):
        ObservedData(a=a, b=b, partition=PartitionSpec(j=0, k=0, n=2, ell=1, m=50))


@pytest.mark.parametrize("a_shape,b_shape", [((20, 3), (20, 2)), ((20, 2), (20, 1)), ((20,), (20, 1))])
def test_observed_data_rejects_columns_other_than_partition(a_shape, b_shape):
    with pytest.raises(ShapeError):
        ObservedData(a=np.ones(a_shape), b=np.ones(b_shape),
                     partition=PartitionSpec(j=0, k=0, n=3, ell=1, m=20))


@pytest.mark.parametrize("estimator", [ctls_rowcol, projection_estimator])
def test_observed_data_rejects_row_mismatch_before_estimation(estimator):
    _, data = make_instance(j=1, k=1, n=3, ell=1, m=20)
    with pytest.raises(ShapeError, match="same number of rows"):
        estimator(ObservedData(a=data.a, b=data.b[:19], partition=data.partition))


def test_tls_solve_row_mismatch_is_a_shape_error():
    with pytest.raises(ShapeError, match="same number of rows"):
        tls_solve(np.ones((6, 2)), np.ones((5, 1)))


# --- whiten ---------------------------------------------------------------------


def test_whiten_identity_covariance_is_noop():
    _, data = make_instance(j=1, k=1, n=3, ell=1, m=30, sigma=0.2)
    white, transform = whiten(data, np.eye(data.partition.noisy_cols))
    assert np.array_equal(white.a, data.a)
    assert np.array_equal(white.b, data.b)
    assert np.array_equal(transform, np.eye(data.partition.noisy_cols))


def test_whiten_diagonal_scales_columns():
    _, data = make_instance(j=0, k=1, n=3, ell=1, m=30, sigma=0.2)
    cov = np.diag([4.0, 1.0, 1.0])
    white, transform = whiten(data, cov)
    assert np.allclose(white.a[:, 1], data.a[:, 1] / 2.0)
    assert np.allclose(white.a[:, 2], data.a[:, 2])
    assert np.allclose(white.b, data.b)
    assert np.allclose(transform, np.diag([2.0, 1.0, 1.0]))


def test_whiten_rejects_wrong_shaped_covariance():
    _, data = make_instance(j=0, k=1, n=3, ell=1, m=20)
    with pytest.raises(ShapeError, match="sigma_cov must be 3x3"):
        whiten(data, np.eye(2))


def test_whiten_rejects_indefinite():
    _, data = make_instance(j=0, k=0, n=2, ell=1, m=20, sigma=0.1)
    with pytest.raises(NotPositiveDefiniteError):
        whiten(data, -np.eye(3))


def _color(data: ObservedData, lower: np.ndarray) -> ObservedData:
    """Right-multiply the noisy column block by lower.T (inverse of whiten)."""
    p = data.partition
    noisy = np.hstack([data.a[:, p.k :], data.b]) @ lower.T
    a = data.a.copy()
    a[:, p.k :] = noisy[:, : p.n_free]
    return ObservedData(a=a, b=noisy[:, p.n_free :].copy(), partition=p)


def test_whiten_commutes_with_estimation():
    """Whitening a colored instance and back-mapping the estimate must agree
    with estimating the white instance and forward-mapping it."""
    _, data_white = make_instance(j=0, k=1, n=3, ell=1, m=200, sigma=1.0,
                                  model_seed=42, noise_seed=43)
    p = data_white.partition
    g = np.random.default_rng(3)
    a = g.standard_normal((p.noisy_cols, p.noisy_cols))
    cov = a @ a.T + 2.0 * np.eye(p.noisy_cols)
    lower = np.linalg.cholesky(cov)

    colored = _color(data_white, lower)
    rewhite, transform = whiten(colored, cov)
    assert np.max(np.abs(rewhite.a - data_white.a)) <= 1e-10 * (
        1.0 + np.max(np.abs(data_white.a))
    )

    x_pipeline = unwhiten_estimate(
        tls_solve(rewhite.a, rewhite.b).x_hat, p, transform
    )
    x_direct = unwhiten_estimate(
        tls_solve(data_white.a, data_white.b).x_hat, p, lower
    )
    assert np.max(np.abs(x_pipeline - x_direct)) <= 1e-8


def test_whiten_commutes_exactly_at_zero_noise():
    model, data = make_instance(j=1, k=1, n=3, ell=2, m=50, sigma=0.0)
    p = data.partition
    cov = np.diag(np.arange(1.0, p.noisy_cols + 1.0))
    lower = np.linalg.cholesky(cov)
    colored = _color(data, lower)
    rewhite, transform = whiten(colored, cov)
    x_hat = unwhiten_estimate(tls_solve(rewhite.a, rewhite.b).x_hat, p, transform)
    x_colored_true = unwhiten_estimate(model.x_true, p, lower)
    assert np.max(np.abs(colored.a @ x_colored_true - colored.b)) <= 1e-8
    assert np.max(np.abs(x_hat - x_colored_true)) <= 1e-8
