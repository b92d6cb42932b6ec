"""Model generation, noise injection and covariance whitening."""

import math
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import ctls.model as model_mod
from ctls import estimators, linalg
from ctls.errors import CtlsError, InvalidPartitionError, NotPositiveDefiniteError, ShapeError
from ctls.estimators import ctls_rowcol, projection_estimator, tls_from_data, tls_solve
from ctls.harness import naive_ls
from ctls.linalg import BLOCK_ROWS, CHUNK_ROWS, tall_r
from ctls.parallel import beside
from ctls.model import (
    DesignKind,
    NoiseKind,
    ObservedData,
    PartitionSpec,
    generate_model,
    observe,
    sample_stack,
    unwhiten_estimate,
    whiten,
)

from conftest import fingerprint, make_instance, set_cpus


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
    for sigma in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InvalidPartitionError, match="finite"):
            generate_model(p, sigma, seed=1)
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


def test_unknown_kinds_are_invalid_partitions():
    """A design or noise kind that is not a member is an InvalidPartitionError
    on the row path and in the fused pass alike, not a bare ValueError."""
    p = PartitionSpec(j=1, k=1, n=3, ell=1, m=40)
    model = generate_model(p, 0.1, 1)
    calls = [lambda: generate_model(p, 0.1, 1, "iid"), lambda: observe(model, 2, "gauss"),
             lambda: sample_stack(p, 0.1, [(1, 2)], design="iid"),
             lambda: sample_stack(p, 0.1, [(1, 2)], noise="gauss")]
    for call in calls:
        with pytest.raises(InvalidPartitionError, match="unknown"):
            call()


# --- ObservedData ----------------------------------------------------------------


def test_observed_data_rejects_partition_with_other_m():
    a, b = np.ones((5, 2)), np.ones((5, 1))
    with pytest.raises(ShapeError, match="do not match the partition"):
        ObservedData(a=a, b=b, partition=PartitionSpec(j=0, k=0, n=2, ell=1, m=50))


@pytest.mark.parametrize("a_shape,b_shape", [((20, 3), (20, 2)), ((20, 2), (20, 1)), ((20,), (20, 1)),
                                             ((20, 3), (20,))])
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


@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize("rows", ["j+d", 511, 512, 513, 767, 2000])
def test_observed_factors_share_one_pass(j, rows):
    """r_all is bit-identical to the factor of [A | B]; r_noisy, built from
    the same block triangles, factors the rows j: like a direct tall_r."""
    n, ell = 3, 2
    d = n + ell
    m = j + d if rows == "j+d" else rows
    g = np.random.default_rng(10 * m + j)
    a = g.standard_normal((m, n)) * [1.0, 10.0, 1e-3]
    b = g.standard_normal((m, ell))
    data = ObservedData(a=a, b=b, partition=PartitionSpec(j=j, k=1, n=n, ell=ell, m=m))
    c = np.hstack([a, b])
    assert np.array_equal(data.r_all, tall_r(c))
    r, direct = data.r_noisy, tall_r(c[j:])
    gram = c[j:].T @ c[j:]
    assert np.max(np.abs(r.T @ r - gram)) <= 1e-12 * np.max(np.abs(gram))
    assert np.allclose(np.abs(r), np.abs(direct), rtol=1e-10, atol=1e-12)
    assert (data.r_noisy is data.r_all) == (j == 0)
    for factor in (data.r_all, data.r_noisy):
        assert factor.shape == (d, d)
        assert np.array_equal(factor, np.triu(factor))
        with pytest.raises(ValueError, match="read-only"):
            factor[0, 0] = 1.0


def _gram(r: np.ndarray) -> np.ndarray:
    """``R.T @ R`` of the factor of a stack of one."""
    return r[0].T @ r[0]


def test_whiten_identity_covariance_is_noop():
    _, data = make_instance(j=1, k=1, n=3, ell=1, m=30, sigma=0.2)
    white, transform = whiten(data, np.eye(data.partition.noisy_cols))
    assert white.stack_size == 1
    assert np.array_equal(white.exact_rows[0], data.exact_rows)
    assert np.array_equal(white.r_noisy[0], data.r_noisy)
    assert np.array_equal(white.r_all[0], data.r_all)
    assert np.array_equal(transform, np.eye(data.partition.noisy_cols))


def test_whiten_diagonal_scales_columns():
    _, data = make_instance(j=1, k=1, n=3, ell=1, m=30, sigma=0.2)
    cov = np.diag([4.0, 1.0, 1.0])
    white, transform = whiten(data, cov)
    c = np.hstack([data.a, data.b])
    c[:, 1] /= 2.0
    assert np.allclose(white.exact_rows[0], c[:1])
    assert np.allclose(_gram(white.r_all), c.T @ c)
    assert np.allclose(_gram(white.r_noisy), c[1:].T @ c[1:])
    scaled = ObservedData(a=c[:, :3], b=c[:, 3:], partition=data.partition)
    assert np.allclose(ctls_rowcol(white)[0].x_hat, ctls_rowcol(scaled).x_hat)
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
    c = np.hstack([data_white.a, data_white.b])
    gram = c.T @ c
    assert np.max(np.abs(_gram(rewhite.r_all) - gram)) <= 1e-10 * (1.0 + np.max(np.abs(gram)))

    x_pipeline = unwhiten_estimate(tls_from_data(rewhite)[0].x_hat, p, transform)
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
    c = np.hstack([data.a, data.b])
    assert np.max(np.abs(rewhite.exact_rows[0] - c[:1])) <= 1e-8
    for r, rows in ((rewhite.r_all, c), (rewhite.r_noisy, c[1:])):
        gram = rows.T @ rows
        assert np.max(np.abs(_gram(r) - gram)) <= 1e-8 * (1.0 + np.max(np.abs(gram)))
    x_colored_true = unwhiten_estimate(model.x_true, p, lower)
    assert np.max(np.abs(colored.a @ x_colored_true - colored.b)) <= 1e-8
    for estimator in (tls_from_data, ctls_rowcol):
        x_hat = unwhiten_estimate(estimator(rewhite)[0].x_hat, p, transform)
        assert np.max(np.abs(x_hat - x_colored_true)) <= 1e-8


@pytest.mark.parametrize("all_rows", [True, False])
def test_whiten_takes_a_sampled_stack(all_rows):
    """whiten on a sample_stack stack is, slice for slice and bit for bit,
    whiten on the row-path instance of that slice's seeds; a stack without
    r_all whitens to one without it."""
    p = PartitionSpec(j=1, k=1, n=3, ell=1, m=50)
    seeds = [(1, 2), (3, 4), (5, 6)]
    g = np.random.default_rng(4)
    a = g.standard_normal((p.noisy_cols, p.noisy_cols))
    cov = a @ a.T + np.eye(p.noisy_cols)
    white, lower = whiten(sample_stack(p, 0.1, seeds, all_rows=all_rows)[1], cov)
    assert white.stack_size == len(seeds) and white.exact_rows.flags.c_contiguous
    for s, (model_seed, noise_seed) in enumerate(seeds):
        row, row_lower = whiten(observe(generate_model(p, 0.1, model_seed), noise_seed), cov)
        assert np.array_equal(lower, row_lower)
        assert np.array_equal(white.exact_rows[s], row.exact_rows[0])
        assert np.array_equal(white.r_noisy[s], row.r_noisy[0])
        if all_rows:
            assert np.array_equal(white.r_all[s], row.r_all[0])
    if not all_rows:
        with pytest.raises(ShapeError, match="needs a row-built instance"):
            white.r_all


def _sign_band(trials: int, miss: float) -> tuple[int, int]:
    """The band ``[lo, trials - lo]`` that ``Binomial(trials, 1/2)`` leaves
    with probability at most ``miss``: the count of ``trials`` independent
    pairs in which the second of two draws of one continuous distribution
    is the larger."""
    tail, lo = 0.0, 0
    while 2.0 * (tail + math.comb(trials, lo) / 2.0**trials) <= miss:
        tail += math.comb(trials, lo) / 2.0**trials
        lo += 1
    return lo, trials - lo


def test_whitening_restores_consistency():
    """AR(1) noise across the noisy columns (rho = 0.6, variance 0.09), with
    an exact first row and column, at m = 1e3, 1e4 and 1e5 with 60 trials
    each, every instance from its own seeds.  Whitened, ctls_rowcol and
    projection keep one distribution of sqrt(m) * err: from one m to the
    next, the count of trials whose sqrt(m) * err is the larger stays in
    the band :func:`_sign_band` gives for a miss of 1e-3 (a sign test).
    Not whitened, ctls_rowcol's grows: that count lies above the band at
    every step."""
    trials, rho, var = 60, 0.6, 0.09
    noisy = np.arange(3)
    cov = var * rho ** np.abs(noisy[:, None] - noisy[None, :])
    lower = np.linalg.cholesky(cov)
    errs = {"ctls_rowcol": [], "projection": [], "not whitened": []}
    for i, m in enumerate((1_000, 10_000, 100_000)):
        p = PartitionSpec(j=1, k=1, n=3, ell=1, m=m)
        for values in errs.values():
            values.append([])
        for t in range(trials):
            model = generate_model(p, 0.0, 100 * i + t)
            g = np.random.default_rng(10_000 + 100 * i + t)
            e = g.standard_normal((m - p.j, p.noisy_cols)) @ lower.T
            a, b = model.a_bar.copy(), model.b_bar.copy()
            a[p.j :, p.k :] += e[:, : p.n_free]
            b[p.j :] += e[:, p.n_free :]
            data = ObservedData(a=a, b=b, partition=p)
            white, transform = whiten(data, cov)
            for name, x_hat in (
                ("ctls_rowcol", unwhiten_estimate(ctls_rowcol(white)[0].x_hat, p, transform)),
                ("projection",
                 unwhiten_estimate(projection_estimator(white)[0].x_hat, p, transform)),
                ("not whitened", ctls_rowcol(data).x_hat),
            ):
                errs[name][-1].append(np.sqrt(m) * np.linalg.norm(x_hat - model.x_true))
    lo, hi = _sign_band(trials, 1e-3)
    grew = {name: [int(np.sum(np.greater(after, before)))
                   for before, after in zip(values, values[1:])]
            for name, values in errs.items()}
    assert all(lo <= count <= hi for count in grew["ctls_rowcol"] + grew["projection"]), grew
    assert all(count > hi for count in grew["not whitened"]), grew


# --- the chunked O(m) pass ----------------------------------------------------


def one_shot_observe(model, seed, noise):
    """``observe`` with the whole noise block drawn at once."""
    p = model.partition
    a, b = model.a_bar.copy(), model.b_bar.copy()
    rng = np.random.default_rng(seed)
    shape = (p.m - p.j, p.noisy_cols)
    if noise is NoiseKind.GAUSS:
        e = rng.standard_normal(shape) * model.sigma
    elif noise is NoiseKind.UNIFORM:
        half = model.sigma * np.sqrt(3.0)
        e = rng.uniform(-half, half, size=shape)
    else:
        e = model.sigma * (2.0 * rng.integers(0, 2, size=shape) - 1.0)
    a[p.j :, p.k :] += e[:, : p.n_free]
    b[p.j :, :] += e[:, p.n_free :]
    return a, b


@pytest.mark.parametrize("noise", list(NoiseKind))
@pytest.mark.parametrize("noisy_rows", [300, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                                        2 * CHUNK_ROWS + 7])
def test_chunked_noise_matches_one_draw(noise, noisy_rows):
    j = 2
    p = PartitionSpec(j=j, k=3, n=10, ell=2, m=noisy_rows + j)
    model = generate_model(p, 0.3, seed=noisy_rows)
    data = observe(model, 5, noise)
    a, b = one_shot_observe(model, 5, noise)
    assert np.array_equal(data.a, a) and np.array_equal(data.b, b)


def one_batch_factors(c, j):
    """``(r_all, r_noisy)`` from one batched QR over every block of ``c``."""
    rows, cols = c.shape
    full = rows // BLOCK_ROWS
    triangles = np.linalg.qr(c[: full * BLOCK_ROWS].reshape(full, BLOCK_ROWS, cols), mode="r")
    tail = c[full * BLOCK_ROWS :]
    r_all = np.linalg.qr(np.vstack([triangles.reshape(-1, cols), tail]), mode="r")
    if j == 0:
        return r_all, r_all
    first = np.linalg.qr(c[j:BLOCK_ROWS], mode="r")
    rest = [triangles[1:].reshape(-1, cols), tail, first]
    return r_all, np.linalg.qr(np.vstack(rest), mode="r")


@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize("m", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 300])
def test_chunked_factors_match_one_batch(j, m):
    g = np.random.default_rng(m + j)
    a = g.standard_normal((m, 10)) * np.logspace(0, -3, 10)
    b = g.standard_normal((m, 2))
    p = PartitionSpec(j=j, k=3, n=10, ell=2, m=m)
    r_all, r_noisy = one_batch_factors(np.hstack([a, b]), j)
    first_all = ObservedData(a=a, b=b, partition=p)
    first_noisy = ObservedData(a=a, b=b, partition=p)
    assert np.array_equal(first_all.r_all, r_all)
    assert np.array_equal(first_all.r_noisy, r_noisy)
    assert np.array_equal(first_noisy.r_noisy, r_noisy)
    assert np.array_equal(first_noisy.r_all, r_all)


@pytest.mark.parametrize("j", [100, 197])
def test_wide_instance_factors_with_a_short_head(j):
    """n + ell = 200 at m = 600: the first block's rows j: have fewer rows
    than columns, and both factors still match the one-batch reference, on
    the row path and in a sample_stack stack."""
    p = PartitionSpec(j=j, k=1, n=198, ell=2, m=600)
    g = np.random.default_rng(j)
    a, b = g.standard_normal((p.m, p.n)), g.standard_normal((p.m, p.ell))
    data = ObservedData(a=a, b=b, partition=p)
    r_all, r_noisy = one_batch_factors(np.hstack([a, b]), j)
    assert np.array_equal(data.r_all, r_all)
    assert np.array_equal(data.r_noisy, r_noisy)
    fused = sample_stack(p, 0.1, [(1, 2)])[1]
    rows = observe(generate_model(p, 0.1, 1), 2)
    assert np.array_equal(fused.r_all[0], rows.r_all)
    assert np.array_equal(fused.r_noisy[0], rows.r_noisy)


def test_threads_reading_both_factors_of_one_instance(monkeypatch):
    """A thread reading r_all while another is inside r_noisy's second level
    gets tall_r of all rows: the first level is not written after the pass."""
    m, j = 2000, 2
    g = np.random.default_rng(5)
    a, b = g.standard_normal((m, 10)), g.standard_normal((m, 2))
    data = ObservedData(a=a, b=b, partition=PartitionSpec(j=j, k=3, n=10, ell=2, m=m))
    data._pair
    real_flat, entered, read_all = linalg._flat_r, threading.Event(), threading.Event()

    def paused(x):
        if threading.current_thread() is not threading.main_thread() and not entered.is_set():
            entered.set()
            read_all.wait(timeout=30)
        return real_flat(x)

    monkeypatch.setattr(linalg, "_flat_r", paused)
    reader = threading.Thread(target=lambda: data.r_noisy)
    reader.start()
    try:
        assert entered.wait(timeout=30)
        r_all = data.r_all
    finally:
        read_all.set()
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert np.array_equal(r_all, tall_r(np.hstack([a, b])))
    assert np.array_equal(data.r_noisy, one_batch_factors(np.hstack([a, b]), j)[1])


def test_reading_r_noisy_alone_skips_the_all_rows_factor(monkeypatch):
    m, j = 300, 2
    g = np.random.default_rng(3)
    data = ObservedData(a=g.standard_normal((m, 3)), b=g.standard_normal((m, 1)),
                        partition=PartitionSpec(j=j, k=1, n=3, ell=1, m=m))
    real_qr, rows = np.linalg.qr, []

    def counting(x, *args, **kwargs):
        rows.append(np.shape(x)[-2])
        return real_qr(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    data.r_noisy
    assert rows == [m - j]
    data.r_all
    assert rows == [m - j, m]


def traced_peak(fn):
    """Bytes allocated by ``fn()`` at its peak, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


MB = 1e6


def test_o_m_pass_holds_no_full_size_temporaries():
    """Beyond the ground truth and a, b, the pass holds one chunk of noise
    and one chunk of [A | B] plus the block triangles (0.9 MB at 2e5 x 12)."""
    factor_peaks = []
    for m in (200_000, 400_000):
        p = PartitionSpec(j=2, k=0, n=10, ell=2, m=m)
        model = generate_model(p, 0.3, seed=1)
        for noise in NoiseKind if m == 200_000 else [NoiseKind.GAUSS]:
            observed = []
            peak = traced_peak(lambda: observed.append(observe(model, 2, noise)))
            data = observed[0]
            assert peak < data.a.nbytes + data.b.nbytes + 4 * MB, noise
        factor_peaks.append(traced_peak(lambda: (data.r_all, data.r_noisy)))
    assert factor_peaks[0] < 8 * MB
    assert factor_peaks[1] < factor_peaks[0] + 1 * MB


# --- fused sweep instances ------------------------------------------------------------


def one_slice(fn):
    """``fn`` on a stack of one as on one instance: its slice's entry, or
    the CtlsError that entry is raised."""

    def call(stack):
        (out,) = fn(stack)
        if isinstance(out, CtlsError):
            raise out
        return out

    return call


def estimator_outcomes(data):
    """The :func:`fingerprint` of every estimator that accepts ``data``'s
    partition, by name; on a stack of one, of its slice's entry."""
    p = data.partition
    runs = {"naive_ls": naive_ls, "tls": estimators.tls_from_data,
            "ctls_rowcol": ctls_rowcol}
    for name in ("ctls_columns", "ctls_rows"):
        if estimators.accepts_partition(name, p.j, p.k, p.n):
            runs[name] = getattr(estimators, name)
    for rule in estimators.MU_RULES:
        runs[f"projection_{rule}"] = lambda d, rule=rule: projection_estimator(d, rule)
    if data.stack_size is not None:
        runs = {name: one_slice(fn) for name, fn in runs.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {name: fingerprint(fn, data) for name, fn in runs.items()}


@pytest.mark.parametrize("design", list(DesignKind))
@pytest.mark.parametrize("noise", list(NoiseKind))
@pytest.mark.parametrize("j,k", [(0, 0), (0, 2), (2, 0), (1, 1), (2, 3)])
@pytest.mark.parametrize("m", [7, 511, 512, CHUNK_ROWS, CHUNK_ROWS + 1, 123_457])
@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_stack_of_one_matches_row_path(design, noise, j, k, m, sigma):
    """A fused pass of one seed pair gives the coefficients, exact rows,
    factors and every estimator output of generate_model + observe bit for
    bit (m = 7 is n + ell + 1), and their ground-truth Gram matrix to
    roundoff."""
    p = PartitionSpec(j=j, k=k, n=4, ell=2, m=m)
    model = generate_model(p, sigma, m + j, design)
    rows = observe(model, m + k, noise)
    x_true, fused, gram = sample_stack(p, sigma, [(m + j, m + k)], design, noise)
    assert fused.a is None and fused.b is None and fused.partition == p
    assert fused.stack_size == 1 and len(x_true) == 1 and len(gram) == 1
    assert np.array_equal(x_true[0], model.x_true)
    assert np.array_equal(fused.exact_rows[0], rows.exact_rows)
    assert fused.exact_rows.flags.c_contiguous and rows.exact_rows.flags.c_contiguous
    assert np.array_equal(fused.r_noisy[0], rows.r_noisy)
    assert np.array_equal(fused.r_all[0], rows.r_all)
    assert estimator_outcomes(fused) == estimator_outcomes(rows)
    want = model.truth_gram()
    assert np.max(np.abs(gram[0] - want)) <= 1e-14 * np.max(np.abs(want))


def test_grid_design_chunks_match_linspace():
    """The grid design's chunked rows are those of np.linspace bit for bit;
    at m = 50 and 99, (m - 1) * step - 1 rounds away from the endpoint 1."""
    for m in (7, 50, 99, 100, 511, 4097, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5):
        p = PartitionSpec(j=0, k=0, n=3, ell=1, m=m)
        t = np.linspace(-1.0, 1.0, m)
        for lo, hi in ((0, m), (0, min(m, 300)), (m // 3, m)):
            rows = model_mod._design_rows(None, DesignKind.FIXED_GRID, p, lo, hi)
            assert np.array_equal(rows, np.column_stack([t[lo:hi] ** q for q in range(3)]))


@pytest.mark.parametrize(
    "args",
    [
        (PartitionSpec(j=1, k=1, n=3, ell=1, m=4), 0.1),
        (PartitionSpec(j=1, k=1, n=3, ell=1, m=40), -0.1),
        (PartitionSpec(j=1, k=1, n=3, ell=1, m=40), float("nan")),
    ],
)
def test_sample_stack_rejects_what_generate_model_rejects(args):
    with pytest.raises(InvalidPartitionError) as rows:
        generate_model(*args, seed=1)
    with pytest.raises(InvalidPartitionError) as fused:
        sample_stack(*args, [(1, 2)])
    assert str(fused.value) == str(rows.value)


@pytest.mark.parametrize("m", [40, 2 * CHUNK_ROWS])
def test_stack_of_one_rank_deficient_exact_rows(monkeypatch, m):
    """Both paths check the exact rows of [a_bar | b_bar] with the same
    rank decision and raise the same InvalidPartitionError."""
    seen = []

    def deficient(rows):
        seen.append(rows.copy())
        return rows.shape[-2] - 1

    monkeypatch.setattr(model_mod, "matrix_rank", deficient)
    p = PartitionSpec(j=2, k=1, n=4, ell=2, m=m)
    with pytest.raises(InvalidPartitionError) as rows:
        generate_model(p, 0.1, 9)
    before = helper_state()
    with pytest.raises(InvalidPartitionError) as fused, beside() as run:
        sample_stack(p, 0.1, [(9, 10)], run=run)
    assert helper_state() == before
    assert str(fused.value) == str(rows.value)
    assert len(seen) == 2 and np.array_equal(seen[1], seen[0][None])
    assert seen[0].shape == (2, 6)


def helper_state():
    """The thread count and the calling thread's affinity mask (None
    without one), which a sampling pass must leave as it found them."""
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return threading.active_count(), mask


def test_sample_stack_leaves_no_helper_behind(monkeypatch):
    """A pass of three chunks on the runner of ``beside``, under masks of
    one, two and three CPUs, returns with the thread count and the caller's
    affinity mask it found, whatever helper it ran."""
    p = PartitionSpec(j=2, k=3, n=10, ell=2, m=2 * CHUNK_ROWS + 5)
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        before = helper_state()
        with beside() as run:
            sample_stack(p, 0.3, [(1, 2)], run=run)
        assert helper_state() == before


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sample_stack_without_a_runner_runs_in_its_thread(monkeypatch, cpus):
    """Without a runner a pass of three chunks starts no thread and pins
    nothing, whatever the mask, and gives the outputs of the runner of
    ``beside`` bit for bit."""
    p = PartitionSpec(j=2, k=3, n=10, ell=2, m=2 * CHUNK_ROWS + 5)
    set_cpus(monkeypatch, cpus)
    with beside() as run:
        want = sample_stack(p, 0.3, [(1, 2)], run=run)
    real_start, started, pins = threading.Thread.start, [], []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or real_start(thread))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: pins.append(mask))
    x_true, data, gram = sample_stack(p, 0.3, [(1, 2)])
    assert started == [] and pins == []
    for got, expected in zip([x_true, data.exact_rows, data.r_noisy, data.r_all, gram],
                             [want[0], want[1].exact_rows, want[1].r_noisy, want[1].r_all,
                              want[2]]):
        assert got.tobytes() == expected.tobytes()


def test_sample_stack_without_seeds_is_a_shape_error(monkeypatch):
    """No seed pairs is a ShapeError (a ValueError too), raised before any
    draw."""
    monkeypatch.setattr(model_mod, "_start", lambda *args: pytest.fail("drew"))
    p = PartitionSpec(j=1, k=1, n=3, ell=1, m=40)
    with pytest.raises(ShapeError, match="at least one"):
        sample_stack(p, 0.1, [])
    assert issubclass(ShapeError, ValueError)


@pytest.mark.parametrize("noise", list(NoiseKind))
def test_sample_stack_helper_per_mask(monkeypatch, noise):
    """On the runner of ``beside``: under a mask of one CPU no thread
    starts; under two or three, one helper pinned to the second CPU, with
    the caller pinned to the first and then given its mask back.  The
    outputs are the same bit for bit, with thread switches every
    microsecond and, under three CPUs, a helper that starts 5 ms late, as
    on a starved CPU, so the caller takes back the jobs it has not started."""
    p = PartitionSpec(j=2, k=3, n=10, ell=2, m=2 * CHUNK_ROWS + 5)
    real_start, outputs = threading.Thread.start, []

    def pin(pid, mask):
        helper = threading.current_thread() in started
        pins.append((helper, sorted(mask)))
        if helper and cpus == 3:
            time.sleep(0.005)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3):
            started, pins = [], []
            monkeypatch.setattr(threading.Thread, "start",
                                lambda thread: started.append(thread) or real_start(thread))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            monkeypatch.setattr(os, "sched_setaffinity", pin, raising=False)
            with beside() as run:
                x_true, data, gram = sample_stack(p, 0.3, [(1, 2)], noise=noise, run=run)
            outputs.append([x_true, data.exact_rows, data.r_noisy, data.r_all, gram])
            if cpus == 1:
                assert started == [] and pins == []
            else:
                assert len(started) == 1 and not started[0].is_alive()
                assert pins == [(False, [0]), (True, [1]), (False, list(range(cpus)))]
    finally:
        sys.setswitchinterval(interval)
    for got in outputs[1:]:
        assert all(np.array_equal(x, y) for x, y in zip(got, outputs[0]))


@pytest.mark.parametrize("design", list(DesignKind))
@pytest.mark.parametrize("noise", list(NoiseKind))
@pytest.mark.parametrize("j,k", [(0, 0), (1, 1), (2, 3), (2, 0)])
@pytest.mark.parametrize("m,trials", [(30, 5), (600, 5), (6000, 5), (2 * CHUNK_ROWS + 5, 2)])
def test_sample_stack_slices_match_stacks_of_one(design, noise, j, k, m, trials):
    """Each slice of a stack is the stack of its seeds alone bit for bit:
    at m = 30 the rows are factored flat, at m = 6000 five instances run in
    groups of two, two and one, and 2 * CHUNK_ROWS + 5 rows take three
    chunks.  Without all_rows the stack holds no factor of all rows."""
    p = PartitionSpec(j=j, k=k, n=4, ell=2, m=m)
    seeds = [(m + 10 * t + j, m + 10 * t + k) for t in range(trials)]
    x_true, stack, grams = sample_stack(p, 0.3, seeds, design, noise)
    assert stack.stack_size == trials and stack.partition == p
    for s, seed in enumerate(seeds):
        x, data, gram = sample_stack(p, 0.3, [seed], design, noise)
        want = [x[0], data.exact_rows[0], data.r_noisy[0], data.r_all[0], gram[0]]
        got = [x_true[s], stack.exact_rows[s], stack.r_noisy[s], stack.r_all[s], grams[s]]
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
    _, low, _ = sample_stack(p, 0.3, seeds, design, noise, all_rows=False)
    assert np.array_equal(low.r_noisy, stack.r_noisy)
    with pytest.raises(ShapeError):
        low.r_all


@pytest.mark.parametrize("m", [40, 2 * CHUNK_ROWS])
def test_sample_stack_rank_deficient_exact_rows(monkeypatch, m):
    """One rank decision covers the exact rows of every slice, and one
    rank-deficient slice raises the InvalidPartitionError of generate_model,
    with no helper thread left behind."""
    seen = []

    def deficient(rows):
        seen.append(rows.shape)
        if rows.ndim == 2:
            return len(rows) - 1
        return np.array([rows.shape[-2]] * (len(rows) - 1) + [rows.shape[-2] - 1])

    monkeypatch.setattr(model_mod, "matrix_rank", deficient)
    p = PartitionSpec(j=2, k=1, n=4, ell=2, m=m)
    with pytest.raises(InvalidPartitionError) as one:
        generate_model(p, 0.1, 9)
    before = helper_state()
    with pytest.raises(InvalidPartitionError) as stacked, beside() as run:
        sample_stack(p, 0.1, [(9, 10), (11, 12), (13, 14)], run=run)
    assert helper_state() == before and threading.active_count() == 1
    assert str(stacked.value) == str(one.value)
    assert seen == [(2, 6), (3, 2, 6)]


def test_stacked_rejects_mis_shaped_inputs():
    """A stack's exact rows must be (S, j, n + ell) and each of its factors
    (S, d, d), with one S; anything else is a ShapeError."""
    p = PartitionSpec(j=2, k=1, n=3, ell=1, m=40)
    g = np.random.default_rng(4)
    c = g.standard_normal((40, 4))
    exact, r = c[None, :2], tall_r(c)[None]
    bad = [
        (c[None, :1], r, r),  # one exact row
        (c[None, :2, :3], r, r),  # exact rows without the column of b
        (exact, r[:, :3, :3], None),  # r_noisy of the wrong size
        (exact, r, r[:, 1:, 1:]),  # r_all of the wrong size
        (exact, np.concatenate([r, r]), None),  # two factors for one instance
        (exact[0], r, r),  # exact rows without the stack axis
    ]
    for exact_rows, r_noisy, r_all in bad:
        with pytest.raises(ShapeError, match="do not match the partition"):
            ObservedData.stacked(exact_rows, p, r_noisy, r_all)
    data = ObservedData.stacked(exact, p, r, r)
    assert data.stack_size == 1 and np.array_equal(data.r_all[0], tall_r(c))


def test_row_readers_reject_a_factor_built_instance():
    """build_blocks reads the rows, which a factor-built instance does not
    hold: a ShapeError says so, not a TypeError on None (whiten takes such
    an instance: test_whiten_takes_a_sampled_stack).  On a stack sampled
    without all_rows, it also names the flag that keeps r_all."""
    p = PartitionSpec(j=1, k=1, n=3, ell=1, m=50)
    data = sample_stack(p, 0.1, [(1, 2)])[1]
    with pytest.raises(ShapeError, match="needs a row-built instance"):
        estimators.build_blocks(data)
    stack = sample_stack(p, 0.1, [(1, 2), (3, 4)], all_rows=False)[1]
    missing = "needs a row-built instance.*r_all only when sampled with all_rows=True"
    with pytest.raises(ShapeError, match=missing):
        stack.r_all
    # An estimator that reads r_all names the missing factor on every slice.
    errors = estimators.tls_from_data(stack)
    assert len(errors) == 2
    assert all(isinstance(e, ShapeError) and re.search(missing, str(e)) for e in errors)


def test_sample_stack_holds_no_row_array():
    """A stack of one 1e6-row instance, its factors read, peaks under 16 MB:
    the rows of [A | B] alone would take 96 MB."""
    p = PartitionSpec(j=2, k=3, n=10, ell=2, m=1_000_000)
    peak = traced_peak(lambda: sample_stack(p, 0.1, [(1, 2)])[1].r_all)
    assert peak < 16 * MB
