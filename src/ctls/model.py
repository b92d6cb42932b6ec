"""Synthetic regression instances with exactly-known leading rows/columns.

A ground-truth instance is an exact linear relation ``a_bar @ x_true = b_bar``
together with a block structure declaring which leading rows and columns of
the observed data are noise free.  ``observe`` injects i.i.d. noise into the
unconstrained blocks only, and ``whiten`` reduces a general noise covariance
to the scalar case via its Cholesky factor.

Every stochastic operation takes an explicit seed and draws from
``numpy.random.Generator`` (PCG64), so regenerating an instance with the same
seed is bit-identical within one environment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidPartitionError, ShapeError
from .linalg import (
    as_matrix,
    cholesky_lower,
    matrix_rank,
    solve_linear,
    solve_lower_triangular,
    solve_upper_triangular,
    tall_r,
)


class DesignKind(enum.Enum):
    """How ground-truth rows are produced."""

    #: Rows drawn i.i.d. from a standard Gaussian (unit second moment, full
    #: rank); the sample Gram matrices stabilize as rows accumulate.
    IID_ROWS = "iid"
    #: Deterministic polynomial design on an equispaced grid in [-1, 1].
    FIXED_GRID = "grid"


class NoiseKind(enum.Enum):
    """Distribution of the injected noise entries (mean 0, variance sigma^2)."""

    GAUSS = "gauss"
    UNIFORM = "uniform"
    RADEMACHER = "rademacher"


@dataclass(frozen=True)
class PartitionSpec:
    """Block structure: ``j`` noise-free leading rows, ``k`` noise-free
    leading columns of the left-hand side, out of ``m`` rows, ``n`` left
    columns and ``ell`` right columns.

    Structural consistency is checked on construction.  The overdetermination
    requirement ``m > n + ell`` is only needed once estimation starts, so it
    lives in :meth:`require_overdetermined` (pure block slicing works on any
    consistent partition).
    """

    j: int
    k: int
    n: int
    ell: int
    m: int

    def __post_init__(self):
        if self.j < 0 or self.k < 0:
            raise InvalidPartitionError("j and k must be nonnegative")
        if self.n < 1 or self.ell < 1 or self.m < 1:
            raise InvalidPartitionError("n, ell and m must be positive")
        if self.k > self.n:
            raise InvalidPartitionError(f"k={self.k} exceeds n={self.n}")
        if self.j >= self.n:
            raise InvalidPartitionError(
                f"j={self.j} must be smaller than n={self.n}"
            )
        if self.j >= self.m:
            raise InvalidPartitionError(f"j={self.j} must be smaller than m={self.m}")

    def require_overdetermined(self) -> None:
        if self.m <= self.n + self.ell:
            raise InvalidPartitionError(
                f"m={self.m} must exceed n+ell={self.n + self.ell}"
            )

    @property
    def n_free(self) -> int:
        """Number of noisy columns on the left-hand side."""
        return self.n - self.k

    @property
    def noisy_cols(self) -> int:
        """Width of the noisy column block (left free columns plus right side)."""
        return self.n - self.k + self.ell


@dataclass(frozen=True)
class RegressionModel:
    """Ground truth: exact data ``a_bar @ x_true = b_bar`` plus noise level."""

    a_bar: np.ndarray
    b_bar: np.ndarray
    x_true: np.ndarray
    sigma: float
    partition: PartitionSpec


@dataclass(frozen=True)
class ObservedData:
    """What an estimator sees: noisy ``(a, b)`` plus the block structure.

    ``r_all`` and ``r_noisy`` are the R factors (:func:`~ctls.linalg.tall_r`)
    of ``[a | b]`` over all rows and over the noisy rows ``j:``.  Each is
    computed on first use and cached read-only, so the estimators run on one
    instance share one O(m) pass per row set.  Do not modify ``a`` or ``b``
    after reading either factor.

    Raises ShapeError unless ``a`` is ``m x n`` and ``b`` is ``m x ell``.
    """

    a: np.ndarray
    b: np.ndarray
    partition: PartitionSpec

    def __post_init__(self):
        p = self.partition
        a_shape, b_shape = np.shape(self.a), np.shape(self.b)
        if a_shape[:1] != b_shape[:1]:
            raise ShapeError(
                f"A and B must have the same number of rows, got {a_shape} and {b_shape}"
            )
        if a_shape != (p.m, p.n) or b_shape != (p.m, p.ell):
            raise ShapeError(
                f"A {a_shape} and B {b_shape} do not match the partition "
                f"(m={p.m}, n={p.n}, ell={p.ell})"
            )

    @cached_property
    def r_all(self) -> np.ndarray:
        return _read_only(tall_r(np.hstack([self.a, self.b])))

    @cached_property
    def r_noisy(self) -> np.ndarray:
        j = self.partition.j
        if j == 0:
            return self.r_all
        return _read_only(tall_r(np.hstack([self.a[j:], self.b[j:]])))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def generate_model(
    partition: PartitionSpec,
    sigma: float,
    seed: int,
    design: DesignKind = DesignKind.IID_ROWS,
) -> RegressionModel:
    """Build a ground-truth instance with a known coefficient matrix.

    The coefficients are drawn uniformly from [-2, 2]; the left-hand side
    rows come from the chosen design.  Regenerating with the same seed is
    bit-identical.

    Raises
    ------
    InvalidPartitionError
        If the partition is not overdetermined, sigma is negative, or the
        drawn instance violates the full-row-rank requirement on the
        noise-free rows (essentially impossible for the Gaussian design).
    """
    partition.require_overdetermined()
    if sigma < 0.0:
        raise InvalidPartitionError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    n, ell, m = partition.n, partition.ell, partition.m
    x_true = rng.uniform(-2.0, 2.0, size=(n, ell))
    if design is DesignKind.IID_ROWS:
        a_bar = rng.standard_normal((m, n))
    elif design is DesignKind.FIXED_GRID:
        t = np.linspace(-1.0, 1.0, m)
        a_bar = np.column_stack([t**p for p in range(n)])
    else:
        raise InvalidPartitionError(f"unknown design kind: {design!r}")
    b_bar = a_bar @ x_true
    if partition.j > 0:
        upper = np.hstack([a_bar[: partition.j], b_bar[: partition.j]])
        if matrix_rank(upper) != partition.j:
            raise InvalidPartitionError(
                "noise-free rows of the generated instance are rank deficient"
            )
    return RegressionModel(
        a_bar=a_bar, b_bar=b_bar, x_true=x_true, sigma=float(sigma), partition=partition
    )


def observe(
    model: RegressionModel,
    seed: int,
    noise: NoiseKind = NoiseKind.GAUSS,
) -> ObservedData:
    """Add i.i.d. noise to the unconstrained blocks of the instance.

    Rows ``1..j`` and the first ``k`` columns of the left-hand side are
    copied bit-exactly; only the lower-right blocks receive noise.  Each
    noise entry has mean 0 and variance ``sigma^2`` under every
    ``NoiseKind``.
    """
    p = model.partition
    a = model.a_bar.copy()
    b = model.b_bar.copy()
    if model.sigma > 0.0:
        rng = np.random.default_rng(seed)
        shape = (p.m - p.j, p.noisy_cols)
        if noise is NoiseKind.GAUSS:
            e = model.sigma * rng.standard_normal(shape)
        elif noise is NoiseKind.UNIFORM:
            half = model.sigma * np.sqrt(3.0)
            e = rng.uniform(-half, half, size=shape)
        elif noise is NoiseKind.RADEMACHER:
            e = model.sigma * (2.0 * rng.integers(0, 2, size=shape) - 1.0)
        else:
            raise ValueError(f"unknown noise kind: {noise!r}")
        a[p.j :, p.k :] += e[:, : p.n_free]
        b[p.j :, :] += e[:, p.n_free :]
    return ObservedData(a=a, b=b, partition=p)


def whiten(data: ObservedData, sigma_cov) -> tuple[ObservedData, np.ndarray]:
    """Rescale the noisy columns so their noise covariance becomes identity.

    ``sigma_cov`` is the (noisy_cols x noisy_cols) symmetric positive
    definite covariance of each noise row.  With ``sigma_cov = L @ L.T``,
    the noisy column block is right-multiplied by ``inv(L).T``; the returned
    factor ``L`` is what :func:`unwhiten_estimate` needs to map an estimate
    computed on the whitened data back to the original coordinates.

    Raises
    ------
    ShapeError
        If ``sigma_cov`` is not ``noisy_cols x noisy_cols``.
    NotPositiveDefiniteError
        If ``sigma_cov`` is not positive definite.
    """
    p = data.partition
    cov = as_matrix(sigma_cov, "sigma_cov")
    w = p.noisy_cols
    if cov.shape != (w, w):
        raise ShapeError(f"sigma_cov must be {w}x{w}, got {cov.shape}")
    lower = cholesky_lower(0.5 * (cov + cov.T))
    noisy = np.hstack([data.a[:, p.k :], data.b])
    # noisy @ inv(L).T computed column-block-wise as solve(L, noisy.T).T
    white = solve_lower_triangular(lower, noisy.T).T
    a = data.a.copy()
    a[:, p.k :] = white[:, : p.n_free]
    b = white[:, p.n_free :].copy()
    return ObservedData(a=a, b=b, partition=p), lower


def unwhiten_estimate(
    x_hat: np.ndarray, partition: PartitionSpec, transform: np.ndarray
) -> np.ndarray:
    """Map an estimate computed on whitened data back to original coordinates.

    The whitening acts on the trailing ``noisy_cols`` coordinates of the
    homogeneous solution ``[x; -I]``; undoing it re-normalizes the trailing
    block to ``-I``.
    """
    p = partition
    lower = as_matrix(transform, "transform")
    x_hat = as_matrix(x_hat, "x_hat")
    y = np.vstack([x_hat, -np.eye(p.ell)])
    # Rows k.. of y pick up inv(L).T, i.e. the solution of L.T z = y[k:].
    y = y.copy()
    y[p.k :, :] = solve_upper_triangular(lower.T, y[p.k :, :])
    y_up = y[: p.n, :]
    y_low = y[p.n :, :]
    return solve_linear(y_low.T, -y_up.T).T
