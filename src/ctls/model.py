"""Synthetic regression instances with exactly-known leading rows/columns.

A ground-truth instance is an exact linear relation ``a_bar @ x_true = b_bar``
together with a block structure declaring which leading rows and columns of
the observed data are noise free.  ``observe`` injects i.i.d. noise into the
unconstrained blocks only, and ``whiten`` reduces a general noise covariance
to the scalar case by a column transform of the exact rows and R factors.

``generate_model`` then ``observe`` return rows (``ObservedData(a=, b=,
partition=)``).  ``sample_stack``, which sweeps use, samples many instances
of one partition as one stack with the same numbers, ``CHUNK_ROWS`` rows at
a time, and holds no array of the ``m`` rows.  Both draw noise with
``_draw_noises``, factor with :func:`ctls.linalg.tall_r_chunks` and hold the
exact rows as one C-contiguous ``[A1 | B1]`` array.

Every stochastic operation takes an explicit seed and draws from
``numpy.random.Generator`` (PCG64), so regenerating an instance with the same
seed is bit-identical within one environment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, partial, wraps

import numpy as np

from .errors import InvalidPartitionError, ShapeError
from .linalg import (
    CHUNK_ROWS,
    _flat_r,
    as_matrix,
    chunk_bounds,
    cholesky_lower,
    matrix_rank,
    solve_linear,
    solve_lower_triangular,
    solve_upper_triangular,
    tall_r_chunks,
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

    def truth_gram(self) -> np.ndarray:
        """The Gram matrix of the rows ``j:`` of ``[a_bar | b_bar]`` from
        whole-column products (:func:`sample_stack` sums it by chunks)."""
        a_bar, b_bar = self.a_bar[self.partition.j :], self.b_bar[self.partition.j :]
        ab = a_bar.T @ b_bar
        return np.block([[a_bar.T @ a_bar, ab], [ab.T, b_bar.T @ b_bar]])


@dataclass(frozen=True)
class ObservedData:
    """What an estimator sees: noisy ``[a | b]`` through its exact rows
    ``exact_rows``, the C-contiguous ``[a | b][:j]``, and its R factors
    ``r_all`` (all rows) and ``r_noisy`` (rows ``j:``), plus the block structure.

    ``ObservedData(a=, b=, partition=)`` holds the rows; the first read of a
    factor runs the one O(m) pass, :func:`~ctls.linalg.tall_r_chunks` over
    ``[a | b]`` stacked one chunk at a time.  Do not modify ``a`` or ``b``
    after that.
    Each factor's small second level runs on its own first read, so a
    caller that reads only ``r_noisy`` never factors all rows.  Both are
    cached read-only.  ``r_all`` is bit-identical to
    ``tall_r(np.hstack([a, b]))``; with ``j = 0``, ``r_noisy is r_all``.

    :meth:`stacked` holds ``stack_size`` instances of one partition, as their
    exact rows and factors with a leading stack axis, and no array of their
    rows (``a`` and ``b`` are None); ``stack``, cached, is a row-built
    instance as a stack of one of its exact rows and both its factors.  The
    estimators run on stacks, and the small decompositions of
    :func:`instance_stage` are cached on the stack, so the estimators run on
    one stack, or on one instance, share them.

    Raises ShapeError unless ``a`` is ``m x n`` and ``b`` is ``m x ell``.
    """

    a: np.ndarray
    b: np.ndarray
    partition: PartitionSpec
    #: The number of instances of a stack; None for a single instance.
    stack_size = None

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

    @classmethod
    def stacked(cls, exact_rows, partition: PartitionSpec, r_noisy, r_all=None):
        """A stack of instances of ``partition`` from their C-contiguous exact
        rows ``(S, j, d)`` and their factors ``(S, d, d)``, or ShapeError;
        without ``r_all``, reading it raises ShapeError."""
        factors = {"r_noisy": r_noisy} if r_all is None else {"r_noisy": r_noisy, "r_all": r_all}
        p, d, size = partition, partition.n + partition.ell, np.shape(r_noisy)[:1]
        shapes = [np.shape(x) for x in (exact_rows, *factors.values())]
        if shapes != [size + (p.j, d)] + [size + (d, d)] * len(factors):
            raise ShapeError(f"exact rows and factors {shapes} do not match the partition {p}")
        data = object.__new__(cls)  # set past the frozen __setattr__, as cached_property does
        data.__dict__.update(a=None, b=None, partition=p, exact_rows=exact_rows,
                             stack_size=size[0], **factors)
        return data

    def take(self, index) -> ObservedData:
        """The stack of the slices ``index`` of this stack."""
        r_all = self.__dict__.get("r_all")
        return ObservedData.stacked(self.exact_rows[index], self.partition,
                                    self.r_noisy[index], None if r_all is None else r_all[index])

    @cached_property
    def stack(self) -> ObservedData:
        """This row-built instance as a stack of one, of its exact rows and
        both its factors, which it forms."""
        return ObservedData.stacked(self.exact_rows[None], self.partition,
                                    self.r_noisy[None], self.r_all[None])

    @property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(a, b)``; ShapeError on an instance built from factors."""
        if self.a is None:
            raise ShapeError("this call needs a row-built instance, ObservedData(a=, b=, partition=);"
                             " a stack holds r_all only when sampled with all_rows=True")
        return self.a, self.b

    @cached_property
    def exact_rows(self) -> np.ndarray:
        """``[a | b][:j]``: the noise-free rows."""
        return np.hstack([x[: self.partition.j] for x in self.rows])

    @cached_property
    def _pair(self):
        (a, b), p = self.rows, self.partition
        return tall_r_chunks(lambda lo, hi: np.hstack([a[lo:hi], b[lo:hi]]), p.m, p.n + p.ell, p.j)

    @cached_property
    def r_all(self) -> np.ndarray:
        return self._pair.r_all

    @cached_property
    def r_noisy(self) -> np.ndarray:
        return self._pair.r_low


def instance_stage(build):
    """Run ``build(data)`` once per ``ObservedData``: the result is cached on
    the instance, as a ``cached_property`` is, and must not be modified."""

    @wraps(build)
    def cached(data: ObservedData):
        stages = data.__dict__.setdefault("_stages", {})
        if build not in stages:
            stages[build] = build(data)
        return stages[build]

    return cached


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
        If the partition is not overdetermined, sigma is negative or not
        finite, or the drawn instance violates the full-row-rank requirement
        on the noise-free rows (essentially impossible for the Gaussian
        design).
    """
    rng, x_true = _start(partition, sigma, seed)
    a_bar = _design_rows(rng, design, partition, 0, partition.m)
    b_bar = a_bar @ x_true
    _check_exact_rows(np.hstack([a_bar[: partition.j], b_bar[: partition.j]]))
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
    ``NoiseKind``.  The noise is drawn and added ``CHUNK_ROWS`` rows at a
    time, so beyond the ground truth and the returned ``a`` and ``b`` the
    call holds one chunk of noise.  ``Generator`` draws are sequential, so
    the numbers do not depend on the chunking.
    """
    p = model.partition
    a, b = model.a_bar.copy(), model.b_bar.copy()
    if model.sigma > 0.0:
        rng = np.random.default_rng(seed)
        for lo in range(p.j, p.m, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, p.m)
            _add_noise(_draw_noises([rng], noise, model.sigma, (hi - lo, p.noisy_cols))[0],
                       a[lo:hi, p.k :], b[lo:hi])
    return ObservedData(a=a, b=b, partition=p)


def sample_stack(
    partition: PartitionSpec,
    sigma: float,
    seeds,
    design: DesignKind = DesignKind.IID_ROWS,
    noise: NoiseKind = NoiseKind.GAUSS,
    all_rows: bool = True,
    run=partial,
) -> tuple[np.ndarray, ObservedData, np.ndarray]:
    """``observe(generate_model(...), ...)`` of each ``(model_seed,
    noise_seed)`` of ``seeds`` (one pair for one instance) as one stack, in
    one pass that keeps no array of the ``m`` rows: ``x_true`` ``(S, n,
    ell)``, ``data`` of :meth:`ObservedData.stacked` (with ``r_all`` only
    under ``all_rows``) and the Gram matrices ``(S, d, d)`` of the ground
    truths' rows ``j:``.  Each chunk is drawn with the row path's
    ``Generator`` calls, so each slice's ``x_true``, exact rows and factors
    are the row path's bit for bit, and its Gram matrix equals
    :meth:`RegressionModel.truth_gram` to roundoff.  Raises
    InvalidPartitionError as :func:`generate_model` does, if on any slice,
    and ShapeError without seeds.

    A pass of one chunk draws, noises and factors its instances in groups
    of ``CHUNK_ROWS // m`` (at least one) with batched calls over one row
    buffer, and factors each group's second levels after its pass.  A
    pass of several chunks (:func:`~ctls.linalg.chunk_bounds`) runs one
    instance at a time.  Its chunks' noise draws and block QRs are
    jobs of ``run``: by default each runs where it is awaited; on the helper
    thread of :func:`ctls.parallel.beside`, beside the next chunk's draws.
    """
    p, d, count = partition, partition.n + partition.ell, len(seeds)
    if not count:
        raise ShapeError("sample_stack needs at least one (model_seed, noise_seed) pair")
    # Held to the end, so allocated before the pass's buffers come and go.
    r_noisy = np.empty((count, d, d))
    r_all = np.empty((count, d, d)) if all_rows else None
    rngs, x_true = zip(*(_start(p, sigma, seed) for seed, _ in seeds))
    x_true = np.stack(x_true)
    noise_rngs = [np.random.default_rng(seed) for _, seed in seeds] if sigma > 0.0 else None
    grams, exact = np.zeros((count, d, d)), np.empty((count, p.j, d))
    bounds = chunk_bounds(p.m, d)
    group = max(1, CHUNK_ROWS // p.m)  # a group's rows fill one chunk
    # One row buffer for all groups of a pass of one chunk.  Under several
    # chunks the rows of the chunk before may be in use on the helper thread.
    one_chunk = len(bounds) == 1
    c_buf = np.empty((min(group, count), p.m, d)) if one_chunk else None

    def chunks(index: slice):
        """The chunk source of :func:`~ctls.linalg.tall_r_chunks` for the
        instances ``index``: their rows ``lo:hi`` drawn, their Gram products
        summed and their noise added."""
        size = index.stop - index.start
        # Each chunk's draw is handed out once the one before is done, so
        # each noise stream runs in chunk order wherever the draws run.
        draws = (run(_draw_noises, noise_rngs[index], noise, sigma,
                     (hi - max(lo, p.j), p.noisy_cols)) for lo, hi in bounds if noise_rngs)
        draw = next(draws, None)

        def chunk_of(lo: int, hi: int) -> np.ndarray:
            nonlocal draw
            a = np.empty((size, hi - lo, p.n))
            for rng, rows in zip(rngs[index], a):
                _design_rows(rng, design, p, lo, hi, rows)
            c = np.concatenate([a, np.matmul(a, x_true[index])], axis=-1,
                               out=c_buf[:size] if one_chunk else None)
            if lo == 0:
                exact[index] = c[:, : p.j]
            noisy = c[:, max(p.j - lo, 0) :]
            for gram, rows in zip(grams[index], noisy):
                gram += rows.T @ rows
            if draw is not None:
                e, draw = draw(), next(draws, None)
                _add_noise(e, noisy[..., p.k :])
            return c

        return chunk_of

    for g in range(0, count, group):
        index = slice(g, min(g + group, count))
        pair = tall_r_chunks(chunks(index), p.m, d, p.j, run, (index.stop - g,))
        r_noisy[index] = pair.r_low
        if all_rows:
            r_all[index] = pair.r_all
    _check_exact_rows(exact)
    return x_true, ObservedData.stacked(exact, p, r_noisy, r_all), grams


def _draw_noises(rngs, noise: NoiseKind, sigma: float, shape: tuple[int, int]) -> np.ndarray:
    """A stack of noise arrays of ``shape`` with mean 0 and variance
    ``sigma^2``, slice ``s`` drawn row by row with ``rngs[s]``."""
    out = np.empty((len(rngs),) + shape)  # allocated where the draw runs
    for rng, e in zip(rngs, out):
        if noise is NoiseKind.GAUSS:
            rng.standard_normal(shape, out=e)
            e *= sigma
        elif noise is NoiseKind.UNIFORM:
            half = sigma * np.sqrt(3.0)
            e[...] = rng.uniform(-half, half, size=shape)
        elif noise is NoiseKind.RADEMACHER:
            np.multiply(2.0, rng.integers(0, 2, size=shape), out=e)
            e -= 1.0
            e *= sigma
        else:
            raise InvalidPartitionError(f"unknown noise kind: {noise!r}")
    return out


def _add_noise(e: np.ndarray, *blocks: np.ndarray) -> None:
    """Add the columns of ``e`` to those of the ``blocks`` in turn, in place;
    each may have a leading stack axis."""
    # Column by column: adds of strided slices loop over a few columns per row.
    cols = [block[..., i] for block in blocks for i in range(block.shape[-1])]
    for i, col in enumerate(cols):
        col += e[..., i]


def _start(partition: PartitionSpec, sigma: float, seed: int):
    """Check the instance parameters; the model ``Generator`` and ``x_true``."""
    partition.require_overdetermined()
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise InvalidPartitionError(f"sigma must be finite and nonnegative, got {sigma}")
    rng = np.random.default_rng(seed)
    return rng, rng.uniform(-2.0, 2.0, size=(partition.n, partition.ell))


def _design_rows(rng, design: DesignKind, p: PartitionSpec, lo: int, hi: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The rows ``lo:hi`` of ``a_bar``, drawn after the rows above them, into
    ``out`` where given."""
    if design is DesignKind.IID_ROWS:
        return rng.standard_normal((hi - lo, p.n), out=out)
    if design is DesignKind.FIXED_GRID:
        # np.linspace(-1.0, 1.0, m)[lo:hi], bit for bit.
        t = np.arange(lo, hi) * (2.0 / (p.m - 1)) - 1.0
        if hi == p.m:
            t[-1] = 1.0
        return np.stack([t**q for q in range(p.n)], axis=1, out=out)
    raise InvalidPartitionError(f"unknown design kind: {design!r}")


def _check_exact_rows(upper: np.ndarray) -> None:
    """Raise InvalidPartitionError unless the exact rows ``upper`` (or each
    matrix of a stack of them) have full rank."""
    rows = upper.shape[-2]
    if rows and np.count_nonzero(matrix_rank(upper) != rows):
        raise InvalidPartitionError("noise-free rows of the generated instance are rank deficient")


def whiten(data: ObservedData, sigma_cov) -> tuple[ObservedData, np.ndarray]:
    """Rescale the noisy columns so their noise covariance becomes identity.

    ``sigma_cov`` is the (noisy_cols x noisy_cols) symmetric positive
    definite covariance of each noise row.  With ``sigma_cov = L @ L.T``,
    whitening is the column transform ``W = blockdiag(I_k, inv(L).T)``.  The
    result is the stack of the exact rows ``C1 @ W`` and the factors of
    ``R @ W``, for ``r_noisy`` and, where ``data`` (an instance or a stack)
    has it, ``r_all``.  :func:`unwhiten_estimate` maps an estimate back with
    the returned ``L``.

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
    stack = data.stack if data.stack_size is None else data
    factors = [stack.r_noisy] + ([stack.r_all] if "r_all" in stack.__dict__ else [])
    # [C1; R] @ W: the noisy columns times inv(L).T, as solve(L, noisy.T).T.
    c = np.concatenate([stack.exact_rows, *factors], axis=-2)
    c[..., p.k :] = solve_lower_triangular(lower, c[..., p.k :].swapaxes(-1, -2)).swapaxes(-1, -2)
    exact, *factors = np.split(c, range(p.j, c.shape[-2], p.n + p.ell), axis=-2)
    return ObservedData.stacked(exact.copy(), p, *map(_flat_r, factors)), lower


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
    y[p.k :, :] = solve_upper_triangular(lower.T, y[p.k :, :])
    return solve_linear(y[p.n :].T, -y[: p.n].T).T
