"""Monte-Carlo sweeps: run estimators over seeded trials at growing sample sizes.

A sweep fixes the partition shape and noise level, then for each requested
row count ``m`` runs every estimator on ``trials`` independently seeded
instances, recording the estimation error, the noise-variance estimate and
two structural residuals:

* ``shifted_gram_residual`` - max-norm distance between the shifted data Gram
  matrix of the projection estimator (scaled by 1/m) and its ground-truth
  counterpart;
* ``projected_gram_residual`` - max-norm distance between the row-projected,
  column-eliminated data Gram matrix (scaled by 1/m) and the ground-truth
  projection plus ``sigma^2 I``.

Both should shrink as ``m`` grows for a consistent setup, which is what the
acceptance suite checks.

Trials derive their seeds from the base seed and the cell coordinates alone
(estimator identity excluded), so every estimator in a sweep sees the same
instances and any single cell can be reproduced in isolation.  Instances
run on the fork pool of :mod:`ctls.parallel`, keyed by task, so the output is
byte-identical whatever the process count (``taskset -c 0`` runs serially).
Only :func:`run_sweep` starts the helper thread of :func:`ctls.parallel.beside`,
for the sampling passes of several chunks of a sweep that runs in this
process: one with exactly one such pass, or whose pool would not fork.  A
worker samples its instances of one ``m`` as one stack of exact rows,
factors and ground-truth Gram matrices (:func:`ctls.model.sample_stack`, in
groups that fill a chunk where one chunk holds an instance) and runs each
estimator and :func:`gram_residuals` once on that stack
(:func:`ctls.estimators.per_slice`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

import numpy as np

from .errors import CtlsError, IncompatibleConfigError, InvalidPartitionError
from .estimators import (
    EstimateResult,
    ctls_columns,
    ctls_rowcol,
    ctls_rows,
    fixed_sv,
    noisy_factor,
    per_slice,
    projection_estimator,
    reduced_factor,
    shifted_gram,
    slice_estimates,
    split_blocks,
    stacked,
    tls_from_data,
)
from .linalg import chunk_bounds, gram_condition, solve_upper_triangular, sym_eigen
from .model import DesignKind, NoiseKind, ObservedData, PartitionSpec, sample_stack
from .parallel import beside, run_shares, worker_count

#: Flat-file column order for trace CSV output (stable public interface).
CSV_COLUMNS = (
    "estimator",
    "m",
    "trial",
    "err",
    "sigma2_hat",
    "mu_over_m",
    "shifted_gram_residual",
    "projected_gram_residual",
    "status",
)


@stacked
def naive_ls(data: ObservedData) -> EstimateResult:
    """Ordinary least squares from the cached factor of ``[A | B]``.

    With ``R = [[R11, R12], [0, R22]]`` split after the ``n`` columns of
    ``A``, the solution is ``R11^-1 R12`` and the residual norm is
    ``|R22|``.  ``R11`` is refused where the normal equations would be.

    The baseline the noisy-design estimators are measured against: its error
    does not shrink with the sample size because noise in the design matrix
    biases the normal equations (classical attenuation).
    """
    p = data.partition
    m, n, ell = p.m, p.n, p.ell
    r = data.r_all
    gram_condition(r[:, :n, :n])
    x = solve_upper_triangular(r[:, :n, :n], r[:, :n, n:])
    sigma2 = np.sum((r[:, n:, n:] ** 2).reshape(len(r), -1), axis=-1) / (m * ell)
    return slice_estimates(x, sigma2, np.zeros((len(r), 0)))


#: Sweep estimator name -> the function that runs it on an instance or a stack.
ESTIMATORS = {
    "naive_ls": naive_ls,
    "tls": tls_from_data,
    "ctls_columns": ctls_columns,
    "ctls_rows": ctls_rows,
    "ctls_rowcol": ctls_rowcol,
    "projection": projection_estimator,
}

ESTIMATOR_NAMES = tuple(ESTIMATORS)

#: The estimators that read ``data.r_all``, the factor of all rows.
ALL_ROWS = ("naive_ls", "tls")

#: The estimators whose records carry a Gram residual.
WITH_RESIDUALS = ("projection", "ctls_rowcol")


@dataclass(frozen=True)
class SweepConfig:
    """Shape and seeds for one Monte-Carlo sweep."""

    n: int
    ell: int
    j: int
    k: int
    m_values: tuple[int, ...]
    trials: int
    sigma: float
    estimators: tuple[str, ...]
    base_seed: int
    design: DesignKind = DesignKind.IID_ROWS
    noise: NoiseKind = NoiseKind.GAUSS

    def __post_init__(self):
        for name in ("n", "ell", "j", "k", "trials", "base_seed"):
            _require_int(name, getattr(self, name))
        for name in ("m_values", "estimators"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise IncompatibleConfigError(
                    f"{name} must be a list, got {getattr(self, name)!r}"
                )
        for m in self.m_values:
            _require_int("m_values entry", m)
        if not (
            isinstance(self.sigma, numbers.Real)
            and not isinstance(self.sigma, bool)
            and math.isfinite(self.sigma)
        ):
            raise IncompatibleConfigError(
                f"sigma must be a finite number, got {self.sigma!r}"
            )
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        try:
            object.__setattr__(self, "design", DesignKind(self.design))
            object.__setattr__(self, "noise", NoiseKind(self.noise))
        except ValueError as exc:
            raise IncompatibleConfigError(str(exc)) from exc
        if not self.m_values:
            raise IncompatibleConfigError("m_values must not be empty")
        if any(b <= a for a, b in zip(self.m_values, self.m_values[1:])):
            raise IncompatibleConfigError("m_values must be strictly ascending")
        if self.trials < 1:
            raise IncompatibleConfigError("trials must be at least 1")
        if self.sigma < 0.0:
            raise IncompatibleConfigError("sigma must be nonnegative")
        if not self.estimators:
            raise IncompatibleConfigError("at least one estimator is required")
        for name in self.estimators:
            if name not in ESTIMATOR_NAMES:
                raise IncompatibleConfigError(f"unknown estimator {name!r}")
            if not _compatible(name, self.j, self.k, self.n):
                raise IncompatibleConfigError(
                    f"estimator {name!r} is incompatible with partition "
                    f"(j={self.j}, k={self.k}, n={self.n})"
                )
        try:
            self.partition_for(self.m_values[0]).require_overdetermined()
        except InvalidPartitionError as exc:
            raise IncompatibleConfigError(str(exc)) from exc

    def partition_for(self, m: int) -> PartitionSpec:
        return PartitionSpec(j=self.j, k=self.k, n=self.n, ell=self.ell, m=m)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["m_values"] = list(self.m_values)
        d["estimators"] = list(self.estimators)
        d["design"] = self.design.value
        d["noise"] = self.noise.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        if not isinstance(d, dict):
            raise IncompatibleConfigError(
                f"config must be a JSON object, got {type(d).__name__}"
            )
        known = {f.name for f in fields(cls)}
        optional = {f.name for f in fields(cls) if f.default is not MISSING}
        unknown = set(d) - known
        if unknown:
            raise IncompatibleConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = known - optional - set(d)
        if missing:
            raise IncompatibleConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**d)


def _require_int(name: str, value) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise IncompatibleConfigError(f"{name} must be an integer, got {value!r}")


def _compatible(name: str, j: int, k: int, n: int) -> bool:
    if name == "ctls_columns":
        return j == 0 and 0 < k < n
    if name == "ctls_rows":
        return k == 0 and j > 0
    return True


def _run_estimator(name: str, data: ObservedData, **options) -> EstimateResult:
    # Resolved through this module's global of the same name at call time,
    # so a function rebound there (perfbench's tracer wraps them) is the
    # one that runs.
    return globals()[ESTIMATORS[name].__name__](data, **options)


def trial_seed(base_seed: int, tag: str, m: int, trial: int) -> int:
    """Stable per-trial seed: cell coordinates hashed with a keyed digest.

    Independent of interpreter hash randomization, so a cell is reproducible
    from ``(base_seed, m, trial)`` alone.
    """
    digest = hashlib.blake2b(
        f"{tag}|{m}|{trial}".encode(), digest_size=8
    ).digest()
    return (base_seed ^ int.from_bytes(digest, "big")) & 0x7FFFFFFFFFFFFFFF


@dataclass
class TrialRecord:
    """One (estimator, m, trial) cell of a sweep.

    ``constraint_residual`` snapshots the exact-row residual reported by the
    constrained estimators (None for the unconstrained ones).
    """

    estimator: str
    m: int
    trial: int
    model_seed: int
    noise_seed: int
    err: float | None
    sigma2_hat: float | None
    mu_over_m: float | None
    shifted_gram_residual: float | None
    projected_gram_residual: float | None
    status: str
    constraint_residual: float | None = None
    flags: list[str] = field(default_factory=list)


@dataclass
class ConvergenceTrace:
    """Raw per-trial records plus per-cell aggregates (both persisted)."""

    config: SweepConfig
    records: list[TrialRecord]
    aggregates: dict[str, dict[int, dict[str, float]]]

    def cell(self, estimator: str, m: int) -> list[TrialRecord]:
        return [r for r in self.records if r.estimator == estimator and r.m == m]

    def median_err(self, estimator: str, m: int) -> float:
        return self.aggregates[estimator][m]["median_err"]

    def failure_rate(self, estimator: str, m: int) -> float:
        agg = self.aggregates[estimator][m]
        return agg["n_failed"] / agg["n_trials"]

    def max_failure_rate(self) -> float:
        return max(
            self.failure_rate(e, m)
            for e in self.aggregates
            for m in self.aggregates[e]
        )

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            # A shallow copy: asdict would deep-copy every record.
            "records": [dict(vars(r)) for r in self.records],
            "aggregates": {
                est: {str(m): dict(stats) for m, stats in per_m.items()}
                for est, per_m in self.aggregates.items()
            },
        }

    def write_json(self, path: str) -> None:
        # One write: json.dump would stream many small writes into the file.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json_dict(), indent=1) + "\n")

    def csv_rows(self) -> list[str]:
        def fmt(value) -> str:
            if value is None:
                return ""
            if isinstance(value, float):
                return f"{value:.17g}"
            return str(value)

        lines = [",".join(CSV_COLUMNS)]
        for r in self.records:
            lines.append(
                ",".join(
                    fmt(getattr(r, col)) for col in CSV_COLUMNS
                )
            )
        return lines

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.csv_rows()) + "\n")

    def aggregate_table(self) -> str:
        """Fixed-order summary table: estimator x m -> medians and failures."""
        lines = ["estimator m median_err median_sigma2_hat failed/trials"]
        for est in sorted(self.aggregates):
            for m in sorted(self.aggregates[est]):
                stats = self.aggregates[est][m]
                med_err = stats["median_err"]
                med_s2 = stats["median_sigma2_hat"]
                lines.append(
                    f"{est} {m} "
                    f"{'' if med_err is None else format(med_err, '.6e')} "
                    f"{'' if med_s2 is None else format(med_s2, '.6e')} "
                    f"{int(stats['n_failed'])}/{int(stats['n_trials'])}"
                )
        return "\n".join(lines)


def gram_residuals(gram_bar: np.ndarray, sigma: float, data: ObservedData) -> dict:
    """Structural residuals comparing data Gram matrices with ground truth.

    Returns max-norm residuals for the shifted Gram matrix of the projection
    pipeline and for the row-projected column-eliminated Gram matrix, plus
    the smallest eigenvalue of ``C21.T @ C21 / m`` as a positive-definiteness
    diagnostic (reported, never enforced).  The data side reads the stages
    the estimators cache on ``data``, so no decomposition of it runs twice.
    The ground truth enters through its noise level ``sigma`` and the Gram
    matrix ``gram_bar = G`` of its rows ``j:`` (from
    :func:`~ctls.model.sample_stack`); the projected residual runs the
    corner elimination on a square root ``F.T @ F = G`` (eigenvalues clipped
    at zero, as ``G`` has rank ``n``) and projects both sides with the basis
    of :func:`~ctls.estimators.reduced_factor`, whose
    RankDeficientUpperRowsError it raises.  On a stack ``data`` and
    ``gram_bar`` (one matrix per slice), returns a list per slice
    (:func:`~ctls.estimators.per_slice`).
    """
    return per_slice(lambda stack, grams: _gram_residuals(grams, sigma, stack), data, gram_bar)


def _gram_residuals(gram_bar: np.ndarray, sigma: float, data: ObservedData) -> list[dict]:
    p = data.partition
    m, k = p.m, p.k

    # Shifted-Gram residual (projection pipeline, mean shift).
    _, _, f_data = shifted_gram(data)
    shifted_resid = np.max(np.abs(f_data - gram_bar), axis=(-2, -1)) / m

    # Row-projected residual in the zero-corner frame.  The exact rows of
    # the data and of the ground truth are the same numbers.
    eig = sym_eigen(gram_bar)
    f_bar = np.sqrt(np.maximum(eig.values, 0.0))[..., None] * eig.vectors.swapaxes(-1, -2)
    work, record, r_work, basis = reduced_factor(data)
    r_work_bar = noisy_factor(record.transform_blocks(split_blocks(data, f_bar)))
    kw = work.partition.k
    lhs, rhs = r_work[..., kw:, kw:] @ basis, r_work_bar[..., kw:, kw:] @ basis
    lhs, rhs = lhs.swapaxes(-1, -2) @ lhs, rhs.swapaxes(-1, -2) @ rhs
    target = rhs / m + sigma**2 * np.eye(lhs.shape[-1])
    projected_resid = np.max(np.abs(lhs / m - target), axis=(-2, -1))

    c21_eig = fixed_sv(data)[:, -1] ** 2 / m if k > 0 else None
    return [
        {
            "shifted_gram_residual": float(shifted_resid[s]),
            "projected_gram_residual": float(projected_resid[s]),
            "c21_gram_smallest_eig": None if c21_eig is None else float(c21_eig[s]),
        }
        for s in range(len(gram_bar))
    ]


def _record(name: str, m: int, trial: int, seeds, x_true, result, residuals) -> TrialRecord:
    """The record of one estimator on one instance: ``result`` is its
    EstimateResult or CtlsError, ``residuals`` the instance's Gram
    residuals or their CtlsError, which counts against the records that
    report them like an estimator failure."""
    if name in WITH_RESIDUALS and not isinstance(result, CtlsError):
        result = residuals if isinstance(residuals, CtlsError) else result
    if isinstance(result, CtlsError):
        return TrialRecord(name, m, trial, *seeds, None, None, None, None, None,
                           type(result).__name__)
    projection = name == "projection"
    return TrialRecord(
        name, m, trial, *seeds,
        err=float(np.linalg.norm(result.x_hat - x_true, "fro")),
        sigma2_hat=result.sigma2_hat,
        mu_over_m=result.mu / m if projection else None,
        shifted_gram_residual=residuals["shifted_gram_residual"] if projection else None,
        projected_gram_residual=(residuals["projected_gram_residual"]
                                 if name == "ctls_rowcol" else None),
        status="ok",
        constraint_residual=result.diagnostics.constraint_residual,
        flags=list(result.diagnostics.flags),
    )


def run_sweep(config: SweepConfig) -> ConvergenceTrace:
    """Run the configured sweep and aggregate per-cell statistics.

    Failed trials are recorded with the error name as their status and kept
    out of the aggregates, never dropped silently.
    """

    def run_share(share: list, run=partial) -> list[list[TrialRecord]]:
        return [recs for m, cell in itertools.groupby(share, key=lambda task: task[0])
                for recs in run_cell(m, [trial for _, trial in cell], run)]

    def run_cell(m: int, trials: list[int], run) -> list[list[TrialRecord]]:
        """The records of each trial of one ``m``, from one stack of its instances."""
        seeds = [(trial_seed(config.base_seed, "model", m, t),
                  trial_seed(config.base_seed, "noise", m, t)) for t in trials]
        x_true, stack, grams = sample_stack(config.partition_for(m), config.sigma, seeds,
                                            config.design, config.noise, all_rows,
                                            run if m in several else partial)
        results = {name: _run_estimator(name, stack) for name in config.estimators}
        residuals = [{}] * len(trials)
        if any(not isinstance(out, CtlsError)
               for name in WITH_RESIDUALS for out in results.get(name, ())):
            residuals = gram_residuals(grams, config.sigma, stack)
        return [
            [_record(name, m, trial, seeds[s], x_true[s], results[name][s], residuals[s])
             for name in config.estimators]
            for s, trial in enumerate(trials)
        ]

    all_rows = any(name in ALL_ROWS for name in config.estimators)
    tasks = [(m, t) for m in config.m_values for t in range(config.trials)]
    # Passes of several chunks alone get a runner; two run faster side by side.
    several = [m for m in config.m_values if len(chunk_bounds(m, config.n + config.ell)) > 1]
    passes = config.trials * len(several)
    if passes == 1 or passes and worker_count(len(tasks)) == 1:
        with beside() as run:
            by_task = run_share(tasks, run)
    else:
        by_task = run_shares(run_share, tasks)
    records = [rec for recs in by_task for rec in recs]

    aggregates: dict[str, dict[int, dict[str, float]]] = {}
    for name in config.estimators:
        aggregates[name] = {}
        for m in config.m_values:
            cell = [r for r in records if r.estimator == name and r.m == m]
            ok = [r for r in cell if r.status == "ok"]
            errs = np.array([r.err for r in ok])
            s2s = np.array([r.sigma2_hat for r in ok])
            stats: dict[str, float] = {
                "n_trials": float(len(cell)),
                "n_failed": float(len(cell) - len(ok)),
            }
            if ok:
                stats["median_err"] = float(np.median(errs))
                stats["iqr_err"] = float(
                    np.percentile(errs, 75) - np.percentile(errs, 25)
                )
                stats["median_sigma2_hat"] = float(np.median(s2s))
                pdps = [r.projected_gram_residual for r in ok if r.projected_gram_residual is not None]
                fs = [r.shifted_gram_residual for r in ok if r.shifted_gram_residual is not None]
                if pdps:
                    stats["median_projected_gram"] = float(np.median(pdps))
                if fs:
                    stats["median_shifted_gram"] = float(np.median(fs))
            else:
                stats["median_err"] = None
                stats["median_sigma2_hat"] = None
            aggregates[name][m] = stats

    return ConvergenceTrace(config=config, records=records, aggregates=aggregates)
