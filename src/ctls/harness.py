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
instances and any single cell can be reproduced in isolation.  Cells are
keyed, not appended, so optional thread-level parallelism (capped by the
``CTLS_THREADS`` environment variable) cannot change the output.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .errors import CtlsError, IncompatibleConfigError, InvalidPartitionError
from .estimators import (
    Diagnostics,
    EstimateResult,
    ctls_columns,
    ctls_rowcol,
    ctls_rows,
    factor_blocks,
    noisy_factor,
    projection_estimator,
    reduced_factor,
    shifted_gram,
    tls_from_data,
)
from .linalg import (
    gram_condition,
    null_space_basis,
    singular_values,
    solve_upper_triangular,
)
from .model import (
    DesignKind,
    NoiseKind,
    ObservedData,
    PartitionSpec,
    RegressionModel,
    generate_model,
    observe,
)

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


def naive_ls(data: ObservedData) -> EstimateResult:
    """Ordinary least squares from the cached factor of ``[A | B]``.

    With ``R = [[R11, R12], [0, R22]]`` split after the ``n`` columns of
    ``A``, the solution is ``R11^-1 R12`` and the residual norm is
    ``|R22|``.  ``R11`` is refused where the normal equations would be.

    The baseline the noisy-design estimators are measured against: its error
    does not shrink with the sample size because noise in the design matrix
    biases the normal equations (classical attenuation).
    """
    m, ell = data.b.shape
    n = data.a.shape[1]
    r = data.r_all
    gram_condition(r[:n, :n])
    x = solve_upper_triangular(r[:n, :n], r[:n, n:])
    sigma2 = float(np.sum(r[n:, n:] ** 2)) / (m * ell)
    return EstimateResult(
        x_hat=x,
        sigma2_hat=sigma2,
        smallest_eigs=np.zeros(0),
        diagnostics=Diagnostics(),
    )


#: Sweep estimator name -> the function that runs it on one instance.
ESTIMATORS = {
    "naive_ls": naive_ls,
    "tls": tls_from_data,
    "ctls_columns": ctls_columns,
    "ctls_rows": ctls_rows,
    "ctls_rowcol": ctls_rowcol,
    "projection": projection_estimator,
}

ESTIMATOR_NAMES = tuple(ESTIMATORS)


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
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "estimators", tuple(self.estimators))
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
        known = {f.name for f in fields(cls)}
        optional = {f.name for f in fields(cls) if f.default is not MISSING}
        unknown = set(d) - known
        if unknown:
            raise IncompatibleConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = known - optional - set(d)
        if missing:
            raise IncompatibleConfigError(f"missing config keys: {sorted(missing)}")
        kwargs = dict(d)
        kwargs["design"] = DesignKind(d.get("design", "iid"))
        kwargs["noise"] = NoiseKind(d.get("noise", "gauss"))
        return cls(**kwargs)


def _compatible(name: str, j: int, k: int, n: int) -> bool:
    if name == "ctls_columns":
        return j == 0 and 0 < k < n
    if name == "ctls_rows":
        return k == 0 and j > 0
    return True


def _run_estimator(name: str, data: ObservedData) -> EstimateResult:
    # Resolved through this module's global of the same name at call time,
    # so a function rebound there (perfbench's tracer wraps them) is the
    # one that runs.
    return globals()[ESTIMATORS[name].__name__](data)


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
            "records": [asdict(r) for r in self.records],
            "aggregates": {
                est: {str(m): dict(stats) for m, stats in per_m.items()}
                for est, per_m in self.aggregates.items()
            },
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

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


def gram_residuals(model: RegressionModel, data: ObservedData) -> dict:
    """Structural residuals comparing data Gram matrices with ground truth.

    Needs the ground truth, so this is harness-internal.  Returns max-norm
    residuals for the shifted Gram matrix of the projection pipeline, for
    the row-projected column-eliminated Gram matrix, and for the raw noise
    second moment, plus the smallest eigenvalue of ``C21.T @ C21 / m`` as a
    positive-definiteness diagnostic (reported, never enforced).

    The data side reuses the estimators' cached factor ``data.r_noisy``; the
    ground truth takes one factor of its own.
    """
    p = data.partition
    m, ell, k = p.m, p.ell, p.k
    sigma2 = model.sigma**2
    bar = ObservedData(a=model.a_bar, b=model.b_bar, partition=p)
    r, r_bar = data.r_noisy, bar.r_noisy

    # Shifted-Gram residual (projection pipeline, mean shift).
    _, _, f_data = shifted_gram(r, k, ell)
    shifted_resid = float(np.max(np.abs(f_data - r_bar.T @ r_bar))) / m

    # Row-projected residual in the zero-corner frame.
    work, record, r_work = reduced_factor(data)
    if record is None:
        r_work_bar = r_bar
    else:
        r_work_bar = noisy_factor(record.transform_blocks(factor_blocks(bar)))
    kw = work.partition.k
    lhs, rhs = r_work[kw:, kw:], r_work_bar[kw:, kw:]
    if work.partition.j > 0:
        basis = null_space_basis(work.c12)
        lhs, rhs = lhs @ basis, rhs @ basis
    lhs, rhs = lhs.T @ lhs, rhs.T @ rhs
    target = rhs / m + sigma2 * np.eye(lhs.shape[0])
    projected_resid = float(np.max(np.abs(lhs / m - target)))

    # Raw noise second moment.
    e = np.hstack(
        [
            data.a[p.j :, p.k :] - model.a_bar[p.j :, p.k :],
            data.b[p.j :, :] - model.b_bar[p.j :, :],
        ]
    )
    noise_resid = float(np.max(np.abs(e.T @ e / m - sigma2 * np.eye(e.shape[1]))))

    c21_eig = None
    if k > 0:
        c21_eig = float(singular_values(r[:k, :k])[-1]) ** 2 / m

    return {
        "shifted_gram_residual": shifted_resid,
        "projected_gram_residual": projected_resid,
        "noise_gram_residual": noise_resid,
        "c21_gram_smallest_eig": c21_eig,
    }


def _max_workers() -> int:
    raw = os.environ.get("CTLS_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_sweep(config: SweepConfig) -> ConvergenceTrace:
    """Run the configured sweep and aggregate per-cell statistics.

    Failed trials are recorded with the error name as their status and kept
    out of the aggregates, never dropped silently.
    """

    def run_instance(m: int, trial: int) -> list[TrialRecord]:
        model_seed = trial_seed(config.base_seed, "model", m, trial)
        noise_seed = trial_seed(config.base_seed, "noise", m, trial)
        model = generate_model(
            config.partition_for(m), config.sigma, model_seed, config.design
        )
        data = observe(model, noise_seed, config.noise)
        # Computed once, by the first estimator record that reports it; a
        # failure counts against that record like an estimator failure.
        residuals: dict = {}
        records = []
        for name in config.estimators:
            err = s2 = mu_m = res_shifted = res_projected = constraint = None
            flags: list[str] = []
            status = "ok"
            try:
                result = _run_estimator(name, data)
                if name in ("projection", "ctls_rowcol") and not residuals:
                    residuals.update(gram_residuals(model, data))
                err = float(np.linalg.norm(result.x_hat - model.x_true, "fro"))
                s2 = result.sigma2_hat
                flags = list(result.diagnostics.flags)
                constraint = result.diagnostics.constraint_residual
                if name == "projection":
                    mu_m = result.mu / m
                    res_shifted = residuals["shifted_gram_residual"]
                if name == "ctls_rowcol":
                    res_projected = residuals["projected_gram_residual"]
            except CtlsError as exc:
                status = type(exc).__name__
            records.append(
                TrialRecord(
                    estimator=name,
                    m=m,
                    trial=trial,
                    model_seed=model_seed,
                    noise_seed=noise_seed,
                    err=err,
                    sigma2_hat=s2,
                    mu_over_m=mu_m,
                    shifted_gram_residual=res_shifted,
                    projected_gram_residual=res_projected,
                    status=status,
                    constraint_residual=constraint,
                    flags=flags,
                )
            )
        return records

    tasks = [(m, t) for m in config.m_values for t in range(config.trials)]
    workers = _max_workers()
    by_cell: dict[tuple[int, int], list[TrialRecord]] = {}
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for key, recs in zip(tasks, pool.map(lambda mt: run_instance(*mt), tasks)):
                by_cell[key] = recs
    else:
        for key in tasks:
            by_cell[key] = run_instance(*key)

    records = [rec for key in tasks for rec in by_cell[key]]

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
