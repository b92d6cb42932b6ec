"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (assertions abort a criterion before its PASS line prints, and
pytest reports the failure).
"""

import json
import os

import numpy as np
import pytest

from ctls.errors import LowerBlockSingularError
from ctls.estimators import (
    MU_RULES,
    accepts_partition,
    build_blocks,
    ctls_columns,
    ctls_rowcol,
    ctls_rows,
    projection_estimator,
    tls_from_data,
    tls_solve,
)
from ctls.harness import SweepConfig, gram_residuals, naive_ls, run_sweep
from ctls.model import PartitionSpec, generate_model, observe, sample_stack
from ctls.oracle import constrained_objective, feasible_sampler, tls_objective

from conftest import fingerprint, make_instance

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "tls_1d_grid.json")

RECOVERY_TOL = 1e-8
CONSTRAINT_TOL = 1e-8


def ok(criterion: str) -> None:
    print(f"[acceptance] {criterion}: PASS")


def constraint_gap(data, x_hat) -> float:
    j = data.partition.j
    if j == 0:
        return 0.0
    return float(np.linalg.norm(data.a[:j] @ x_hat - data.b[:j], "fro"))


def zero_noise_grid():
    """50 deterministic instances spanning (j, k) in {0,1,2}^2, n <= 5,
    ell <= 2, m in {20, 200}."""
    combos = [(j, k) for j in (0, 1, 2) for k in (0, 1, 2)]
    out = []
    for idx in range(50):
        j, k = combos[idx % 9]
        n = max(3 + idx % 3, j + k + 1)
        ell = 1 + (idx // 9) % 2
        m = 20 if idx % 2 == 0 else 200
        out.append((idx, j, k, n, ell, m))
    return out


def applicable_estimators(j, k, n):
    ests = [("naive_ls", naive_ls),
            ("tls", lambda d: tls_solve(d.a, d.b)),
            ("ctls_rowcol", ctls_rowcol),
            ("projection", projection_estimator)]
    ests += [(name, fn) for name, fn in (("ctls_columns", ctls_columns), ("ctls_rows", ctls_rows))
             if accepts_partition(name, j, k, n)]
    return ests


def run_zero_noise_grid():
    """Shared by criteria 1, 11 and 12: returns per-instance estimates."""
    results = []
    for idx, j, k, n, ell, m in zero_noise_grid():
        model, data = make_instance(
            j=j, k=k, n=n, ell=ell, m=m, sigma=0.0,
            model_seed=9000 + idx, noise_seed=9500 + idx,
        )
        for name, fn in applicable_estimators(j, k, n):
            result = fn(data)
            results.append((idx, name, model, data, result))
    return results


def test_c01_zero_noise_exact_recovery():
    """C1: every applicable estimator recovers X exactly at sigma = 0."""
    count = 0
    for idx, name, model, data, result in run_zero_noise_grid():
        err = np.linalg.norm(result.x_hat - model.x_true, "fro")
        scale = 1.0 + np.linalg.norm(model.x_true, "fro")
        assert err <= RECOVERY_TOL * scale, (idx, name, err)
        count += 1
    assert count >= 50 * 4
    ok("C01 zero-noise exact recovery")


def test_c02_tls_identities():
    """C2: secular equation and objective identity, ell = 1, 1e-8 relative."""
    for i in range(20):
        n = 2 + i % 3
        _, data = make_instance(
            j=0, k=0, n=n, ell=1, m=30 + 8 * i, sigma=0.3,
            model_seed=1000 + i, noise_seed=1100 + i,
        )
        result = tls_solve(data.a, data.b)
        lam1 = float(result.smallest_eigs[0])
        lhs = (data.a.T @ data.a - lam1 * np.eye(n)) @ result.x_hat
        rhs = data.a.T @ data.b
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1.0 + np.linalg.norm(rhs))
        obj = tls_objective(data.a, data.b, result.x_hat)
        assert abs(obj - lam1) <= 1e-8 * (1.0 + lam1)
    ok("C02 TLS secular + objective identities")


RADII = (1e-3, 1e-2, 1e-1)
N_CANDIDATES = 1000


def _local_optimality_cases():
    cases = []
    for i in range(20):
        cases.append(("tls", dict(j=0, k=0, n=2 + i % 3, ell=1 + i % 2,
                                  m=20 + i, sigma=0.1 if i % 2 else 0.3)))
    for i in range(20):
        k = 1 + i % 2
        cases.append(("ctls_columns", dict(j=0, k=k, n=3 + i % 2, ell=1 + i % 2,
                                           m=25 + i, sigma=0.2)))
    for i in range(20):
        j = 1 + i % 2
        k = 1 + (i // 2) % 2
        cases.append(("ctls_rowcol", dict(j=j, k=k, n=4, ell=1 + i % 2,
                                          m=30 + i, sigma=0.2)))
    return cases


def test_c03_oracle_local_optimality():
    """C3: the estimator's objective beats 10^3 feasible candidates per radius."""
    for case_idx, (name, spec) in enumerate(_local_optimality_cases()):
        _, data = make_instance(model_seed=2000 + case_idx,
                                noise_seed=2500 + case_idx, **spec)
        blocks = build_blocks(data)
        if name == "tls":
            result = tls_solve(data.a, data.b)
            base = tls_objective(data.a, data.b, result.x_hat)
            cost = lambda x: tls_objective(data.a, data.b, x)  # noqa: E731
        else:
            result = ctls_columns(data) if name == "ctls_columns" else ctls_rowcol(data)
            probe = constrained_objective(blocks, result.x_hat)
            assert probe.feasible, (case_idx, name)
            base = probe.objective

            def cost(x):
                p = constrained_objective(blocks, x)
                assert p.feasible, (case_idx, name)
                return p.objective

        for radius in RADII:
            candidates = feasible_sampler(
                blocks, result.x_hat, radius, N_CANDIDATES, seed=3000 + case_idx
            )
            for cand in candidates:
                assert base <= cost(cand) + 1e-12 * (1.0 + base), (case_idx, name, radius)
    ok("C03 oracle local optimality (tls, ctls_columns, ctls_rowcol)")


def test_c04_global_1d_grid_check():
    """C4: scalar TLS matches the frozen 1e5-point grid argmin."""
    with open(FIXTURE_PATH, "r", encoding="utf-8") as fh:
        fixture = json.load(fh)
    grid = fixture["grid"]
    step = (grid["hi"] - grid["lo"]) / (grid["num"] - 1)
    assert len(fixture["instances"]) == 10
    for inst in fixture["instances"]:
        _, data = make_instance(
            j=0, k=0, n=1, ell=1, m=inst["m"], sigma=inst["sigma"],
            model_seed=inst["model_seed"], noise_seed=inst["noise_seed"],
        )
        result = tls_solve(data.a, data.b)
        assert abs(float(result.x_hat[0, 0]) - inst["grid_argmin"]) <= step
        assert result.smallest_eigs[0] <= inst["grid_min_value"] + 1e-10
    ok("C04 global 1-D grid check")


@pytest.fixture(scope="module")
def consistency_trace():
    config = SweepConfig(
        n=3, ell=1, j=1, k=1,
        m_values=(100, 1000, 10_000),
        trials=30,
        sigma=0.1,
        estimators=("projection", "ctls_rowcol"),
        base_seed=60_601,
    )
    return run_sweep(config)


def test_c05_projection_consistency(consistency_trace):
    """C5: projection-estimator error strictly decreasing, final below 0.05."""
    meds = [consistency_trace.median_err("projection", m) for m in (100, 1000, 10_000)]
    assert meds[0] > meds[1] > meds[2]
    assert meds[2] < 0.05
    assert consistency_trace.max_failure_rate() == 0.0
    ok("C05 projection-estimator consistency surrogate")


def test_c06_ctls_rowcol_consistency(consistency_trace):
    """C6: row+column constrained TLS error strictly decreasing, final below 0.05."""
    meds = [consistency_trace.median_err("ctls_rowcol", m) for m in (100, 1000, 10_000)]
    assert meds[0] > meds[1] > meds[2]
    assert meds[2] < 0.05
    ok("C06 constrained-TLS consistency surrogate")


def test_c07_sigma2_estimate():
    """C7: median |mu/m - sigma^2| below 0.1 sigma^2 at m = 1e5, 20 trials."""
    for sigma in (0.1, 0.3):
        devs = []
        for t in range(20):
            _, data = make_instance(
                j=1, k=1, n=3, ell=1, m=100_000, sigma=sigma,
                model_seed=4000 + t, noise_seed=4400 + t,
            )
            result = projection_estimator(data)
            devs.append(abs(result.mu / 100_000 - sigma**2))
        assert float(np.median(devs)) < 0.1 * sigma**2, sigma
    ok("C07 noise-variance estimate surrogate")


def test_c08_projected_gram_residual_decreases():
    """C8: median row-projected Gram residual decreasing over m."""
    sigma = 0.3
    medians = []
    for m in (1000, 10_000, 100_000):
        vals = []
        for t in range(20):
            model, data = make_instance(
                j=1, k=1, n=3, ell=1, m=m, sigma=sigma,
                model_seed=5000 + t, noise_seed=5500 + t,
            )
            vals.append(gram_residuals(model.truth_gram(), model.sigma, data)["projected_gram_residual"])
        medians.append(float(np.median(vals)))
    assert medians[0] > medians[1] > medians[2]
    ok("C08 projected-Gram convergence surrogate")


def test_c09_degenerate_partition_equivalences():
    """C9: rowcol(j=0,k=0) == tls bit-exact; rowcol(j=0,k>0) == ctls_columns."""
    for i in range(20):
        _, data = make_instance(
            j=0, k=0, n=3, ell=1 + i % 2, m=40 + i, sigma=0.2,
            model_seed=6000 + i, noise_seed=6200 + i,
        )
        r1 = ctls_rowcol(data)
        r2 = tls_solve(data.a, data.b)
        assert np.array_equal(r1.x_hat, r2.x_hat), i
    for i in range(20):
        _, data = make_instance(
            j=0, k=1 + i % 2, n=4, ell=1 + i % 2, m=40 + i, sigma=0.2,
            model_seed=6400 + i, noise_seed=6600 + i,
        )
        r1 = ctls_rowcol(data)
        r2 = ctls_columns(data)
        scale = 1.0 + np.linalg.norm(r2.x_hat, "fro")
        assert np.max(np.abs(r1.x_hat - r2.x_hat)) <= 1e-8 * scale, i
    ok("C09 degenerate-partition equivalences")


def test_c10_naive_ls_attenuation():
    """C10: ordinary LS attenuates by ~1/(1+sigma^2) = 0.8 at sigma = 0.5."""
    ratios = []
    for t in range(30):
        model, data = make_instance(
            j=0, k=0, n=1, ell=1, m=100_000, sigma=0.5,
            model_seed=7000 + t, noise_seed=7300 + t,
        )
        result = naive_ls(data)
        ratios.append(float(result.x_hat[0, 0] / model.x_true[0, 0]))
    med = float(np.median(ratios))
    assert 0.75 <= med <= 0.85, med
    ok("C10 least-squares attenuation exhibit")


def test_c11_hard_constraint_exactness(consistency_trace):
    """C11: exact rows hold for every constrained estimate, including the
    noisy consistency sweeps of C5/C6 and the C1 grid."""
    # consistency-sweep records carry the snapshotted residual
    checked = 0
    for rec in consistency_trace.records:
        if rec.estimator == "ctls_rowcol" and rec.status == "ok":
            assert rec.constraint_residual is not None
            assert rec.constraint_residual <= CONSTRAINT_TOL * (1.0 + 10.0)
            checked += 1
    assert checked == 90
    # C1 grid, re-run with the constraint measured against the raw data
    for idx, name, model, data, result in run_zero_noise_grid():
        if name in ("ctls_rowcol", "ctls_rows") and data.partition.j > 0:
            scale = 1.0 + np.linalg.norm(data.b[: data.partition.j], "fro")
            assert constraint_gap(data, result.x_hat) <= CONSTRAINT_TOL * scale
    # noisy spot checks at the C5/C6 shape
    for t in range(5):
        _, data = make_instance(
            j=1, k=1, n=3, ell=1, m=1000, sigma=0.1,
            model_seed=8000 + t, noise_seed=8100 + t,
        )
        for fn in (ctls_rowcol, projection_estimator):
            result = fn(data)
            scale = 1.0 + np.linalg.norm(data.b[:1], "fro")
            assert constraint_gap(data, result.x_hat) <= CONSTRAINT_TOL * scale
    ok("C11 hard-constraint exactness")


def test_c12_determinism():
    """C12: re-running with the same seeds is bit-identical."""
    # model generation and observation
    p = PartitionSpec(j=1, k=1, n=3, ell=2, m=50)
    m1 = generate_model(p, 0.3, seed=313)
    m2 = generate_model(p, 0.3, seed=313)
    assert np.array_equal(m1.a_bar, m2.a_bar)
    assert np.array_equal(m1.x_true, m2.x_true)
    d1 = observe(m1, seed=314)
    d2 = observe(m2, seed=314)
    assert np.array_equal(d1.a, d2.a)

    # estimators on identical data
    for fn in (lambda d: tls_solve(d.a, d.b), ctls_rowcol, projection_estimator):
        r1 = fn(d1)
        r2 = fn(d2)
        assert np.array_equal(r1.x_hat, r2.x_hat)
        assert np.array_equal(r1.smallest_eigs, r2.smallest_eigs)

    # one full sweep cell
    config = SweepConfig(
        n=3, ell=1, j=1, k=1, m_values=(100,), trials=5, sigma=0.1,
        estimators=("projection", "ctls_rowcol"), base_seed=60_601,
    )
    t1 = run_sweep(config)
    t2 = run_sweep(config)
    assert t1.records == t2.records
    ok("C12 bit-level determinism")


#: C15's instances: n = 2 + j, ell = 1, two seeds per (j, k, m, sigma).
GLOBAL_CASES = [(j, k, m, sigma) for j, k in ((0, 1), (1, 0), (1, 1))
                for m, sigma in ((8, 0.7), (30, 0.5), (200, 0.3)) for _ in range(2)]
#: The first grid covers [-12, 12]^2 around the least-norm feasible point;
#: each later one spans +-10 steps of the one before around its argmin.
SCAN_HALF_WIDTH, SCAN_POINTS, SCAN_WINDOW, SCAN_GRIDS = 12.0, 201, 10, 8
#: Above this condition number of the Hessian on the plane the minimum is a
#: flat valley, and the grid argmin says little about where in it x_hat lies.
HESSIAN_COND_MAX = 1e6


def test_c15_global_minimum():
    """C15: with exact rows and columns active, ``ctls_rowcol`` returns the
    global minimiser of the constrained TLS objective.

    On the feasible plane ``x0 + N t`` of the exact rows (``t`` in R^2), a
    grid scan refined around its argmin finds the minimum of the oracle's
    closed form ``|C2 w|^2 / (1 + |x[k:]|^2)``, ``w = [x; -1]`` over the
    noisy rows ``C2``.  No grid point beats the estimate by more than the
    rounding of the objective, and the scan comes within ``lambda_max h^2 / 2``
    of it (``h`` the last grid step; the nearest grid point is within
    ``h / sqrt(2)`` of the minimiser).  Where the Hessian on the plane is
    well conditioned, the grid argmin is within ``h sqrt(cond / 2)`` of the
    estimate, with twice that as slack.  Estimator failures are counted.
    """
    eps = np.finfo(float).eps
    singular, compared = [], 0
    for idx, (j, k, m, sigma) in enumerate(GLOBAL_CASES):
        n = 2 + j
        _, data = make_instance(j=j, k=k, n=n, ell=1, m=m, sigma=sigma,
                                model_seed=15_000 + idx, noise_seed=15_500 + idx)
        blocks = build_blocks(data)
        a1, b1 = data.a[:j], data.b[:j]
        x0 = np.linalg.lstsq(a1, b1, rcond=None)[0] if j else np.zeros((n, 1))
        plane = np.linalg.svd(a1)[2][j:].T if j else np.eye(n)
        c2 = np.hstack([data.a[j:], data.b[j:]])
        gram = c2.T @ c2
        w0 = np.append(x0[:, 0], -1.0)
        dw = np.vstack([plane, np.zeros((1, 2))])  # w(t) = w0 + dw @ t

        def objective(t):
            w = w0 + t @ dw.T
            return np.sum((w @ gram) * w, axis=-1) / (1.0 + np.sum(w[..., k:n] ** 2, axis=-1))

        centre, half = np.zeros(2), SCAN_HALF_WIDTH
        for grid in range(SCAN_GRIDS):
            axis = np.linspace(-half, half, SCAN_POINTS)
            points = centre + np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
            best = int(np.argmin(objective(points)))
            if grid == 0:  # an edge argmin would leave the minimum outside the box
                assert np.max(np.abs(points[best])) < half - (axis[1] - axis[0]), idx
            centre, step = points[best], axis[1] - axis[0]
            half = SCAN_WINDOW * step
        x_grid = x0 + plane @ centre[:, None]

        try:
            x_hat = ctls_rowcol(data).x_hat
        except LowerBlockSingularError:
            singular.append(idx)
            continue
        probe_hat = constrained_objective(blocks, x_hat)
        probe_grid = constrained_objective(blocks, x_grid)
        assert probe_hat.feasible and probe_grid.feasible, idx
        f_hat, f_grid = probe_hat.objective, probe_grid.objective

        # Rounding of the objective: gamma_(m + n + 1) times the sum of the
        # absolute terms of |C2 w|^2, over its denominator.
        w_hat = np.append(x_hat[:, 0], -1.0)
        terms = np.abs(c2) @ np.abs(w_hat)
        rounding = 2 * (len(c2) + n + 1) * eps * (terms @ terms) / (1.0 + w_hat[k:n] @ w_hat[k:n])
        # Hessian of q(t) / d(t) on the plane at its minimum: 2 (Q - f D) / d.
        d_grid = 1.0 + float(np.sum(x_grid[k:] ** 2))
        hessian = 2.0 * (dw.T @ gram @ dw - f_grid * dw[k:n].T @ dw[k:n]) / d_grid
        low, high = np.linalg.eigvalsh(hessian)
        assert f_hat <= f_grid + rounding, (idx, f_hat, f_grid)
        assert f_grid <= f_hat + high * step**2 / 2 + rounding, (idx, f_hat, f_grid)
        if low > 0 and high / low <= HESSIAN_COND_MAX:
            compared += 1
            slack = 2 * (step * np.sqrt(high / low / 2) + np.sqrt(2 * rounding / low))
            assert np.linalg.norm(x_hat - x_grid) <= slack, (idx, np.linalg.norm(x_hat - x_grid))
    assert singular == [], f"LowerBlockSingularError on instances {singular}"
    assert compared >= len(GLOBAL_CASES) // 2, compared
    ok(f"C15 global minimum ({len(GLOBAL_CASES)} instances, {compared} argmins compared, "
       f"{len(singular)} singular)")


#: C16's stacks of 8 slices where the projection estimator equals
#: ``ctls_rowcol``: (n, k, m) with j = 0, ell = 1 and 0 < k < n.
IDENTITY_CASES = [(n, k, m) for n in (3, 4, 6) for k in (1, 2, 3) if k < n
                  for m in (30, 300, 2000)]
#: C16's bound on the difference, in units of eps * kappa * (1 + |x|).
IDENTITY_UNITS = 32


def c16_stack(j, k, n, ell, m, seed, count=8):
    """A ``sample_stack`` of ``count`` instances (sigma = 0.3) with both factors."""
    seeds = [(seed + s, seed + 500 + s) for s in range(count)]
    return sample_stack(PartitionSpec(j=j, k=k, n=n, ell=ell, m=m), 0.3, seeds)[1]


def identity_units(stack, x_proj, x_ctls):
    """Per slice, ``max|x_proj - x_ctls|`` in units of eps * kappa * (1 +
    |x_ctls|).  kappa is the TLS condition estimate of the noisy columns'
    problem (Golub & Van Loan 1980), squared as the Gram route squares it:
    sigma_1(R22)^2 / (sigma_lo^2 - sigma_hi^2), with R22 = r_noisy[k:, k:],
    sigma_lo the smallest singular value of its first n - k columns and
    sigma_hi = sigma_{n-k+1}(R22)."""
    p = stack.partition
    r22 = stack.r_noisy[:, p.k :, p.k :]
    sv = np.linalg.svd(r22, compute_uv=False)
    low = np.linalg.svd(r22[:, :, : p.n_free], compute_uv=False)[:, -1]
    high = sv[:, p.n_free]
    kappa = sv[:, 0] ** 2 / ((low - high) * (low + high))
    scale = np.finfo(float).eps * kappa * (1.0 + np.linalg.norm(x_ctls, axis=(1, 2)))
    return np.max(np.abs(x_proj - x_ctls), axis=(1, 2)) / scale


def x_hats(results):
    return np.stack([result.x_hat for result in results])


def test_c16_estimator_identities():
    """C16: where the paper's two estimators solve one problem, they agree.

    * j = 0, ell = 1, 0 < k < n: mu is the smallest eigenvalue of the
      Schur complement, so the shifted Gram matrix is singular and its null
      vector is the CTLS solution; the projection estimator (every
      ``mu_rule``) equals ``ctls_rowcol`` within ``IDENTITY_UNITS`` units of
      :func:`identity_units` (worst reading 3.1 units).  k = 0 is
      ``test_projection_and_ctls_rowcol_agree_without_exact_columns``.
    * The converse, j = k = 1: the shift falls on the noisy columns after
      the exact rows are projected out, and some slice differs by more than
      the bound (4.3e10 to 4.3e12 units), so a shift applied to the
      wrong columns, or to none, fails one half or the other.
    * Bit for bit: ``ctls_rows`` equals ``ctls_rowcol`` at k = 0 < j, and
      ``tls_from_data`` equals it at j = k = 0, every field, since each pair
      runs one pipeline on one factor.
    """
    worst = 0.0
    for idx, (n, k, m) in enumerate(IDENTITY_CASES):
        stack = c16_stack(0, k, n, 1, m, seed=16_000 + 10 * idx)
        x_ctls = x_hats(ctls_rowcol(stack))
        for rule in MU_RULES:
            units = identity_units(stack, x_hats(projection_estimator(stack, mu_rule=rule)), x_ctls)
            assert units.max() <= IDENTITY_UNITS, (n, k, m, rule, units.max())
            worst = max(worst, units.max())

    for n in (3, 4):
        for m in (30, 300, 2000):
            stack = c16_stack(1, 1, n, 1, m, seed=16_900 + n + m)
            units = identity_units(stack, x_hats(projection_estimator(stack)),
                                   x_hats(ctls_rowcol(stack)))
            assert units.max() > IDENTITY_UNITS, (n, m, units.max())

    for ell in (1, 2):
        for j in (0, 1, 2, 3):
            stack = c16_stack(j, 0, 4, ell, 600, seed=17_000 + 100 * ell + 10 * j, count=6)
            other = ctls_rows(stack) if j else tls_from_data(stack)
            for s, (a, b) in enumerate(zip(ctls_rowcol(stack), other)):
                assert fingerprint(lambda r: r, a) == fingerprint(lambda r: r, b), (ell, j, s)
    ok(f"C16 estimator identities ({len(IDENTITY_CASES)} identity stacks, worst "
       f"{worst:.1f} of {IDENTITY_UNITS} units; 6 converse stacks; 8 bit-for-bit stacks)")
