"""Stacks of instances: each slice's result and error are those of its own
call, failures stay in their slice, and a sweep runs each estimator once per
stack."""

import functools
import warnings

import numpy as np
import pytest

import ctls.harness as harness
from ctls import estimators
from ctls.errors import CtlsError, EstimatorWarning, LapackError
from ctls.harness import SweepConfig, gram_residuals, run_sweep
from ctls.model import DesignKind, ObservedData

from conftest import fingerprint, make_instance, set_cpus

SIGMA = 0.2
#: Marks the exact rows of the instance whose SVDs are made to fail.
POISON = 123.25


def mutated(j, k, name, seed):
    """A row-built instance and the ground-truth Gram matrix of its model;
    ``name`` picks what fails in it."""
    model, data = make_instance(j=j, k=k, n=4, ell=2, m=80, sigma=SIGMA,
                                model_seed=seed, noise_seed=seed + 50)
    a, b = data.a.copy(), data.b.copy()
    if name == "rankdef-rows":  # RankDeficientUpperRowsError
        a[1], b[1] = 3.0 * a[0], 3.0 * b[0]
    elif name == "zero-column":  # a null direction of C with no B part
        a[:, 3] = 0.0
    elif name == "zero-fixed-column":
        a[:, 0] = 0.0
    elif name == "zero-corner":  # a corner of rank 0 beside corners of rank 1
        a[:j, :k] = 0.0
    elif name == "poison":
        a[0, 0] = POISON
    return ObservedData(a=a, b=b, partition=data.partition), model.truth_gram()


def stack_of(datas):
    parts = [(d.exact_rows, d.r_noisy, d.r_all) for d in datas]
    exact, r_noisy, r_all = (np.stack(x) for x in zip(*parts))
    return ObservedData.stacked(exact, datas[0].partition, r_noisy, r_all)


def runs_for(j, k):
    """Every sweep estimator that takes the partition, projection with
    another mu_rule and gram_residuals, as functions of (data, gram)."""
    runs = {name: (lambda fn: lambda d, g: fn(d))(fn) for name, fn in harness.ESTIMATORS.items()
            if estimators.accepts_partition(name, j, k, 4)}
    runs["projection_max"] = lambda d, g: estimators.projection_estimator(d, mu_rule="max")
    runs["gram_residuals"] = lambda d, g: gram_residuals(g, SIGMA, d)
    return runs


def outcome(entry):
    if isinstance(entry, CtlsError):
        return type(entry).__name__, str(entry)
    return fingerprint(lambda _: entry, None)


def single(fn, data):
    try:
        return outcome(fn(data))
    except CtlsError as exc:
        return outcome(exc)


#: The public call that a slice of a sweep estimator must equal, where it is
#: not the estimator itself: the sweep's ``tls`` reads ``r_all`` and drops
#: the exact rows, as ``tls_solve`` on the instance's rows does.
PUBLIC = {"tls": lambda d, g: estimators.tls_solve(*d.rows)}

FAILURES = {
    (2, 1): ("rankdef-rows", "zero-column", "zero-corner", "zero-fixed-column"),
    (0, 1): ("zero-column", "zero-fixed-column"),
    (2, 0): ("rankdef-rows", "zero-column"),
}


@pytest.mark.parametrize("j,k", list(FAILURES))
def test_failures_stay_in_their_slice(j, k):
    """Healthy slices interleaved with slices that fail at different stages:
    every slice of every estimator and of gram_residuals reports what its
    own single-instance call gives (for ``tls``, ``tls_solve`` on its rows),
    bit for bit or error type and message."""
    names = ["healthy", *FAILURES[(j, k)]]
    names = [name for pair in zip(names, ["healthy"] * len(names)) for name in pair]
    instances = [mutated(j, k, name, seed) for seed, name in enumerate(names)]
    datas = [data for data, _ in instances]
    grams = np.stack([gram for _, gram in instances])
    stack = stack_of(datas)
    errors = set()
    for name, run in runs_for(j, k).items():
        own = PUBLIC.get(name, run)
        want = [single(lambda d: own(d, g), d) for d, g in zip(datas, grams)]
        assert [outcome(entry) for entry in run(stack, grams)] == want, name
        assert not isinstance(want[0], tuple) and not isinstance(want[-1], tuple), name
        errors |= {w[0] for w in want if isinstance(w, tuple)}
    rows = "RankDeficientFixedColumnsError" if j == 0 else "RankDeficientUpperRowsError"
    assert {rows, "LowerBlockSingularError", "NearSingularError"} <= errors


def test_lapack_failure_stays_in_its_slice(monkeypatch):
    """An SVD that fails on one instance's exact rows fails the stacked call;
    its slices run again one by one and only that slice fails, as
    LapackError."""
    names = ["healthy", "poison", "healthy", "healthy"]
    instances = [mutated(2, 1, name, seed) for seed, name in enumerate(names)]
    datas = [data for data, _ in instances]
    grams = np.stack([gram for _, gram in instances])
    runs = runs_for(2, 1)
    want = {name: [single(lambda d: run(d, g), d) for d, g in zip(datas, grams)]
            for name, run in runs.items()}
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        if np.any(np.asarray(a) == POISON):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    failed = ("LapackError", "numpy.linalg.svd: SVD did not converge")
    for name, run in runs.items():
        got = [outcome(entry) for entry in run(stack_of(datas), grams)]
        assert got[:1] + got[2:] == want[name][:1] + want[name][2:], name
        if name in ("ctls_rowcol", "projection", "projection_max", "gram_residuals"):
            assert got[1] == failed, name
        else:
            assert got[1] in (want[name][1], failed), name
    with pytest.raises(LapackError):
        estimators.ctls_rowcol(datas[1])


def readme_config(**overrides):
    base = dict(n=3, ell=1, j=1, k=1, m_values=(1000,), trials=1, sigma=0.1,
                estimators=("projection", "ctls_rowcol"), base_seed=12)
    return SweepConfig(**{**base, **overrides})


def test_sweep_small_stage_calls_do_not_grow_with_trials(monkeypatch):
    """On one CPU, the SVD, QR and eigh calls a README-shape sweep makes
    after its instances are sampled are the same for 1 trial and for 20:
    each estimator and gram_residuals run once on the stack."""
    set_cpus(monkeypatch, 1)
    calls = {"svd": 0, "qr": 0, "eigh": 0}
    for fn in calls:
        real = getattr(np.linalg, fn)

        def counted(*args, real=real, fn=fn, **kwargs):
            calls[fn] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, fn, counted)
    marks = []
    stacked = ObservedData.stacked.__func__

    def marked(cls, *args, **kwargs):
        marks.append(dict(calls))
        return stacked(cls, *args, **kwargs)

    monkeypatch.setattr(ObservedData, "stacked", classmethod(marked))
    after = {}
    for trials in (1, 20):
        marks.clear()
        trace = run_sweep(readme_config(trials=trials))
        assert {r.status for r in trace.records} == {"ok"}
        assert len(marks) == 1
        after[trials] = {fn: calls[fn] - marks[0][fn] for fn in calls}
    assert after[1] == after[20]
    assert after[1]["svd"] > 0


def test_every_flagged_slice_warns_once(monkeypatch):
    """A noise-free sweep on a 16-column grid design, where every instance
    has the eig_gap_degenerate flag: each flagged record has its
    EstimatorWarning, once.  (With the iid design and no noise the ell zero
    eigenvalues stay apart from the next, and nothing is flagged.)"""
    set_cpus(monkeypatch, 1)
    config = SweepConfig(n=16, ell=2, j=1, k=1, m_values=(50, 500), trials=3, sigma=0.0,
                         estimators=("naive_ls", "tls", "ctls_rowcol", "projection"),
                         base_seed=7, design=DesignKind.FIXED_GRID)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run_sweep(config)
    flagged = [r for r in trace.records if r.estimator != "naive_ls"]
    assert len(flagged) == 18
    assert all(r.status == "ok" and r.flags == ["eig_gap_degenerate"] for r in flagged)
    gaps = [w for w in caught if issubclass(w.category, EstimatorWarning)]
    assert len(gaps) == len(flagged)
    assert all("below 1e-10 * |F|" in str(w.message) for w in gaps)


def flagged(j, k, seed=1):
    """A noise-free grid-design instance whose solution subspace is flagged
    eig_gap_degenerate."""
    return make_instance(j=j, k=k, n=16, ell=2, m=50, sigma=0.0, model_seed=seed,
                         noise_seed=seed + 1, design=DesignKind.FIXED_GRID)[1]


def test_flagged_estimates_warn_at_their_caller():
    """Every estimator warns once per flagged estimate, at the line that
    called it, whether it calls another estimator and whether its stack
    runs again one slice at a time."""
    zero_row = flagged(1, 1, seed=3)
    zero_row.a[0], zero_row.b[0] = 0.0, 0.0  # RankDeficientUpperRowsError
    calls = {
        "tls_solve": lambda: [estimators.tls_solve(*flagged(0, 0).rows)],
        "ctls_columns": lambda: [estimators.ctls_columns(flagged(0, 1))],
        "ctls_rows": lambda: [estimators.ctls_rows(flagged(1, 0))],
        "ctls_rowcol": lambda: [estimators.ctls_rowcol(flagged(1, 1))],
        "projection": lambda: [estimators.projection_estimator(flagged(1, 1))],
        "rerun": lambda: estimators.ctls_rowcol(stack_of([flagged(1, 1), zero_row,
                                                          flagged(1, 1, seed=5)])),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = [r for r in call() if not isinstance(r, CtlsError)]
        assert len(results) == 1 + (name == "rerun"), name
        assert all(r.diagnostics.flags == ["eig_gap_degenerate"] for r in results), name
        assert [w.category for w in caught] == [EstimatorWarning] * len(results), name
        assert all(w.filename == __file__ for w in caught), name


def test_a_wrapped_estimator_adds_no_warning(monkeypatch):
    """``ctls_rows`` runs ``ctls_rowcol``'s checks and pipeline, not
    ``ctls_rowcol``, so a ``functools.wraps`` pass-through around
    ``ctls_rowcol`` (as perfbench's tracer installs) nests no second
    per-slice run: a flagged estimate warns once, at the caller."""
    real = estimators.ctls_rowcol

    @functools.wraps(real)
    def passing(*args, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, "ctls_rowcol", passing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = estimators.ctls_rows(flagged(1, 0))
    assert result.diagnostics.flags == ["eig_gap_degenerate"]
    assert [w.category for w in caught] == [EstimatorWarning]
    assert caught[0].filename == __file__
