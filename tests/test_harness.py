"""Sweep mechanics: determinism, reproducibility, aggregation, residual records."""

import json
import os
import threading
from functools import partial

import numpy as np
import pytest

import ctls.harness as harness
from ctls.errors import CtlsError, IncompatibleConfigError, LapackError, NearSingularError
from ctls import cli, estimators, linalg, parallel, model as model_mod
from ctls.harness import (
    CSV_COLUMNS,
    SweepConfig,
    gram_residuals,
    naive_ls,
    run_sweep,
    trial_seed,
)
from ctls.linalg import CHUNK_ROWS
from ctls.model import DesignKind, NoiseKind, ObservedData, generate_model, observe

from conftest import assert_reaped, fingerprint, make_instance, read_pins, set_cpus


def small_config(**overrides):
    base = dict(
        n=3, ell=1, j=1, k=1,
        m_values=(30, 60),
        trials=4,
        sigma=0.1,
        estimators=("tls", "ctls_rowcol", "projection", "naive_ls"),
        base_seed=777,
    )
    base.update(overrides)
    return SweepConfig(**base)


# --- config validation -----------------------------------------------------------


def test_config_rejects_unsorted_m():
    with pytest.raises(IncompatibleConfigError):
        small_config(m_values=(60, 30))


def test_config_rejects_unknown_estimator():
    with pytest.raises(IncompatibleConfigError):
        small_config(estimators=("ridge",))
    with pytest.raises(IncompatibleConfigError):
        small_config(estimators=(["tls"],))


def test_config_rejects_a_repeated_estimator():
    """A name listed twice would run twice on every instance and count each
    trial twice in its cell."""
    with pytest.raises(IncompatibleConfigError, match="'tls' is listed twice"):
        small_config(estimators=("tls", "projection", "tls"), trials=2)


def test_config_rejects_incompatible_partition():
    with pytest.raises(IncompatibleConfigError):
        small_config(estimators=("ctls_columns",))  # needs j == 0
    with pytest.raises(IncompatibleConfigError):
        small_config(estimators=("ctls_rows",))  # needs k == 0


def test_config_rejects_underdetermined():
    with pytest.raises(IncompatibleConfigError):
        small_config(m_values=(4, 8))


def test_config_roundtrips_through_dict():
    cfg = small_config()
    again = SweepConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(IncompatibleConfigError):
        SweepConfig.from_dict({**cfg.to_dict(), "bogus": 1})


@pytest.mark.parametrize("key, value", [("design", "bogus"), ("noise", "gaussian"),
                                        ("design", None), ("noise", 3)])
def test_config_rejects_unknown_kinds(key, value):
    """A design or noise kind that names no member is a config error, from
    the constructor and from a dict alike."""
    with pytest.raises(IncompatibleConfigError, match="is not a valid"):
        small_config(**{key: value})
    with pytest.raises(IncompatibleConfigError, match="is not a valid"):
        SweepConfig.from_dict({**small_config().to_dict(), key: value})


def test_config_takes_kinds_by_value():
    """A kind given by its value builds the config of its member, and the
    sweep runs it as that config."""
    by_value = small_config(design="grid", noise="uniform", m_values=(30,), trials=2)
    assert by_value.design is DesignKind.FIXED_GRID and by_value.noise is NoiseKind.UNIFORM
    by_member = small_config(design=DesignKind.FIXED_GRID, noise=NoiseKind.UNIFORM,
                             m_values=(30,), trials=2)
    assert by_value == by_member
    assert run_sweep(by_value).csv_rows() == run_sweep(by_member).csv_rows()


# --- naive_ls ----------------------------------------------------------------------


def test_naive_ls_identity_design():
    from ctls.model import ObservedData, PartitionSpec

    b = np.array([[1.0], [2.0], [3.0]])
    data = ObservedData(
        a=np.eye(3), b=b, partition=PartitionSpec(j=0, k=0, n=3, ell=1, m=3)
    )
    result = naive_ls(data)
    assert np.allclose(result.x_hat, b)


def test_naive_ls_exact_at_zero_noise():
    model, data = make_instance(j=0, k=0, n=3, ell=2, m=50, sigma=0.0)
    result = naive_ls(data)
    assert np.linalg.norm(result.x_hat - model.x_true) <= 1e-8


def test_naive_ls_rejects_singular_gram():
    from ctls.model import ObservedData, PartitionSpec

    a = np.ones((5, 2))
    data = ObservedData(
        a=a, b=np.ones((5, 1)), partition=PartitionSpec(j=0, k=0, n=2, ell=1, m=5)
    )
    with pytest.raises(NearSingularError):
        naive_ls(data)


# --- seeds -------------------------------------------------------------------------


def test_trial_seed_is_stable_and_distinct():
    s1 = trial_seed(5, "model", 100, 3)
    s2 = trial_seed(5, "model", 100, 3)
    s3 = trial_seed(5, "model", 100, 4)
    s4 = trial_seed(5, "noise", 100, 3)
    assert s1 == s2
    assert len({s1, s3, s4}) == 3
    assert 0 <= s1 < 2**63


# --- run_sweep ----------------------------------------------------------------------


def test_sweep_zero_noise_errors_vanish():
    trace = run_sweep(small_config(sigma=0.0, trials=2))
    for rec in trace.records:
        assert rec.status == "ok"
        assert rec.err <= 1e-8


def test_sweep_determinism_bit_identical():
    t1 = run_sweep(small_config())
    t2 = run_sweep(small_config())
    assert len(t1.records) == len(t2.records)
    for r1, r2 in zip(t1.records, t2.records):
        assert r1 == r2
    assert t1.aggregates == t2.aggregates


def test_sweep_cell_reproducible_in_isolation():
    cfg = small_config()
    trace = run_sweep(cfg)
    rec = trace.cell("projection", 60)[2]
    model = generate_model(
        cfg.partition_for(60), cfg.sigma, rec.model_seed, cfg.design
    )
    data = observe(model, rec.noise_seed, cfg.noise)
    from ctls.estimators import projection_estimator

    result = projection_estimator(data)
    err = float(np.linalg.norm(result.x_hat - model.x_true, "fro"))
    assert err == rec.err
    assert result.mu / 60 == rec.mu_over_m


def test_sweep_shares_instances_across_estimators():
    cfg = small_config()
    trace = run_sweep(cfg)
    seeds = {
        (r.m, r.trial): (r.model_seed, r.noise_seed) for r in trace.records
    }
    for r in trace.records:
        assert seeds[(r.m, r.trial)] == (r.model_seed, r.noise_seed)


def fail_tls_at(monkeypatch, m):
    """Make ``tls`` raise a synthetic CtlsError inside its stacked call on
    every instance of ``m`` rows, where any estimator's own failure arises."""
    real = estimators.tls_from_data

    @estimators.stacked
    def tls_from_data(data):
        if data.partition.m == m:
            raise CtlsError("synthetic failure")
        return real.body(data)

    monkeypatch.setattr(harness, "tls_from_data", tls_from_data)


def test_sweep_records_failures_instead_of_dropping(monkeypatch):
    fail_tls_at(monkeypatch, 60)
    trace = run_sweep(small_config(estimators=("tls", "projection")))
    failed = [r for r in trace.records if r.status != "ok"]
    assert len(failed) == 4  # every tls trial at m=60
    assert all(r.estimator == "tls" and r.m == 60 for r in failed)
    assert all(r.err is None for r in failed)
    assert trace.failure_rate("tls", 60) == 1.0
    assert trace.failure_rate("tls", 30) == 0.0
    assert trace.max_failure_rate() == 1.0


@pytest.mark.parametrize("fail", [False, True], ids=["ok", "ctls-error"])
def test_sweep_forked_matches_serial(monkeypatch, tmp_path, capsys, forked, fail):
    """Three workers (two forked) and one give equal records, aggregates and
    ``ctls sweep`` files and exit codes, with a synthetic CtlsError at m = 60
    too: the forked children inherit the patched estimator."""
    if fail:
        fail_tls_at(monkeypatch, 60)
    cfg = small_config(trials=3)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    runs = {}
    for cpus in (3, 1):
        set_cpus(monkeypatch, cpus)
        trace = run_sweep(cfg)
        out = [tmp_path / f"{cpus}.json", tmp_path / f"{cpus}.csv"]
        code = cli.main(["sweep", "--config", str(cfg_path),
                         "--out-trace", str(out[0]), "--csv", str(out[1])])
        runs[cpus] = (trace.records, trace.aggregates, code,
                      [path.read_bytes() for path in out], capsys.readouterr().out)
    assert runs[3] == runs[1]
    assert len(forked) == 2 * 2
    assert_reaped(forked)
    assert runs[3][2] == (3 if fail else 0)
    assert sum(r.status == "CtlsError" for r in runs[3][0]) == (3 if fail else 0)


@pytest.mark.parametrize(
    "affinity,cpu_count,m_values,trials,forks",
    [
        (3, 8, (30, 60), 3, 2),
        (8, 8, (30,), 3, 2),
        (1, 8, (30, 60), 3, 0),
        (3, 8, (30,), 1, 0),
        (None, 2, (30, 60), 3, 1),
        (None, None, (30, 60), 3, 0),
    ],
    ids=["cpus", "tasks", "one-cpu", "one-task", "cpu-count", "no-count"],
)
def test_sweep_forks_one_worker_per_cpu_up_to_tasks(
    monkeypatch, tmp_path, forked, affinity, cpu_count, m_values, trials, forks
):
    """``min(CPUs, tasks) - 1`` children, the CPUs read from the affinity
    mask or, without one, from ``os.cpu_count``; a one-task sweep (as in the
    in-process call-counting tests) never forks.  With a mask, child ``w``
    pins itself to its ``w``-th CPU and the parent pins itself nowhere;
    without one, nothing is pinned."""
    pins = tmp_path / "pins"
    pins.touch()
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        set_cpus(monkeypatch, affinity, pins)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    trace = run_sweep(small_config(m_values=m_values, trials=trials))
    assert len(forked) == forks
    assert_reaped(forked)
    mine, pinned = read_pins(pins)
    if affinity is None:
        assert pinned == {} and mine == []
    else:
        assert pinned == {str(pid): f"[{w}]" for w, pid in enumerate(forked, start=1)}
        assert mine == []
    assert [(r.m, r.trial) for r in trace.records[::4]] == [
        (m, t) for m in m_values for t in range(trials)
    ]


def test_sweep_forks_again_after_a_large_instance(monkeypatch, forked):
    """The helper thread of a pass of several chunks is joined before the
    pass returns, so the next sweep forks again (``worker_count`` does not
    while a second thread runs)."""
    set_cpus(monkeypatch, 2)
    cfg = small_config(m_values=(2 * CHUNK_ROWS + 5,), trials=2, estimators=("projection",))
    for _ in range(2):
        run_sweep(cfg)
        assert threading.active_count() == 1
    assert len(forked) == 2
    assert_reaped(forked)


@pytest.mark.parametrize("trials,forks", [(1, 0), (2, 1)], ids=["one-pass", "two-passes"])
def test_sweep_with_one_large_pass_runs_in_process(monkeypatch, tmp_path, forked, trials, forks):
    """A sweep with one pass of several chunks forks no child, so the helper
    of that pass, pinned to CPU 1 of this process, has that CPU to itself;
    with two such passes the pool forks as before.  Either way the records
    are those of a one-CPU run, and no thread is left behind."""
    cfg = small_config(m_values=(30, 2 * CHUNK_ROWS + 5), trials=trials)
    set_cpus(monkeypatch, 1)
    serial = run_sweep(cfg).records
    pins = tmp_path / "pins"
    pins.touch()
    set_cpus(monkeypatch, 2, pins)
    trace = run_sweep(cfg)
    assert len(forked) == forks
    assert_reaped(forked)
    if trials == 1:
        assert f"{os.getpid()} [1]" in pins.read_text().splitlines()
    assert trace.records == serial
    assert threading.active_count() == 1


def test_pool_parent_runs_its_share_on_one_cpu(monkeypatch, tmp_path, forked):
    """Two passes of several chunks run on the pool, one per worker.  The
    child pins itself to the second CPU of the mask; the parent gets no
    runner, so it pins itself nowhere, starts no helper thread and keeps
    its mask; the records are those of a one-CPU run."""
    cfg = small_config(m_values=(2 * CHUNK_ROWS + 5,), trials=2, estimators=("projection",))
    set_cpus(monkeypatch, 1)
    serial = run_sweep(cfg).records
    pins = tmp_path / "pins"
    pins.touch()
    set_cpus(monkeypatch, 2, pins)
    real_start, started = threading.Thread.start, []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(os.getpid()) or real_start(thread))
    trace = run_sweep(cfg)
    assert len(forked) == 1
    assert_reaped(forked)
    mine, pinned = read_pins(pins)
    assert mine == [] and pinned == {str(forked[0]): "[1]"}
    assert os.getpid() not in started
    assert os.sched_getaffinity(0) == {0, 1}
    assert threading.active_count() == 1
    assert trace.records == serial


def test_sweep_that_would_not_fork_keeps_its_helper(monkeypatch, tmp_path, forked):
    """While another thread runs the pool would not fork, so the sweep runs
    its two passes of several chunks in this process on one helper thread,
    pinned to the second CPU while this thread has the first; the records
    are those of a one-CPU run."""
    cfg = small_config(m_values=(2 * CHUNK_ROWS + 5,), trials=2, estimators=("projection",))
    set_cpus(monkeypatch, 1)
    serial = run_sweep(cfg).records
    pins = tmp_path / "pins"
    pins.touch()
    set_cpus(monkeypatch, 2, pins)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    waiting.start()
    real_start, started = threading.Thread.start, []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or real_start(thread))
    try:
        trace = run_sweep(cfg)
    finally:
        release.set()
        waiting.join()
    assert forked == []
    assert len(started) == 1 and not started[0].is_alive()
    assert read_pins(pins)[0] == ["[0]", "[1]", "[0, 1]"]
    assert trace.records == serial


def test_pool_child_that_cannot_pickle_its_results_says_why(monkeypatch, forked):
    """A child whose results do not pickle exits nonzero and sends the
    traceback of the pickling error, which the RuntimeError carries."""
    set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"(?s)pool worker 1 exited with status 1: "
                                           r"Traceback.*pickle"):
        parallel.run_shares(lambda share: [lambda: t for t in share], [1, 2])
    assert len(forked) == 1
    assert_reaped(forked)


@pytest.mark.parametrize("where", ["child-raises", "child-dies", "parent-interrupted"])
def test_sweep_worker_failure_raises_and_reaps(monkeypatch, forked, where):
    """A non-CtlsError in a child, a child that exits without its records
    and a Ctrl-C in the parent all end run_sweep, and leave no child
    unreaped."""
    parent, real = os.getpid(), harness._run_estimator

    def failing(name, data):
        if where == "parent-interrupted" and os.getpid() == parent:
            raise KeyboardInterrupt
        if where == "child-raises" and os.getpid() != parent:
            raise RuntimeError("instance blew up in a child")
        if where == "child-dies" and os.getpid() != parent:
            os._exit(0)
        return real(name, data)

    monkeypatch.setattr(harness, "_run_estimator", failing)
    set_cpus(monkeypatch, 3)
    expected = {
        "child-raises": pytest.raises(RuntimeError, match="instance blew up in a child"),
        "child-dies": pytest.raises(RuntimeError, match="0 bytes of incomplete output"),
        "parent-interrupted": pytest.raises(KeyboardInterrupt),
    }[where]
    with expected:
        run_sweep(small_config(trials=3))
    assert len(forked) == 2
    assert_reaped(forked)


def test_pool_result_pipe_is_enlarged(monkeypatch, forked):
    """Each child's result pipe is asked for ``PIPE_BYTES`` before the
    fork, and results larger than the pipe still come back whole."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_GETPIPE_SZ"):
        pytest.skip("no F_GETPIPE_SZ")
    probe = os.pipe()
    try:
        fcntl.fcntl(probe[1], fcntl.F_SETPIPE_SZ, parallel.PIPE_BYTES)
    except OSError:
        pytest.skip("this system refuses a pipe of PIPE_BYTES")
    finally:
        for fd in probe:
            os.close(fd)
    pipes, sizes = [], []
    real_pipe, counting_fork = os.pipe, os.fork

    def pipe():
        pipes.append(real_pipe())
        return pipes[-1]

    def fork():
        sizes.append(fcntl.fcntl(pipes[-1][1], fcntl.F_GETPIPE_SZ))
        return counting_fork()

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    set_cpus(monkeypatch, 3)
    big = 3 * parallel.PIPE_BYTES
    results = parallel.run_tasks(lambda i: bytes([i]) * big, [(0,), (1,), (2,)])
    assert results == [bytes([i]) * big for i in range(3)]
    assert sizes == [parallel.PIPE_BYTES] * 2
    assert_reaped(forked)


def test_pool_ignores_a_refused_pipe_size(monkeypatch, forked):
    """An OSError from enlarging the pipe leaves the default size and the
    same results."""
    fcntl = pytest.importorskip("fcntl")

    def refuse(*args):
        raise PermissionError("pipe size refused")

    monkeypatch.setattr(fcntl, "fcntl", refuse)
    set_cpus(monkeypatch, 2)
    assert parallel.run_tasks(lambda i: [i] * 100_000, [(0,), (1,)]) == [
        [0] * 100_000, [1] * 100_000
    ]
    assert len(forked) == 1
    assert_reaped(forked)


def test_trace_serialization_shapes():
    trace = run_sweep(small_config(trials=2))
    payload = trace.to_json_dict()
    assert set(payload) == {"config", "records", "aggregates"}
    assert payload["config"]["design"] == "iid"
    rows = trace.csv_rows()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 1 + len(trace.records)
    # aggregates recomputable from raw rows
    errs = [r.err for r in trace.cell("tls", 30) if r.status == "ok"]
    assert trace.aggregates["tls"][30]["median_err"] == pytest.approx(
        float(np.median(errs))
    )
    table = trace.aggregate_table()
    assert table.splitlines()[0].startswith("estimator m median_err")


# --- gram residuals -----------------------------------------------------------------


def test_gram_residuals_zero_noise_reports_sampling_error():
    model, data = make_instance(j=1, k=1, n=3, ell=1, m=200, sigma=0.0)
    res = gram_residuals(model.truth_gram(), model.sigma, data)
    assert res["shifted_gram_residual"] >= 0.0
    assert res["projected_gram_residual"] >= 0.0


def factor_residuals(model, data):
    """Reference for gram_residuals: the shifted and projected residuals
    from an R factor of the ground truth's noisy rows, where gram_residuals
    sees the ground truth only through their Gram matrix."""
    p = data.partition
    m, j, k = p.m, p.j, p.k
    bar = ObservedData(a=model.a_bar, b=model.b_bar, partition=p)
    r_bar = linalg.tall_r(np.hstack([model.a_bar[j:], model.b_bar[j:]]))
    _, _, f = estimators.shifted_gram(data)
    shifted = float(np.max(np.abs(f - r_bar.T @ r_bar))) / m
    work, record, r_work, _ = estimators.reduced_factor(data)
    r_work_bar = estimators.noisy_factor(
        record.transform_blocks(estimators.split_blocks(bar, r_bar))
    )
    kw = work.partition.k
    lhs, rhs = r_work[kw:, kw:], r_work_bar[kw:, kw:]
    if work.partition.j > 0:
        basis = linalg.null_space_basis(work.c12)
        lhs, rhs = lhs @ basis, rhs @ basis
    target = rhs.T @ rhs / m + model.sigma**2 * np.eye(lhs.shape[1])
    projected = float(np.max(np.abs(lhs.T @ lhs / m - target)))
    return shifted, projected


@pytest.mark.parametrize("design", list(DesignKind))
@pytest.mark.parametrize("j,k", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 3)])
@pytest.mark.parametrize("m", [300, 2000])
def test_gram_residuals_match_factor_formula(design, j, k, m):
    model, data = make_instance(j=j, k=k, n=4, ell=2, m=m, sigma=0.1,
                                model_seed=m + j, noise_seed=m + k, design=design)
    res = gram_residuals(model.truth_gram(), model.sigma, data)
    shifted, projected = factor_residuals(model, data)
    assert res["shifted_gram_residual"] == pytest.approx(shifted, rel=1e-9)
    assert res["projected_gram_residual"] == pytest.approx(projected, rel=1e-9)


def test_gram_residuals_shrink_with_m():
    meds = []
    for m in (1000, 10_000, 100_000):
        vals = []
        for t in range(10):
            model, data = make_instance(
                j=1, k=1, n=3, ell=1, m=m, sigma=0.3,
                model_seed=100 + t, noise_seed=200 + t,
            )
            vals.append(gram_residuals(model.truth_gram(), model.sigma, data)["projected_gram_residual"])
        meds.append(float(np.median(vals)))
    assert meds[0] > meds[1] > meds[2]


# --- statistical behavior --------------------------------------------------------------


ESTIMATOR_PARTITIONS = [
    ("tls", dict(j=0, k=0)),
    ("ctls_columns", dict(j=0, k=1)),
    ("ctls_rows", dict(j=1, k=0)),
    ("ctls_rowcol", dict(j=1, k=1)),
    ("projection", dict(j=1, k=1)),
]


@pytest.mark.parametrize("estimator,part", ESTIMATOR_PARTITIONS)
@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.5])
def test_consistent_estimators_err_decreases(estimator, part, sigma):
    cfg = SweepConfig(
        n=3, ell=1, m_values=(100, 1000, 10_000), trials=30, sigma=sigma,
        estimators=(estimator,), base_seed=4242, **part,
    )
    trace = run_sweep(cfg)
    meds = [trace.median_err(estimator, m) for m in cfg.m_values]
    assert meds[0] > meds[1] > meds[2]


@pytest.mark.parametrize("noise", ["uniform", "rademacher"])
def test_consistency_is_distribution_free(noise):
    from ctls.model import NoiseKind

    cfg = SweepConfig(
        n=3, ell=1, j=1, k=1, m_values=(100, 2000), trials=20, sigma=0.2,
        estimators=("projection",), base_seed=1111, noise=NoiseKind(noise),
    )
    trace = run_sweep(cfg)
    assert trace.median_err("projection", 2000) < trace.median_err("projection", 100)


def test_naive_ls_error_does_not_vanish():
    cfg = SweepConfig(
        n=3, ell=1, j=0, k=0, m_values=(100, 10_000), trials=30, sigma=0.5,
        estimators=("naive_ls",), base_seed=4242,
    )
    trace = run_sweep(cfg)
    assert trace.median_err("naive_ls", 10_000) > 0.5 * trace.median_err(
        "naive_ls", 100
    )


# --- shared data factor ---------------------------------------------------------------


def _public_estimators():
    return {
        "naive_ls": naive_ls,
        "tls": lambda d: estimators.tls_solve(d.a, d.b),
        "ctls_columns": estimators.ctls_columns,
        "ctls_rows": estimators.ctls_rows,
        "ctls_rowcol": estimators.ctls_rowcol,
        "projection": estimators.projection_estimator,
    }


@pytest.mark.parametrize(
    "j,k,names",
    [
        (1, 1, ("naive_ls", "tls", "ctls_rowcol", "projection")),
        (0, 1, ("naive_ls", "tls", "ctls_columns", "ctls_rowcol", "projection")),
        (2, 0, ("tls", "ctls_rows", "ctls_rowcol", "projection")),
    ],
)
def test_sweep_errors_match_public_estimators_bit_for_bit(j, k, names):
    """Each record's err equals the public estimator re-run on the
    regenerated instance, although the sweep shares one factor per row set."""
    cfg = small_config(j=j, k=k, n=4, ell=2, m_values=(40, 700), trials=2,
                       estimators=names)
    public = _public_estimators()
    trace = run_sweep(cfg)
    for rec in trace.records:
        assert rec.status == "ok"
        inst = generate_model(cfg.partition_for(rec.m), cfg.sigma, rec.model_seed)
        data = observe(inst, rec.noise_seed)
        x_hat = public[rec.estimator](data).x_hat
        assert float(np.linalg.norm(x_hat - inst.x_true, "fro")) == rec.err


RESIDUAL_FIELDS = ("shifted_gram_residual", "projected_gram_residual",
                   "median_shifted_gram", "median_projected_gram")


@pytest.mark.parametrize("j,k,noise", [(2, 3, "gauss"), (1, 1, "uniform"), (2, 0, "rademacher")])
def test_sweep_trace_matches_row_path(monkeypatch, j, k, noise):
    """A sweep of fused instances gives the trace that generate_model +
    observe give in every field but the Gram residuals.  Those are
    differences of Gram entries of size |G| / m, and the fused pass sums G
    by chunks, so they agree to 1e-12 relative to that scale; relative to
    themselves they drift more as they shrink with m."""
    cfg = SweepConfig.from_dict(dict(
        n=4, ell=2, j=j, k=k, m_values=[20, 700, CHUNK_ROWS + 300], trials=2, sigma=0.2,
        estimators=[name for name in harness.ESTIMATORS
                    if estimators.accepts_partition(name, j, k, 4)],
        base_seed=31, design="iid", noise=noise,
    ))
    fused = run_sweep(cfg).to_json_dict()

    def row_path(partition, sigma, seeds, design, noise, all_rows, run):
        models = [generate_model(partition, sigma, model_seed, design) for model_seed, _ in seeds]
        datas = [observe(model, noise_seed, noise) for model, (_, noise_seed) in zip(models, seeds)]
        exact, r_noisy, r_all = (np.stack(x) for x in zip(
            *((data.exact_rows, data.r_noisy, data.r_all) for data in datas)))
        return (np.stack([model.x_true for model in models]),
                ObservedData.stacked(exact, partition, r_noisy, r_all),
                np.stack([model.truth_gram() for model in models]))

    monkeypatch.setattr(harness, "sample_stack", row_path)
    rows = run_sweep(cfg).to_json_dict()
    scale = max(
        np.max(np.abs(generate_model(cfg.partition_for(r["m"]), cfg.sigma,
                                     r["model_seed"]).truth_gram())) / r["m"]
        for r in rows["records"]
    )
    pairs = list(zip(fused["records"], rows["records"]))
    pairs += [(fused["aggregates"][e][m], rows["aggregates"][e][m])
              for e in rows["aggregates"] for m in rows["aggregates"][e]]
    assert len(fused["records"]) == len(rows["records"]) == 3 * 2 * len(cfg.estimators)
    residuals = 0
    for got, want in pairs:
        assert got.keys() == want.keys()
        for key in RESIDUAL_FIELDS:
            if want.get(key) is not None:
                assert abs(got[key] - want[key]) <= 1e-12 * scale, key
                residuals += 1
        assert ({key: v for key, v in got.items() if key not in RESIDUAL_FIELDS}
                == {key: v for key, v in want.items() if key not in RESIDUAL_FIELDS})
    assert residuals > 0
    assert fused["config"] == rows["config"]


def test_sweep_factors_each_row_set_once(monkeypatch):
    """A sweep factors the rows of each instance once: every row reaches one
    first TSQR level (``tall_r_chunks``, over a group of instances), the
    second levels take each instance's rows 0: and j: once each, and the
    ground truth is not factored; every other factor re-triangularises
    n + ell rows.  At m = 300 the rows are factored flat, at m = 6000 five
    instances run in groups of two, two and one."""
    trials, d = 5, 4
    rows_in, second, sampling = {}, {}, [None]
    real_r, real_chunks = linalg.tall_r, linalg.tall_r_chunks
    real_flat = linalg._flat_r
    tall_calls = []

    def counting_r(c):
        if np.shape(c)[0] > 10:
            tall_calls.append(np.shape(c))
        return real_r(c)

    def chunks(chunk_of, rows, cols, j, *args):
        def counted(lo, hi):
            sampling[0] = rows
            c = chunk_of(lo, hi)
            rows_in[rows] = rows_in.get(rows, 0) + c.size // cols
            return c

        return real_chunks(counted, rows, cols, j, *args)

    def flat(a):
        if a.shape[-2] > d:  # first levels, not a re-triangularisation
            slices = a.size // (a.shape[-2] * a.shape[-1])
            second[sampling[0]] = second.get(sampling[0], 0) + slices
        return real_flat(a)

    for module in (linalg, model_mod, estimators, harness):
        if hasattr(module, "tall_r"):
            monkeypatch.setattr(module, "tall_r", counting_r)
        if hasattr(module, "tall_r_chunks"):
            monkeypatch.setattr(module, "tall_r_chunks", chunks)
    monkeypatch.setattr(linalg, "_flat_r", flat)
    set_cpus(monkeypatch, 1)
    cfg = small_config(m_values=(300, 1000, 6000), trials=trials,
                       estimators=("naive_ls", "tls", "ctls_rowcol", "projection"))
    assert [r.status for r in run_sweep(cfg).records] == ["ok"] * 4 * 3 * trials
    assert tall_calls == []
    assert rows_in == {m: trials * m for m in cfg.m_values}
    assert second == {m: 2 * trials for m in cfg.m_values}


@pytest.mark.parametrize("j,k", [(0, 0), (0, 2), (2, 0), (1, 1), (2, 3)])
@pytest.mark.parametrize("m", [300, 600])
def test_stages_shared_on_an_instance_do_not_depend_on_order(j, k, m):
    """The estimators and gram_residuals share the stages cached on one
    instance; run in either order, every result is bit-identical to a run
    on a fresh instance."""
    def instance():
        return make_instance(j=j, k=k, n=4, ell=2, m=m, model_seed=m + j, noise_seed=k)

    model, _ = instance()
    runs = dict(harness.ESTIMATORS)
    for rule in estimators.MU_RULES:
        runs[f"projection_{rule}"] = partial(estimators.projection_estimator, mu_rule=rule)
    runs["gram_residuals"] = partial(gram_residuals, model.truth_gram(), model.sigma)
    fresh = {name: fingerprint(fn, instance()[1]) for name, fn in runs.items()}
    for order in (list(runs), list(reversed(runs))):
        data = instance()[1]
        assert {name: fingerprint(runs[name], data) for name in order} == fresh


def test_readme_instance_runs_each_small_decomposition_once(monkeypatch):
    """One README-config instance (generation, both estimators and the
    residuals) makes at most 9 SVDs, 5 QRs and 2 symmetric eigensolves,
    and eliminates its exact corner once."""
    calls = {"svd": 0, "qr": 0, "eigh": 0, "precondition_rowcol": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    for name in ("svd", "qr", "eigh"):
        counting(np.linalg, name)
    counting(estimators, "precondition_rowcol")
    trace = run_sweep(small_config(m_values=(1000,), trials=1,
                                   estimators=("projection", "ctls_rowcol")))
    assert [r.status for r in trace.records] == ["ok", "ok"]
    assert calls["svd"] <= 9 and calls["qr"] <= 5 and calls["eigh"] <= 2, calls
    assert calls["precondition_rowcol"] == 1


def test_exact_rows_without_columns_take_each_null_space_once(monkeypatch):
    """A (j = 2, k = 0) instance (generation, ctls_rows, projection and the
    residuals) makes at most 8 SVDs: gram_residuals reads the null-space
    basis of the exact rows that ctls_rows has taken."""
    calls = {"svd": 0}
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls["svd"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    trace = run_sweep(small_config(n=4, ell=2, j=2, k=0, m_values=(1000,), trials=1,
                                   estimators=("ctls_rows", "projection")))
    assert [r.status for r in trace.records] == ["ok", "ok"]
    assert trace.records[1].shifted_gram_residual is not None
    assert calls["svd"] <= 8, calls


def test_lapack_failure_is_a_counted_trial(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", broken)
    trace = run_sweep(small_config(j=0, k=0, trials=2, estimators=("tls", "naive_ls")))
    assert [r.status for r in trace.records] == ["LapackError"] * 8
    assert trace.max_failure_rate() == 1.0


def test_gram_residual_failure_is_a_counted_trial(monkeypatch):
    def broken(gram_bar, sigma, data):
        raise LapackError("eigensolver did not converge")

    monkeypatch.setattr(harness, "_gram_residuals", broken)  # inside the stacked call
    trace = run_sweep(small_config(trials=2, estimators=("tls", "projection")))
    for rec in trace.records:
        if rec.estimator == "tls":
            assert rec.status == "ok"
        else:
            assert rec.status == "LapackError" and rec.err is None
