import os
import signal
import threading

import numpy as np
import pytest

from ctls.errors import CtlsError
from ctls.model import DesignKind, NoiseKind, PartitionSpec, generate_model, observe


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def make_instance(
    j=0,
    k=0,
    n=3,
    ell=1,
    m=40,
    sigma=0.1,
    model_seed=1,
    noise_seed=2,
    design=DesignKind.IID_ROWS,
    noise=NoiseKind.GAUSS,
):
    """Seeded (model, data) pair used across the estimator tests."""
    partition = PartitionSpec(j=j, k=k, n=n, ell=ell, m=m)
    model = generate_model(partition, sigma, model_seed, design)
    data = observe(model, noise_seed, noise)
    return model, data


def fingerprint(fn, data):
    """``fn(data)`` with its arrays as bytes and its other values by repr,
    or the name of the CtlsError it raised."""
    try:
        result = fn(data)
    except CtlsError as exc:
        return type(exc).__name__
    if isinstance(result, dict):
        return repr(result)
    values = {**vars(result), **vars(result.diagnostics)}
    return {key: v.tobytes() if isinstance(v, np.ndarray) else repr(v)
            for key, v in values.items() if key != "diagnostics"}


def seeded_symmetric(seed: int, dim: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    a = g.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


def set_cpus(monkeypatch, count, pins=None):
    """Report ``count`` available CPUs through the affinity mask, and append
    the CPUs a (forked) process pins itself to as ``"pid cpus"`` lines to the
    file ``pins``, where given.  A thread reads back the CPUs it last pinned
    itself to, as under Linux."""
    masks = {}

    def pin(pid, cpus):
        masks[os.getpid(), threading.get_ident()] = set(cpus)
        if pins is not None:
            with open(pins, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {sorted(cpus)}\n")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(
        masks.get((os.getpid(), threading.get_ident()), range(count))))
    monkeypatch.setattr(os, "sched_setaffinity", pin)


def read_pins(pins):
    """From a ``set_cpus`` pins file: the CPUs this process pinned itself
    to, in order, and the last CPUs each other process pinned itself to."""
    mine, others = [], {}
    for line in pins.read_text().splitlines():
        pid, cpus = line.split(" ", 1)
        if pid == str(os.getpid()):
            mine.append(cpus)
        else:
            others[pid] = cpus
    return mine, others


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children ``os.fork`` starts during the test, which
    fails with TimeoutError in the parent if it runs for a minute."""
    real, pids = os.fork, []

    def counting():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    def expire(signum, frame):
        raise TimeoutError("the pool did not end within 60 s")

    monkeypatch.setattr(os, "fork", counting)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
