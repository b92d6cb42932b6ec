"""The benchmark's tracer wraps functions by name; those names must exist.

``perfbench/tracing.py`` lists the public functions of each layer in
``LAYERS`` and rebinds them (and every other ``ctls`` module global bound to
the same object) while a traced op runs.  A deleted or renamed function
would only surface when ``perfbench/run.py --trace 1`` is run.
"""

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

import ctls.cli  # noqa: E402
import ctls.estimators  # noqa: E402
import ctls.harness as harness  # noqa: E402
import ctls.linalg  # noqa: E402
from ctls.estimators import EstimateResult  # noqa: E402
from ctls.fileio import read_matrix, write_matrix  # noqa: E402
from ctls.harness import SweepConfig, run_sweep  # noqa: E402


@pytest.mark.parametrize(
    "layer,qual",
    [(layer, qual) for layer, fns in tracing.LAYERS.items() for qual in fns],
)
def test_traced_name_resolves_in_its_module(layer, qual):
    owner = importlib.import_module(f"ctls.{layer}")
    for part in qual.split("."):
        owner = vars(owner)[part]
    assert callable(owner)


def test_estimators_share_the_linalg_binding():
    assert ctls.estimators.sym_eigen is ctls.linalg.sym_eigen


def test_sweep_runs_estimators_through_rebound_names(monkeypatch):
    """The tracer's rebinding of a harness global must reach run_sweep."""
    seen = []
    for name, fn in harness.ESTIMATORS.items():
        def counted(data, fn=fn, name=name):
            seen.append(name)
            return fn(data)

        monkeypatch.setattr(harness, fn.__name__, counted)
    config = SweepConfig(n=3, ell=1, j=1, k=1, m_values=(30,), trials=1,
                         sigma=0.1, estimators=("naive_ls", "tls", "ctls_rowcol",
                                                "projection"), base_seed=5)
    run_sweep(config)
    assert seen == ["naive_ls", "tls", "ctls_rowcol", "projection"]


@pytest.mark.parametrize("method, j, k, name", [
    ("tls", 0, 0, "tls_solve"), ("ctls-cols", 0, 1, "ctls_columns"),
    ("ctls-rows", 1, 0, "ctls_rows"), ("ctls-rowcol", 1, 1, "ctls_rowcol"),
    ("projection", 1, 1, "projection_estimator"),
])
def test_estimate_runs_each_method_through_its_rebound_name(tmp_path, capsys, method, j, k, name):
    """``perfbench/selftest.py`` rebinds all five estimators at once to plain
    wrappers (no ``functools.wraps``) that shift the one result they return.
    ``ctls estimate`` must call its method by that name, get one result, and
    write the shifted estimate."""
    seen = []

    def shifting(name, original):
        def shifted(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.append((name, result))
            return dataclasses.replace(result, x_hat=result.x_hat + 1.0)
        return shifted

    names = ("tls_solve", "ctls_columns", "ctls_rows", "ctls_rowcol", "projection_estimator")
    patches = tracing.rebind_everywhere(
        {id(getattr(ctls.estimators, n)): shifting(n, getattr(ctls.estimators, n)) for n in names}
    )
    g = np.random.default_rng(4)
    paths = [str(tmp_path / f"{x}.csv") for x in ("a", "b", "x")]
    write_matrix(paths[0], g.standard_normal((40, 3)))
    write_matrix(paths[1], g.standard_normal((40, 1)))
    try:
        code = ctls.cli.main(["estimate", "--a", paths[0], "--b", paths[1], "--j", str(j),
                              "--k", str(k), "--method", method, "--out", paths[2]])
    finally:
        tracing.restore(patches)
    capsys.readouterr()
    assert code == 0
    assert [n for n, _ in seen] == [name]
    assert isinstance(seen[0][1], EstimateResult)
    np.testing.assert_array_equal(read_matrix(paths[2]), seen[0][1].x_hat + 1.0)
