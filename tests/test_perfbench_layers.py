"""The benchmark's tracer wraps functions by name; those names must exist.

``perfbench/tracing.py`` lists the public functions of each layer in
``LAYERS`` and rebinds them (and every other ``ctls`` module global bound to
the same object) while a traced op runs.  A deleted or renamed function
would only surface when ``perfbench/run.py --trace 1`` is run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

import ctls.estimators  # noqa: E402
import ctls.harness as harness  # noqa: E402
import ctls.linalg  # noqa: E402
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
