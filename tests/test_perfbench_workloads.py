"""The benchmark's workloads, end to end at tiny sizes.

Each case runs ``prepare -> ctls.cli.main -> finish -> check`` from
``perfbench/workloads.py``, so the benchmark's own output checks (the
bit-exact recompute of every sweep error from the public estimators, the
numpy SVD reference for TLS and the oracle's objective checks) run with the
tests instead of only during a benchmark run.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

import ctls.cli  # noqa: E402


@pytest.mark.parametrize(
    "name,overrides",
    [
        ("sweep-readme", dict(m_values=[100, 300])),
        ("sweep-wide", dict(m_values=[300, 600])),
        ("estimate-csv", dict(m=600)),
        # 65 full blocks: the O(m) pass spans two chunks of 64 blocks.
        ("sweep-wide", dict(m_values=[300, 16641])),
        ("estimate-csv", dict(m=16641)),
    ],
)
def test_workload_ops_pass_their_checks(tmp_path, name, overrides):
    workload = workloads.make(name, **overrides)
    for index in range(workload.checked_ops):
        op = workload.prepare(index, 17, str(tmp_path))
        out = io.StringIO()
        with redirect_stdout(out):
            rc = ctls.cli.main(op.argv)
        outcome, digest = workload.finish(op, rc, out.getvalue())
        assert rc == 0 and outcome.ok, outcome.problems
        assert digest
        assert workload.check(op) == []
