"""CLI surface: flag grammar, exit codes, file formats, reproducibility."""

import json

import numpy as np
import pytest

import ctls.cli as cli
from ctls.errors import MatrixFileError
from ctls.fileio import read_matrix, read_matrix_csv, write_matrix
from ctls.harness import ConvergenceTrace


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- matrix files ----------------------------------------------------------------


def test_csv_roundtrip_exact(tmp_path):
    g = np.random.default_rng(1)
    mat = g.standard_normal((7, 3)) * 1e3
    path = tmp_path / "m.csv"
    write_matrix(str(path), mat, "csv")
    again = read_matrix(str(path))
    assert np.array_equal(mat, again)


def test_mtxjson_roundtrip_exact(tmp_path):
    g = np.random.default_rng(2)
    mat = g.standard_normal((4, 5))
    path = tmp_path / "m.json"
    write_matrix(str(path), mat, "mtxjson")
    again = read_matrix(str(path))
    assert np.array_equal(mat, again)


def test_csv_parse_error_carries_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(MatrixFileError) as exc:
        read_matrix_csv(str(path))
    assert f"{path}:2:2" in str(exc.value)


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(MatrixFileError):
        read_matrix_csv(str(path))


def test_mtxjson_shape_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]}))
    with pytest.raises(MatrixFileError):
        read_matrix(str(path))


# --- simulate -----------------------------------------------------------------------


def test_simulate_writes_instance_and_is_reproducible(tmp_path, capsys):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    args = [
        "simulate", "--n", "3", "--ell", "1", "--j", "1", "--k", "1",
        "--m", "50", "--sigma", "0.2", "--seed", "11",
        "--design", "iid", "--noise", "gauss",
    ]
    code1, _, _ = run_cli(capsys, *args, "--out-dir", str(out1))
    code2, _, _ = run_cli(capsys, *args, "--out-dir", str(out2))
    assert code1 == 0 and code2 == 0
    for name in ("A.csv", "B.csv", "X_true.csv", "model.json"):
        assert (out1 / name).read_text() == (out2 / name).read_text()
    meta = json.loads((out1 / "model.json").read_text())
    assert meta == {
        "n": 3, "ell": 1, "j": 1, "k": 1, "m": 50,
        "sigma": 0.2, "seed": 11, "design": "iid", "noise": "gauss",
    }


def test_simulate_rejects_bad_partition(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "3", "--ell", "1", "--j", "5", "--k", "0",
        "--m", "50", "--sigma", "0.1", "--seed", "1", "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "error" in err


def test_simulate_noise_is_uncorrelated_with_design(tmp_path, capsys):
    """With every column of A exact, A is the design and B - A @ X_true the
    noise.  Drawing both from one seed made the noise the design's normal
    stream shifted by n * ell entries (correlation 1.0 at that offset)."""
    out = tmp_path / "inst"
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "3", "--ell", "1", "--j", "0", "--k", "3",
        "--m", "500", "--sigma", "1.0", "--seed", "11", "--out-dir", str(out),
    )
    assert code == 0
    a_bar = read_matrix(str(out / "A.csv"))
    noise = (read_matrix(str(out / "B.csv")) - a_bar @ read_matrix(str(out / "X_true.csv")))
    design, noise = a_bar.ravel(), noise.ravel()
    length = noise.size - 8
    for offset in range(9):
        for x, y in ((noise[offset:], design), (noise, design[offset:])):
            corr = np.corrcoef(x[:length], y[:length])[0, 1]
            # Independent draws: |corr| ~ N(0, 1/sqrt(492)), about 0.045.
            assert abs(corr) < 0.25, (offset, corr)


# --- estimate -----------------------------------------------------------------------


def simulate_exact(tmp_path, capsys, j=1, k=1, seed=3):
    out = tmp_path / "inst"
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "3", "--ell", "1", "--j", str(j), "--k", str(k),
        "--m", "60", "--sigma", "0.0", "--seed", str(seed), "--out-dir", str(out),
    )
    assert code == 0
    return out


def test_estimate_recovers_exact_fixture(tmp_path, capsys):
    inst = simulate_exact(tmp_path, capsys)
    out_file = tmp_path / "xhat.csv"
    code, out, _ = run_cli(
        capsys, "estimate", "--a", str(inst / "A.csv"), "--b", str(inst / "B.csv"),
        "--j", "1", "--k", "1", "--method", "ctls-rowcol", "--out", str(out_file),
    )
    assert code == 0
    x_hat = read_matrix(str(out_file))
    x_true = read_matrix(str(inst / "X_true.csv"))
    assert np.max(np.abs(x_hat - x_true)) <= 1e-8
    assert "sigma2_hat" in out


@pytest.mark.parametrize("method", ["tls", "projection", "ctls-rowcol"])
def test_estimate_methods_run_unconstrained(tmp_path, capsys, method):
    inst = simulate_exact(tmp_path, capsys, j=0, k=0, seed=4)
    code, out, _ = run_cli(
        capsys, "estimate", "--a", str(inst / "A.csv"), "--b", str(inst / "B.csv"),
        "--method", method,
    )
    assert code == 0
    assert "smallest_eigs" in out


def test_estimate_degenerate_rowcol_equals_tls(tmp_path, capsys):
    inst = simulate_exact(tmp_path, capsys, j=0, k=0, seed=5)
    base = ["estimate", "--a", str(inst / "A.csv"), "--b", str(inst / "B.csv"),
            "--j", "0", "--k", "0"]
    code1, out1, _ = run_cli(capsys, *base, "--method", "tls")
    code2, out2, _ = run_cli(capsys, *base, "--method", "ctls-rowcol")
    assert code1 == code2 == 0
    assert out1 == out2


def test_estimate_whitening_flag(tmp_path, capsys):
    inst = simulate_exact(tmp_path, capsys, j=0, k=1, seed=6)
    cov = tmp_path / "cov.csv"
    write_matrix(str(cov), np.eye(3), "csv")
    base = ["estimate", "--a", str(inst / "A.csv"), "--b", str(inst / "B.csv"),
            "--j", "0", "--k", "1", "--method", "ctls-cols"]
    code1, out1, _ = run_cli(capsys, *base)
    code2, out2, _ = run_cli(capsys, *base, "--sigma-cov", str(cov))
    assert code1 == code2 == 0
    x1 = out1.splitlines()[:3]
    x2 = out2.splitlines()[:3]
    for a_line, b_line in zip(x1, x2):
        assert abs(float(a_line) - float(b_line)) <= 1e-10


def test_estimate_malformed_csv_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,nope\n")
    good = tmp_path / "b.csv"
    write_matrix(str(good), np.ones((1, 1)), "csv")
    code, _, err = run_cli(
        capsys, "estimate", "--a", str(bad), "--b", str(good), "--method", "tls"
    )
    assert code == 1
    assert ":1:2" in err


@pytest.mark.parametrize(
    "flag, make, expect",
    [
        ("--sigma-cov", None, "nope.csv"),
        ("--sigma-cov", lambda p: p.mkdir(), "nope.csv"),
        ("--sigma-cov", lambda p: write_matrix(str(p), np.eye(2), "csv"), "sigma_cov must be 4x4"),
        ("--b", lambda p: write_matrix(str(p), np.ones((19, 1)), "csv"), "same number of rows"),
    ],
    ids=["cov-missing", "cov-directory", "cov-wrong-shape", "b-rows-mismatch"],
)
def test_estimate_bad_input_file_exits_1(tmp_path, capsys, flag, make, expect):
    g = np.random.default_rng(10)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix(str(a_path), g.standard_normal((20, 3)), "csv")
    write_matrix(str(b_path), g.standard_normal((20, 1)), "csv")
    bad = tmp_path / "nope.csv"
    if make is not None:
        make(bad)
    argv = {"--a": str(a_path), "--b": str(b_path), flag: str(bad)}
    code, _, err = run_cli(
        capsys, "estimate", *[x for kv in argv.items() for x in kv], "--method", "tls"
    )
    assert code == 1
    assert err.startswith("error: ") and expect in err


def test_estimate_estimator_error_exits_2(tmp_path, capsys):
    # duplicated fixed columns: rank-deficient, named error on stderr
    g = np.random.default_rng(9)
    a = g.standard_normal((20, 3))
    a[:, 1] = a[:, 0]
    b = g.standard_normal((20, 1))
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix(str(a_path), a, "csv")
    write_matrix(str(b_path), b, "csv")
    code, _, err = run_cli(
        capsys, "estimate", "--a", str(a_path), "--b", str(b_path),
        "--j", "0", "--k", "2", "--method", "ctls-cols",
    )
    assert code == 2
    assert "RankDeficientFixedColumns" in err


def test_unknown_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "estimate", "--nope")
    assert code == 1
    assert "error" in err


# --- sweep ---------------------------------------------------------------------------


def sweep_config_dict(**overrides):
    cfg = {
        "n": 3, "ell": 1, "j": 1, "k": 1,
        "m_values": [30, 60], "trials": 3, "sigma": 0.1,
        "estimators": ["projection"], "base_seed": 99,
    }
    cfg.update(overrides)
    return cfg


def test_sweep_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(sweep_config_dict()))
    trace_path = tmp_path / "trace.json"
    csv_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--config", str(cfg_path),
        "--out-trace", str(trace_path), "--csv", str(csv_path),
    )
    assert code == 0
    assert out.splitlines()[0].startswith("estimator m median_err")
    payload = json.loads(trace_path.read_text())
    assert payload["config"]["base_seed"] == 99
    assert len(payload["records"]) == 6
    header = csv_path.read_text().splitlines()[0]
    assert header == "estimator,m,trial,err,sigma2_hat,mu_over_m,shifted_gram_residual,projected_gram_residual,status"


def test_sweep_rejects_empty_m_values(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(sweep_config_dict(m_values=[])))
    code, _, err = run_cli(
        capsys, "sweep", "--config", str(cfg_path),
        "--out-trace", str(tmp_path / "t.json"),
    )
    assert code == 1
    assert "m_values" in err


def test_sweep_failure_rate_exits_3(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(sweep_config_dict()))

    def doctored(config):
        trace = ConvergenceTrace(config=config, records=[], aggregates={})
        trace.aggregates = {"projection": {30: {"n_trials": 10.0, "n_failed": 1.0,
                                                "median_err": 0.1,
                                                "median_sigma2_hat": 0.01}}}
        return trace

    monkeypatch.setattr(cli, "run_sweep", doctored)
    code, _, err = run_cli(
        capsys, "sweep", "--config", str(cfg_path),
        "--out-trace", str(tmp_path / "t.json"),
    )
    assert code == 3
    assert "failure rate" in err
