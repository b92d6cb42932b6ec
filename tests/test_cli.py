"""CLI surface: flag grammar, exit codes, file formats, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ctls.cli as cli
from ctls import fileio
from ctls.errors import MatrixFileError
from ctls.fileio import read_matrix, read_matrix_csv, write_matrix
from ctls.harness import ConvergenceTrace
from ctls.linalg import CHUNK_ROWS


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


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_simulate_rejects_non_finite_sigma(tmp_path, capsys, sigma):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "3", "--ell", "1", "--m", "50",
        "--sigma", sigma, "--seed", "1", "--out-dir", str(tmp_path / "inst"),
    )
    assert code == 1
    assert "sigma must be finite" in err
    assert not (tmp_path / "inst").exists()


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


@pytest.mark.parametrize("cov, expect", [(np.eye(2), "RankDeficientFixedColumns"),
                                         (-np.eye(2), "NotPositiveDefiniteError")],
                         ids=["estimator", "cov-indefinite"])
def test_estimate_whitened_errors_exit_2(tmp_path, capsys, cov, expect):
    """An estimator error on the whitened stack, and a covariance that is
    not positive definite, exit 2 and name the error."""
    g = np.random.default_rng(9)
    a = g.standard_normal((20, 3))
    a[:, 1] = a[:, 0]
    paths = {name: tmp_path / f"{name}.csv" for name in ("a", "b", "cov")}
    for name, matrix in zip(paths, (a, g.standard_normal((20, 1)), cov)):
        write_matrix(str(paths[name]), matrix, "csv")
    code, _, err = run_cli(
        capsys, "estimate", "--a", str(paths["a"]), "--b", str(paths["b"]),
        "--j", "0", "--k", "2", "--method", "ctls-cols", "--sigma-cov", str(paths["cov"]),
    )
    assert code == 2
    assert err.startswith("error: ") and expect in err


@pytest.mark.parametrize("method, j, k", [("tls", 1, 1), ("ctls-cols", 0, 1), ("ctls-rows", 1, 0),
                                          ("ctls-rowcol", 1, 1), ("projection", 1, 1)])
def test_estimate_identity_sigma_cov_changes_no_byte(tmp_path, capsys, method, j, k):
    """Every method run on the stack whitened by an identity covariance
    prints what it prints on the instance itself."""
    g = np.random.default_rng(11)
    paths = {name: tmp_path / f"{name}.csv" for name in ("a", "b", "cov")}
    for name, matrix in zip(paths, (g.standard_normal((40, 3)), g.standard_normal((40, 1)),
                                    np.eye(4 - k))):
        write_matrix(str(paths[name]), matrix, "csv")
    base = ["estimate", "--a", str(paths["a"]), "--b", str(paths["b"]),
            "--j", str(j), "--k", str(k), "--method", method]
    code1, out1, _ = run_cli(capsys, *base)
    code2, out2, _ = run_cli(capsys, *base, "--sigma-cov", str(paths["cov"]))
    assert code1 == code2 == 0
    assert out1 == out2


def test_estimate_rowcol_without_exact_blocks_needs_more_rows_than_columns(
    tmp_path, capsys
):
    g = np.random.default_rng(10)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix(str(a_path), g.standard_normal((3, 2)), "csv")
    write_matrix(str(b_path), g.standard_normal((3, 1)), "csv")
    code, _, err = run_cli(
        capsys, "estimate", "--a", str(a_path), "--b", str(b_path),
        "--j", "0", "--k", "0", "--method", "ctls-rowcol",
    )
    assert code == 2
    assert "InvalidPartitionError" in err


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


@pytest.mark.parametrize(
    "payload,expect",
    [
        (sweep_config_dict(trials=1.5), "trials must be an integer"),
        (sweep_config_dict(trials=True), "trials must be an integer"),
        (sweep_config_dict(n="3"), "n must be an integer"),
        (sweep_config_dict(ell=1.0), "ell must be an integer"),
        (sweep_config_dict(base_seed="99"), "base_seed must be an integer"),
        (sweep_config_dict(m_values=[30, 100.7]), "m_values entry must be an integer"),
        (sweep_config_dict(m_values="30"), "m_values must be a list"),
        (sweep_config_dict(sigma="0.1"), "sigma must be a finite number"),
        (sweep_config_dict(sigma=float("nan")), "sigma must be a finite number"),
        (sweep_config_dict(sigma=float("inf")), "sigma must be a finite number"),
        (sweep_config_dict(sigma=False), "sigma must be a finite number"),
        (sweep_config_dict(estimators="projection"), "estimators must be a list"),
        (7, "config must be a JSON object"),
    ],
    ids=[
        "trials-float", "trials-bool", "n-str", "ell-float", "seed-str",
        "m-float", "m-values-str", "sigma-str", "sigma-nan", "sigma-inf",
        "sigma-bool", "estimators-str", "top-level-number",
    ],
)
def test_sweep_config_types_exit_1(tmp_path, capsys, payload, expect):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    code, _, err = run_cli(
        capsys, "sweep", "--config", str(cfg_path),
        "--out-trace", str(tmp_path / "t.json"),
    )
    assert code == 1
    assert expect in err
    assert not (tmp_path / "t.json").exists()


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


# --- real processes ------------------------------------------------------------------

ESTIMATE_RUNS = (
    ("tls", 0, 0), ("ctls-cols", 0, 2), ("ctls-rows", 2, 0),
    ("ctls-rowcol", 2, 2), ("projection", 2, 2),
)
MASK = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@pytest.mark.skipif(len(MASK) < 2, reason="needs an affinity mask of two or more CPUs")
def test_outputs_equal_on_one_cpu_and_on_all(tmp_path):
    """``ctls estimate`` (all five methods, on an A file that splits into
    spans, and once on a B malformed in its second half) and a small
    ``ctls sweep`` (with a cell of two chunks, which samples on two CPUs
    where it can) with three trials, on the pool, and with one, in one
    process, each run as a real process pinned to one CPU before exec and
    with the whole mask, write byte-identical exit codes, stdout, stderr, X
    files, traces and CSVs."""
    g = np.random.default_rng(11)
    rows = 2 * fileio.MIN_SPAN_BYTES // (8 * 20)
    a = g.standard_normal((rows, 8))
    b = a[:, :2] @ g.standard_normal((2, 2)) + 0.1 * g.standard_normal((rows, 2))
    write_matrix(str(tmp_path / "A.csv"), a)
    write_matrix(str(tmp_path / "B.csv"), b)
    lines = fileio.format_csv(b).splitlines(keepends=True)
    lines[3 * rows // 4] = "0.5,oops\n"
    (tmp_path / "Bbad.csv").write_text("".join(lines))
    assert (tmp_path / "A.csv").stat().st_size >= 2 * fileio.MIN_SPAN_BYTES
    (tmp_path / "cfg.json").write_text(json.dumps(sweep_config_dict(
        m_values=[30, 60, 2 * CHUNK_ROWS + 5], estimators=["projection", "ctls_rowcol"])))
    (tmp_path / "one.json").write_text(json.dumps(sweep_config_dict(
        m_values=[30, 60, 2 * CHUNK_ROWS + 5], trials=1, estimators=["projection", "ctls_rowcol"])))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def outputs(cpus: set, tag: str) -> list:
        workdir = tmp_path / tag
        workdir.mkdir()
        commands = [["estimate", "--a", "../A.csv", "--b", "../B.csv", "--j", str(j),
                     "--k", str(k), "--method", method, "--out", f"{method}.csv"]
                    for method, j, k in ESTIMATE_RUNS]
        commands += [["sweep", "--config", f"../{cfg}.json",
                      "--out-trace", f"{cfg}.trace.json", "--csv", f"{cfg}.trace.csv"]
                     for cfg in ("cfg", "one")]
        commands.append(["estimate", "--a", "../A.csv", "--b", "../Bbad.csv", "--method", "tls"])
        runs = [subprocess.run([sys.executable, "-m", "ctls.cli", *argv], cwd=workdir,
                               env=env, capture_output=True, timeout=300,
                               preexec_fn=lambda: os.sched_setaffinity(0, cpus))
                for argv in commands]
        files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
        return [(run.returncode, run.stdout, run.stderr) for run in runs] + [files]

    one, everything = outputs({MASK[0]}, "one"), outputs(set(MASK), "all")
    assert all(code == 0 for code, _, _ in one[:-2])
    assert one[-2][0] == 1
    bad_line = 3 * rows // 4 + 1
    assert one[-2][2] == f"error: ../Bbad.csv:{bad_line}:2: not a number: 'oops'\n".encode()
    assert len(one[-1]) == len(ESTIMATE_RUNS) + 4
    assert one == everything


def test_outputs_equal_under_one_and_two_blas_threads(tmp_path):
    """A small ``ctls sweep`` (with a cell of three chunks) and ``ctls
    estimate`` (tls, ctls-rowcol and projection on 20000-row A and B of 10
    columns in all) write byte-identical outputs under
    ``OPENBLAS_NUM_THREADS=1`` and ``=2``, as the README states for numpy's
    bundled OpenBLAS."""
    g = np.random.default_rng(12)
    a = g.standard_normal((20000, 8))
    b = a[:, :2] @ g.standard_normal((2, 2)) + 0.1 * g.standard_normal((20000, 2))
    write_matrix(str(tmp_path / "A.csv"), a)
    write_matrix(str(tmp_path / "B.csv"), b)
    (tmp_path / "cfg.json").write_text(json.dumps(sweep_config_dict(
        m_values=[100, 1000, 10000, 2 * CHUNK_ROWS + 5], trials=5)))
    commands = [["estimate", "--a", "../A.csv", "--b", "../B.csv", "--j", "2", "--k", "2",
                 "--method", method, "--out", f"{method}.csv"]
                for method in ("tls", "ctls-rowcol", "projection")]
    commands.append(["sweep", "--config", "../cfg.json",
                     "--out-trace", "trace.json", "--csv", "trace.csv"])

    def outputs(threads: str) -> list:
        workdir = tmp_path / threads
        workdir.mkdir()
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")}
        env.update(PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
                   OPENBLAS_NUM_THREADS=threads)
        runs = [subprocess.run([sys.executable, "-m", "ctls.cli", *argv], cwd=workdir,
                               env=env, capture_output=True, timeout=300)
                for argv in commands]
        files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
        return [(run.returncode, run.stdout, run.stderr) for run in runs] + [files]

    one, two = outputs("1"), outputs("2")
    assert all(code == 0 for code, _, _ in one[:-1])
    assert len(one[-1]) == 5
    assert one == two
