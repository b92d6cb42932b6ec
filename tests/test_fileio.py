"""Matrix file readers: the vectorised CSV path against the per-token scanner,
serially and split into spans on forked workers, round trips, and malformed
input ending in MatrixFileError."""

import json
import os
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctls import cli, fileio, harness
from ctls.errors import MatrixFileError
from ctls.fileio import read_matrix, read_matrix_csv, write_matrix

from conftest import assert_reaped, read_pins, set_cpus

# --- CSV: vectorised reader vs scanner ---------------------------------------------

CSV_CORPUS = {
    "blank_first_line": b"\n1,2\n",
    "whitespace_only_line": b"1,2\n  \n3,4\n",
    "whitespace_only_file": b" \t\n",
    "blank_line_in_middle": b"1,2\n\n3,4\n",
    "blank_lines_at_end": b"1,2\n3,4\n\n\n",
    "lf": b"1,2\n3,4\n",
    "crlf": b"1,2\r\n3,4\r\n",
    "cr_only": b"1,2\r3,4\r",
    "mixed_endings": b"1,2\r\n3,4\r5,6\n",
    "no_final_newline": b"1,2\n3,4",
    "spaces_and_tabs": b" 1 ,\t2\t\n3 , 4 \n",
    "form_feed_around_token": b"1\x0c,2\n3,\x0b4\n",
    "form_feed_inside_token": b"1\x0c2,3\n",
    "line_separator_around_token": "1 ,2\n3,4\n".encode(),
    "nan": b"1,nan\n",
    "inf": b"inf,1\n",
    "infinity": b"1,-Infinity\n",
    "overflow": b"1,2\n3,1e999\n",
    "trailing_comma": b"1,2,\n",
    "empty_token": b"1,,2\n",
    "ragged_short": b"1,2\n3\n",
    "ragged_long": b"1,2\n3,4,5\n",
    "hash_in_field": b"1#2,3\n",
    "hex": b"0x10,1\n",
    "quoted_field": b'"1",2\n',
    "bom": "﻿1,2\n".encode(),
    "underscore_digits": b"1_0,2\n3,4_5.5\n",
    "unicode_digits": "١٢,3\n４.5,6\n".encode(),
    "space_inside_token": b"1 2,3\n",
    "error_on_last_line": b"1,2\n" * 50 + b"3,oops\n",
    "empty_file": b"",
    "only_newline": b"\n",
    "single_value": b"5\n",
    "single_row": b"1,-2,3.5e-3\n",
    "single_column": b"1\n2\n3\n",
    "exponents_and_signs": b"+1e3,-.5\n1.,-0\n",
}


@pytest.fixture(params=[1, 3], ids=["1cpu", "3cpus"])
def cpus(request, monkeypatch):
    """A faked affinity mask of 1 or 3 CPUs, with spans of any size, so that
    with 3 CPUs every file of more than one line is split."""
    set_cpus(monkeypatch, request.param)
    monkeypatch.setattr(fileio, "MIN_SPAN_BYTES", 1)
    return request.param


def scanner_reference(path: Path) -> np.ndarray:
    """The reader as it was: the file's own line iteration, then the scanner."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [raw.rstrip("\r\n") for raw in fh]
    return fileio._scan_csv(lines, str(path))


def outcome(read, path):
    try:
        return read(path)
    except MatrixFileError as exc:
        return exc


def assert_reader_matches_scanner(path: Path):
    """Equal values bit for bit, or equal error type and message."""
    got = outcome(read_matrix_csv, str(path))
    want = outcome(scanner_reference, path)
    if isinstance(want, MatrixFileError):
        assert type(got) is type(want)
        assert str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CSV_CORPUS))
def test_csv_reader_matches_scanner(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(CSV_CORPUS[name])
    assert_reader_matches_scanner(path)


@pytest.mark.parametrize("cpus", [3], indirect=True)
@pytest.mark.parametrize("name", sorted(CSV_CORPUS))
def test_split_reader_matches_scanner(tmp_path, cpus, name):
    """The corpus again, with every file of two or more lines split."""
    path = tmp_path / f"{name}.csv"
    path.write_bytes(CSV_CORPUS[name])
    assert_reader_matches_scanner(path)


float_token = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["%r", "%.3e", "%.25f", "%.40g", " %+.17g\t"]),
).map(lambda pair: pair[1] % pair[0])
csv_rows = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(float_token, min_size=cols, max_size=cols), min_size=1, max_size=5
    )
)


@settings(max_examples=60, deadline=None)
@given(csv_rows)
def test_csv_reader_matches_scanner_on_float_spellings(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        assert_reader_matches_scanner(path)


@pytest.mark.parametrize("cpus", [3], indirect=True)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_rows)
def test_split_reader_matches_scanner_on_float_spellings(cpus, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        assert_reader_matches_scanner(path)


def test_csv_scanner_not_run_on_well_formed_file(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,2\r\n\r\n 3 ,4\r\n")

    def fail(lines, path):
        raise AssertionError("scanner ran on a well-formed file")

    monkeypatch.setattr(fileio, "_scan_csv", fail)
    assert read_matrix_csv(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_undecodable_bytes_raise_matrix_file_error(tmp_path, suffix):
    path = tmp_path / f"bad{suffix}"
    path.write_bytes(b"\xff\xfe1,2\n")
    with pytest.raises(MatrixFileError) as exc:
        read_matrix(str(path))
    assert str(exc.value).startswith(f"{path}: not UTF-8 text")


# --- CSV: spans on forked workers ----------------------------------------------------

ROWS = [f"{i},{-i / 7!r},{i * 1e-5:.3e}" for i in range(30)]
ENDING_FILES = {
    "lf": "\n".join(ROWS).encode() + b"\n",
    "crlf": "\r\n".join(ROWS).encode() + b"\r\n",
    "cr_only": "\r".join(ROWS).encode() + b"\r",
    "no_final_newline": "\n".join(ROWS).encode(),
    "blank_tail": "\n".join(ROWS[:10]).encode() + b"\n" * 400,
    "empty": b"",
}


@pytest.mark.parametrize("name", sorted(ENDING_FILES))
def test_split_reader_line_endings(tmp_path, capfd, recwarn, cpus, name):
    """Every ending splits only after an LF, and a span of blank lines adds
    no row and no "input contained no data" warning, here or in a child."""
    path = tmp_path / f"{name}.csv"
    path.write_bytes(ENDING_FILES[name])
    splits = cpus == 3 and b"\n" in ENDING_FILES[name]
    spans = [piece for (piece,) in fileio._spans([str(path)])]
    assert len(spans) == (3 if splits else 1)
    assert all(ENDING_FILES[name][stop - 1:stop] == b"\n" for _, _, stop in spans[:-1])
    assert_reader_matches_scanner(path)
    assert not recwarn.list
    assert capfd.readouterr().err == ""
    if name == "blank_tail" and splits:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fileio._parse_span(*spans[-1]).size == 0


SECOND_SPAN_ERRORS = {
    "bad_token": b"3,oops",
    "nan": b"nan,4",
    "ragged": b"3,4,5",
    "not_utf8": b"3,\xff4",
    "ragged_span": b"1,2,3.5",
}


@pytest.mark.parametrize("name", sorted(SECOND_SPAN_ERRORS))
def test_split_reader_error_in_second_span(tmp_path, cpus, name):
    """An error past the first span gives the serial reader's message, with
    the line and column counted from the start of the file.  In
    ``ragged_span`` each span parses, but the last one has three columns."""
    lines = [b"1.5,2.5"] * 30
    if name == "ragged_span":  # as long as the other rows, so the cuts stay put
        lines[21:] = [SECOND_SPAN_ERRORS[name]] * 9
    else:
        lines[14] = SECOND_SPAN_ERRORS[name]
    data = b"\n".join(lines) + b"\n"
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    if cpus == 3:
        spans = [piece for (piece,) in fileio._spans([str(path)])]
        bad = data.index(SECOND_SPAN_ERRORS[name])
        if name == "ragged_span":
            assert spans[2][1] == bad
        else:
            assert spans[1][1] <= bad < spans[1][2]
    with pytest.raises(MatrixFileError) as exc:
        read_matrix_csv(str(path))
    if name == "not_utf8":
        with pytest.raises(UnicodeDecodeError) as decode:
            data.decode("utf-8")
        assert str(exc.value) == f"{path}: not UTF-8 text: {decode.value}"
    else:
        want = outcome(scanner_reference, path)
        assert str(exc.value) == str(want)
        assert str(want).startswith(f"{path}:{22 if name == 'ragged_span' else 15}:")


@pytest.mark.parametrize("where", ["child", "parent"])
def test_split_reader_falls_back_when_a_span_raises(tmp_path, monkeypatch, where):
    """An OSError in a child (shipped back as a RuntimeError) or in this
    process's own span sends the file through the serial scanner."""
    set_cpus(monkeypatch, 3)
    monkeypatch.setattr(fileio, "MIN_SPAN_BYTES", 1)
    parent, real_span, real_scan, scans = os.getpid(), fileio._parse_span, fileio._scan_csv, []

    def failing(path, start, stop):
        if (os.getpid() != parent) == (where == "child"):
            raise OSError("synthetic read failure")
        return real_span(path, start, stop)

    def scan(lines, path):
        scans.append(path)
        return real_scan(lines, path)

    monkeypatch.setattr(fileio, "_parse_span", failing)
    monkeypatch.setattr(fileio, "_scan_csv", scan)
    path = tmp_path / "m.csv"
    path.write_bytes(ENDING_FILES["lf"])
    got = read_matrix_csv(str(path))
    assert scans == [str(path)]
    assert got.tobytes() == scanner_reference(path).tobytes()


@pytest.mark.parametrize(
    "cpus,spans,forks",
    [(3, 4.0, 2), (3, 2.5, 1), (3, 0.5, 0), (1, 4.0, 0), (2, 4.0, 1)],
    ids=["cpus", "spans", "below-threshold", "one-cpu", "two-cpus"],
)
def test_split_reader_forks_one_worker_per_cpu_above_threshold(
    tmp_path, monkeypatch, forked, cpus, spans, forks
):
    """``min(CPUs, size // MIN_SPAN_BYTES) - 1`` children, none for a file
    under the threshold; child ``w`` pins itself to CPU ``w`` of the mask,
    and the parent pins itself nowhere."""
    pins = tmp_path / "pins"
    pins.touch()
    set_cpus(monkeypatch, cpus, pins)
    monkeypatch.setattr(fileio, "MIN_SPAN_BYTES", 64)
    path = tmp_path / "m.csv"
    path.write_bytes(b"1.5,2.5\n" * int(spans * 64 / 8))
    assert read_matrix_csv(str(path)).tolist() == [[1.5, 2.5]] * int(spans * 64 / 8)
    assert len(forked) == forks
    assert_reaped(forked)
    mine, pinned = read_pins(pins)
    assert pinned == {str(pid): f"[{w}]" for w, pid in enumerate(forked, start=1)}
    assert mine == []


def test_no_fork_while_another_thread_runs(tmp_path, monkeypatch):
    """A forked child inherits only the calling thread, and any lock another
    thread held stays locked in it, so the pool runs in-process then."""
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or pytest.fail("forked"))
    set_cpus(monkeypatch, 3)
    monkeypatch.setattr(fileio, "MIN_SPAN_BYTES", 1)
    path = tmp_path / "m.csv"
    path.write_bytes(ENDING_FILES["lf"])
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        got = read_matrix_csv(str(path))
        trace = harness.run_sweep(harness.SweepConfig(
            n=3, ell=1, j=1, k=1, m_values=(30, 60), trials=2, sigma=0.1,
            estimators=("tls",), base_seed=5))
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    assert got.tobytes() == scanner_reference(path).tobytes()
    assert len(trace.records) == 4


# --- CSV: all of one estimate's files in one pool call --------------------------------


def joint_a(where: str, b_size: int) -> bytes:
    """An A.csv that, laid before a B.csv of ``b_size`` bytes and cut in two,
    is cut inside A, at its end (the A|B boundary) or inside B."""
    if where == "in_a":
        return b"1.5,2.5\n" * (b_size // 8 + 20)
    if where == "boundary":  # the middle falls in A's long last line
        return b"1.5,2.5\n0." + b"1" * (b_size + 8) + b",2\n"
    return b"1.5,2.5\n"


def read_each_alone(paths: list[Path]) -> list:
    """The files read one at a time, as ``ctls estimate`` did: the arrays,
    or the first error, after checking the reader against the scanner."""
    for path in paths:
        assert_reader_matches_scanner(path)
    return outcome(lambda names: [read_matrix_csv(name) for name in names],
                   [str(path) for path in paths])


def assert_same_outcome(got, want):
    if isinstance(want, MatrixFileError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert [g.shape for g in got] == [w.shape for w in want]


@pytest.mark.parametrize("cpus", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("where", ["in_a", "boundary", "in_b"])
@pytest.mark.parametrize("name", sorted(ENDING_FILES))
def test_joint_reader_matches_each_file_alone(tmp_path, cpus, where, name):
    """A and B laid end to end and cut over both give each file's own rows
    bit for bit, or the error reading them one by one gives.  With 2 CPUs the
    one cut lands where ``where`` says, when B has an LF there to cut after."""
    a, b = tmp_path / "A.csv", tmp_path / "B.csv"
    a.write_bytes(joint_a(where, len(ENDING_FILES[name])))
    b.write_bytes(ENDING_FILES[name])
    tasks = fileio._spans([str(a), str(b)])
    assert [piece for task in tasks for piece in task][-1][2] == len(ENDING_FILES[name])
    if cpus == 2 and (where != "in_b" or b"\n" in ENDING_FILES[name]) and name != "empty":
        assert len(tasks) == 2
        path, start, _ = tasks[1][0]
        assert (path, start > 0) == {"in_a": (str(a), True), "boundary": (str(b), False),
                                     "in_b": (str(b), True)}[where]
        if where == "in_b" and name == "blank_tail":
            assert fileio._parse_span(*tasks[1][0]).size == 0
    got = outcome(fileio.read_matrices, [str(a), str(b)])
    assert_same_outcome(got, read_each_alone([a, b]))


@pytest.mark.parametrize("cpus", [1, 3], indirect=True)
def test_joint_reader_reports_the_first_bad_file(tmp_path, monkeypatch, cpus):
    """A bad A raises A's message whatever B holds; a good A and a B bad in
    a later piece raise B's ``path:line:col`` message.  Only the bad file
    goes through the scanner."""
    real_scan, scans = fileio._scan_csv, []
    monkeypatch.setattr(fileio, "_scan_csv", lambda lines, path: scans.append(path)
                        or real_scan(lines, path))
    a, b = tmp_path / "A.csv", tmp_path / "B.csv"
    b.write_bytes(b"1.5\n" * 20 + b"oops\n" + b"2.5\n" * 4)
    a.write_bytes(b"1.5,2.5\n" * 5 + b"1.5,nan\n")
    with pytest.raises(MatrixFileError) as exc:
        fileio.read_matrices([str(a), str(b)])
    assert str(exc.value) == f"{a}:6:2: non-finite entry: 'nan'"
    assert scans == [str(a)]
    scans.clear()
    a.write_bytes(b"1.5,2.5\n" * 25)
    if cpus == 3:
        pieces = [piece for task in fileio._spans([str(a), str(b)]) for piece in task]
        assert pieces[-1][0] == str(b) and pieces[-1][1] <= 80 < pieces[-1][2]
    with pytest.raises(MatrixFileError) as exc:
        fileio.read_matrices([str(a), str(b)])
    assert str(exc.value) == f"{b}:21:1: not a number: 'oops'"
    assert scans == [str(b)]


@pytest.mark.parametrize("cpus", [1, 3], indirect=True)
def test_joint_reader_missing_file_gives_the_open_error(tmp_path, cpus):
    a, b = tmp_path / "A.csv", tmp_path / "B.csv"
    a.write_bytes(b"1.5,2.5\n" * 25)
    with pytest.raises(FileNotFoundError) as want:
        open(b, encoding="utf-8")
    with pytest.raises(FileNotFoundError) as exc:
        fileio.read_matrices([str(a), str(b)])
    assert str(exc.value) == str(want.value)


@pytest.mark.parametrize("cpus", [1, 3], indirect=True)
def test_joint_reader_reads_json_in_its_place(tmp_path, cpus):
    a, b, cov = tmp_path / "A.json", tmp_path / "B.csv", tmp_path / "cov.csv"
    write_matrix(str(a), np.arange(6.0).reshape(3, 2) / 7, "mtxjson")
    b.write_bytes(b"1.5\n2.5\n3.5\n")
    cov.write_bytes(b"2\n")
    got = fileio.read_matrices([str(a), str(b), str(cov)])
    want = [read_matrix(str(a)), read_matrix_csv(str(b)), read_matrix_csv(str(cov))]
    assert_same_outcome(got, want)
    a.write_text('{"rows": 1}')
    with pytest.raises(MatrixFileError, match="missing key 'cols'"):
        fileio.read_matrices([str(a), str(tmp_path / "missing.csv")])


@pytest.mark.parametrize(
    "cpus,rows,forks",
    [(3, 14, 1), (3, 40, 2), (3, 5, 0), (1, 40, 0), (2, 40, 1)],
    ids=["b-joins-a", "cpus", "below-threshold", "one-cpu", "two-cpus"],
)
def test_estimate_forks_once_for_all_its_files(
    tmp_path, monkeypatch, capsys, forked, cpus, rows, forks
):
    """One ``ctls estimate`` makes one pool call for A and B together, which
    forks ``min(CPUs, total // MIN_SPAN_BYTES) - 1`` children.  In
    ``b-joins-a`` neither file alone reaches two spans."""
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(fileio, "MIN_SPAN_BYTES", 120)
    calls, real = [], fileio.run_tasks
    monkeypatch.setattr(fileio, "run_tasks", lambda *args: calls.append(1) or real(*args))
    g = np.random.default_rng(3)
    a = 1 + g.random((rows, 2))
    b = 3 + a @ [0.5, -1.0] + 0.01 * g.standard_normal(rows)
    (tmp_path / "A.csv").write_text("".join("%.3f,%.3f\n" % tuple(row) for row in a))
    (tmp_path / "B.csv").write_text("".join("%.3f\n" % value for value in b))
    total = sum((tmp_path / name).stat().st_size for name in ("A.csv", "B.csv"))
    assert total == 18 * rows and forks == max(1, min(cpus, total // 120)) - 1
    code = cli.main(["estimate", "--a", str(tmp_path / "A.csv"), "--b",
                     str(tmp_path / "B.csv"), "--method", "tls"])
    assert code == 0, capsys.readouterr().err
    assert calls == [1]
    assert len(forked) == forks
    assert_reaped(forked)


# --- round trips ---------------------------------------------------------------------

EDGE_FLOATS = [1e308, -1e308, sys.float_info.max, 5e-324, -5e-324, 1e-310, -0.0, 0.0]
finite = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
shapes = st.tuples(st.integers(1, 6), st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, shapes, elements=finite), st.sampled_from(["csv", "mtxjson"]))
@example(np.array([[-0.0]]), "csv")
@example(np.array([[1e308, -5e-324, 1e-310]]), "csv")
@example(np.array([[-1e308], [5e-324], [-0.0]]), "csv")
def test_write_then_read_is_exact(mat, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / ("m.json" if fmt == "mtxjson" else "m.csv"))
        write_matrix(path, mat, fmt)
        again = read_matrix(path)
    assert again.shape == mat.shape
    assert again.tobytes() == mat.tobytes()


def test_format_csv_matches_per_value_fstring():
    edge = [-0.0, 0.0, 1e-310, -1e-310, 5e-324, -5e-324, 1e308, -1e308,
            sys.float_info.max, -sys.float_info.max, 0.1, 1.0 / 3.0, -2.5e-7]
    g = np.random.default_rng(3)
    mats = [np.array(edge).reshape(1, -1), np.array(edge).reshape(-1, 1),
            g.standard_normal((7, 4)) * 10.0 ** g.integers(-300, 300, (7, 4))]
    for mat in mats:
        old = "\n".join(",".join(f"{v:.17g}" for v in row) for row in mat) + "\n"
        assert fileio.format_csv(mat) == old


# --- mtxjson ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "payload",
    [
        "5",
        "[1, 2]",
        '"matrix"',
        '{"rows": 1, "cols": 1, "data": 5}',
        '{"rows": 1, "cols": 1, "data": {"0": 1.0}}',
        '{"rows": true, "cols": 1, "data": [1.0]}',
        '{"rows": 1, "cols": 1.0, "data": [1.0]}',
        '{"rows": 1, "cols": 1, "data": ["1.0"]}',
        '{"rows": 1, "cols": 2, "data": [1.0, null]}',
        '{"rows": 1, "cols": 1, "data": [true]}',
        '{"rows": 2, "cols": 1, "data": [[1.0], [2.0]]}',
        '{"rows": 1, "cols": 2, "data": [[1.0, 2.0]]}',
        '{"rows": 1, "cols": 1, "data": [1' + "0" * 400 + "]}",
        '{"rows": 1, "cols": 1, "data": [NaN]}',
    ],
)
def test_mtxjson_malformed_payload_rejected(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(MatrixFileError) as exc:
        read_matrix(str(path))
    assert str(exc.value).startswith(f"{path}: ")


def test_mtxjson_integer_entries_accepted(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [1, 2, 3.5, -4]}))
    assert read_matrix(str(path)).tolist() == [[1.0, 2.0], [3.5, -4.0]]
