"""Matrix file readers: the vectorised CSV path against the per-token scanner,
round trips, and malformed input ending in MatrixFileError."""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctls import fileio
from ctls.errors import MatrixFileError
from ctls.fileio import read_matrix, read_matrix_csv, write_matrix

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
