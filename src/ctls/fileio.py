"""Matrix file formats: headerless CSV and a tiny JSON container.

CSV files hold one matrix row per line, entries separated by commas, with
no header.  The accepted grammar:

* every entry is any spelling Python's ``float`` accepts, surrounded by
  optional whitespace;
* lines end in LF, CRLF or a lone CR;
* blank lines after the first row are skipped;
* every row has the same number of entries.

An empty first line, a token that is not a number, a non-finite entry
(``nan``, ``inf``, or a literal that overflows) and a ragged row are
rejected with a ``path:line:col`` (or ``path:line``) :class:`MatrixFileError`.
The common case is parsed by one :func:`numpy.loadtxt` call; only input it
rejects goes through the per-token scanner, which locates the error or
parses the spellings only ``float`` knows (``1_0``, non-ASCII digits).

The JSON container is ``{"rows": r, "cols": c, "data": [row-major floats]}``.
Floats are written with 17 significant digits, so write-then-read
round-trips exactly.  Files are UTF-8 text.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import MatrixFileError
from .linalg import as_matrix

FORMATS = ("csv", "mtxjson")


def _read_text(path: str) -> str:
    """The whole file decoded as UTF-8, line endings untranslated."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise MatrixFileError(f"{path}: not UTF-8 text: {exc}") from None


def _split_lines(text: str) -> list[str]:
    """Lines ended by LF, CRLF or CR, without their endings.

    Not ``str.splitlines``: that also breaks at form feed, vertical tab,
    U+0085 and U+2028, which ``float`` treats as whitespace inside a field.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()  # after the final line ending, or an empty file
    return lines


def _parse_float(token: str, path: str, line_no: int, col_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MatrixFileError(
            f"{path}:{line_no}:{col_no}: not a number: {token!r}"
        ) from None
    if not np.isfinite(value):
        raise MatrixFileError(
            f"{path}:{line_no}:{col_no}: non-finite entry: {token!r}"
        )
    return value


def _scan_csv(lines: list[str], path: str) -> np.ndarray:
    """Token-by-token CSV parse: the error locator and the test reference."""
    rows: list[list[float]] = []
    for line_no, line in enumerate(lines, start=1):
        if line == "" and not rows:
            raise MatrixFileError(f"{path}:{line_no}: empty line")
        if line == "":
            continue
        tokens = line.split(",")
        row = [
            _parse_float(tok.strip(), path, line_no, col_no)
            for col_no, tok in enumerate(tokens, start=1)
        ]
        if rows and len(row) != len(rows[0]):
            raise MatrixFileError(
                f"{path}:{line_no}: row has {len(row)} entries, "
                f"expected {len(rows[0])}"
            )
        rows.append(row)
    if not rows:
        raise MatrixFileError(f"{path}: empty file")
    return np.array(rows, dtype=float)


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a headerless CSV matrix (grammar in the module docstring)."""
    lines = _split_lines(_read_text(path))
    # loadtxt parses ASCII tokens with the same correctly rounded conversion
    # as float() and skips only empty lines, so whatever it returns finite is
    # what the scanner would return.
    if lines and lines[0] != "":
        try:
            arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            pass
        else:
            if np.isfinite(arr).all():
                return arr
    return _scan_csv(lines, path)


def read_matrix_mtxjson(path: str) -> np.ndarray:
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise MatrixFileError(f"{path}: top-level JSON value must be an object")
    for key in ("rows", "cols", "data"):
        if key not in payload:
            raise MatrixFileError(f"{path}: missing key {key!r}")
    rows, cols = payload["rows"], payload["cols"]
    data = payload["data"]
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise MatrixFileError(f"{path}: rows/cols must be positive integers")
    # JSON numbers load as int or float; bool, str, null and nesting do not.
    if not isinstance(data, list) or not all(type(v) in (int, float) for v in data):
        raise MatrixFileError(f"{path}: data must be a flat list of numbers")
    if len(data) != rows * cols:
        raise MatrixFileError(
            f"{path}: data has {len(data)} entries, expected {rows * cols}"
        )
    try:
        arr = np.array(data, dtype=float).reshape(rows, cols)
    except OverflowError:
        raise MatrixFileError(f"{path}: entry out of float range") from None
    if not np.all(np.isfinite(arr)):
        raise MatrixFileError(f"{path}: non-finite entries")
    return arr


def read_matrix(path: str, fmt: str | None = None) -> np.ndarray:
    """Read a matrix, inferring the format from the extension unless given."""
    if fmt is None:
        fmt = "mtxjson" if os.path.splitext(path)[1].lower() == ".json" else "csv"
    if fmt == "csv":
        return read_matrix_csv(path)
    if fmt == "mtxjson":
        return read_matrix_mtxjson(path)
    raise MatrixFileError(f"unknown matrix format {fmt!r}")


def format_csv(matrix: np.ndarray) -> str:
    """One line per row, 17 significant digits, so reading it back is exact."""
    mat = as_matrix(matrix, "matrix")
    row = ",".join(["%.17g"] * mat.shape[1]) + "\n"
    return (row * mat.shape[0]) % tuple(mat.ravel().tolist())


def write_matrix(path: str, matrix, fmt: str = "csv") -> None:
    mat = as_matrix(matrix, "matrix")
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_csv(mat))
    elif fmt == "mtxjson":
        payload = {
            "rows": mat.shape[0],
            "cols": mat.shape[1],
            "data": mat.ravel().tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    else:
        raise MatrixFileError(f"unknown matrix format {fmt!r}")
