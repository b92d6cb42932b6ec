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
The common case is cut after LFs into spans, parsed by one :func:`numpy.loadtxt`
call each on the fork pool of :mod:`ctls.parallel`; only a file a span rejects
goes through the whole-file per-token scanner, which locates the error or
parses the spellings only ``float`` knows (``1_0``, non-ASCII digits).
:func:`read_matrices` reads several files, as one ``ctls estimate`` does, in
one pool call: the CSV files are laid end to end and the total is cut, so a
small file shares the CPUs with a large one instead of parsing after it.
:func:`read_matrix` is that reader on one file.

The JSON container is ``{"rows": r, "cols": c, "data": [row-major floats]}``.
A path ending in ``.json`` (any case) is read and written as the container,
any other as CSV.  Floats are written with 17 significant digits, so
write-then-read round-trips exactly.
Files are UTF-8 text.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator

import numpy as np

from .errors import MatrixFileError
from .linalg import as_matrix
from .parallel import run_tasks, worker_count

#: Smallest CSV span worth a forked worker: the fork, the copy-on-write
#: faults it causes and the pickled rows cost about what parsing this does.
MIN_SPAN_BYTES = 512 * 1024


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
    if "\r" in text:  # else the two replace passes copy the text for nothing
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
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


def _spans(paths: list[str]) -> list[list[tuple[str, int, int]]]:
    """One task per worker: the ``(path, start, stop)`` pieces of one of the
    byte ranges of about equal size that the files, laid end to end, are cut
    into.  Each cut moves to just after the next LF in its file, so a piece
    never crosses a file; an empty file is one empty piece."""
    sizes = [os.path.getsize(path) for path in paths]
    total = sum(sizes)
    ranges = worker_count(total // MIN_SPAN_BYTES)
    tasks, offset, w = [[]], 0, 1
    for path, size in zip(paths, sizes):
        start = 0
        with open(path, "rb") as fh:
            while w < ranges and w * total // ranges < offset + size:
                fh.seek(w * total // ranges - offset)
                fh.readline()  # in binary mode, up to and including b"\n" only
                w += 1
                if start < fh.tell() and offset + fh.tell() < total:
                    tasks[-1].append((path, start, fh.tell()))
                    tasks.append([])
                    start = fh.tell()
        if start < size or not size:
            tasks[-1].append((path, start, size))
        offset += size
    return tasks


def _parse_span(path: str, start: int, stop: int) -> np.ndarray | None:
    """The rows of bytes ``start:stop``, a zero-size array for blank lines
    only, or None for an empty file or first line (the scanner's errors)."""
    with open(path, "rb") as fh:
        fh.seek(start)
        lines = _split_lines(fh.read(stop - start).decode("utf-8"))
    if start == 0 and not (lines and lines[0]):
        return None
    if not any(lines):  # loadtxt would warn "input contained no data"
        return np.empty((0, 0))
    # loadtxt parses ASCII tokens with the same correctly rounded conversion
    # as float() and skips only empty lines, so whatever it returns finite is
    # what the scanner would return.
    arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
    return arr if np.isfinite(arr).all() else None


def _parse_pieces(*pieces: tuple[str, int, int]) -> list[np.ndarray | None]:
    """:func:`_parse_span` of each piece, None where it raises ValueError."""
    parts = []
    for piece in pieces:
        try:
            parts.append(_parse_span(*piece))
        except ValueError:  # a bad token, a ragged line or undecodable bytes
            parts.append(None)
    return parts


def _read_csvs(paths: list[str]) -> Iterator[np.ndarray]:
    """Each file's matrix, in order, from one pool call over all of them: a
    file whose pieces all parse, with one column count, is its pieces stacked;
    any other goes through the scanner, which raises its error."""
    files: list[list[np.ndarray | None]] = []  # per file, the parts of its pieces
    try:
        tasks = _spans(paths)
        for task, parts in zip(tasks, run_tasks(_parse_pieces, tasks)):
            for (_, start, _), part in zip(task, parts):
                if start == 0:  # a file's first piece
                    files.append([])
                files[-1].append(part)
    except (OSError, ValueError, RuntimeError):  # RuntimeError: a child failed
        files = [[None] for _ in paths]
    for path, parts in zip(paths, files):
        parts = [part for part in parts if part is None or part.size]
        if all(part is not None for part in parts) and len({part.shape[1] for part in parts}) == 1:
            yield np.concatenate(parts) if len(parts) > 1 else parts[0]
        else:
            yield _scan_csv(_split_lines(_read_text(path)), path)


def _read_mtxjson(path: str) -> np.ndarray:
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


def _is_json(path: str) -> bool:
    """Whether ``path`` ends in ``.json`` (any case): the JSON container."""
    return os.path.splitext(path)[1].lower() == ".json"


def read_matrix(path: str) -> np.ndarray:
    """Read one matrix file (see :func:`read_matrices`)."""
    return read_matrices([path])[0]


def read_matrices(paths: list[str]) -> list[np.ndarray]:
    """The matrix of each path: a ``.json`` file (any case) is the JSON
    container, any other file CSV.  Every CSV among them is parsed in one
    pool call; the first bad file raises first."""
    json_at = [_is_json(path) for path in paths]
    csvs = _read_csvs([path for path, is_json in zip(paths, json_at) if not is_json])
    return [_read_mtxjson(path) if is_json else next(csvs)
            for path, is_json in zip(paths, json_at)]


def format_csv(matrix: np.ndarray) -> str:
    """One line per row, 17 significant digits, so reading it back is exact."""
    mat = as_matrix(matrix, "matrix")
    row = ",".join(["%.17g"] * mat.shape[1]) + "\n"
    return (row * mat.shape[0]) % tuple(mat.ravel().tolist())


def write_matrix(path: str, matrix) -> None:
    """Write ``matrix`` as :func:`read_matrices` reads ``path``: the JSON
    container to a ``.json`` path (any case), CSV to any other."""
    mat = as_matrix(matrix, "matrix")
    if _is_json(path):
        text = json.dumps({"rows": mat.shape[0], "cols": mat.shape[1],
                           "data": mat.ravel().tolist()}) + "\n"
    else:
        text = format_csv(mat)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
