"""Plain-text matrix files and two-format reports.

Matrix files carry one header line `# rows=M cols=N field=real|complex`
followed by M whitespace-separated rows.  Real entries are printed with
%.17g (lossless for float64); complex entries are `re:im` pairs in the
same format, so parse(render(A)) reproduces A exactly.

Reports render the same ordered key/value pairs, and lists of rows of
them, as text or JSON; floats pass through one shared 6-decimal rounding
so the two formats can never disagree numerically.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .errors import InputError
from .numkernel import field_dtype, frobenius_norm

_HEADER_RE = re.compile(
    r"^#\s*rows=(\d+)\s+cols=(\d+)\s+field=(real|complex)\s*$"
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def render_matrix(matrix) -> str:
    """Serialize a 2-d array to the header + rows text form.  A real array
    is printed as it is, with no complex copy; a complex one whose
    imaginary parts are all 0 is printed as a real one."""
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.size == 0:
        raise InputError(f"expected a nonempty 2-d matrix, got shape {arr.shape}")
    arr = arr.astype(field_dtype(arr), copy=False)
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix has non-finite entries")
    is_real = not np.iscomplexobj(arr) or not arr.imag.any()
    field = "real" if is_real else "complex"
    lines = [f"# rows={arr.shape[0]} cols={arr.shape[1]} field={field}"]
    if is_real:
        lines += (" ".join(map(_fmt, row)) for row in arr.real)
    else:
        lines += (" ".join(f"{_fmt(v.real)}:{_fmt(v.imag)}" for v in row) for row in arr)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the text form back to a complex array (real files included).

    The body must fill the header's nonzero size exactly, every entry must
    be finite, and so must the Frobenius norm, which may be 0 only when
    every entry is; anything else raises InputError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty matrix file")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise InputError(f"bad matrix header: {lines[0]!r}")
    rows, cols = int(header.group(1)), int(header.group(2))
    field = header.group(3)
    if rows == 0 or cols == 0:
        raise InputError(f"expected a nonempty matrix, header says {rows}x{cols}")
    body = [line.split() for line in lines[1:]]
    if len(body) != rows:
        raise InputError(f"expected {rows} rows, found {len(body)}")
    # every row is checked against the header before anything is allocated
    for i, parts in enumerate(body):
        if len(parts) != cols:
            raise InputError(f"row {i}: expected {cols} entries, found {len(parts)}")
    out = np.empty((rows, cols), dtype=np.complex128)
    for i, parts in enumerate(body):
        for j, token in enumerate(parts):
            try:
                if field == "real":
                    out[i, j] = float(token)
                else:
                    re_part, _, im_part = token.partition(":")
                    if not _:
                        raise ValueError("missing ':'")
                    out[i, j] = complex(float(re_part), float(im_part))
            except ValueError as exc:
                raise InputError(f"row {i} entry {j}: bad token {token!r}") from exc
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        i, j = bad[0]
        raise InputError(f"row {i} entry {j}: non-finite value {body[i][j]!r}")
    frobenius_norm(out)
    return out


def write_matrix_file(path, matrix) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_matrix(matrix))


def read_matrix_file(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"matrix file is not ASCII text: {exc}") from exc
    return parse_matrix(text)


def _round6(value: float) -> float:
    # +0.0 folds -0.0 so text and JSON agree on the sign
    return round(float(value), 6) + 0.0


class ReportDocument:
    """Ordered key/value report rendering identically to text and JSON.

    Values may be floats (rounded to 6 decimals in both formats), ints,
    bools, strings, None, flat int sequences (degeneracy patterns), or a
    non-empty list of ReportDocument rows of such scalars.  Text prints a
    scalar as `key: value` and each row as one `key=value ...` line; JSON
    prints the rows as a list of objects.
    """

    def __init__(self):
        self._items: list = []

    def add(self, key: str, value) -> "ReportDocument":
        self._items.append((key, value))
        return self

    def _normalized(self):
        out = []
        for key, value in self._items:
            if isinstance(value, bool) or isinstance(value, (int, np.integer)):
                out.append((key, int(value) if not isinstance(value, bool) else value))
            elif isinstance(value, (float, np.floating)):
                out.append((key, _round6(value)))
            elif isinstance(value, str):
                out.append((key, value))
            elif isinstance(value, list) and value and all(
                    isinstance(v, ReportDocument) for v in value):
                out.append((key, [dict(row._normalized()) for row in value]))
            elif isinstance(value, (list, tuple)):
                out.append((key, [int(v) for v in value]))
            elif value is None:
                out.append((key, None))
            else:
                raise InputError(f"unsupported report value for {key!r}: {value!r}")
        return out

    def to_text(self) -> str:
        lines = []
        for key, value in self._normalized():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                lines += (" ".join(f"{k}={_text(v)}" for k, v in row.items()) for row in value)
            else:
                lines.append(f"{key}: {_text(value)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(dict(self._normalized()), indent=2) + "\n"


def _text(value) -> str:
    """One normalized scalar as the text report prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    if value is None:
        return "-"
    return str(value)
