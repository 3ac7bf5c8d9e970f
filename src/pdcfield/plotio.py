"""CSV tables and minimal SVG line plots.

Output is deterministic, so identical runs produce byte-identical files.
``write_csv`` takes one column per header field: a ``str`` column is written
as it is, except that a cell holding ``,``, ``"`` or a line break is quoted
as RFC 4180 and ``csv.reader`` expect; any other column is written as
float64 by ``format_number`` (``f"{v:.12g}"``, also ``nan``, ``inf``,
``-inf``, ``-0``), once per distinct bit pattern.  Each formatted value
carries its separator (``,``, or a newline after the last field), so each
block of rows is one ``"".join`` over a (rows, fields) array of strings.
Without such cells the bytes are those of the row-by-row writer, which
the tests keep as ``per_row_reference``.  ``read_csv`` reads the header
line and then every row by one ``np.loadtxt`` of the path, into the header
and a 2-D float array; a file it cannot read is named with its first bad
line, counting the header as line 1.  At 512² the writer's blocks hold it
at 3.1 MB, where the whole table's 30 MB would set the ``image`` command's
peak; the reader's whole table, 8.7 MB, stays below the fit's 13.1 MB.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .kernels import _PIXEL_BLOCK


def format_number(value: float) -> str:
    return f"{value:.12g}"


def _quote(cell: str) -> str:
    """A string cell as RFC 4180 writes it: quoted, with its quotes doubled,
    when it holds a separator, a quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _format_column(column, end: str) -> np.ndarray:
    """The column's fields as an object array of strings, each ending in ``end``."""
    values = np.asarray(column)
    if values.dtype.kind == "U":
        return np.array([_quote(v) + end for v in values.tolist()], dtype=object)
    bits, inverse = np.unique(values.astype(np.float64).view(np.int64), return_inverse=True)
    text = np.array([format_number(v) + end for v in bits.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse]


def write_csv(path, header: list[str], columns) -> Path:
    """Write a table; ``columns`` holds one equal-length sequence per header field.

    The body is formatted, stacked, joined and written one block of
    ``_PIXEL_BLOCK`` rows at a time, so the strings in memory are those of
    one block.  On a 2-core Xeon, for a 512² image table (8.6 MB of CSV),
    the tracemalloc peak is 3.1 MB against 30 MB for the whole table at
    once; for a 1024² table it stays at 3.2 MB against 120 MB, and the
    write takes 166-168 ms against 334-381 ms (minimum of 11, two rounds).
    In traced bench runs of the 512² loop it takes 43-55 ms against 65-75
    ms (medians per operation, three runs each).  A write that fails
    part-way, on an ``OSError`` or a non-ASCII string, removes the file and
    re-raises, so no shorter table is left behind.
    """
    if len(columns) != len(header):
        raise ValueError(f"expected {len(header)} columns of equal length")
    columns = [np.asarray(c) for c in columns]
    if len({c.size for c in columns}) != 1:
        raise ValueError(f"expected {len(header)} columns of equal length")
    rows = columns[0].size
    if not rows:
        raise ValueError("refusing to write an empty table")
    ends = [","] * (len(header) - 1) + ["\n"]
    path = Path(path)
    try:
        fh = path.open("w", encoding="ascii")
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, rows, _PIXEL_BLOCK):
                block = slice(start, start + _PIXEL_BLOCK)
                # (rows, fields), row-major as written
                cells = np.stack([_format_column(c[block], end) for c, end in zip(columns, ends)],
                                 axis=1)
                fh.write("".join(cells.ravel().tolist()))
    except BaseException as exc:
        path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write CSV {path}: {exc}") from exc
        raise
    return path


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read back an all-numeric table as (header, array of shape (rows, fields)).

    The rows are one ``np.loadtxt`` of the path, which numpy parses with its
    chunked C reader (an open file it iterates line by line).  A table that
    cannot be read is named with its first bad line (the header is line 1);
    a table without rows, or whose rows do not have the header's field
    count, with that fact.  A 512² image table parses in 55 ms against 76
    ms block by block from an open file (2-core Xeon, minimum of 9).
    """
    path = Path(path)
    with _reading(path):
        with path.open(encoding="ascii") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a table without rows fails below
            data = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=1, encoding="ascii")
    if data.size == 0 or data.shape[1] != len(header):
        raise ValueError(f"{path}: expected rows of {len(header)} fields under the header")
    return header, data


@contextmanager
def _reading(path: Path):
    """Name ``path`` in a read error: an ``OSError`` as it is, a ragged row, a
    non-numeric token or a non-ASCII byte by its first bad line."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot read CSV {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {_bad_line(path) or exc}") from None


def _bad_line(path: Path) -> str | None:
    """Where ``np.loadtxt`` failed, as "line N: why" with the header as line 1.

    Its own row numbers count neither the header nor, consistently, the rows
    before the bad one, so the file is scanned again, on this error path only.
    """
    with path.open("rb") as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("ascii")
            except UnicodeDecodeError:
                return f"line {number}: a non-ASCII byte"
            if number == 1:
                fields = len(text.split(","))
                continue
            text = text.split("#", 1)[0].strip()  # loadtxt drops comments and blank lines
            if not text:
                continue
            tokens = text.split(",")
            if len(tokens) != fields:
                return f"line {number}: {len(tokens)} fields, expected {fields}"
            for token in tokens:
                try:
                    float(token)
                except ValueError:
                    return f"line {number}: {token.strip()!r} is not a number"
    return None


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_plot(path, series, xlabel: str, ylabel: str, title: str = "") -> Path:
    """Write an SVG line plot.

    ``series`` is a list of (x array, y array, label) triples; axes are
    linear with automatic ranges covering every series.
    """
    if not series:
        raise ValueError("no data series to plot")
    width, height = 720, 440
    ml, mr, mt, mb = 70, 20, 34, 52
    pw, ph = width - ml - mr, height - mt - mb

    xs = [float(v) for s in series for v in s[0]]
    ys = [float(v) for s in series for v in s[1]]
    if not xs:
        raise ValueError("empty data series")
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x):
        return ml + pw * (x - xlo) / (xhi - xlo)

    def py(y):
        return mt + ph * (1.0 - (y - ylo) / (yhi - ylo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="{mt - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for t in _ticks(xlo, xhi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{format_number(round(t, 12))}</text>'
        )
    for t in _ticks(ylo, yhi):
        y = py(t)
        parts.append(
            f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{format_number(round(t, 12))}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for i, (sx, sy, label) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(sx, sy))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            ly = mt + 16 + 16 * i
            parts.append(
                f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 125}" '
                f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{ml + pw - 118}" y="{ly}" font-family="sans-serif" '
                f'font-size="12">{label}</text>'
            )
    parts.append("</svg>")
    path = Path(path)
    try:
        path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write SVG {path}: {exc}") from exc
    return path
