"""Hand-emitted deterministic SVG rendering of simulation CSVs.

No plotting library is used: the output bytes depend only on the input data,
so golden-file comparisons are stable. Axis ranges are auto-scaled with 5%
margins and tick labels use two significant digits.

The work goes a column at a time. `read_csv_columns` parses the data cells
of a file into one float array, a block of rows per `float` pass, and reads
row by row only to name a bad cell. The canvas maps whole columns to pixels
with numpy, in the same order of floating-point operations as one point at
a time, and formats all points of a polyline, or all cells of a surface,
with one `%` operation. So each SVG byte is what the per-point drawing gave.
"""

from __future__ import annotations

import html
from itertools import chain, compress, repeat
from operator import not_
from pathlib import Path

import numpy as np

from .errors import ValidationError

WIDTH, HEIGHT = 720.0, 540.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72.0, 24.0, 24.0, 52.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

CELL = "%.17g"   # every float64 written to a CSV round-trips exactly
BLOCK_CELLS = 4096   # CSV cells parsed at a time: a whole file's cell strings raise peak memory


def read_text(path) -> str:
    """The text of a UTF-8 file; undecodable bytes raise ValidationError naming it."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path}: input is not utf-8 text: {e.reason} "
                                  f"at byte {e.start}") from None


def write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8, the encoding of every file cohtrack writes."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def write_table(path, header: list[str], rows, comments=()) -> None:
    """Write a CSV of the header, one CELL-formatted line per row, then `comments`."""
    row = ",".join([CELL] * len(header))
    lines = [",".join(header)]
    lines.extend(row % tuple(r) for r in rows)
    lines.extend(comments)
    write_text(path, "\n".join(lines) + "\n")


def read_csv_columns(path, header: list[str] | None = None) -> tuple[list, np.ndarray, list]:
    """Read a simulation CSV: its header, its data cells and [(row number, `#` line)].

    The data cells come back as one float array with a row per data line;
    an empty cell is NaN. Rows are numbered over non-blank lines. Given a
    `header`, the file must have exactly that header and no empty cell.
    """
    lines = list(filter(str.strip, read_text(path).split("\n")))
    if not lines:
        raise ValidationError(f"{path}: empty file")
    found = lines[0].split(",")
    strict = header is not None
    if strict and found != header:
        raise ValidationError(f"{path}: expected header {','.join(header)}")
    body = lines[1:]
    is_comment = list(map(str.startswith, body, repeat("#")))
    comments = [(i + 2, body[i]) for i in compress(range(len(body)), is_comment)]
    rows = list(compress(body, map(not_, is_comment)))
    try:
        data = _parse_cells(rows, len(found), strict)
    except ValueError:
        # The row-by-row pass names the first bad row and cell.
        data = np.array([_parse_row(path, i, ln, found, strict)
                         for i, ln in enumerate(body, start=2) if not ln.startswith("#")])
    return found, data.reshape(len(rows), len(found)), comments


def _parse_cells(rows: list[str], width: int, strict: bool) -> np.ndarray:
    """All cells of the data rows as one flat float array; ValueError on any bad row.

    Cells go through `float` itself, so the cells it accepts and the values
    they give are those of the row-by-row pass. The rows are parsed a block
    at a time, so the strings of all cells never exist at once.
    """
    if set(map(str.count, rows, repeat(","))) - {width - 1}:
        raise ValueError("ragged row")
    data = np.empty(len(rows) * width)
    step = max(1, BLOCK_CELLS // width)
    for start in range(0, len(rows), step):
        cells = ",".join(rows[start:start + step]).split(",")
        if not strict and "" in cells:
            cells = [cell or "nan" for cell in cells]
        i = start * width
        data[i:i + len(cells)] = np.fromiter(map(float, cells), float, len(cells))
    return data


def _parse_row(path, i: int, line: str, header: list[str], strict: bool) -> list:
    """Cells of data row i; an empty cell becomes NaN, or is an error if `strict`."""
    parts = line.split(",")
    if len(parts) != len(header):
        raise ValidationError(
            f"{path}: row {i}: expected {len(header)} columns, got {len(parts)}"
        )
    row = []
    for j, cell in enumerate(parts):
        if cell == "" and not strict:
            row.append(np.nan)
            continue
        try:
            row.append(float(cell))
        except ValueError:
            what = "empty cell" if cell == "" else f"non-numeric value {cell!r}"
            raise ValidationError(
                f"{path}: row {i}: {what} in column {header[j]!r}"
            ) from None
    return row


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if lo == hi:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _frac(vals: np.ndarray, value_range: tuple[float, float]) -> np.ndarray:
    """Where each value lies in the range, 0 to 1; 0.5 everywhere if the range is a point."""
    lo, hi = value_range
    if hi == lo:
        return np.full(len(vals), 0.5)
    with np.errstate(over="ignore", invalid="ignore"):   # as Python floats: inf, nan
        return (vals - lo) / (hi - lo)


class _Canvas:
    """Accumulates SVG elements over a single x-y axes frame."""

    def __init__(self, xlabel: str, ylabel: str):
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.body: list[str] = []
        self.legend: list[tuple[str, str]] = []   # (label, color)
        self.x_range = (0.0, 1.0)
        self.y_range = (0.0, 1.0)

    def set_ranges(self, xs: np.ndarray, ys: np.ndarray):
        self.x_range = _padded_range(xs)
        self.y_range = _padded_range(ys)

    def x_px(self, xs: np.ndarray) -> np.ndarray:
        return MARGIN_L + _frac(xs, self.x_range) * (WIDTH - MARGIN_L - MARGIN_R)

    def y_px(self, ys: np.ndarray) -> np.ndarray:
        return HEIGHT - MARGIN_B - _frac(ys, self.y_range) * (HEIGHT - MARGIN_T - MARGIN_B)

    def polyline(self, xs: np.ndarray, ys: np.ndarray, color: str, label: str):
        keep = np.isfinite(xs) & np.isfinite(ys)
        if keep.any():
            px, py = self.x_px(xs[keep]), self.y_px(ys[keep])
            pts = " ".join(["%.6g,%.6g"] * len(px)) % _interleave(px, py)
            self.body.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{pts}"/>'
            )
        self.legend.append((label, color))

    def rects(self, x0, x1, y0, y1, rgb: np.ndarray):
        """One filled rect per cell [x0, x1] x [y0, y1], coloured by its row of `rgb`."""
        px0, px1 = self.x_px(x0), self.x_px(x1)
        py0, py1 = self.y_px(y1), self.y_px(y0)
        rect = ('<rect x="%.6g" y="%.6g" width="%.6g" height="%.6g" '
                f'fill="{HEAT_FILL}"/>')
        self.body.append("\n".join([rect] * len(x0))
                         % _interleave(px0, py0, px1 - px0, py1 - py0, *rgb.T))

    def render(self) -> str:
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
            f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
            f'<rect x="0" y="0" width="{WIDTH:g}" height="{HEIGHT:g}" fill="white"/>',
        ]
        x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
        x1, y1 = WIDTH - MARGIN_R, MARGIN_T
        parts.append(f'<line x1="{x0:g}" y1="{y0:g}" x2="{x1:g}" y2="{y0:g}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<line x1="{x0:g}" y1="{y0:g}" x2="{x0:g}" y2="{y1:g}" '
                     'stroke="black" stroke-width="1"/>')
        x_ticks = _ticks(*self.x_range)
        for tx, px in zip(x_ticks, self.x_px(np.array(x_ticks)).tolist()):
            parts.append(f'<line x1="{_fmt(px)}" y1="{y0:g}" x2="{_fmt(px)}" '
                         f'y2="{y0 + 5:g}" stroke="black" stroke-width="1"/>')
            parts.append(f'<text x="{_fmt(px)}" y="{y0 + 20:g}" font-size="12" '
                         f'text-anchor="middle">{tx:.2g}</text>')
        y_ticks = _ticks(*self.y_range)
        for ty, py in zip(y_ticks, self.y_px(np.array(y_ticks)).tolist()):
            parts.append(f'<line x1="{x0 - 5:g}" y1="{_fmt(py)}" x2="{x0:g}" '
                         f'y2="{_fmt(py)}" stroke="black" stroke-width="1"/>')
            parts.append(f'<text x="{x0 - 8:g}" y="{_fmt(py + 4)}" font-size="12" '
                         f'text-anchor="end">{ty:.2g}</text>')
        parts.append(f'<text x="{(x0 + x1) / 2:g}" y="{HEIGHT - 12:g}" '
                     f'font-size="13" text-anchor="middle">{self.xlabel}</text>')
        parts.append(f'<text x="16" y="{(y0 + y1) / 2:g}" font-size="13" '
                     f'text-anchor="middle" transform="rotate(-90 16 '
                     f'{(y0 + y1) / 2:g})">{self.ylabel}</text>')
        parts.extend(self.body)
        for i, (label, color) in enumerate(self.legend):
            ly = MARGIN_T + 16 + 18 * i
            parts.append(f'<line x1="{x1 - 150:g}" y1="{ly:g}" x2="{x1 - 125:g}" '
                         f'y2="{ly:g}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{x1 - 118:g}" y="{ly + 4:g}" '
                         f'font-size="12">{html.escape(label, quote=False)}</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def _interleave(*columns: np.ndarray) -> tuple:
    """The columns' entries row by row, as Python numbers for one `%` pass."""
    return tuple(chain.from_iterable(zip(*(col.tolist() for col in columns))))


def _padded_range(vals: np.ndarray) -> tuple[float, float]:
    finite = vals[np.isfinite(vals)]
    if not len(finite):
        return (0.0, 1.0)
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return (lo - pad, hi + pad)


def _column(header, data, name, path) -> np.ndarray:
    if name not in header:
        raise ValidationError(f"{path}: missing required column {name!r}")
    return data[:, header.index(name)]


def _plot_curves(paths, column_names):
    datasets = []
    for path in paths:
        header, data, _ = read_csv_columns(path)
        t = _column(header, data, "t", path)
        curves = [(name, _column(header, data, name, path)) for name in column_names]
        datasets.append((Path(path).stem, t, curves))
    canvas = _Canvas("t", " / ".join(column_names))
    all_x = np.concatenate([t for _, t, _ in datasets])
    all_y = np.concatenate([ys for _, _, curves in datasets for _, ys in curves])
    canvas.set_ranges(all_x, all_y)
    color_idx = 0
    for stem, t, curves in datasets:
        for name, ys in curves:
            label = name if len(datasets) == 1 else f"{name} ({stem})"
            canvas.polyline(t, ys, PALETTE[color_idx % len(PALETTE)], label)
            color_idx += 1
    return canvas.render()


# Light-to-dark blue ramp over u in [0, 1]: channel = top - drop * u, rounded.
HEAT_TOP = np.array([247, 251, 255])
HEAT_DROP = np.array([239, 170, 148])
HEAT_FILL = "#%02x%02x%02x"


def _heat_rgb(u: np.ndarray) -> np.ndarray:
    """(len(u), 3) integer colour channels of the ramp; np.rint rounds half to even."""
    return np.rint(HEAT_TOP - HEAT_DROP * u[:, None]).astype(int)


def _plot_surface(path):
    header, data, comments = read_csv_columns(path)
    cs, ps, tb = (_column(header, data, name, path) for name in ("c", "p", "t_b"))
    bad = np.flatnonzero(tb < 0)   # an empty cell, NaN, compares false
    if len(bad):
        # Data rows are the non-blank lines after the header that are not comments.
        taken = {i for i, _ in comments}
        rows = [i for i in range(2, 2 + len(tb) + len(comments)) if i not in taken]
        i = int(bad[0])
        raise ValidationError(f"{path}: row {rows[i]}: negative breakdown time "
                              f"{float(tb[i])!r} in column 't_b'")
    canvas = _Canvas("c", "p")
    canvas.set_ranges(cs, ps)
    keep = np.isfinite(tb)
    if keep.any():
        # Normalize against the median so a few huge breakdown times do not
        # wash out the rest of the map.
        ref = float(np.sort(tb[keep])[np.count_nonzero(keep) // 2]) or 1.0
        c_vals, p_vals = np.unique(cs), np.unique(ps)
        dc = c_vals[1] - c_vals[0] if len(c_vals) > 1 else 0.02
        dp = p_vals[1] - p_vals[0] if len(p_vals) > 1 else 0.02
        c, p, v = cs[keep], ps[keep], tb[keep]
        canvas.rects(c - dc / 2, c + dc / 2, p - dp / 2, p + dp / 2,
                     _heat_rgb(v / (v + ref)))
        legend_rgb = tuple(_heat_rgb(np.array([0.75]))[0].tolist())
        canvas.legend.append((f"t_b (median {ref:.2g})", HEAT_FILL % legend_rgb))
    return canvas.render()


def emit_plot(csv_paths, kind: str, out_path) -> None:
    """Render one of the three plot kinds from a list of CSV paths to an SVG file."""
    if kind == "trajectory":
        svg = _plot_curves(csv_paths, ["vz", "vx"])
    elif kind == "fields":
        svg = _plot_curves(csv_paths, ["omega1", "omega2"])
    elif kind == "surface":
        if len(csv_paths) != 1:
            raise ValidationError("surface plots take exactly one CSV")
        svg = _plot_surface(csv_paths[0])
    else:
        raise ValidationError(f"unknown plot kind {kind!r}")
    write_text(out_path, svg)
