"""Hand-emitted deterministic SVG rendering of simulation CSVs.

No plotting library is used: the output bytes depend only on the input data,
so golden-file comparisons are stable. Axis ranges are auto-scaled with 5%
margins and tick labels use two significant digits.
"""

from __future__ import annotations

import html
import math
from pathlib import Path

from .errors import ValidationError

WIDTH, HEIGHT = 720.0, 540.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72.0, 24.0, 24.0, 52.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

CELL = "%.17g"   # every float64 written to a CSV round-trips exactly


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


def read_csv_columns(path, header: list[str] | None = None) -> tuple[list, list, list]:
    """Read a simulation CSV: its header, data rows and [(row number, `#` line)].

    Empty cells become None; rows are numbered over non-blank lines. Given a
    `header`, the file must have exactly that header and no empty cell.
    """
    lines = [ln for ln in read_text(path).split("\n") if ln.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty file")
    found = lines[0].split(",")
    if header is not None and found != header:
        raise ValidationError(f"{path}: expected header {','.join(header)}")
    rows, comments = [], []
    for i, ln in enumerate(lines[1:], start=2):
        if ln.startswith("#"):
            comments.append((i, ln))
        else:
            rows.append(_parse_row(path, i, ln, found, header is not None))
    return found, rows, comments


def _parse_row(path, i: int, line: str, header: list[str], strict: bool):
    """Cells of data row i; an empty cell becomes None, or is an error if `strict`."""
    parts = line.split(",")
    if len(parts) != len(header):
        raise ValidationError(
            f"{path}: row {i}: expected {len(header)} columns, got {len(parts)}"
        )
    if "" not in parts:
        try:
            return list(map(float, parts))
        except ValueError:
            pass   # the cell-by-cell loop below names the bad cell
    row = []
    for j, cell in enumerate(parts):
        if cell == "" and not strict:
            row.append(None)
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


class _Canvas:
    """Accumulates SVG elements over a single x-y axes frame."""

    def __init__(self, xlabel: str, ylabel: str):
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.body: list[str] = []
        self.legend: list[tuple[str, str]] = []   # (label, color)
        self.x_range = (0.0, 1.0)
        self.y_range = (0.0, 1.0)

    def set_ranges(self, xs, ys):
        xs = [x for x in xs if x is not None and math.isfinite(x)]
        ys = [y for y in ys if y is not None and math.isfinite(y)]
        self.x_range = _padded_range(xs)
        self.y_range = _padded_range(ys)

    def x_px(self, x: float) -> float:
        lo, hi = self.x_range
        frac = 0.5 if hi == lo else (x - lo) / (hi - lo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def y_px(self, y: float) -> float:
        lo, hi = self.y_range
        frac = 0.5 if hi == lo else (y - lo) / (hi - lo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def polyline(self, xs, ys, color: str, label: str):
        x_px, y_px, isfinite = self.x_px, self.y_px, math.isfinite
        pts = " ".join("%.6g,%.6g" % (x_px(x), y_px(y))
                       for x, y in zip(xs, ys)
                       if x is not None and y is not None
                       and isfinite(x) and isfinite(y))
        if pts:
            self.body.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{pts}"/>'
            )
        self.legend.append((label, color))

    def rect(self, x0, x1, y0, y1, color: str):
        px0, px1 = self.x_px(x0), self.x_px(x1)
        py0, py1 = self.y_px(y1), self.y_px(y0)
        self.body.append(
            f'<rect x="{_fmt(px0)}" y="{_fmt(py0)}" width="{_fmt(px1 - px0)}" '
            f'height="{_fmt(py1 - py0)}" fill="{color}"/>'
        )

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
        for tx in _ticks(*self.x_range):
            px = self.x_px(tx)
            parts.append(f'<line x1="{_fmt(px)}" y1="{y0:g}" x2="{_fmt(px)}" '
                         f'y2="{y0 + 5:g}" stroke="black" stroke-width="1"/>')
            parts.append(f'<text x="{_fmt(px)}" y="{y0 + 20:g}" font-size="12" '
                         f'text-anchor="middle">{tx:.2g}</text>')
        for ty in _ticks(*self.y_range):
            py = self.y_px(ty)
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


def _padded_range(vals) -> tuple[float, float]:
    if not vals:
        return (0.0, 1.0)
    lo, hi = min(vals), max(vals)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return (lo - pad, hi + pad)


def _column(header, rows, name, path):
    if name not in header:
        raise ValidationError(f"{path}: missing required column {name!r}")
    j = header.index(name)
    return [row[j] for row in rows]


def _plot_curves(paths, column_names):
    datasets = []
    for path in paths:
        header, rows, _ = read_csv_columns(path)
        t = _column(header, rows, "t", path)
        curves = [(name, _column(header, rows, name, path)) for name in column_names]
        datasets.append((Path(path).stem, t, curves))
    canvas = _Canvas("t", " / ".join(column_names))
    all_x = [x for _, t, _ in datasets for x in t]
    all_y = [y for _, _, curves in datasets for _, ys in curves for y in ys]
    canvas.set_ranges(all_x, all_y)
    color_idx = 0
    for stem, t, curves in datasets:
        for name, ys in curves:
            label = name if len(datasets) == 1 else f"{name} ({stem})"
            canvas.polyline(t, ys, PALETTE[color_idx % len(PALETTE)], label)
            color_idx += 1
    return canvas.render()


def _heat_color(u: float) -> str:
    # Light-to-dark blue ramp; u in [0, 1].
    r = int(round(247 - 239 * u))
    g = int(round(251 - 170 * u))
    b = int(round(255 - 148 * u))
    return f"#{r:02x}{g:02x}{b:02x}"


def _plot_surface(path):
    header, rows, _ = read_csv_columns(path)
    cs = _column(header, rows, "c", path)
    ps = _column(header, rows, "p", path)
    tb = _column(header, rows, "t_b", path)
    canvas = _Canvas("c", "p")
    canvas.set_ranges(cs, ps)
    finite = sorted(v for v in tb if v is not None and math.isfinite(v))
    if finite:
        # Normalize against the median so a few huge breakdown times do not
        # wash out the rest of the map.
        ref = finite[len(finite) // 2] or 1.0
        c_vals = sorted(set(cs))
        p_vals = sorted(set(ps))
        dc = c_vals[1] - c_vals[0] if len(c_vals) > 1 else 0.02
        dp = p_vals[1] - p_vals[0] if len(p_vals) > 1 else 0.02
        for c, p, v in zip(cs, ps, tb):
            if v is None or not math.isfinite(v):
                continue
            u = v / (v + ref)
            canvas.rect(c - dc / 2, c + dc / 2, p - dp / 2, p + dp / 2,
                        _heat_color(u))
        canvas.legend.append((f"t_b (median {ref:.2g})", _heat_color(0.75)))
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
