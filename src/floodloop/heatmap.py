"""Grid-density dumps and a deterministic SVG heatmap emitter."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import DumpError

PALETTES = {
    "density": ((255, 255, 255), (165, 15, 21)),
    "water": ((255, 255, 255), (8, 81, 156)),
}

CELL_PX = 8
LEGEND_H = 28


def csv_float(value: float) -> str:
    """repr of the value as a Python float, with -0.0 written as 0.0, so a
    cell always parses with float() and equal values are spelled alike."""
    value = float(value)
    return "0.0" if value == 0 else repr(value)


def save_density_dump(path: str | Path, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(values):
            writer.writerow([csv_float(v) for v in row])


def load_density_dump(path: str | Path) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if not line:
                continue
            try:
                rows.append([float(v) for v in line])
            except ValueError as exc:
                raise DumpError(f"non-numeric value in {path}: {exc}") from exc
    if not rows:
        raise DumpError(f"empty dump {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DumpError(f"ragged rows in {path}")
    return np.asarray(rows, dtype=np.float64)


def _color(value: float, lo: float, hi: float, palette) -> str:
    span = hi - lo
    frac = 0.0 if span <= 0 else (value - lo) / span
    frac = min(max(frac, 0.0), 1.0)
    (r0, g0, b0), (r1, g1, b1) = palette
    r = round(r0 + (r1 - r0) * frac)
    g = round(g0 + (g1 - g0) * frac)
    b = round(b0 + (b1 - b0) * frac)
    return f"#{r:02x}{g:02x}{b:02x}"


def emit_heatmap(values: np.ndarray, palette_name: str) -> str:
    """Value-linear SVG heatmap with a min/max legend; equal input gives
    byte-identical output."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise DumpError(f"expected a 2-D field, got shape {values.shape}")
    palette = PALETTES.get(palette_name, PALETTES["density"])
    h, w = values.shape
    lo, hi = float(values.min()), float(values.max())
    width_px = w * CELL_PX
    height_px = h * CELL_PX + LEGEND_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">'
    ]
    rows = values.tolist()
    # each <rect> is its column's head, its row's middle and its value's
    # tail; densities are mostly small counts, so there are few tails
    tails = {value: f'{_color(value, lo, hi, palette)}"/>' for value in set().union(*rows)}
    heads = [f'<rect x="{c * CELL_PX}" y="' for c in range(w)]
    for r, row in enumerate(rows):
        middle = f'{r * CELL_PX}" width="{CELL_PX}" height="{CELL_PX}" fill="'
        parts += [head + middle + tails[value] for head, value in zip(heads, row)]
    y = h * CELL_PX + 18
    parts.append(
        f'<text x="2" y="{y}" font-family="monospace" font-size="12">min={lo:.4f} max={hi:.4f}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_heatmap(path: str | Path, values: np.ndarray, palette_name: str) -> None:
    Path(path).write_text(emit_heatmap(values, palette_name))
