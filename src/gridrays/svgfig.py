"""Deterministic SVG figures: lattice grid, staircases, reference lines.

Purely presentational; coordinates are written with 6 decimal places and
element order is fixed, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

CELL = 24.0  # pixels per lattice unit
MARGIN = 1.5  # lattice units of padding around the window


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _escape(text: str) -> str:
    """Text safe inside an XML attribute value or element."""
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


class Scene:
    def __init__(self, window: tuple[float, float, float, float]):
        xmin, xmax, ymin, ymax = window
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("empty window")
        self.window = (xmin, xmax, ymin, ymax)
        # (dashed, points, label, color); a ray's reference line is dashed
        self.items: list[tuple[bool, tuple, str, str]] = []

    def add_path(self, points: Sequence[tuple[float, float]],
                 label: str = "", color: str = "") -> None:
        self.items.append((False, tuple(points), label, color))

    def add_ray_line(self, direction: tuple[float, float],
                     label: str = "", color: str = "") -> None:
        xmin, xmax, ymin, ymax = self.window
        dx, dy = direction
        scale = 2 * max(xmax - xmin, ymax - ymin) / max(abs(dx) + abs(dy), 1e-9)
        self.items.append(
            (True, ((0.0, 0.0), (dx * scale, dy * scale)), label, color))

    def _to_px(self, p: tuple[float, float]) -> tuple[float, float]:
        xmin, _, _, ymax = self.window
        return ((p[0] - xmin + MARGIN) * CELL,
                (ymax + MARGIN - p[1]) * CELL)

    def render(self) -> str:
        xmin, xmax, ymin, ymax = self.window
        w = (xmax - xmin + 2 * MARGIN) * CELL
        h = (ymax - ymin + 2 * MARGIN) * CELL
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {_fmt(w)} {_fmt(h)}" '
            f'width="{_fmt(w)}" height="{_fmt(h)}">',
            '<rect width="100%" height="100%" fill="#ffffff"/>',
            '<g stroke="#dddddd" stroke-width="1">',
        ]
        # the vertical grid lines, then the horizontal ones, made lazily so
        # that the peak stays near the size of the output
        ends = chain(
            (((x, ymin), (x, ymax)) for x in range(int(xmin), int(xmax) + 1)),
            (((xmin, y), (xmax, y)) for y in range(int(ymin), int(ymax) + 1)))
        for a, b in ends:
            (x1, y1), (x2, y2) = self._to_px(a), self._to_px(b)
            out.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                       f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>')
        out.append("</g>")
        for idx, (dashed, points, label, color) in enumerate(self.items):
            color = _escape(color or PALETTE[idx % len(PALETTE)])
            pts = " ".join(f"{_fmt(px)},{_fmt(py)}"
                           for px, py in map(self._to_px, points))
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            out.append(f'<polyline fill="none" stroke="{color}" '
                       f'stroke-width="2"{dash} points="{pts}"/>')
            if label:
                lx, ly = self._to_px(points[-1])
                out.append(f'<text x="{_fmt(lx + 4)}" y="{_fmt(ly - 4)}" '
                           f'font-size="12" fill="{color}">{_escape(label)}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
