"""Deterministic SVG 1.1 diagrams of construction stages.

One horizontal row per stage, top to bottom. Stage endpoints a/den on the
family's integer grid are converted to whole pixels with round-half-up
integer arithmetic, (2*a*inner + den) // (2*den), so equal inputs always
produce byte-identical documents. Degenerate point components appear as
marks one pixel wide.

A component whose two endpoints round to the same pixel P paints exactly
P in every later row, since its descendants lie inside it and rounding is
monotone; it rides on as the point (a, a), which paints P too, and a point
on the same pixel as the point before it is dropped. A row so holds at
most inner + 1 components that still split and inner + 1 points: a
document costs O(rows * width), not branch**depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import ConstructionSpec, _check_depth, _child_rule, _round
from .errors import ValidationError, _cut

_PAD = 10
_GUTTER = 36
_BAR_GAP = 6


@dataclass(frozen=True)
class RenderConfig:
    width_px: int = 800
    row_height_px: int = 24
    depth: int = 4
    label: bool = False

    def __post_init__(self) -> None:
        if self.width_px < 100:
            raise ValidationError(
                f"render width must be at least 100 px, got {_cut(self.width_px)}")
        if self.row_height_px < 8:
            raise ValidationError(
                f"row height must be at least 8 px, got {_cut(self.row_height_px)}")
        if self.depth < 0:
            raise ValidationError("render depth must be nonnegative")


def render_svg(spec: ConstructionSpec, cfg: RenderConfig = RenderConfig()) -> str:
    _check_depth(spec, cfg.depth)
    factor, rule = _child_rule(spec)
    gutter = _GUTTER if cfg.label else 0
    inner = cfg.width_px - gutter - 2 * _PAD
    left = gutter + _PAD
    height = 2 * _PAD + (cfg.depth + 1) * cfg.row_height_px
    bar_h = max(1, cfg.row_height_px - _BAR_GAP)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{cfg.width_px}" height="{height}" '
        f'viewBox="0 0 {cfg.width_px} {height}">',
        f'<rect width="{cfg.width_px}" height="{height}" fill="#ffffff"/>',
        '<g fill="#1f2430">',
    ]
    stalls = []
    den, pairs, stalled, c = 1, [(0, 1)], False, 1
    for row in range(cfg.depth + 1):
        if row and not stalled:
            pairs, stalled = _round(factor, rule, c, pairs, den)
            den, c = den * factor, 2 * c
        y = _PAD + row * cfg.row_height_px
        scale, twice = 2 * inner, 2 * den
        kept, point_at = [], None
        for a, b in pairs:
            x0 = left + (scale * a + den) // twice
            x1 = left + (scale * b + den) // twice
            if x0 == x1:
                # Every descendant paints this pixel alone: ride on as a point.
                if x0 == point_at:
                    continue
                point_at, b = x0, a
            kept.append((a, b))
            w = max(1, x1 - x0)
            lines.append(f'<rect x="{x0}" y="{y}" width="{w}" height="{bar_h}"/>')
        pairs = kept
        stalls.append(stalled)
    lines.append('</g>')
    if cfg.label:
        lines.append('<g font-family="monospace" font-size="12" fill="#555555">')
        index = 0
        for row, stalled in enumerate(stalls):
            # A stalled stage repeats, index and all.
            y = _PAD + row * cfg.row_height_px + bar_h - 1
            lines.append(f'<text x="{_PAD}" y="{y}">{index}</text>')
            if not stalled:
                index += 1
        lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
