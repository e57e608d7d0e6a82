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
document costs O(rows * width), not branch**depth. Each row is one entry
of the round loop (`_rounds`), whose step is the round and then that
collapse; each kept pair carries its pixels. A diagram is refused before
any round when the sum of that per-row bound, min(branch**k, 2*inner + 2)
for row k, passes `MAX_BUILT_INTERVALS`, so a diagram has fewer than 2**18
rows. A width or row height is at most 2**31 - 1 px (`RenderConfig`), so
every number a document writes is under 2**49, and each refusal names its
numbers cut to a bounded size (`_cut`).
"""

from __future__ import annotations

from .constructions import (
    MAX_BUILT_INTERVALS,
    ConstructionSpec,
    _at_least,
    _child_rule,
    _round,
    _rounds,
)
from .errors import ResourceLimitError, ValidationError, _cut, _echo
from .exact import _Value

_PAD = 10
_GUTTER = 36
_BAR_GAP = 6
# The largest width or row height, the largest signed 32-bit int.
_MAX_PX = 2 ** 31 - 1


class RenderConfig(_Value):
    """How `render_svg` lays out a diagram.

    * `width_px`: the document width in pixels, an int from 100 to
      2**31 - 1; a 10 px margin on each side and, with `label`, a 36 px
      label gutter come out of it.
    * `row_height_px`: the height of each stage's row in pixels, an int
      from 8 to 2**31 - 1; its bars are 6 px shorter.
    * `depth`: the last stage drawn, an int of at least 0, so stages
      0..depth give depth + 1 rows; `render_svg` refuses a depth whose
      rows could draw over `MAX_BUILT_INTERVALS` rects in all, at most
      min(branch**k, 2*inner + 2) in row k for an inner width of inner px.
    * `label`: True or False; when True, each row is labelled with its
      stage index in the gutter; the rows after a stall repeat the stalled
      stage's index.

    Each field is refused as it is checked, with one `ValidationError`: a
    floor through `_at_least` and the pixel ceiling in the same loop, each
    naming the value cut (`_cut`).
    """

    __match_args__ = ("width_px", "row_height_px", "depth", "label")

    def __init__(self, width_px: int = 800, row_height_px: int = 24, depth: int = 4,
                 label: bool = False) -> None:
        for what, n, least in (("render width", width_px, 100), ("row height", row_height_px, 8)):
            _at_least(n, what, least)
            if n > _MAX_PX:
                raise ValidationError(f"{what} must be at most {_MAX_PX}, got {_cut(n)}")
        _at_least(depth, "render depth")
        if type(label) is not bool:
            raise ValidationError(f"render label must be True or False, got {_echo(label)}")
        self.__setstate__((width_px, row_height_px, depth, label))


def _check_rows(spec: ConstructionSpec, depth: int, inner: int) -> None:
    """Refuse rows 0..depth when they could draw over `MAX_BUILT_INTERVALS` rects.

    The sum stops at the first row that passes the limit, so a huge depth
    is refused at once, and named cut (`_cut`).
    """
    branch, most = len(_child_rule(spec)[1](1, 1)), 2 * inner + 2
    row, total = 1, 0
    for k in range(depth + 1):
        total += row
        if total > MAX_BUILT_INTERVALS:
            raise ResourceLimitError(
                f"render depth {_cut(depth)}: rows 0..{k} could draw up to {total} rects, "
                f"min({branch}**k, {most}) in row k, over the limit of {MAX_BUILT_INTERVALS}")
        row = min(branch * row, most)


def render_svg(spec: ConstructionSpec, cfg: RenderConfig = RenderConfig()) -> str:
    gutter = _GUTTER if cfg.label else 0
    inner = cfg.width_px - gutter - 2 * _PAD
    _check_rows(spec, cfg.depth, inner)
    left = gutter + _PAD
    height = 2 * _PAD + (cfg.depth + 1) * cfg.row_height_px
    bar_h = max(1, cfg.row_height_px - _BAR_GAP)
    scale = 2 * inner

    def step(factor, rule, c, state, den):
        # The round, then the collapse: each pair kept with its (x, width).
        pairs = _round(factor, rule, c, state[0], den)
        den, twice = den * factor, 2 * den * factor
        kept, spans, point_at = [], [], None
        for a, b in pairs:
            x0 = left + (scale * a + den) // twice
            x1 = left + (scale * b + den) // twice
            if x0 == x1:
                # Every descendant paints this pixel alone: ride on as a point.
                if x0 == point_at:
                    continue
                point_at, b = x0, a
            kept.append((a, b))
            spans.append((x0, max(1, x1 - x0)))
        return kept, spans

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{cfg.width_px}" height="{height}" '
        f'viewBox="0 0 {cfg.width_px} {height}">',
        f'<rect width="{cfg.width_px}" height="{height}" fill="#ffffff"/>',
        '<g fill="#1f2430">',
    ]
    labels, index = [], 0
    # Row 0 is [0, 1], which spans the inner width.
    rows = _rounds(spec, cfg.depth, ([(0, 1)], [(left, inner)]), step)
    for row, (_, (_, spans), stalled) in enumerate(rows):
        y = _PAD + row * cfg.row_height_px
        lines += [f'<rect x="{x}" y="{y}" width="{w}" height="{bar_h}"/>' for x, w in spans]
        if cfg.label:
            labels.append(f'<text x="{_PAD}" y="{y + bar_h - 1}">{index}</text>')
        # A stalled stage repeats, index and all.
        index += not stalled
    lines.append('</g>')
    if cfg.label:
        lines += ['<g font-family="monospace" font-size="12" fill="#555555">', *labels, '</g>']
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
