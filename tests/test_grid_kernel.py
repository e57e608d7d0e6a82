"""The integer-grid stage kernel against plain `Fraction` definitions.

Every stage path (construct, render, the characterization check and
`iterate`) runs on integer endpoints over the family grid. Each is
compared here with the same output worked out in `Fraction`s from the
test's own stage definition (`_own_stages`), which does not use the
package's deletion rule.
"""

import copy
import json
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorkit import (
    CANTOR_TERNARY,
    Characterized,
    ClosedInterval,
    ExpansionSpec,
    IntervalUnion,
    MismatchWitness,
    Power,
    RenderConfig,
    Stage,
    Subdivision,
    ValidationError,
    characterization_equivalence_check,
    expansion_characterization,
    fraction_str,
    iterate,
    parse_spec,
    render_svg,
    stage_membership,
)
from cantorkit import constructions
from cantorkit.cli import cmd_analyze, cmd_construct
from cantorkit.constructions import _child_rule, _grid_stages, _round, _stall_round
from cantorkit.spec_io import PRESETS
from reference_stages import (
    _own_stages,
    normalize,
    per_component_round,
    reference_construct,
    specs_with_depth,
)


EDGE_CASES = [(Power(2), 6), (Subdivision(3, frozenset({0})), 6),
              (Subdivision(5, frozenset({0, 4})), 5), (Subdivision(6, frozenset({0, 1, 5})), 4)]


def with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(case)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(specs_with_depth())
@with_edge_cases
def test_construct_matches_the_fraction_stages(case):
    spec, depth = case
    own = _own_stages(spec, depth)
    pairs = [[(fraction_str(iv.lo), fraction_str(iv.hi)) for iv in union] for union, _ in own]
    assert cmd_construct(spec, depth, "json") == json.dumps(
        [[list(pair) for pair in stage] for stage in pairs])
    assert cmd_construct(spec, depth, "text") == "\n".join(
        " ∪ ".join(f"[{lo}, {hi}]" for lo, hi in stage) + (" [stalled]" if stalled else "")
        for stage, (_, stalled) in zip(pairs, own))
    # Each distinct endpoint is formatted once and the JSON is joined by
    # hand; the bytes are those of formatting every endpoint of every stage
    # and of json.dumps.
    for fmt in ("text", "json"):
        assert cmd_construct(spec, depth, fmt) == reference_construct(spec, depth, fmt)


@pytest.mark.parametrize("spec", [parse_spec(name) for name in sorted(PRESETS)]
                         + [parse_spec(f"svc:{m}") for m in range(2, 7)]
                         + [spec for spec, _ in EDGE_CASES], ids=str)
def test_each_round_of_the_stages_matches_the_per_component_round(spec):
    # svc:2 stalls at round 2; the edge-point subdivisions carry points.
    factor, rule = _child_rule(spec)
    stages = list(_grid_stages(spec, 5))
    for k, ((den, pairs, stalled), (_, after, _)) in enumerate(zip(stages, stages[1:])):
        if stalled:
            break
        got = _round(factor, rule, 2 ** k, pairs, den)
        assert got == per_component_round(factor, rule, 2 ** k, pairs, den)
        assert got == after


@pytest.mark.parametrize("m", [*range(2, 65), 10 ** 30 + 7])
def test_a_power_round_leaves_only_points_exactly_from_the_stall_round(m):
    # Every round-k component of a power spec has one length: follow it by
    # the rule on the grid and by the definition in Fractions (round k
    # removes 1/m**k from the middle). A stage is all points from the round
    # `_stall_round` names on, and at no other round. m = 3 is cut by
    # cantor's rule on the 3**k grid; every other m by the power rule on
    # the (2m)**k grid.
    spec = Power(m)
    factor, rule = _child_rule(spec)
    _, cantor_rule = _child_rule(parse_spec("cantor"))
    assert factor == (3 if m == 3 else 2 * m)
    stall = _stall_round(spec)
    length, c, own = 1, 1, Fraction(1)
    for k in range(1, 13):
        if length:
            (a, b), (u, v) = rule(c, length)
            assert (u, v) == (factor * length - b, factor * length)
            if m == 3:
                assert [(a, b), (u, v)] == cantor_rule(c, length)
            length, c = b - a, 2 * c
        own = max(Fraction(0), (own - Fraction(1, m ** k)) / 2)
        assert (length == 0) == (own == 0) == (stall is not None and k >= stall), k


def test_svc3_stages_are_cantors_on_the_3k_grid():
    for k in range(11):
        svc3 = list(_grid_stages(Power(3), k))
        assert svc3 == list(_grid_stages(parse_spec("cantor"), k))
        assert [den for den, _, _ in svc3] == [3 ** j for j in range(k + 1)]


def test_svc3_stage_descent_is_cantors():
    rng = random.Random(3303)
    cantor = parse_spec("cantor")
    points = [Fraction(0), Fraction(1), Fraction(1, 4), Fraction(1, 3), Fraction(3, 4)]
    for _ in range(2000):
        q = rng.randint(1, 3 ** 8)
        points.append(Fraction(rng.randint(0, q), q))
    for x in points:
        assert stage_membership(Power(3), x, 20) == stage_membership(cantor, x, 20), x


def test_svc2_repeats_one_flagged_entry_from_stage_2_on():
    stages = list(_grid_stages(Power(2), 10))
    assert [stalled for _, _, stalled in stages] == [False, False] + [True] * 9
    assert stages[2][1] == [(0, 0), (4, 4), (12, 12), (16, 16)]
    for den, pairs, _ in stages[3:]:
        assert den == stages[2][0] and pairs is stages[2][1]
    for m in range(3, 10):
        assert not any(stalled for _, _, stalled in _grid_stages(Power(m), 8))


@st.composite
def separated_pairs(draw):
    """Ordered, pairwise separated integer pairs, points among them."""
    pairs, start = [], 0
    for _ in range(draw(st.integers(1, 8))):
        start += draw(st.integers(0, 4))
        length = draw(st.sampled_from([0, 0, 1, 1, 2, 3, 5, 8, 12]))
        pairs.append((start, start + length))
        start += length + 1
    return pairs


@settings(max_examples=200, deadline=None)
@given(specs_with_depth(), st.integers(1, 64), separated_pairs())
@example((Power(2), 2), 2, [(0, 1), (3, 4)])
@example((Subdivision(3, frozenset({0})), 2), 2, [(0, 0), (1, 3)])
@example((Subdivision(5, frozenset({0, 4})), 2), 2, [(0, 0), (1, 4), (5, 5)])
def test_round_matches_the_per_component_round(case, c, pairs):
    # The first example is svc:2's stalling round 2 from its stage 1. A
    # power removal longer than its component (c above m * length, which no
    # stage reaches) leaves a reversed child, which both rounds refuse alike.
    factor, rule = _child_rule(case[0])

    def outcome(round_):
        try:
            return round_(factor, rule, c, pairs, 7)
        except ValidationError as exc:
            return str(exc)
    assert outcome(_round) == outcome(per_component_round)


def _watch_the_rule(monkeypatch):
    """Record (c, length) for every call of the family rule."""
    calls = []
    real_child_rule = constructions._child_rule

    def watched_child_rule(spec):
        factor, rule = real_child_rule(spec)

        def watched(c, length):
            calls.append((c, length))
            return rule(c, length)
        return factor, watched

    monkeypatch.setattr(constructions, "_child_rule", watched_child_rule)
    return calls


def test_iterate_calls_the_rule_once_per_round_on_cantor(monkeypatch):
    # Every component of a cantor stage is 1 over its grid 3**k: the depth
    # check's branch count, then one call for each of the 8 rounds.
    calls = _watch_the_rule(monkeypatch)
    iterate(parse_spec("cantor"), 8)
    assert calls == [(1, 1)] + [(2 ** k, 1) for k in range(8)]


@pytest.mark.parametrize("name", ["cantor", "ac", "ac5b", "svc:2", "svc:4", "c34"])
def test_a_stage_path_calls_the_rule_once_per_distinct_length(monkeypatch, name):
    spec = parse_spec(name)
    stages = list(_grid_stages(spec, 6))
    stall = next((k for k, (_, _, stalled) in enumerate(stages) if stalled), 6)
    # Round k + 1 cuts each distinct length of stage k once, with c = 2**k.
    want = [(2 ** k, length) for k, (_, pairs, _) in enumerate(stages[:stall])
            for length in sorted({b - a for a, b in pairs if b > a}, reverse=True)]
    calls = _watch_the_rule(monkeypatch)
    for build in (lambda: iterate(spec, 6), lambda: cmd_construct(spec, 6, "text"),
                  lambda: cmd_construct(spec, 6, "json")):
        calls.clear()
        build()
        assert calls[0] == (1, 1)  # the depth check's branch count
        assert sorted(calls[1:], key=lambda call: (call[0], -call[1])) == want


def _own_svg(spec, depth, width, row_height, label):
    """The SVG document, from `_own_stages` and `Fraction` half-up rounding."""
    own = _own_stages(spec, depth)
    gutter = 36 if label else 0
    inner = width - gutter - 20
    height = 20 + len(own) * row_height
    bar_h = row_height - 6

    def half_up(x):
        return (2 * x.numerator + x.denominator) // (2 * x.denominator)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        '<g fill="#1f2430">',
    ]
    for row, (union, _) in enumerate(own):
        y = 10 + row * row_height
        for iv in union:
            x0 = gutter + 10 + half_up(iv.lo * inner)
            x1 = gutter + 10 + half_up(iv.hi * inner)
            lines.append(f'<rect x="{x0}" y="{y}" width="{max(1, x1 - x0)}" height="{bar_h}"/>')
    lines.append('</g>')
    if label:
        # Stages after the first stalled one repeat its index.
        stall = next((k for k, (_, stalled) in enumerate(own) if stalled), len(own))
        lines.append('<g font-family="monospace" font-size="12" fill="#555555">')
        for row in range(len(own)):
            lines.append(f'<text x="10" y="{10 + row * row_height + bar_h - 1}">'
                         f'{min(row, stall)}</text>')
        lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"


_FILL = re.compile(r'<g fill="#1f2430">\n(.*?)</g>\n', re.S)
_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="\d+"/>')


def _fill_rects(svg):
    """(x0, x1, y) of each rect in the fill group, and the document without them."""
    fill = _FILL.search(svg)
    rects = [(int(x), int(x) + int(w), int(y)) for x, y, w in _RECT.findall(fill.group(1))]
    return rects, svg[:fill.start(1)] + svg[fill.end(1):]


def _painted(svg):
    """Each row's painted pixels as merged spans [x0, x1), and the rest of the document."""
    rects, rest = _fill_rects(svg)
    rows = {}
    for x0, x1, y in sorted(rects, key=lambda r: (r[2], r[0])):
        row = rows.setdefault(y, [])
        if row and x0 <= row[-1][1]:
            row[-1] = (row[-1][0], max(row[-1][1], x1))
        else:
            row.append((x0, x1))
    return rows, rest


@pytest.mark.parametrize("name", sorted(PRESETS) + [f"svc:{m}" for m in range(2, 7)])
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10), st.integers(100, 1200), st.integers(8, 40), st.booleans())
@example(6, 101, 9, True)
@example(10, 100, 8, False)
def test_render_matches_a_fraction_renderer(name, depth, width, row_height, label):
    # A component below one pixel rides on as a point, so the rects differ
    # from one per component; the pixels and every other byte do not.
    spec = parse_spec(name)
    cfg = RenderConfig(width_px=width, row_height_px=row_height, depth=depth, label=label)
    assert _painted(render_svg(spec, cfg)) == _painted(
        _own_svg(spec, depth, width, row_height, label))


@pytest.mark.parametrize("name", ["cantor", "ac", "svc:3"])
def test_a_deep_render_is_bounded_by_its_width(name):
    # 2**30 components at the last row; at most inner + 1 splitting
    # components and inner + 1 points are drawn in any row.
    svg = render_svg(parse_spec(name), RenderConfig(width_px=800, depth=30))
    per_row = Counter(y for _, _, y in _fill_rects(svg)[0])
    assert len(per_row) == 31
    assert max(per_row.values()) <= 2 * 780 + 2


def test_a_stall_still_labels_its_rows_at_the_narrowest_width():
    # svc:2 stalls at round 2, whose two components are 11 px wide at
    # width 100, so no collapsed component hides the stall.
    spec = parse_spec("svc:2")
    svg = render_svg(spec, RenderConfig(width_px=100, depth=6, label=True))
    assert re.findall(r'<text x="10" y="\d+">(\d+)</text>', svg) == list("0122222")
    assert _painted(svg) == _painted(_own_svg(spec, 6, 100, 24, True))


def _digit_prefix_union(es, depth):
    """Closure of the points whose first `depth` digits can all be allowed."""
    width = Fraction(1, es.base ** depth)
    out = []
    for digits in product(sorted(es.allowed), repeat=depth):
        acc = 0
        for d in digits:
            acc = acc * es.base + d
        lo = Fraction(acc, es.base ** depth)
        out.append(ClosedInterval(lo, lo + width))
    return normalize(out)


def _set_difference_witness(a, b):
    """Smallest endpoint, or midpoint of adjacent endpoints, in exactly one union."""
    pts = sorted(set(a.endpoints()) | set(b.endpoints()))
    candidates = []
    for i, p in enumerate(pts):
        if i:
            candidates.append((pts[i - 1] + p) / 2)
        candidates.append(p)
    for c in candidates:
        if a.covers(c) != b.covers(c):
            return c
    raise AssertionError("unions differ but no separating point was found")


def _own_check(spec, es, depth):
    own = _own_stages(spec, depth)
    for d in range(1, depth + 1):
        digit_set = _digit_prefix_union(es, d)
        if own[d][0] != digit_set:
            return MismatchWitness(d, _set_difference_witness(own[d][0], digit_set))
    return Characterized(es)


@st.composite
def digit_filters(draw, spec):
    found = expansion_characterization(spec)
    if isinstance(found, Characterized) and draw(st.booleans()):
        return found.spec
    base = draw(st.integers(2, 9))
    allowed = draw(st.sets(st.integers(0, base - 1), min_size=1, max_size=base - 1))
    return ExpansionSpec(base, frozenset(allowed))


@settings(max_examples=80, deadline=None)
@given(st.data(), specs_with_depth())
def test_characterization_check_matches_the_fraction_reference(data, case):
    spec, depth = case
    depth = max(1, min(depth, 5))
    es = data.draw(digit_filters(spec))
    assert characterization_equivalence_check(spec, es, depth) == _own_check(spec, es, depth)


def _assert_public_fractions(stage):
    """Every endpoint, set in place by the kernel, acts as the public `Fraction` of its value.

    The kernel writes `Fraction`'s two slots directly, so this is the guard
    on their names on every Python the package supports.
    """
    for iv in stage.intervals:
        for e in (iv.lo, iv.hi):
            f = Fraction(str(e))
            assert type(e) is Fraction
            assert e.denominator > 0 and gcd(e.numerator, e.denominator) == 1
            assert e == f and hash(e) == hash(f) and {f: 1}[e] == 1
            assert repr(e) == repr(f) and e + 0 == f


def _assert_stages_built_as_checked(stages, own):
    """Each stage equals its rebuild through the public constructors, and `own`.

    The stages are built without the constructors' checks; the rebuild runs
    them. Every distinct endpoint value is one `Fraction` object, shared by
    all the stages and both ends of a point that hold it.
    """
    stall = next((k for k, (_, stalled) in enumerate(own) if stalled), len(own))
    assert len(stages) == len(own)
    for i, (stage, (union, stalled)) in enumerate(zip(stages, own)):
        rebuilt = Stage(min(i, stall), IntervalUnion(tuple(
            ClosedInterval(iv.lo, iv.hi) for iv in stage.intervals)), stalled)
        assert stage == rebuilt and stage.intervals == union
        assert hash(stage) == hash(rebuilt)
        _assert_public_fractions(stage)
        assert pickle.loads(pickle.dumps(stage)) == stage
        assert copy.deepcopy(stage) == stage
    ends = [e for stage in stages for iv in stage.intervals for e in (iv.lo, iv.hi)]
    assert len({id(e) for e in ends}) == len(set(ends))


def _check_iterate(spec, depth):
    """`iterate` equals `_own_stages`, built as checked."""
    _assert_stages_built_as_checked(iterate(spec, depth), _own_stages(spec, depth))


@pytest.mark.parametrize("name", sorted(PRESETS) + [f"svc:{m}" for m in range(2, 8)])
def test_unchecked_stages_equal_the_checked_ones(name):
    _check_iterate(parse_spec(name), 8)


@settings(max_examples=80, deadline=None)
@given(specs_with_depth())
@with_edge_cases
def test_iterate_matches_the_fraction_stages(case):
    _check_iterate(*case)


def test_stage_paths_build_no_intervals(monkeypatch):
    # Construct, render and the characterization check read the integer
    # grid directly; a ClosedInterval built on their path means a route back
    # through Fractions.
    built = []
    init = ClosedInterval.__init__

    def counting(self, lo, hi):
        built.append((lo, hi))
        init(self, lo, hi)

    monkeypatch.setattr(ClosedInterval, "__init__", counting)
    spec = parse_spec("cantor")
    render_svg(spec, RenderConfig(depth=8, label=True))
    cmd_construct(spec, 8, "json")
    characterization_equivalence_check(spec, CANTOR_TERNARY, 8)
    assert built == []
    # The hook does fire: the public constructor still runs its check.
    ClosedInterval(0, 1)
    assert built == [(0, 1)]


@pytest.mark.parametrize("children", [
    lambda length: [(0, 2 * length), (length, 3 * length)],
    lambda length: [(0, length), (length, 3 * length)],
    lambda length: [(length, 0)],
], ids=["overlap", "touch", "reversed"])
def test_a_round_that_breaks_the_stage_is_refused(monkeypatch, children):
    # Only the constructions module reads the rule; every other path steps through it.
    monkeypatch.setattr(constructions, "_child_rule",
                        lambda spec: (3, lambda c, length: children(length)))
    for build in (lambda s: iterate(s, 2), lambda s: cmd_construct(s, 2),
                  lambda s: render_svg(s, RenderConfig(depth=2)), lambda s: cmd_analyze(s, 2)):
        with pytest.raises(ValidationError, match="out of order, overlapping or touching the interval before it"):
            build(parse_spec("cantor"))
