import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorkit import (
    ClosedInterval,
    ExcludedAtDepth,
    IntervalUnion,
    MemberByCycle,
    MemberByEndpoint,
    Power,
    Proportional,
    ResourceLimitError,
    Run,
    Subdivision,
    UndecidedMemberToDepth,
    ValidationError,
    initial_stage,
    iterate,
    kept_runs,
    limit_membership,
    next_stage,
    parse_spec,
    stage_membership,
    union_measure,
    verdict_is_member,
)
from reference_stages import EXPECTED_STAGES, table


class TestSpecValidation:
    def test_proportional_range(self):
        Proportional(Fraction(1, 3))
        for bad in (Fraction(0), Fraction(1), Fraction(5, 4), Fraction(-1, 3)):
            with pytest.raises(ValidationError):
                Proportional(bad)

    def test_power_base(self):
        Power(2)
        for bad in (1, 0, -3, True):
            with pytest.raises(ValidationError):
                Power(bad)

    def test_subdivision_constraints(self):
        Subdivision(4, frozenset({2}))
        with pytest.raises(ValidationError):
            Subdivision(2, frozenset({1}))
        with pytest.raises(ValidationError):
            Subdivision(4, frozenset())
        with pytest.raises(ValidationError):
            Subdivision(4, frozenset({0, 1, 2, 3}))
        with pytest.raises(ValidationError):
            Subdivision(4, frozenset({4}))
        with pytest.raises(ValidationError):
            Subdivision(4, frozenset({-1}))


class TestKeptRuns:
    def test_single_removed_part(self):
        runs = kept_runs(Subdivision(4, frozenset({2})))
        assert runs == (
            Run(0, 2, (Fraction(0), Fraction(1, 2))),
            Run(3, 1, (Fraction(3, 4), Fraction(1))),
        )

    def test_middle_third(self):
        runs = kept_runs(Subdivision(3, frozenset({1})))
        assert [(r.start, r.width) for r in runs] == [(0, 1), (2, 1)]

    def test_wide_runs(self):
        runs = kept_runs(Subdivision(8, frozenset({3, 4})))
        assert [(r.start, r.width) for r in runs] == [(0, 3), (5, 3)]

    def test_adjacent_removed_parts_form_one_gap(self):
        runs = kept_runs(Subdivision(5, frozenset({2, 3})))
        assert [(r.start, r.width) for r in runs] == [(0, 2), (4, 1)]

    def test_matches_a_scan_of_every_part(self):
        rng = random.Random(4181)
        for _ in range(300):
            n = rng.randint(3, 12)
            removed = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
            runs: list[list[int]] = []
            for i in range(n):
                if i in removed:
                    continue
                if runs and runs[-1][0] + runs[-1][1] == i:
                    runs[-1][1] += 1
                else:
                    runs.append([i, 1])
            got = kept_runs(Subdivision(n, removed))
            assert [[r.start, r.width] for r in got] == runs
            assert all(r.span == (Fraction(r.start, n), Fraction(r.start + r.width, n))
                       for r in got)

    def test_cost_does_not_grow_with_the_part_count(self):
        runs = kept_runs(Subdivision(10 ** 7, frozenset({1})))
        assert [(r.start, r.width) for r in runs] == [(0, 1), (2, 10 ** 7 - 2)]


class TestNextStage:
    def test_first_middle_thirds_round(self):
        s1 = next_stage(Proportional(Fraction(1, 3)), initial_stage())
        assert s1.index == 1 and not s1.stalled
        assert s1.intervals == table(EXPECTED_STAGES["cantor"][1])

    def test_subdivision_round_merges_adjacent_kept_parts(self):
        spec = Subdivision(4, frozenset({2}))
        s1 = next_stage(spec, initial_stage())
        assert s1.intervals == table(EXPECTED_STAGES["ac"][1])
        s2 = next_stage(spec, s1)
        assert s2.intervals == table(EXPECTED_STAGES["ac"][2])

    def test_power_round_uses_step_indexed_removal(self):
        spec = Power(4)
        s1 = next_stage(spec, initial_stage())
        assert s1.intervals == table(EXPECTED_STAGES["svc:4"][1])
        s2 = next_stage(spec, s1)
        assert s2.intervals == table(EXPECTED_STAGES["svc:4"][2])

    def test_power_stall_leaves_degenerate_endpoints(self):
        spec = Power(2)
        s1 = next_stage(spec, initial_stage())
        s2 = next_stage(spec, s1)
        assert s2.stalled
        assert s2.intervals == table(EXPECTED_STAGES["svc:2"][2])
        # a stalled stage is a fixed point
        assert next_stage(spec, s2) is s2

    def test_removed_edge_part_leaves_the_boundary_point(self):
        # the deleted span is open, so the component edge survives alone
        spec = Subdivision(3, frozenset({0}))
        s1 = next_stage(spec, initial_stage())
        assert s1.intervals == IntervalUnion.from_pairs(
            [(0, 0), (Fraction(1, 3), 1)])


class TestIterate:
    @pytest.mark.parametrize("preset", sorted(EXPECTED_STAGES))
    def test_matches_reference_tables(self, preset):
        spec = parse_spec(preset)
        deepest = max(EXPECTED_STAGES[preset])
        stages = iterate(spec, deepest)
        for depth, pairs in EXPECTED_STAGES[preset].items():
            assert stages[depth].intervals == table(pairs), (preset, depth)

    def test_depth_zero(self):
        stages = iterate(parse_spec("cantor"), 0)
        assert len(stages) == 1
        assert stages[0].intervals == IntervalUnion.from_pairs([(0, 1)])

    def test_stalled_stage_repeats(self):
        stages = iterate(parse_spec("svc:2"), 5)
        assert stages[2].stalled
        assert stages[3] is stages[2] and stages[5] is stages[2]

    def test_resource_limit_upfront(self):
        with pytest.raises(ResourceLimitError):
            iterate(parse_spec("cantor"), 31)
        with pytest.raises(ResourceLimitError):
            iterate(parse_spec("cantor"), 6, max_intervals=32)
        iterate(parse_spec("cantor"), 5, max_intervals=32)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValidationError):
            iterate(parse_spec("cantor"), -1)


NESTING_CASES = [("cantor", 12), ("c34", 10), ("ac", 12), ("svc:4", 10), ("ac5b", 8)]


@pytest.mark.parametrize("preset,depth", NESTING_CASES)
def test_stages_are_nested(preset, depth):
    stages = iterate(parse_spec(preset), depth)
    for outer, inner in zip(stages, stages[1:]):
        assert outer.intervals.contains_union(inner.intervals)


@pytest.mark.parametrize("preset", ["cantor", "c12", "c14", "c34"])
def test_proportional_count_and_length_law(preset):
    spec = parse_spec(preset)
    ratio = spec.child_ratio
    for n, stage in enumerate(iterate(spec, 10)):
        assert len(stage.intervals) == 2 ** n
        assert all(iv.length == ratio ** n for iv in stage.intervals)


@pytest.mark.parametrize("preset", ["cantor", "c34", "ac", "svc:4", "ac5a"])
def test_endpoints_persist(preset):
    stages = iterate(parse_spec(preset), 8)
    for outer, inner in zip(stages, stages[1:]):
        assert set(outer.intervals.endpoints()) <= set(inner.intervals.endpoints())


def test_stage_measure_decreases_until_stall():
    stages = iterate(parse_spec("svc:2"), 5)
    measures = [union_measure(s.intervals) for s in stages]
    assert measures == [1, Fraction(1, 2), 0, 0, 0, 0]


class TestStageMembership:
    def test_power_endpoint_survives(self):
        assert stage_membership(Power(4), Fraction(7, 32), 2)

    def test_removed_midpoint(self):
        assert not stage_membership(Proportional(Fraction(1, 3)), Fraction(1, 2), 1)
        assert stage_membership(Proportional(Fraction(1, 3)), Fraction(1, 2), 0)

    def test_deep_endpoint(self):
        assert stage_membership(Subdivision(4, frozenset({2})), Fraction(63, 64), 3)

    def test_outside_unit_interval(self):
        assert not stage_membership(Power(4), Fraction(3, 2), 1)
        assert not stage_membership(Power(4), Fraction(-1, 2), 1)

    def test_stalled_points_persist_at_any_depth(self):
        for x in (Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)):
            assert stage_membership(Power(2), x, 40)
        assert not stage_membership(Power(2), Fraction(1, 8), 40)

    def test_agrees_with_enumerated_stages(self):
        rng = random.Random(90125)
        for preset in ("cantor", "ac", "svc:4", "ac5b"):
            spec = parse_spec(preset)
            stages = iterate(spec, 6)
            for _ in range(150):
                q = rng.randint(1, 300)
                x = Fraction(rng.randint(0, q), q)
                assert stage_membership(spec, x, 6) == stages[6].intervals.covers(x)


class TestLimitMembership:
    def test_cycle_member(self):
        v = limit_membership(Proportional(Fraction(1, 3)), Fraction(1, 4))
        assert v == MemberByCycle(cycle_length=2)

    def test_excluded_first_round(self):
        v = limit_membership(Proportional(Fraction(1, 3)), Fraction(1, 2))
        assert v == ExcludedAtDepth(depth=1)

    def test_subdivision_excluded(self):
        v = limit_membership(Subdivision(4, frozenset({2})), Fraction(1, 3))
        assert v == ExcludedAtDepth(depth=2)

    def test_subdivision_endpoint(self):
        v = limit_membership(Subdivision(4, frozenset({2})), Fraction(1, 2))
        assert v == MemberByEndpoint(depth=1)
        v = limit_membership(Subdivision(4, frozenset({2})), Fraction(1, 4))
        assert v == MemberByEndpoint(depth=2)

    def test_unit_endpoints(self):
        for preset in ("cantor", "ac", "svc:4"):
            spec = parse_spec(preset)
            assert limit_membership(spec, Fraction(0)) == MemberByEndpoint(depth=0)
            assert limit_membership(spec, Fraction(1)) == MemberByEndpoint(depth=0)

    def test_power_verdicts(self):
        assert limit_membership(Power(4), Fraction(1, 2)) == ExcludedAtDepth(depth=1)
        assert limit_membership(Power(4), Fraction(3, 8)) == MemberByEndpoint(depth=1)
        assert limit_membership(Power(2), Fraction(1, 4)) == MemberByEndpoint(depth=1)
        assert limit_membership(Power(2), Fraction(1, 8)) == ExcludedAtDepth(depth=2)
        deep = limit_membership(Power(4), Fraction(1, 3), depth_cap=25)
        assert deep == UndecidedMemberToDepth(depth=25)

    def test_removed_edge_part_keeps_the_corner(self):
        spec = Subdivision(3, frozenset({0}))
        assert limit_membership(spec, Fraction(0)) == MemberByEndpoint(depth=0)
        assert stage_membership(spec, Fraction(0), 10)
        assert limit_membership(spec, Fraction(1, 6)) == ExcludedAtDepth(depth=1)

    def test_double_removed_interior_boundary_is_gone(self):
        spec = Subdivision(5, frozenset({2, 3}))
        assert limit_membership(spec, Fraction(3, 5)) == ExcludedAtDepth(depth=1)
        assert not stage_membership(spec, Fraction(3, 5), 1)

    def test_domain_error_outside_unit(self):
        from cantorkit import DomainError
        with pytest.raises(DomainError):
            limit_membership(Power(4), Fraction(3, 2))

    def test_cap_reached_is_undecided(self):
        v = limit_membership(Proportional(Fraction(1, 4)), Fraction(1, 7), depth_cap=3)
        assert isinstance(v, (UndecidedMemberToDepth, ExcludedAtDepth, MemberByCycle,
                              MemberByEndpoint))

    @pytest.mark.parametrize("preset", ["cantor", "c12", "c34", "ac", "ac-reflected",
                                        "ac5a"])
    def test_width_factors_cancel_so_walks_always_decide(self, preset):
        # width-1 runs, and ac's width-2 run starts at 0, so the state
        # denominators divide the query's and the memo table is finite
        spec = parse_spec(preset)
        rng = random.Random(6502)
        for _ in range(200):
            q = rng.randint(1, 400)
            x = Fraction(rng.randint(0, q), q)
            assert not isinstance(limit_membership(spec, x), UndecidedMemberToDepth)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=600),
       st.sampled_from(["cantor", "c12", "c34", "ac", "ac5b"]))
def test_verdict_consistency_with_stage_descent(x, preset):
    spec = parse_spec(preset)
    verdict = limit_membership(spec, x)
    member = verdict_is_member(verdict)
    if isinstance(verdict, ExcludedAtDepth):
        assert not stage_membership(spec, x, verdict.depth)
        assert stage_membership(spec, x, verdict.depth - 1)
    elif member:
        for depth in (5, 20):
            assert stage_membership(spec, x, depth)


def _own_round(spec, k, lo, hi):
    """One deletion round on a non-degenerate [lo, hi], written out from the
    family definitions: (pieces left, whether the round stalls)."""
    length = hi - lo
    if isinstance(spec, Proportional):
        gap = spec.p * length
        mid = (lo + hi) / 2
        return [(lo, mid - gap / 2), (mid + gap / 2, hi)], False
    if isinstance(spec, Power):
        removal = Fraction(1, spec.m ** k)
        if removal > length:
            return [(lo, hi)], True
        mid = (lo + hi) / 2
        return [(lo, mid - removal / 2), (mid + removal / 2, hi)], removal == length
    # Every kept part is closed, and both edges of the component survive
    # the open removals; touching kept parts merge when normalized.
    part = length / spec.n
    pieces = [(lo, lo), (hi, hi)]
    pieces += [(lo + i * part, lo + (i + 1) * part)
               for i in range(spec.n) if i not in spec.removed]
    return pieces, False


def _own_stages(spec, depth):
    """(normalized union, stalled) for stages 0..depth."""
    union, stalled = IntervalUnion.from_pairs([(0, 1)]), False
    out = [(union, stalled)]
    for k in range(1, depth + 1):
        if not stalled:
            nxt = []
            for iv in union:
                if iv.is_point:
                    nxt.append((iv.lo, iv.hi))
                    continue
                pieces, stop = _own_round(spec, k, iv.lo, iv.hi)
                nxt += pieces
                stalled = stalled or stop
            union = IntervalUnion.from_pairs(nxt)
        out.append((union, stalled))
    return out


@st.composite
def specs_with_depth(draw):
    family = draw(st.sampled_from(["proportional", "power", "subdivision"]))
    if family == "proportional":
        den = draw(st.integers(2, 12))
        return Proportional(Fraction(draw(st.integers(1, den - 1)), den)), draw(
            st.integers(0, 6))
    if family == "power":
        return Power(draw(st.integers(2, 6))), draw(st.integers(0, 6))
    n = draw(st.integers(3, 7))
    removed = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return Subdivision(n, frozenset(removed)), draw(st.integers(0, 4 if n > 5 else 6))


@settings(max_examples=80, deadline=None)
@given(specs_with_depth())
@example((Power(2), 6))
@example((Subdivision(3, frozenset({0})), 6))
@example((Subdivision(5, frozenset({0, 4})), 5))
@example((Subdivision(6, frozenset({0, 1, 5})), 4))
def test_stages_match_the_family_definitions(case):
    spec, depth = case
    own = _own_stages(spec, depth)
    stages = iterate(spec, depth)
    for d, (union, stalled) in enumerate(own):
        assert stages[d].intervals == union, (spec, d)
        assert stages[d].stalled == stalled, (spec, d)
        ends = union.endpoints()
        gaps = [(a.hi + b.lo) / 2 for a, b in zip(union, union.intervals[1:])]
        for x in ends:
            assert stage_membership(spec, x, d), (spec, d, x)
        for x in gaps:
            assert not stage_membership(spec, x, d), (spec, d, x)
