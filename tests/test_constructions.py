import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorkit import (
    CANTOR_TERNARY,
    MAX_ENUMERATED_INTERVALS,
    ClosedInterval,
    ExcludedAtDepth,
    ExpansionSpec,
    IntervalUnion,
    MemberByCycle,
    MemberByEndpoint,
    Power,
    Proportional,
    RenderConfig,
    ResourceLimitError,
    Subdivision,
    UndecidedMemberToDepth,
    ValidationError,
    characterization_equivalence_check,
    iterate,
    limit_membership,
    max_component_length,
    parse_spec,
    render_svg,
    stage_measure,
    stage_membership,
    verdict_is_member,
)
from cantorkit.cli import cmd_analyze, cmd_construct
from cantorkit.constructions import MAX_BUILT_INTERVALS, _check_depth, _kept_grid
from reference_stages import (
    EXPECTED_STAGES,
    _own_stages,
    _power_membership,
    _self_similar_membership,
    specs_with_depth,
    table,
)


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
        assert _kept_grid(Subdivision(4, frozenset({2}))) == (4, ((0, 2), (3, 4)))

    def test_middle_third(self):
        assert _kept_grid(Subdivision(3, frozenset({1}))) == (3, ((0, 1), (2, 3)))
        assert _kept_grid(Power(3)) == (3, ((0, 1), (2, 3)))

    def test_wide_runs(self):
        assert _kept_grid(Subdivision(8, frozenset({3, 4}))) == (8, ((0, 3), (5, 8)))

    def test_adjacent_removed_parts_form_one_gap(self):
        assert _kept_grid(Subdivision(5, frozenset({2, 3}))) == (5, ((0, 2), (4, 5)))

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
            d, got = _kept_grid(Subdivision(n, removed))
            assert d == n and [[a, b - a] for a, b in got] == runs

    def test_cost_does_not_grow_with_the_part_count(self):
        runs = _kept_grid(Subdivision(10 ** 7, frozenset({1})))[1]
        assert runs == ((0, 1), (2, 10 ** 7))


class TestRounds:
    def test_first_middle_thirds_round(self):
        s1 = iterate(Proportional(Fraction(1, 3)), 1)[1]
        assert s1.index == 1 and not s1.stalled
        assert s1.intervals == table(EXPECTED_STAGES["cantor"][1])

    def test_subdivision_round_merges_adjacent_kept_parts(self):
        stages = iterate(Subdivision(4, frozenset({2})), 2)
        assert stages[1].intervals == table(EXPECTED_STAGES["ac"][1])
        assert stages[2].intervals == table(EXPECTED_STAGES["ac"][2])

    def test_power_round_uses_step_indexed_removal(self):
        stages = iterate(Power(4), 2)
        assert stages[1].intervals == table(EXPECTED_STAGES["svc:4"][1])
        assert stages[2].intervals == table(EXPECTED_STAGES["svc:4"][2])

    def test_power_stall_leaves_degenerate_endpoints(self):
        stages = iterate(Power(2), 3)
        assert stages[2].stalled
        assert stages[2].intervals == table(EXPECTED_STAGES["svc:2"][2])
        # a stalled stage is a fixed point
        assert stages[3] is stages[2]

    def test_removed_edge_part_leaves_the_boundary_point(self):
        # the deleted span is open, so the component edge survives alone
        s1 = iterate(Subdivision(3, frozenset({0})), 1)[1]
        assert s1.intervals == IntervalUnion(
            (ClosedInterval(0, 0), ClosedInterval(Fraction(1, 3), 1)))


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
        assert stages[0].intervals == IntervalUnion((ClosedInterval(0, 1),))

    def test_stalled_stage_repeats(self):
        stages = iterate(parse_spec("svc:2"), 5)
        assert stages[2].stalled
        assert stages[3] is stages[2] and stages[5] is stages[2]

    def test_resource_limit_upfront(self):
        cantor = parse_spec("cantor")
        message = "^stage 19 could hold up to 2\\*\\*19 intervals, over the limit of 262144$"
        one_digit = ExpansionSpec(3, frozenset({0}))
        for build in (lambda: iterate(cantor, 19), lambda: cmd_construct(cantor, 19),
                      lambda: characterization_equivalence_check(cantor, one_digit, 19)):
            with pytest.raises(ResourceLimitError, match=message):
                build()
        with pytest.raises(ResourceLimitError, match="^digit level 19 could hold up to "
                           "2\\*\\*19 intervals, over the limit of 262144$"):
            characterization_equivalence_check(cantor, CANTOR_TERNARY, 19)
        # 2**18 intervals is exactly the limit of a built stage; the check
        # passes without building one.
        assert _check_depth(cantor, 18, MAX_BUILT_INTERVALS) is None
        # analyze keeps no stage, so it keeps the enumeration limit (analyze
        # at 31 is checked in test_cli; render bounds the rects it draws).
        assert _check_depth(cantor, 30, MAX_ENUMERATED_INTERVALS) is None
        assert "scale census at depth 30: 1/205891132094649 x1073741824" in cmd_analyze(cantor, 30)

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
    measures = [s.intervals.measure for s in stages]
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

    def test_growing_denominators_stay_cheap(self):
        # The descent compares integers on the grid s**k; in Fractions each
        # step reduced a 40,000-bit pair and this took several seconds.
        start = time.perf_counter()
        assert stage_membership(Proportional(Fraction(1, 1000001)), Fraction(1, 3), 2000)
        assert time.perf_counter() - start < 2.0

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
        # a boundary hit on the last step the cap allows still counts
        v = limit_membership(Subdivision(4, frozenset({2})), Fraction(1, 2), depth_cap=1)
        assert v == MemberByEndpoint(depth=1)

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
        # removed at step 2, before the cap of 3 is reached
        v = limit_membership(Proportional(Fraction(1, 4)), Fraction(1, 7), depth_cap=3)
        assert v == ExcludedAtDepth(depth=2)
        # each point survives the rounds before `depth`, so a cap below it
        # stops the walk undecided
        for spec, x, depth in ((Proportional(Fraction(1, 4)), Fraction(1, 3), 5),
                               (Power(4), Fraction(1, 5), 2)):
            assert limit_membership(spec, x, depth - 1) == UndecidedMemberToDepth(depth - 1)
            assert limit_membership(spec, x, depth) == ExcludedAtDepth(depth)
        v = limit_membership(Power(5), Fraction(15, 41), depth_cap=300)
        assert v == UndecidedMemberToDepth(depth=300)

    def test_power_walk_stays_cheap(self):
        # The walk compares integers on the grid q * (2m)**k; in Fractions
        # each step reduced a growing pair and this took 6.6-8.4 s.
        start = time.perf_counter()
        v = limit_membership(Power(4), Fraction(1, 7), depth_cap=10_000)
        assert v == UndecidedMemberToDepth(depth=10_000)
        assert time.perf_counter() - start < 2.0

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


@st.composite
def grid_specs_with_depth(draw):
    family = draw(st.sampled_from(["proportional", "power", "subdivision"]))
    if family == "proportional":
        den = draw(st.integers(2, 12))
        return Proportional(Fraction(draw(st.integers(1, den - 1)), den)), draw(
            st.integers(0, 5))
    if family == "power":
        return Power(draw(st.integers(2, 6))), draw(st.integers(0, 6))
    n = draw(st.integers(3, 7))
    removed = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return Subdivision(n, frozenset(removed)), draw(st.integers(0, 3 if n > 5 else 5))


@settings(max_examples=80, deadline=None)
@given(grid_specs_with_depth())
@example((Subdivision(3, frozenset({0})), 5))
@example((Subdivision(6, frozenset({0, 1, 5})), 3))
@example((Proportional(Fraction(1, 4)), 5))
@example((Power(2), 6))
def test_limit_verdicts_match_the_family_definitions(case):
    # Every stage endpoint is a member, and the midpoint of a gap first
    # opened at round k is excluded at step k.
    spec, depth = case
    own = _own_stages(spec, depth)
    for k in range(1, depth + 1):
        union, earlier = own[k][0], own[k - 1][0]
        for x in union.endpoints():
            assert verdict_is_member(limit_membership(spec, x)), (spec, k, x)
        for a, b in zip(union, union.intervals[1:]):
            mid = (a.hi + b.lo) / 2
            if earlier.covers(mid):
                assert limit_membership(spec, mid) == ExcludedAtDepth(k), (spec, k, mid)


def _power_stage_points(m, depth):
    """Endpoints and gap midpoints of `Power(m)`'s stages 1..depth."""
    points = set()
    for union, _ in _own_stages(Power(m), depth)[1:]:
        points |= set(union.endpoints())
        points |= {(a.hi + b.lo) / 2 for a, b in zip(union, union.intervals[1:])}
    return sorted(points)


@st.composite
def power_queries(draw):
    q = draw(st.integers(1, 5000))
    return (Power(draw(st.integers(2, 12))), Fraction(draw(st.integers(0, q)), q),
            draw(st.integers(0, 300)))


def with_power_edge_cases(test):
    # the unit endpoints, and the m = 2 stall: 1/4 and 3/4 are left as
    # points at round 2 and 1/8 goes with the removal that takes the rest
    for m in (2, 7):
        for x in (Fraction(0), Fraction(1)):
            for cap in (0, 300):
                test = example((Power(m), x, cap))(test)
    for x in (Fraction(1, 4), Fraction(3, 4), Fraction(1, 8)):
        for cap in (0, 1, 2, 300):
            test = example((Power(2), x, cap))(test)
    return test


@settings(max_examples=100, deadline=None)
@given(power_queries())
@with_power_edge_cases
@example((Power(3), Fraction(1, 4), 3))
def test_power_walk_matches_the_fraction_reference(case):
    # Power(3) walks cantor's kept-run table, whose cycle check decides
    # points (1/4 at cap 3) that the Fraction descent leaves undecided at
    # the cap; a verdict the descent does reach must be the same.
    spec, x, cap = case
    got = limit_membership(spec, x, cap)
    if spec.m != 3:
        assert got == _power_membership(spec, x, cap), case
        return
    assert got == _self_similar_membership(CANTOR, x, cap), case
    descent = verdict_is_member(_power_membership(spec, x, cap))
    assert descent is None or descent == verdict_is_member(got), case


@pytest.mark.parametrize("m", range(2, 7))
def test_power_walk_matches_the_fraction_reference_at_stage_points(m):
    for x in _power_stage_points(m, 5):
        for cap in (0, 1, 3, 5, 6, 30):
            assert limit_membership(Power(m), x, cap) == _power_membership(Power(m), x, cap), (
                m, x, cap)


def test_proportional_is_the_subdivision_that_removes_the_middle_parts():
    for den in range(2, 13):
        for num in range(1, den):
            spec = Proportional(Fraction(num, den))
            r, s = spec.child_ratio.numerator, spec.child_ratio.denominator
            twin = Subdivision(s, frozenset(range(r, s - r)))
            for a, b in zip(iterate(spec, 4), iterate(twin, 4)):
                assert a.intervals == b.intervals and a.stalled == b.stalled, (spec, twin)


def test_power_removal_never_outgrows_the_component():
    # From [0, 1] the round-(k-1) length L is at least the round-k removal
    # 1/m**k, with equality only at m = 2, k = 2, where the process stalls.
    for m in range(2, 41):
        length = Fraction(1)
        for k in range(1, 65):
            removal = Fraction(1, m ** k)
            assert length >= removal, (m, k)
            if length == removal:
                assert (m, k) == (2, 2)
                break
            length = (length - removal) / 2


CANTOR = Proportional(Fraction(1, 3))


@pytest.mark.parametrize("call, message", [
    (lambda: Proportional("x"), "removal proportion must be a rational number, got 'x'"),
    (lambda: Proportional(None), "removal proportion must be a rational number, got None"),
    (lambda: Proportional(float("inf")), "removal proportion must be a rational number, got inf"),
    (lambda: Proportional("1/0"), "removal proportion must be a rational number, got '1/0'"),
    (lambda: Subdivision(4, [1, True]), "removed index True is not an integer"),
    (lambda: Subdivision(5, [[1]]), "removed index [1] is not an integer"),
], ids=["text", "none", "inf", "zero-den", "bool-index", "list-index"])
def test_a_family_value_that_is_not_a_number_is_refused(call, message):
    # The family's own error, not the one Fraction() or hashing would raise,
    # and a bool is not read as the index 1.
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: iterate(CANTOR, 2.5), "depth must be an integer, got 2.5"),
    (lambda: iterate(CANTOR, "3"), "depth must be an integer, got '3'"),
    (lambda: iterate(CANTOR, True), "depth must be an integer, got True"),
    (lambda: cmd_construct(CANTOR, 2.5), "depth must be an integer, got 2.5"),
    (lambda: cmd_analyze(CANTOR, 2.5), "depth must be an integer, got 2.5"),
    (lambda: render_svg(CANTOR, RenderConfig(depth=2.5)),
     "render depth must be an integer, got 2.5"),
    (lambda: RenderConfig(width_px=100.5), "render width must be an integer, got 100.5"),
    (lambda: RenderConfig(row_height_px=8.5), "row height must be an integer, got 8.5"),
    (lambda: characterization_equivalence_check(CANTOR, CANTOR_TERNARY, 2.5),
     "comparison depth must be an integer, got 2.5"),
    (lambda: stage_membership(CANTOR, Fraction(1, 4), 2.5), "depth must be an integer, got 2.5"),
    (lambda: limit_membership(CANTOR, Fraction(1, 4), 2.5),
     "depth cap must be an integer, got 2.5"),
    (lambda: stage_measure(CANTOR, 2.5), "stage index must be an integer, got 2.5"),
    (lambda: max_component_length(CANTOR, Fraction(5, 2)),
     "stage index must be an integer, got Fraction(5, 2)"),
])
def test_a_count_that_is_not_an_int_is_refused(call, message):
    # A float, a string or a bool used to give a float, a fractional pixel,
    # a bare TypeError or, for True, depth 1.
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message
