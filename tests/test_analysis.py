import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorkit import (
    CANTOR_TERNARY,
    Characterized,
    DigitExpansion,
    DomainError,
    ExcludedAtDepth,
    ExpansionSpec,
    MismatchWitness,
    NotCharacterizable,
    PRESETS,
    Power,
    Subdivision,
    ValidationError,
    allowed_expansion,
    cantor_function,
    characterization_equivalence_check,
    contraction_ratios,
    expansion_characterization,
    expansion_membership,
    fraction_str,
    iterate,
    limit_is_degenerate,
    limit_measure,
    limit_membership,
    max_component_length,
    parse_spec,
    similarity_dimension,
    stage_measure,
)
from cantorkit.analysis import _digit_search, _length_census
from cantorkit.cli import cmd_analyze
from cantorkit.constructions import _kept_grid
from reference_stages import length_census, reference_cantor_function, reference_digits


class TestStageMeasure:
    def test_middle_thirds(self):
        got = [stage_measure(parse_spec("cantor"), n) for n in range(4)]
        assert got == [1, Fraction(2, 3), Fraction(4, 9), Fraction(8, 27)]

    def test_power_family(self):
        got = [stage_measure(Power(4), n) for n in range(5)]
        assert got == [1, Fraction(3, 4), Fraction(5, 8), Fraction(9, 16),
                       Fraction(17, 32)]

    def test_power_closed_form(self):
        for n in range(12):
            assert stage_measure(Power(4), n) == Fraction(1, 2) + Fraction(1, 2 ** (n + 1))

    def test_stalled_measure_is_zero(self):
        assert stage_measure(Power(2), 1) == Fraction(1, 2)
        for n in (2, 3, 10, 100):
            assert stage_measure(Power(2), n) == 0

    def test_subdivision(self):
        got = [stage_measure(parse_spec("ac"), n) for n in range(4)]
        assert got == [1, Fraction(3, 4), Fraction(9, 16), Fraction(27, 64)]

    @pytest.mark.parametrize("preset", ["cantor", "c12", "c14", "c34", "svc:4",
                                        "svc:3", "ac", "ac5a", "ac5b"])
    def test_agrees_with_enumerated_union(self, preset):
        spec = parse_spec(preset)
        for n, stage in enumerate(iterate(spec, 8)):
            assert stage_measure(spec, n) == stage.intervals.measure

    def test_negative_index_rejected(self):
        with pytest.raises(ValidationError):
            stage_measure(Power(4), -1)


class TestLimitMeasure:
    def test_proportional_vanishes(self):
        for preset in ("cantor", "c12", "c14", "c34"):
            assert limit_measure(parse_spec(preset)) == 0

    def test_subdivision_vanishes(self):
        for preset in ("ac", "ac-reflected", "ac5a", "ac5b"):
            assert limit_measure(parse_spec(preset)) == 0

    def test_power_formula(self):
        assert limit_measure(Power(2)) == 0
        for m in range(3, 11):
            assert limit_measure(Power(m)) == Fraction(m - 3, m - 2)

    def test_power_four_stays_above_its_limit(self):
        limit = limit_measure(Power(4))
        assert limit == Fraction(1, 2)
        prev = None
        for n in range(26):
            mn = stage_measure(Power(4), n)
            assert mn > limit
            if prev is not None:
                assert mn < prev
            prev = mn

    def test_removed_lengths_telescope(self):
        # middle thirds: removes (1/3)(2/3)^{n-1} at round n
        for n in range(1, 9):
            removed = stage_measure(parse_spec("cantor"), n - 1) - stage_measure(
                parse_spec("cantor"), n)
            assert removed == Fraction(1, 3) * Fraction(2, 3) ** (n - 1)
        for n in range(1, 9):
            removed = stage_measure(parse_spec("ac"), n - 1) - stage_measure(
                parse_spec("ac"), n)
            assert removed == Fraction(1, 4) * Fraction(3, 4) ** (n - 1)

    def test_degeneracy_flag(self):
        assert limit_is_degenerate(Power(2))
        assert not limit_is_degenerate(Power(3))
        assert not limit_is_degenerate(parse_spec("cantor"))
        assert not limit_is_degenerate(parse_spec("ac"))


class TestMaxComponentLength:
    @pytest.mark.parametrize("preset", ["cantor", "c12", "c14", "c34", "ac",
                                        "ac5a", "ac5b", "svc:4", "svc:3"])
    def test_agrees_with_enumeration(self, preset):
        spec = parse_spec(preset)
        for n, stage in enumerate(iterate(spec, 7)):
            lengths = [iv.length for iv in stage.intervals]
            assert max_component_length(spec, n) == max(lengths)

    def test_closed_forms(self):
        assert max_component_length(parse_spec("cantor"), 5) == Fraction(1, 3) ** 5
        assert max_component_length(parse_spec("ac"), 3) == Fraction(1, 2) ** 3
        assert max_component_length(parse_spec("ac5b"), 4) == Fraction(2, 5) ** 4

    def test_stalled_power_is_zero_length(self):
        assert max_component_length(Power(2), 2) == 0
        assert max_component_length(Power(2), 50) == 0

    def test_negative_index_rejected(self):
        for spec in (parse_spec("cantor"), Power(4)):
            with pytest.raises(ValidationError, match="^stage index must be nonnegative, got -1$"):
                max_component_length(spec, -1)


class TestDigitExpansions:
    @pytest.mark.parametrize("make, message", [
        (lambda: ExpansionSpec(3, frozenset()), "at least one digit must be allowed"),
        (lambda: ExpansionSpec(3, frozenset({0, 1, 2})), "at least one digit must be forbidden"),
        (lambda: DigitExpansion(1, (), (0,)), "expansion base must be at least 2, got 1"),
        (lambda: DigitExpansion(3, (1,), ()), "period must be nonempty"),
        (lambda: ExpansionSpec(1, frozenset({0})), "expansion base must be at least 2, got 1"),
        (lambda: ExpansionSpec(3, [[0]]), "digit [0] outside base-3 range"),
        (lambda: ExpansionSpec(3, [2, 0, False]), "digit False outside base-3 range"),
    ], ids=["no-digit", "every-digit", "base-1", "empty-period", "spec-base-1", "list-digit",
            "bool-digit"])
    def test_invalid_expansions_are_refused(self, make, message):
        with pytest.raises(ValidationError) as exc:
            make()
        assert str(exc.value) == message

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda base: st.tuples(
        st.just(base), st.lists(st.integers(0, base - 1), max_size=6),
        st.lists(st.integers(0, base - 1), min_size=1, max_size=6))))
    @example((3, [], [0, 2]))  # 1/4
    @example((3, [1], [0]))  # 1/3, terminating
    @example((3, [], [2]))  # 1
    def test_value_sums_the_digits(self, case):
        # The period repeats forever: its block, read after the preperiod,
        # is scaled by the geometric series 1 + b**-L + b**-2L + ...
        base, preperiod, period = case
        head = sum(Fraction(d, base ** (i + 1)) for i, d in enumerate(preperiod))
        block = sum(Fraction(d, base ** (len(preperiod) + i + 1)) for i, d in enumerate(period))
        series = 1 / (1 - Fraction(1, base ** len(period)))
        assert DigitExpansion(base, preperiod, period).value == head + block * series

    def test_membership_examples(self):
        ternary = ExpansionSpec(3, frozenset({0, 2}))
        assert expansion_membership(ternary, Fraction(1, 4))
        assert not expansion_membership(ternary, Fraction(1, 2))
        assert expansion_membership(ternary, Fraction(2, 3))
        assert expansion_membership(ternary, Fraction(1, 3))
        assert expansion_membership(ternary, Fraction(0))
        assert expansion_membership(ternary, Fraction(1))
        quaternary = ExpansionSpec(4, frozenset({0, 3}))
        assert expansion_membership(quaternary, Fraction(13, 16))
        assert not expansion_membership(quaternary, Fraction(1, 2))

    def test_allowed_witness(self):
        e = allowed_expansion(ExpansionSpec(3, frozenset({0, 2})), Fraction(1, 4))
        assert e is not None
        assert e.value == Fraction(1, 4)
        assert set(e.preperiod) | set(e.period) <= {0, 2}

    def test_allowed_witness_for_boundary(self):
        # 1/3 = 0.0222... in the restricted alphabet
        e = allowed_expansion(ExpansionSpec(3, frozenset({0, 2})), Fraction(1, 3))
        assert e is not None and e.value == Fraction(1, 3)
        assert set(e.preperiod) | set(e.period) <= {0, 2}

    def test_no_witness_when_excluded(self):
        assert allowed_expansion(ExpansionSpec(3, frozenset({0, 2})),
                                 Fraction(1, 2)) is None


class TestCantorFunction:
    def test_fixed_values(self):
        assert cantor_function(Fraction(0)) == 0
        assert cantor_function(Fraction(1)) == 1
        assert cantor_function(Fraction(1, 3)) == Fraction(1, 2)
        assert cantor_function(Fraction(2, 3)) == Fraction(1, 2)
        assert cantor_function(Fraction(1, 9)) == Fraction(1, 4)
        assert cantor_function(Fraction(2, 9)) == Fraction(1, 4)
        assert cantor_function(Fraction(1, 4)) == Fraction(1, 3)
        assert cantor_function(Fraction(3, 4)) == Fraction(2, 3)
        assert cantor_function(Fraction(1, 13)) == Fraction(1, 7)

    def test_rejects_points_with_a_forced_one(self):
        with pytest.raises(DomainError, match="position 1"):
            cantor_function(Fraction(1, 2))
        with pytest.raises(DomainError, match="position 2"):
            cantor_function(Fraction(1, 6))
        with pytest.raises(DomainError):
            cantor_function(Fraction(5, 12))

    def test_forced_position_is_the_step_that_removes_the_point(self):
        rng = random.Random(1729)
        cantor = parse_spec("cantor")
        checked = 0
        while checked < 500:
            q = rng.randint(2, 3000)
            x = Fraction(rng.randint(1, q - 1), q)
            verdict = limit_membership(cantor, x)
            if not isinstance(verdict, ExcludedAtDepth):
                continue
            with pytest.raises(DomainError, match=f"forced at position {verdict.depth}$"):
                cantor_function(x)
            checked += 1

    def test_rejects_outside_unit(self):
        with pytest.raises(DomainError):
            cantor_function(Fraction(-1, 3))
        with pytest.raises(DomainError):
            cantor_function(Fraction(4, 3))

    def test_monotone_on_members(self):
        pts = []
        for stage_iv in iterate(parse_spec("cantor"), 6)[6].intervals:
            pts.extend((stage_iv.lo, stage_iv.hi))
        vals = []
        for x in pts:
            if expansion_membership(CANTOR_TERNARY, x):
                vals.append((x, cantor_function(x)))
        vals.sort()
        for (x0, f0), (x1, f1) in zip(vals, vals[1:]):
            assert f0 <= f1

    def test_image_of_stage_endpoints_is_dyadic(self):
        # endpoints of round-n components map onto {k / 2^n}
        for n in range(1, 9):
            endpoints = set()
            for iv in iterate(parse_spec("cantor"), n)[n].intervals:
                endpoints.update((iv.lo, iv.hi))
            image = {cantor_function(x) for x in endpoints}
            assert image == {Fraction(k, 2 ** n) for k in range(2 ** n + 1)}


@st.composite
def digit_queries(draw):
    """A digit filter and a point: any denominator up to 5000, or one of the
    form base**k * c with small c, where the branch points lie."""
    base = draw(st.integers(2, 12))
    allowed = draw(st.sets(st.integers(0, base - 1), min_size=1, max_size=base - 1))
    if draw(st.booleans()):
        x = draw(st.fractions(min_value=0, max_value=1, max_denominator=5000))
    else:
        q = draw(st.integers(1, 6)) * base ** draw(st.integers(0, 6))
        x = Fraction(draw(st.integers(0, q)), q)
    return ExpansionSpec(base, frozenset(allowed)), x


def _value_or_error(f, x):
    try:
        return f(x)
    except DomainError as e:
        return str(e)


@settings(max_examples=500, deadline=None)
@given(digit_queries())
# x = 0 and x = 1 start on 0 and q, each already on the path when its
# one step (by 0, by base - 1) comes back to it; dead when that digit is
# forbidden.
@example((CANTOR_TERNARY, Fraction(0)))
@example((CANTOR_TERNARY, Fraction(1)))
@example((ExpansionSpec(3, frozenset({1, 2})), Fraction(0)))
@example((ExpansionSpec(3, frozenset({0, 1})), Fraction(1)))
# Remainder 0 with q by d - 1 alive: 1/3 = 0.0222..., and 7/9 = 0.20222...
# after one step with remainder 3.
@example((CANTOR_TERNARY, Fraction(1, 3)))
@example((CANTOR_TERNARY, Fraction(7, 9)))
# Remainder 0 with q by d - 1 dead (2 is forbidden) and 0 by d alive:
# 1/3 = 0.1000...
@example((ExpansionSpec(3, frozenset({0, 1})), Fraction(1, 3)))
# Remainder 0 with both branches dead: 1/2 steps to the point 1 by digit 1
# and to 0 by digit 2, and neither digit 3 nor digit 0 is allowed.
@example((ExpansionSpec(4, frozenset({1, 2})), Fraction(1, 2)))
@example((CANTOR_TERNARY, Fraction(1, 4)))
@example((CANTOR_TERNARY, Fraction(1, 2)))
@example((CANTOR_TERNARY, Fraction(1, 6)))
@example((CANTOR_TERNARY, Fraction(5, 12)))
def test_digit_search_matches_the_four_pass_automaton(query):
    es, x = query
    member, run, _ = reference_digits(es, x)
    assert expansion_membership(es, x) == member
    e = allowed_expansion(es, x)
    assert (None if e is None else (list(e.preperiod), list(e.period))) == run
    assert _digit_search(es, x) == run
    assert _value_or_error(cantor_function, x) == _value_or_error(reference_cantor_function, x)


@pytest.mark.parametrize("base", [2, 3, 4, 5])
def test_digit_search_sweep_matches_the_four_pass_automaton(base):
    """Every allowed set of the base, at every p/q with q <= 30 and every
    point over c * base**k <= 400, c <= 6, where the remainder-0 branch
    points lie."""
    dens = set(range(1, 31)) | {c * base ** k for c in range(1, 7) for k in range(1, 9)
                                if c * base ** k <= 400}
    points = sorted({Fraction(p, q) for q in dens for p in range(q + 1)})
    for size in range(1, base):
        for allowed in itertools.combinations(range(base), size):
            es = ExpansionSpec(base, frozenset(allowed))
            for x in points:
                assert _digit_search(es, x) == reference_digits(es, x)[1], (es, x)


class TestCharacterization:
    def test_middle_thirds(self):
        verdict = expansion_characterization(parse_spec("cantor"))
        assert verdict == Characterized(ExpansionSpec(3, frozenset({0, 2})))

    def test_middle_halves(self):
        verdict = expansion_characterization(parse_spec("c12"))
        assert verdict == Characterized(ExpansionSpec(4, frozenset({0, 3})))

    def test_middle_three_quarters(self):
        verdict = expansion_characterization(parse_spec("c34"))
        assert verdict == Characterized(ExpansionSpec(8, frozenset({0, 7})))

    def test_quarter_ratio_has_no_single_base(self):
        verdict = expansion_characterization(parse_spec("c14"))
        assert isinstance(verdict, NotCharacterizable)

    def test_subdivision_wide_run(self):
        verdict = expansion_characterization(parse_spec("ac"))
        assert isinstance(verdict, NotCharacterizable)

    def test_adjacent_kept_parts_block_characterization(self):
        # ac5b keeps parts {0, 1, 4}; the {0, 1} run later subdivides as one
        # component, which no fixed digit alphabet reproduces
        verdict = expansion_characterization(parse_spec("ac5b"))
        assert isinstance(verdict, NotCharacterizable)

    def test_subdivision_unit_runs(self):
        verdict = expansion_characterization(Subdivision(5, frozenset({1, 3})))
        assert verdict == Characterized(ExpansionSpec(5, frozenset({0, 2, 4})))
        verdict = expansion_characterization(Subdivision(3, frozenset({1})))
        assert verdict == Characterized(ExpansionSpec(3, frozenset({0, 2})))

    def test_power_families(self):
        assert isinstance(expansion_characterization(Power(2)), NotCharacterizable)
        assert isinstance(expansion_characterization(Power(4)), NotCharacterizable)

    @pytest.mark.parametrize("n, removed, edges", [
        (5, {0, 2, 4}, "0 and 1"), (3, {0, 2}, "0 and 1"), (4, {1, 3}, "1"), (6, {1, 3, 5}, "1"),
        (4, {0, 2}, "0"),
    ])
    def test_an_isolated_edge_point_blocks_characterization(self, n, removed, edges):
        # The kept runs all have width 1, but a removed edge part leaves the
        # component's end behind, and its one expansion uses a removed digit.
        spec = Subdivision(n, frozenset(removed))
        assert expansion_characterization(spec) == NotCharacterizable(
            f"a removed edge part leaves isolated points, {edges} among them, "
            f"that have no base-{n} expansion in the kept digits")
        kept = ExpansionSpec(n, frozenset(range(n)) - frozenset(removed))
        point = Fraction(0) if 0 in removed else Fraction(1)
        assert characterization_equivalence_check(spec, kept, 3) == MismatchWitness(1, point)


def _characterization_sweep():
    """The presets, svc:2-svc:7, and seeded subdivisions with n <= 9.

    Half of the subdivisions keep only width-1 runs, the shape a digit
    filter can match, with and without a removed edge part.
    """
    rng = random.Random(2029)
    specs = [parse_spec(name) for name in sorted(PRESETS)] + [Power(m) for m in range(2, 8)]
    for i in range(120):
        n = rng.randint(3, 9)
        if i % 2:
            removed = set(rng.sample(range(n), rng.randint(1, n - 1)))
        else:
            kept = {j for j in range(n) if rng.random() < 0.5}
            kept = {j for j in kept if j - 1 not in kept} or {rng.randrange(n)}
            removed = set(range(n)) - kept
        specs.append(Subdivision(n, frozenset(removed)))
    return list(dict.fromkeys(specs))


@pytest.mark.parametrize("spec", _characterization_sweep(), ids=str)
def test_every_characterization_passes_its_equivalence_check(spec):
    verdict = expansion_characterization(spec)
    if isinstance(verdict, Characterized):
        assert characterization_equivalence_check(spec, verdict.spec, 4) == verdict


def test_the_characterization_sweep_reaches_both_verdicts():
    verdicts = [expansion_characterization(spec) for spec in _characterization_sweep()]
    characterized = [v for v in verdicts if isinstance(v, Characterized)]
    edge_points = [v for v in verdicts
                   if isinstance(v, NotCharacterizable) and "removed edge part" in v.reason]
    assert len(characterized) >= 10 and len(edge_points) >= 10


def _stage_union_of(spec, depth):
    return iterate(spec, depth)[depth].intervals


def _expansion_prefix_covers(es, x, depth):
    """Oracle: does some depth-digit allowed prefix cell contain x?"""
    from itertools import product
    b = es.base
    for digits in product(sorted(es.allowed), repeat=depth):
        lo = sum(Fraction(d, b ** (i + 1)) for i, d in enumerate(digits))
        if lo <= x <= lo + Fraction(1, b ** depth):
            return True
    return False


class TestEquivalenceCheck:
    def test_depth_zero_refused(self):
        with pytest.raises(ValidationError, match="^comparison depth must be at least 1, got 0$"):
            characterization_equivalence_check(parse_spec("cantor"), CANTOR_TERNARY, 0)

    def test_true_characterization_passes(self):
        verdict = characterization_equivalence_check(
            parse_spec("cantor"), ExpansionSpec(3, frozenset({0, 2})), depth=5)
        assert verdict == Characterized(ExpansionSpec(3, frozenset({0, 2})))

    def test_quarter_ratio_mismatch_is_found_with_witness(self):
        verdict = characterization_equivalence_check(
            parse_spec("c14"), ExpansionSpec(8, frozenset({0, 1, 2, 5, 6, 7})),
            depth=4)
        assert verdict == MismatchWitness(depth=2, point=Fraction(1, 16))
        # independent oracle: the witness lies in one union but not the other
        spec = parse_spec("c14")
        x = Fraction(1, 16)
        in_stage = _stage_union_of(spec, 2).covers(x)
        in_digits = _expansion_prefix_covers(
            ExpansionSpec(8, frozenset({0, 1, 2, 5, 6, 7})), x, 2)
        assert in_stage != in_digits

    def test_wrong_alphabet_mismatch(self):
        verdict = characterization_equivalence_check(
            parse_spec("cantor"), ExpansionSpec(3, frozenset({0, 1})), depth=3)
        assert isinstance(verdict, MismatchWitness)

    @pytest.mark.parametrize("spec,base,digits", [
        (parse_spec("cantor"), 3, {0, 2}),
        (parse_spec("c12"), 4, {0, 3}),
        (parse_spec("c34"), 8, {0, 7}),
        (Subdivision(5, frozenset({1, 3})), 5, {0, 2, 4}),
    ])
    def test_soundness_small_depths(self, spec, base, digits):
        es = ExpansionSpec(base, frozenset(digits))
        for depth in range(1, 5):
            verdict = characterization_equivalence_check(spec, es, depth=depth)
            assert verdict == Characterized(es)

    def test_a_union_that_runs_out_first_is_separated_by_the_others_next_start(self):
        # Stage 1 of cantor is [0, 1/3] u [2/3, 1]; the digit {0} keeps only
        # [0, 1/3], so the digit union runs out before the stage's second pair
        verdict = characterization_equivalence_check(
            parse_spec("cantor"), ExpansionSpec(3, frozenset({0})), 1)
        assert verdict == MismatchWitness(1, Fraction(2, 3))
        assert _stage_union_of(parse_spec("cantor"), 1).covers(Fraction(2, 3))
        assert not _expansion_prefix_covers(ExpansionSpec(3, frozenset({0})), Fraction(2, 3), 1)

    def test_adjacent_run_really_diverges_from_its_digit_alphabet(self):
        # ac5b round 2 keeps [8/25, 2/5] inside the wide run; a base-5
        # {0, 1, 4} digit union does not
        verdict = characterization_equivalence_check(
            parse_spec("ac5b"), ExpansionSpec(5, frozenset({0, 1, 4})), depth=3)
        assert isinstance(verdict, MismatchWitness)
        assert verdict.depth == 2


def _census_cases():
    rng = random.Random(2718)
    specs = [parse_spec(name) for name in sorted(PRESETS)]
    specs += [Power(m) for m in range(2, 7)]
    for _ in range(40):
        n = rng.randint(3, 8)
        specs.append(Subdivision(n, frozenset(rng.sample(range(n), rng.randint(1, n - 1)))))
    return specs


@pytest.mark.parametrize("spec", _census_cases(), ids=repr)
def test_length_census_matches_the_enumerated_stage(spec):
    branch = len(iterate(spec, 1)[1].intervals)
    depth = max(n for n in range(9) if branch ** n <= 5000)
    stages = iterate(spec, depth)
    census = list(_length_census(spec, depth))
    assert len(census) == depth + 1
    for n, (stage, (den, counts, stalled)) in enumerate(zip(stages, census)):
        lengths = sorted(((Fraction(length, den), count) for length, count in counts.items()),
                         reverse=True)
        assert lengths == length_census(stage), (spec, n)
        assert stalled == stage.stalled, (spec, n)


def _analyze_cases():
    # Seeded subdivisions whose kept runs have more than one width and
    # whose stages hold at most 3**8 components, so every stage up to 8
    # can be enumerated.
    rng = random.Random(8128)
    subdivisions = []
    while len(subdivisions) < 12:
        n = rng.randint(4, 9)
        spec = Subdivision(n, frozenset(rng.sample(range(n), rng.randint(1, n - 1))))
        widths = {b - a for a, b in _kept_grid(spec)[1]}
        fresh = spec not in subdivisions and spec not in PRESETS.values()
        if fresh and len(widths) > 1 and len(iterate(spec, 1)[1].intervals) <= 3:
            subdivisions.append(spec)
    return ([parse_spec(name) for name in sorted(PRESETS)]
            + [Power(m) for m in range(2, 8)] + subdivisions)


@pytest.mark.parametrize("spec", _analyze_cases(), ids=repr)
def test_one_pass_analyze_matches_the_per_stage_functions(spec):
    stages = iterate(spec, 8)
    for n in range(9):
        doc = json.loads(cmd_analyze(spec, n, "json"))
        assert doc["stage_measures"] == [
            fraction_str(stage_measure(spec, k)) for k in range(n + 1)], (spec, n)
        assert doc["max_component_lengths"] == [
            fraction_str(max_component_length(spec, k)) for k in range(n + 1)], (spec, n)
        assert doc["scale_census"] == [
            {"length": fraction_str(length), "count": count}
            for length, count in length_census(stages[n])], (spec, n)


@pytest.mark.parametrize("spec", _analyze_cases() + [Power(m) for m in range(8, 13)], ids=repr)
def test_measure_closed_forms_match_the_census(spec):
    for n, (den, lengths, _) in enumerate(_length_census(spec, 40)):
        measure = Fraction(sum(length * count for length, count in lengths.items()), den)
        assert stage_measure(spec, n) == measure, (spec, n)
        assert max_component_length(spec, n) == Fraction(max(lengths), den), (spec, n)


@pytest.mark.parametrize("measure, spec", [(stage_measure, Power(4)),
                                           (max_component_length, Power(5))])
def test_power_measures_stay_cheap_at_a_deep_stage(measure, spec):
    # A replay of the rounds costs time quadratic in n; the closed form is a few powers.
    start = time.perf_counter()
    value = measure(spec, 10 ** 5)
    assert time.perf_counter() - start < 1.0
    assert value > 0


class TestSimilarityDimension:
    def test_contraction_ratios(self):
        assert contraction_ratios(parse_spec("cantor")) == (Fraction(1, 3),
                                                            Fraction(1, 3))
        assert contraction_ratios(parse_spec("ac")) == (Fraction(1, 2),
                                                        Fraction(1, 4))
        with pytest.raises(DomainError):
            contraction_ratios(Power(4))

    def test_middle_thirds_dimension(self):
        d = similarity_dimension(parse_spec("cantor"))
        assert abs(d - math.log(2) / math.log(3)) < 1e-10

    def test_middle_halves_dimension_is_exactly_half(self):
        d = similarity_dimension(parse_spec("c12"))
        assert abs(d - 0.5) < 1e-10

    def test_single_kept_run_has_dimension_zero(self):
        assert similarity_dimension(Subdivision(3, frozenset({0, 1}))) == 0.0

    def test_golden_ratio_dimension(self):
        d = similarity_dimension(parse_spec("ac"))
        phi = (1 + math.sqrt(5)) / 2
        assert abs(d - math.log(phi) / math.log(2)) < 1e-10

    @pytest.mark.parametrize("preset", ["cantor", "c12", "c14", "c34", "ac",
                                        "ac-reflected", "ac5a", "ac5b"])
    def test_moran_residual(self, preset):
        spec = parse_spec(preset)
        d = similarity_dimension(spec)
        residual = sum(float(r) ** d for r in contraction_ratios(spec)) - 1.0
        assert abs(residual) <= 1e-10
