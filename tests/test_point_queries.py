"""The point queries: the self-similar limit walk against the walk that keeps
every state it has seen, the stage descent against the descent in absolute
coordinates, the one endpoint rule, the walk's memory, the tables read once
per spec, and the input types that all five queries accept."""

import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cantorkit import (
    CANTOR_TERNARY,
    PRESETS,
    DomainError,
    MemberByCycle,
    MemberByEndpoint,
    Power,
    Proportional,
    Subdivision,
    UndecidedMemberToDepth,
    ValidationError,
    allowed_expansion,
    cantor_function,
    expansion_membership,
    limit_membership,
    parse_spec,
    stage_membership,
)
from cantorkit.constructions import _kept_grid, _walk_table
from reference_stages import (
    _own_stages,
    _self_similar_membership,
    _stage_membership,
    reference_cantor_function,
    reference_digits,
)

CAPS = (0, 1, 2, 5, 50, 200)
SELF_SIMILAR = {name: spec for name, spec in PRESETS.items() if not isinstance(spec, Power)}
# Walks that clear their table (a width-3 or width-5 run grows q) and then
# close a cycle through their width-1 runs.
CLEARED_THEN_CYCLING = [
    (Subdivision(5, frozenset({0, 2})), Fraction(22, 25)),
    (Subdivision(5, frozenset({2, 4})), Fraction(3, 25)),
    (Subdivision(7, frozenset({0, 3, 5})), Fraction(11, 42)),
    (Subdivision(7, frozenset({0, 4})), Fraction(46, 49)),
    (Subdivision(8, frozenset({1, 2, 6})), Fraction(17, 32)),
]


def _rationals(max_den):
    return sorted({Fraction(p, q) for q in range(1, max_den + 1) for p in range(q + 1)})


def _agree(spec, x, cap):
    assert limit_membership(spec, x, cap) == _self_similar_membership(spec, x, cap), (
        spec, x, cap)


@pytest.mark.parametrize("name", sorted(SELF_SIMILAR))
def test_walk_matches_the_reference_on_every_small_rational(name):
    spec = SELF_SIMILAR[name]
    for x in _rationals(60):
        for cap in CAPS:
            _agree(spec, x, cap)


def _stage_specs():
    """Every preset, svc:2..7, and seeded proportional specs whose child ratio
    has a numerator above 1 and subdivisions with edge removals and wide runs."""
    specs = {name: parse_spec(name) for name in PRESETS}
    specs.update((f"svc:{m}", Power(m)) for m in range(2, 8))
    rng = random.Random(6014)
    while len(specs) < 18:
        s = rng.randint(5, 10 ** 6)
        spec = Proportional(1 - Fraction(2 * rng.randint(2, (s - 1) // 2), s))
        if spec.child_ratio.numerator > 1:
            specs[f"proportional {spec.p}"] = spec
    for n in (7, 60):
        removed = {0, n - 1, rng.randrange(1, n - 1)}
        specs[f"subdivision {n}"] = Subdivision(n, frozenset(removed))
    return specs


STAGE_SPECS = _stage_specs()


@pytest.mark.parametrize("name", sorted(STAGE_SPECS))
def test_stage_descent_matches_the_absolute_descent(name):
    spec = STAGE_SPECS[name]
    # Every x with q <= 60 in [0, 1], and just outside it.
    for x in sorted({Fraction(p, q) for q in range(1, 61) for p in range(-1, q + 2)}):
        for depth in range(41):
            assert stage_membership(spec, x, depth) == _stage_membership(spec, x, depth), (
                spec, x, depth)


@pytest.mark.parametrize("name", sorted(PRESETS) + [f"svc:{m}" for m in range(2, 6)])
def test_zero_and_one_are_endpoints_at_every_cap(name):
    spec = parse_spec(name)
    for x in (Fraction(0), Fraction(1)):
        for cap in (0, 1, 2, 100):
            assert limit_membership(spec, x, cap) == MemberByEndpoint(0), (name, x, cap)


def test_a_negative_depth_or_cap_is_refused():
    for spec in (PRESETS["cantor"], PRESETS["ac"], Power(4)):
        with pytest.raises(ValidationError, match="^depth must be nonnegative, got -1$"):
            stage_membership(spec, Fraction(1, 3), -1)
        with pytest.raises(ValidationError, match="^depth cap must be nonnegative, got -1$"):
            limit_membership(spec, Fraction(1, 3), -1)


points = st.integers(1, 10 ** 4).flatmap(
    lambda q: st.builds(Fraction, st.integers(0, q), st.just(q)))


@st.composite
def wide_proportional(draw):
    """A proportional spec whose child ratio r/s has r > 1."""
    s = draw(st.integers(5, 10 ** 7))
    spec = Proportional(1 - Fraction(2 * draw(st.integers(2, (s - 1) // 2)), s))
    assume(spec.child_ratio.numerator > 1)
    return spec


@st.composite
def wide_subdivision(draw):
    """A subdivision of up to 10**7 parts with one to four removed: wide runs."""
    n = draw(st.integers(3, 10 ** 7))
    removed = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(4, n - 1)))
    return Subdivision(n, frozenset(removed))


@st.composite
def small_subdivision(draw):
    n = draw(st.integers(3, 9))
    return Subdivision(n, frozenset(draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))))


@settings(max_examples=150, deadline=None)
@given(wide_proportional(), points, st.sampled_from(CAPS))
@example(Proportional(Fraction(1, 1000001)), Fraction(1, 3), 200)
@example(Proportional(Fraction(1, 5)), Fraction(1, 7), 200)
def test_walk_matches_the_reference_on_wide_proportional_runs(spec, x, cap):
    _agree(spec, x, cap)


@settings(max_examples=150, deadline=None)
@given(wide_subdivision(), points, st.sampled_from(CAPS))
@example(Subdivision(10 ** 7, frozenset({1})), Fraction(1, 3), 200)
@example(Subdivision(10 ** 7, frozenset({0})), Fraction(1, 3), 200)
@example(Subdivision(10 ** 7 + 1, frozenset({4, 9})), Fraction(2, 7), 200)
@example(Subdivision(10 ** 22, frozenset({0})), Fraction(35, 62), 200)
@example(Subdivision(10 ** 20 + 7, frozenset({3, 10 ** 19})), Fraction(5, 9), 200)
@example(Subdivision(2 * 3 ** 45, frozenset({1, 2 ** 60 + 2})), Fraction(1, 3), 200)
def test_walk_matches_the_reference_on_wide_subdivision_runs(spec, x, cap):
    _agree(spec, x, cap)


@settings(max_examples=150, deadline=None)
@given(small_subdivision(), points, st.sampled_from(CAPS))
def test_walk_matches_the_reference_on_small_subdivisions(spec, x, cap):
    _agree(spec, x, cap)


def _first_repeat(spec, x):
    """Depth at which the reference walk first meets a state again, or None."""
    if not isinstance(_self_similar_membership(spec, x, 200), MemberByCycle):
        return None
    cap = 1
    while not isinstance(_self_similar_membership(spec, x, cap), MemberByCycle):
        cap += 1
    return cap - 1


def test_a_repeat_at_the_cap_stays_undecided_and_one_inside_it_is_a_cycle():
    cases = CLEARED_THEN_CYCLING + [
        (spec, x) for spec in SELF_SIMILAR.values() for x in _rationals(24)]
    repeats = 0
    for spec, x in cases:
        depth = _first_repeat(spec, x)
        if depth is None:
            continue
        repeats += 1
        assert limit_membership(spec, x, depth) == UndecidedMemberToDepth(depth), (spec, x)
        inside = limit_membership(spec, x, depth + 1)
        assert isinstance(inside, MemberByCycle), (spec, x, inside)
        assert inside == _self_similar_membership(spec, x, depth + 1)
    assert repeats > len(CLEARED_THEN_CYCLING)


@pytest.mark.parametrize("spec, cap", [
    (Proportional(Fraction(1, 1000001)), 3000),
    (Subdivision(10 ** 7, frozenset({1})), 2000),
])
def test_a_walk_whose_denominator_grows_keeps_no_states(spec, cap):
    # A table of every state holds tens of MiB here; the walk holds a few states.
    x = Fraction(1, 3)
    tracemalloc.start()
    try:
        verdict = limit_membership(spec, x, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == UndecidedMemberToDepth(cap)
    assert peak < 2 * 2 ** 20, peak


self_similar_specs = st.one_of(
    wide_proportional(), wide_subdivision(), small_subdivision(),
    st.builds(lambda n, i: Subdivision(n, frozenset({i % n})),
              st.integers(3, 10 ** 40), st.integers(0, 10 ** 40)))


@settings(max_examples=200, deadline=None)
@given(self_similar_specs)
@example(Subdivision(6, frozenset({4, 5})))
@example(Subdivision(2 * 3 ** 45, frozenset({1, 2 ** 60 + 2})))
def test_walk_table_splits_each_width_at_the_primes_of_d(spec):
    d, runs = _kept_grid(spec)
    grid, table = _walk_table(spec)
    assert grid == d
    assert [(a, a + w) for a, w, _, _ in reversed(table)] == list(runs)
    for _, w, w_c, w_d in table:
        assert gcd(w_c, d) == 1 and w % w_c == 0 and w_d == gcd(w, d)
        rest = w // w_c
        while (g := gcd(rest, d)) > 1:
            rest //= g
        assert rest == 1, (spec, w, w_c)


class _Sub(Fraction):
    pass


def _cantor(x):
    try:
        return cantor_function(x)
    except DomainError as exc:
        return str(exc)


QUERIES = {
    "limit_membership": lambda x: limit_membership(PRESETS["ac"], x, 50),
    "stage_membership": lambda x: stage_membership(PRESETS["ac"], x, 6),
    "cantor_function": _cantor,
    "expansion_membership": lambda x: expansion_membership(CANTOR_TERNARY, x),
    "allowed_expansion": lambda x: allowed_expansion(CANTOR_TERNARY, x),
}


def _reference(name, x):
    if name == "limit_membership":
        return _self_similar_membership(PRESETS["ac"], x, 50)
    if name == "stage_membership":
        return _own_stages(PRESETS["ac"], 6)[6][0].covers(x)
    if name == "cantor_function":
        try:
            return reference_cantor_function(x)
        except DomainError as exc:
            return str(exc)
    member, run, _ = reference_digits(CANTOR_TERNARY, x)
    if name == "expansion_membership":
        return member
    return None if run is None else (tuple(run[0]), tuple(run[1]))


def _as_digits(out):
    return None if out is None else (out.preperiod, out.period)


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("forms", [
    (Fraction(0), 0, "0", 0.0, _Sub(0)),
    (Fraction(1), 1, "1/1", 1.0, _Sub(1)),
    (Fraction(1, 4), "1/4", 0.25, _Sub(1, 4)),
    (Fraction(1, 2), "2/4", 0.5, _Sub(1, 2)),
    (Fraction(3, 10), "3/10", _Sub(3, 10)),
    (Fraction(0.1), 0.1),
], ids=["zero", "one", "quarter", "half", "three-tenths", "float-tenth"])
def test_every_input_type_gives_the_exact_fraction_answer(name, forms):
    query = QUERIES[name]
    exact = forms[0]
    want = query(exact)
    got = _as_digits(want) if name == "allowed_expansion" else want
    assert got == _reference(name, exact)
    if name == "cantor_function" and not isinstance(want, str):
        assert type(want) is Fraction
    for x in forms[1:]:
        assert query(x) == want, (name, x)


@pytest.mark.parametrize("forms, text", [
    ((Fraction(-1, 3), "-1/3", _Sub(-1, 3)), "-1/3"),
    ((Fraction(4, 3), "4/3", _Sub(4, 3)), "4/3"),
    ((Fraction(-1), -1, "-1"), "-1"),
    ((Fraction(2), 2, 2.0), "2"),
])
def test_points_outside_the_unit_interval_keep_their_error_texts(forms, text):
    for x in forms:
        assert stage_membership(PRESETS["ac"], x, 6) is False
        for query in (lambda x: limit_membership(PRESETS["ac"], x),
                      lambda x: limit_membership(Power(4), x),
                      lambda x: expansion_membership(CANTOR_TERNARY, x),
                      lambda x: allowed_expansion(CANTOR_TERNARY, x)):
            with pytest.raises(DomainError) as err:
                query(x)
            assert str(err.value) == f"membership queries require 0 <= x <= 1, got {text}"
        with pytest.raises(DomainError) as err:
            cantor_function(x)
        assert str(err.value) == f"the function is defined on [0, 1], got {text}"
