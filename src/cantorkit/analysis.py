"""Measures, digit-expansion characterizations, and derived quantities.

Stage and limit measures and the largest component are closed forms: they
run no deletion round, so they stay cheap at depths where the stages
themselves would be astronomically large. The length census, one round per
distinct component length, is what `analyze` prints.

Digit work is one walk over states p/q with q fixed at the query's
denominator: state p steps to base * p - d * q for an allowed digit d
whenever the result stays inside [0, q]. A base-b expansion avoiding the
forbidden digits exists exactly when an infinite run exists, i.e. when a
cycle is reachable. The automaton is a chain: with base * p = d * q + t,
a state with t > 0 has the one successor t, by digit d, and a state with
t = 0 has q by d - 1 and 0 by d, where q steps only to itself by base - 1
and 0 only to itself by 0. Each branch closes a cycle at once or dies, so
taking the smaller digit whose branch lives gives the greedy run; a
forbidden step ends the walk, a repeated state closes it, and each of the
at most q + 1 states is entered once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from math import lcm

from .constructions import (
    MAX_BUILT_INTERVALS,
    ConstructionSpec,
    Proportional,
    _at_least,
    _grid_stages,
    _kept_grid,
    _query_point,
    _refuse_power,
    _removed_at,
    _round,
    _rounds,
    _self_similar,
    _stall_round,
)
from .errors import DomainError, ValidationError, _cut, _echo
from .exact import _Value, _as_fraction, _is_int, _items


def _census_round(factor: int, rule: Callable, c: int, census: Counter, den: int) -> Counter:
    """One round on integer component lengths over den, with multiplicities.

    Every family's round is translation invariant, so the children of a
    component depend only on its length: the round is applied once per
    distinct length L, to [0, L], and the stage itself is never built.
    """
    nxt: Counter = Counter()
    for length, count in census.items():
        for a, b in _round(factor, rule, c, [(0, length)], den):
            nxt[b - a] += count
    return nxt


def _length_census(spec: ConstructionSpec, n: int) -> Iterator[tuple[int, Counter, bool]]:
    """Stages 0..n as `(den, integer component lengths with multiplicities, stalled)`.

    This is the census `analyze` prints.
    """
    return _rounds(spec, n, Counter({1: 1}), _census_round)


def stage_measure(spec: ConstructionSpec, n: int) -> Fraction:
    """Exact total length after n rounds, in closed form.

    Each round keeps sum(contraction_ratios(spec)) of every component of a
    self-similar spec (`_self_similar`). A power spec's round k takes
    1/m**k from each of 2**(k-1) components, so n rounds take
    (1 - (2/m)**n) / (m - 2) and leave ((m - 3) m**n + 2**n) / ((m - 2) m**n).
    The one spec that stalls (`_stall_round`), Power(2), loses 1/2 at
    round 1 and the other 1/2 at round 2.
    """
    _at_least(n, "stage index")
    if _self_similar(spec):
        return sum(contraction_ratios(spec)) ** n
    if limit_is_degenerate(spec):
        return Fraction(max(2 - n, 0), 2)
    m = spec.m
    return Fraction((m - 3) * m ** n + 2 ** n, (m - 2) * m ** n)


def limit_measure(spec: ConstructionSpec) -> Fraction:
    """Exact measure of the limit set.

    Self-similar families keep a fixed proportion below 1 each round, so
    their limits are null. A power construction with base m >= 4 removes
    total length sum(2**(k-1) / m**k) = 1 / (m - 2), leaving
    (m - 3) / (m - 2); at m = 2 the round-2 removal exactly exhausts the
    components and only finitely many points survive.
    """
    if _self_similar(spec) or limit_is_degenerate(spec):
        return Fraction(0)
    return Fraction(spec.m - 3, spec.m - 2)


def limit_is_degenerate(spec: ConstructionSpec) -> bool:
    """True when the process stalls (`_stall_round`) and the limit is a finite point set."""
    return _stall_round(spec) is not None


def max_component_length(spec: ConstructionSpec, n: int) -> Fraction:
    """Largest component length at stage n, in closed form.

    Children scale by their contraction ratio per round, so the widest kept
    run dominates; a power spec's 2**n components share its stage measure.
    """
    _at_least(n, "stage index")
    if _self_similar(spec):
        return max(contraction_ratios(spec)) ** n
    return stage_measure(spec, n) / 2 ** n


def _check_digits(base: int, digits: Iterable[object]) -> None:
    for d in digits:
        if not _is_int(d) or not 0 <= d < base:
            raise ValidationError(f"digit {_echo(d)} outside base-{_echo(base)} range")


class ExpansionSpec(_Value):
    """Digit filter: base-b expansions restricted to the allowed digits."""

    __match_args__ = ("base", "allowed")

    def __init__(self, base: int, allowed: frozenset[int]) -> None:
        _at_least(base, "expansion base", 2)
        allowed = _items(allowed, "allowed digits")
        _check_digits(base, allowed)
        allowed = frozenset(allowed)
        if not allowed:
            raise ValidationError("at least one digit must be allowed")
        if len(allowed) >= base:
            raise ValidationError("at least one digit must be forbidden")
        self.__setstate__((base, allowed))


class DigitExpansion(_Value):
    """Eventually periodic base-b digit string after the radix point."""

    __match_args__ = ("base", "preperiod", "period")

    def __init__(self, base: int, preperiod: tuple[int, ...], period: tuple[int, ...]) -> None:
        preperiod, period = _items(preperiod, "preperiod"), _items(period, "period")
        _at_least(base, "expansion base", 2)
        if not period:
            raise ValidationError("period must be nonempty")
        _check_digits(base, preperiod + period)
        self.__setstate__((base, preperiod, period))

    @property
    def value(self) -> Fraction:
        """The exact rational this digit string denotes."""
        return _digits_value(self.base, self.preperiod, self.period)


def _digits_value(base: int, preperiod: Sequence[int], period: Sequence[int]) -> Fraction:
    """The rational 0.preperiod(period) in base `base`, as one Fraction.

    With K = len(preperiod) and L = len(period) > 0, the digits read as
    integers pre and per give pre / b**K + per / (b**K * (b**L - 1)).
    """
    pre = per = 0
    for d in preperiod:
        pre = pre * base + d
    for d in period:
        per = per * base + d
    span = base ** len(period) - 1
    return Fraction(pre * span + per, span * base ** len(preperiod))


def _digit_search(es: ExpansionSpec, x: Fraction) -> tuple[list[int], list[int]] | None:
    """Greedy walk of the digit automaton from x, which is one chain.

    Returns the (preperiod, period) of the run that always takes the
    smallest digit leading to an infinite run, or None when x has none.
    State p steps to t by digit d, where base * p = d * q + t; when t = 0
    it may step to q by d - 1 instead. q steps only to itself, by base - 1,
    so that step is taken exactly when both digits are allowed. Every
    other step is the only one left: the walk ends when its digit is
    forbidden and closes on the first state it enters twice.
    """
    q, base, allowed = x.denominator, es.base, es.allowed
    p, digits, position = x.numerator, [], {}
    while p not in position:
        position[p] = len(digits)
        d, p = divmod(base * p, q)
        if not p and d - 1 in allowed and base - 1 in allowed:
            d, p = d - 1, q
        if d not in allowed:
            return None
        digits.append(d)
    cut = position[p]
    return digits[:cut], digits[cut:]


def expansion_membership(es: ExpansionSpec, x: Fraction) -> bool:
    """Whether some base-b expansion of x uses only the allowed digits.

    Existential over the (at most two) expansions at every branch point;
    total because the state space is finite.
    """
    return _digit_search(es, _query_point(x)) is not None


def allowed_expansion(es: ExpansionSpec, x: Fraction) -> DigitExpansion | None:
    """One eventually periodic allowed-digit expansion of x, if any exists.

    Greedy on the smallest usable digit, so the result is deterministic.
    """
    run = _digit_search(es, _query_point(x))
    return None if run is None else DigitExpansion(es.base, *run)


CANTOR_TERNARY = ExpansionSpec(3, frozenset({0, 2}))
_MIDDLE_THIRDS = Proportional(Fraction(1, 3))


def cantor_function(x: Fraction) -> Fraction:
    """Digit-halving value of x: ternary digits {0, 2} reread as binary.

    Defined on the middle-thirds limit set. The witnessing expansion is
    unique there (the two expansions of a ternary rational never both
    avoid the digit 1), halving its digits and reading them in base 2
    gives the exact value. Gap endpoints such as 1/3 and 2/3 share a
    value, which is what makes the function continuous.

    Raises DomainError for points outside the set, naming the first digit
    position at which every expansion is forced onto the digit 1.
    """
    x = _as_fraction(x, "query point")
    if not 0 <= x.numerator <= x.denominator:
        raise DomainError(f"the function is defined on [0, 1], got {_cut(x)}")
    run = _digit_search(CANTOR_TERNARY, x)
    if run is None:
        # The middle-thirds descent keeps w = q and 0 < r < q, and x is
        # removed before any state repeats: within q rounds.
        raise DomainError(
            f"{_cut(x)} has no ternary expansion avoiding digit 1; "
            f"forced at position {_removed_at(_MIDDLE_THIRDS, x, x.denominator)}")
    preperiod, period = run
    return _digits_value(2, [d // 2 for d in preperiod], [d // 2 for d in period])


class Characterized(_Value):
    """The stage sets coincide with the allowed-digit prefix sets."""

    __match_args__ = ("spec",)

    def __init__(self, spec: ExpansionSpec) -> None:
        object.__setattr__(self, "spec", spec)


class NotCharacterizable(_Value):
    """No digit filter matches; `reason` records why and the search scope."""

    __match_args__ = ("reason",)

    def __init__(self, reason: str) -> None:
        object.__setattr__(self, "reason", reason)


class MismatchWitness(_Value):
    """A concrete rational separating stage `depth` from the digit prefix set."""

    __match_args__ = ("depth", "point")

    def __init__(self, depth: int, point: Fraction) -> None:
        self.__setstate__((depth, point))


CharacterizationVerdict = Characterized | NotCharacterizable | MismatchWitness


def expansion_characterization(spec: ConstructionSpec) -> CharacterizationVerdict:
    """Digit filter matching the construction, when one exists.

    A self-similar spec (`_self_similar`) is read over its kept-run table:
    base d with the run starts as digits matches exactly when every kept
    run has width 1, so a child ratio 1/b gives the base-b strings over
    {0, b-1} (`Power(3)`: base 3, {0, 2}). Only that natural base is
    examined; the reason strings say so. A removed edge part leaves the
    component's end behind as an isolated point, 0 or 1 at stage 1, whose
    one expansion uses the removed digit, so no digit filter matches.
    """
    if not _self_similar(spec):
        if limit_is_degenerate(spec):
            return NotCharacterizable(
                "the process stalls to a finite point set, which no digit filter matches")
        return NotCharacterizable(
            "removal lengths vary per round, so no single digit grid matches every stage")
    d, runs = _kept_grid(spec)
    widest = max(b - a for a, b in runs)
    edges = " and ".join(e for e, cut in (("0", runs[0][0] > 0), ("1", runs[-1][1] < d)) if cut)
    if widest == 1 and edges:
        return NotCharacterizable(
            f"a removed edge part leaves isolated points, {edges} among them, "
            f"that have no base-{d} expansion in the kept digits")
    if widest == 1:
        return Characterized(ExpansionSpec(d, frozenset(a for a, _ in runs)))
    return NotCharacterizable(
        f"base {d} needs kept runs of width 1, found width {widest} "
        "(no other bases searched)")


def _prefix_runs(prefixes: list[int]) -> list[tuple[int, int]]:
    """Increasing prefix integers p, as merged runs of the cells [p, p + 1]."""
    runs = []
    start = stop = prefixes[0]
    for p in prefixes:
        if p != stop:
            runs.append((start, stop))
            start = p
        stop = p + 1
    runs.append((start, stop))
    return runs


def _separating_point(a: list[tuple[int, int]], b: list[tuple[int, int]],
                      den: int) -> Fraction:
    """Smallest point in exactly one of two distinct unions over den.

    Both are ordered, separated integer pairs, and the unions agree up to
    their first pair that differs. Where one runs out first, the other's
    next start is the point; where the starts differ, the smaller one is;
    where only the ends differ, the point lies halfway between the shorter
    end and the next endpoint of either union.
    """
    i = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
    if i == len(a) or i == len(b):
        return Fraction(max(a, b, key=len)[i][0], den)
    (lo_a, hi_a), (lo_b, hi_b) = a[i], b[i]
    if lo_a != lo_b:
        return Fraction(min(lo_a, lo_b), den)
    if hi_a > hi_b:
        a, hi_a, hi_b = b, hi_b, hi_a
    nxt = min(hi_b, a[i + 1][0]) if i + 1 < len(a) else hi_b
    return Fraction(hi_a + nxt, 2 * den)


def characterization_equivalence_check(
        spec: ConstructionSpec, es: ExpansionSpec, depth: int) -> CharacterizationVerdict:
    """Compare stages against digit prefix sets, level by level.

    Returns Characterized when they agree as point sets at every level up
    to `depth`, else a MismatchWitness holding the first level that
    differs and an explicit rational in the symmetric difference. Level k
    compares integer pairs: the stage over its grid and the closure of the
    points whose first k digits can all be allowed, as merged runs over
    base**k, both lifted to the least common denominator; a side already
    over it is compared as it is. Both sides build what they compare, so
    each is refused upfront (`_refuse_power`) where it could pass
    `MAX_BUILT_INTERVALS`: the digit level first, then the stage.
    """
    _at_least(depth, "comparison depth", 1)
    _refuse_power("digit level", len(es.allowed), depth, MAX_BUILT_INTERVALS)
    stages = _grid_stages(spec, depth)
    next(stages)  # stage 0, [0, 1]
    digits = sorted(es.allowed)
    prefixes, scale = [0], 1
    for d, (den, pairs, _) in enumerate(stages, 1):
        prefixes = [p * es.base + g for p in prefixes for g in digits]
        scale *= es.base
        common = lcm(den, scale)
        up, cells = common // den, common // scale
        runs = _prefix_runs(prefixes)
        stage_set = pairs if up == 1 else [(lo * up, hi * up) for lo, hi in pairs]
        digit_set = runs if cells == 1 else [(lo * cells, hi * cells) for lo, hi in runs]
        if stage_set != digit_set:
            return MismatchWitness(d, _separating_point(stage_set, digit_set, common))
    return Characterized(es)


def contraction_ratios(spec: ConstructionSpec) -> tuple[Fraction, ...]:
    """Fixed child/parent ratios of one deletion round."""
    if not _self_similar(spec):
        raise DomainError("of the power constructions only base 3 has fixed child ratios")
    d, runs = _kept_grid(spec)
    return tuple(Fraction(b - a, d) for a, b in runs)


def similarity_dimension(spec: ConstructionSpec) -> float:
    """The unique s in [0, 1] with sum(ratio**s) == 1 over the child ratios.

    Bisection in binary64; the left side is strictly decreasing in s, it
    is >= 1 at s = 0 and < 1 at s = 1, so the root exists and is unique.
    This is the package's only floating-point surface.
    """
    ratios = [float(r) for r in contraction_ratios(spec)]

    def excess(s: float) -> float:
        return sum(r ** s for r in ratios) - 1.0

    if excess(0.0) == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if excess(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13:
            break
    return (lo + hi) / 2
