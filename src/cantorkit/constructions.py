"""Deletion-process families, exact stage generation, and limit membership.

Three families describe one round of open-interval deletions applied to
every current component [a, b] of the unit interval:

* `Proportional(p)` removes the open centered proportion p, leaving two
  children, each (1 - p) / 2 of the parent.
* `Power(m)` removes, at round k, an open centered interval of absolute
  length 1 / m**k. Removal lengths are tied to the round rather than the
  component, so the process can exhaust its components and stall.
* `Subdivision(n, removed)` splits into n equal parts and deletes the open
  span of each maximal run of removed indices. Adjacent kept parts merge
  into one child; a removed run touching an edge of the component leaves
  that edge behind as an isolated point, because the deleted span is open.

Every endpoint of stage k is an integer over one denominator: s**k for a
proportional spec with child ratio r/s, n**k for a subdivision, 3**k for
`Power(3)` and (2m)**k for any other power spec. One integer deletion rule
per family (`_child_rule`), applied by one round (`_round`) in one loop
(`_rounds`), builds the stages on that grid (`_grid_stages`); the census
and the renderer give the loop their own step. The rule cuts [0, length],
so a round calls it once per distinct component length and shifts the
children into place, checking each as it places it. A path that writes
endpoints walks them once (`_endpoint_stages`): each distinct endpoint is
made once, as a `Fraction` for `iterate` or a string for `construct`, and
shared by every stage that keeps it; the `Fraction`s are set in place in
lowest terms from one gcd and checked no further than `_round` checks.

A proportional spec with child ratio r/s is, stage for stage, the s-part
subdivision that removes the middle s - 2r parts, and `Power(3)` is the
middle-thirds set: all are read from one table of kept runs (`_kept_grid`).
The power rule serves only the power specs without a table.

The point queries keep one rule: an endpoint is never removed, and a
descent reports the round that removes x. Rounds are translation invariant,
so the stage descent (`_removed_at`) keeps x's offset in its component and
the component's length as integers and applies the rule to [0, length]; the
power walk (`_power_membership`) does the same on the grid q * (2m)**k for
the power specs without a table. The self-similar specs are also scale
invariant, so their limit walk tracks x's relative position p/q and watches
for endpoints, removals and revisited states; the part of q prime to d
never shrinks, so the visited table is cleared whenever that part grows.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from math import gcd

from .errors import DomainError, ResourceLimitError, ValidationError, _cut, _echo
from .exact import (
    ClosedInterval,
    IntervalUnion,
    _Value,
    _as_fraction,
    _is_int,
    _items,
    _new,
    _set_hi,
    _set_lo,
)

MAX_ENUMERATED_INTERVALS = 2 ** 30
# A built stage of 2**18 components fits: `construct cantor --depth 18`
# peaks at 178 MiB as text and 159 MiB as JSON, while depth 19 runs out of
# a 256 MiB address space.
MAX_BUILT_INTERVALS = 2 ** 18
DEFAULT_DEPTH_CAP = 10_000


def _at_least(n: int, what: str, least: int = 0) -> None:
    """Refuse n unless it is an int (a bool is not one) of at least `least`.

    The package's one integer-floor check. A refusal names the value, cut
    to a bounded size (`_cut`): `{what} must be at least L, got V`, or
    `{what} must be nonnegative, got V` for the floor 0.
    """
    if not _is_int(n):
        raise ValidationError(f"{what} must be an integer, got {_echo(n)}")
    if n < least:
        floor = f"at least {least}" if least else "nonnegative"
        raise ValidationError(f"{what} must be {floor}, got {_cut(n)}")


class Proportional(_Value):
    """Remove the open centered proportion p of every component, each round."""

    __match_args__ = ("p",)

    def __init__(self, p: Fraction) -> None:
        p = _as_fraction(p, "removal proportion")
        if not 0 < p < 1:
            raise ValidationError(f"removal proportion must lie in (0, 1), got {_cut(p)}")
        object.__setattr__(self, "p", p)

    @property
    def child_ratio(self) -> Fraction:
        """Each of the two children is this fraction of its parent."""
        return Fraction(*_child_ints(self))


class Power(_Value):
    """Remove an open centered interval of length 1/m**k at round k."""

    __match_args__ = ("m",)

    def __init__(self, m: int) -> None:
        _at_least(m, "power base", 2)
        object.__setattr__(self, "m", m)


class Subdivision(_Value):
    """Split into n equal parts and delete the open spans at `removed` indices.

    Contiguous removed indices are deleted as a single open span, so the
    boundary point between two removed neighbours goes with them, while a
    boundary shared with a kept part survives as a child endpoint.

    `removed` may be any iterable of ints; each index is checked before the
    frozenset is built, so a bool or an unhashable value is refused rather
    than hashed. This is the only check of a removed index, spec documents
    included.
    """

    __match_args__ = ("n", "removed")

    def __init__(self, n: int, removed: frozenset[int]) -> None:
        removed = _items(removed, "removed indices")
        for i in removed:
            if not _is_int(i):
                raise ValidationError(f"removed index {_echo(i)} is not an integer")
        _at_least(n, "part count", 3)
        removed = frozenset(removed)
        for i in removed:
            if not 0 <= i < n:
                raise ValidationError(
                    f"removed index {_echo(i)} outside the part range 0..{_echo(n - 1)}")
        if not removed:
            raise ValidationError("at least one part must be removed")
        if len(removed) >= n:
            raise ValidationError("at least one part must be kept")
        self.__setstate__((n, removed))


ConstructionSpec = Proportional | Power | Subdivision


def _child_ints(spec: Proportional) -> tuple[int, int]:
    """`spec.child_ratio` as (r, s) in lowest terms, without building the Fraction.

    With p = a/b in lowest terms, the ratio is (b - a) / 2b, and only
    gcd(b - a, 2b), which is 1 or 2, cancels.
    """
    a, b = spec.p.as_integer_ratio()
    g = gcd(b - a, 2 * b)
    return (b - a) // g, 2 * b // g


# Only m = 3 keeps a constant child ratio r: 2 r**k = r**(k-1) - 1/m**k forces r = 1/m = 1/3.
_SELF_SIMILAR_POWERS = {3: (3, ((0, 1), (2, 3)))}


def _self_similar(spec: ConstructionSpec) -> bool:
    """Whether the spec has a kept-run table (`_kept_grid`).

    Every public function that takes a spec asks this before any round,
    so it is where a value that is not a spec is refused, named by `_echo`.
    """
    if not isinstance(spec, ConstructionSpec):
        raise ValidationError(
            f"a construction spec must be a Proportional, Power or Subdivision, got {_echo(spec)}")
    return not isinstance(spec, Power) or spec.m in _SELF_SIMILAR_POWERS


def _kept_grid(spec: ConstructionSpec) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(d, ((a, b), ...)): split into d equal parts and keep the runs a..b-1.

    The one place the self-similar specs' geometry is read. The cost does
    not grow with a subdivision's n.
    """
    if isinstance(spec, Proportional):
        r, s = _child_ints(spec)
        return s, ((0, r), (s - r, s))
    if isinstance(spec, Power):
        return _SELF_SIMILAR_POWERS[spec.m]
    runs = []
    start = 0
    for stop in sorted(spec.removed) + [spec.n]:
        if stop > start:
            runs.append((start, stop))
        start = stop + 1
    return spec.n, tuple(runs)


class Stage(_Value):
    """One construction stage: its index, surviving set, and stall flag.

    Once `stalled` is true the process is frozen and every later stage
    equals this one.
    """

    __match_args__ = __slots__ = ("index", "intervals", "stalled")

    def __init__(self, index: int, intervals: IntervalUnion, stalled: bool = False) -> None:
        self.__setstate__((index, intervals, stalled))


def _child_rule(spec: ConstructionSpec) -> tuple[int, Callable]:
    """The family's deletion round on integers: `(D, rule)`.

    `rule(c, length) -> children` takes a non-degenerate component
    [0, length/den] and returns its children as ordered, pairwise separated
    integer pairs over den * D; an edge point left behind by an open
    removal comes out as (e, e). Every family cuts a component by its
    length alone, so the children of [a, b] are D * a plus those of
    [0, b - a]. D is s for a child ratio r/s, d for a kept-run table
    (`_kept_grid`: n for a subdivision, 3 for `Power(3)`) and 2m for any
    other power spec, so stage k lies on the grid D**k.
    `c` matters to the power rule only: it is den / m**(k-1) at round k,
    which makes the removal 1/m**k equal 2c on the next grid (c = 2**(k-1)
    on the family grid). A removal as long as its component
    (`_stall_round`) leaves its two ends, (0, 0) and (D * length, D * length).
    """
    if isinstance(spec, Proportional):
        # Not read from `_kept_grid`: the stage descent (`_removed_at`)
        # calls the rule every round, and the table rule, with one product
        # per run edge and a list built per call, is slower there.
        r, s = _child_ints(spec)

        def rule(c: int, length: int):
            hi, step = s * length, r * length
            return [(0, step), (hi - step, hi)]
        return s, rule
    if not _self_similar(spec):
        m = spec.m
        d = 2 * m

        def rule(c: int, length: int):
            hi, half = d * length, m * length - c
            return [(0, half), (hi - half, hi)]
        return d, rule
    d, runs = _kept_grid(spec)
    left_point = runs[0][0] > 0
    right_point = runs[-1][1] < d

    def rule(c: int, length: int):
        children = [(0, 0)] if left_point else []
        children.extend((u * length, v * length) for u, v in runs)
        if right_point:
            children.append((d * length, d * length))
        return children
    return d, rule


# A point is a component of length 0; its one child is itself.
_POINT_CHILDREN = ((0, 0),)


def _stall_round(spec: ConstructionSpec) -> int | None:
    """The round after which the spec is frozen: 2 for `Power(2)`, else None.

    Only a power round can take a component's whole interior: round k
    removes 1/m**k, and from [0, 1] the round-(k-1) length
    2**-(k-1) * (1 - sum_{j<k} 2**(j-1) / m**j) never drops below it for an
    integer m >= 2. The two are equal only at m = 2, k = 2: four points.
    """
    return None if _self_similar(spec) or spec.m != 2 else 2


def _round(factor: int, rule: Callable, c: int, pairs: list[tuple[int, int]],
           den: int) -> list[tuple[int, int]]:
    """One deletion round: the children over den * factor of the pairs over den.

    The only place the rule meets a list of components. The rule cuts
    [0, length], so it is called once per distinct length in the round, and
    each component [a, b] takes its length's children shifted by factor * a;
    a point is length 0 and rides along. Each child is checked as it is
    placed: the round is refused at the first child out of order,
    overlapping or touching the one before it.
    """
    cut: dict = {}
    children: list[tuple[int, int]] = []
    prev = -1
    for a, b in pairs:
        kids = cut.get(b - a)
        if kids is None:
            kids = _POINT_CHILDREN if a == b else rule(c, b - a)
            cut[b - a] = kids
        shift = factor * a
        for u, v in kids:
            lo, hi = shift + u, shift + v
            if not prev < lo <= hi:
                raise ValidationError(
                    f"deletion round left [{Fraction(lo, den * factor)}, "
                    f"{Fraction(hi, den * factor)}] out of order, overlapping or touching "
                    "the interval before it")
            children.append((lo, hi))
            prev = hi
    return children


def _rounds(spec: ConstructionSpec, depth: int, state, step: Callable = _round) -> Iterator[tuple]:
    """Rounds 0..depth as `(den, state, stalled)`, each taken when the caller asks.

    `step(factor, rule, c, state, den) -> state` takes a state over den to
    the next, over den * factor; `_round` is the step on pairs. No step is
    taken after the round `_stall_round` names: from that round on the
    state is stalled and repeats as the same entry, so its den stays put.
    """
    factor, rule = _child_rule(spec)
    frozen = _stall_round(spec) or depth + 1
    den, c = 1, 1
    yield den, state, False
    for k in range(1, depth + 1):
        if k <= frozen:
            state = step(factor, rule, c, state, den)
            den, c = den * factor, 2 * c
        yield den, state, k >= frozen


def _grid_stages(spec: ConstructionSpec, depth: int) -> Iterator[tuple]:
    """Stages 0..depth as `(den, pairs, stalled)`, refused before any round by `_check_depth`."""
    _check_depth(spec, depth, MAX_BUILT_INTERVALS)
    return _rounds(spec, depth, [(0, 1)])


def _endpoint_stages(spec: ConstructionSpec, depth: int, make: Callable) -> Iterator[tuple]:
    """Stages 0..depth as `(den, (pairs, ends), stalled)`, refused before any round by `_check_depth`.

    `ends` holds each pair's two endpoints as `make(numerator, den)` made
    them, and each distinct endpoint is made once. Endpoints are never
    removed: a parent [l, r] over den is [factor * l, factor * r] over
    den * factor, its children lie in that span, and the spans of distinct
    parents are apart. So a child end equal to factor * l or factor * r is
    its parent's end, known already; the walk steps through the parents
    beside their children and makes only the other ends. A point's two ends
    are one value. Each stage is walked when the caller asks for it, so a
    value that `make` refuses stops the walk before the next round.
    """
    _check_depth(spec, depth, MAX_BUILT_INTERVALS)

    def step(factor, rule, c, state, den):
        pairs, ends = state
        children = _round(factor, rule, c, pairs, den)
        den *= factor
        made = []
        parents = zip(pairs, ends)
        right = -1
        for a, b in children:
            while b > right:
                (left, right), (first, last) = next(parents)
                left *= factor
                right *= factor
            lo = first if a == left else last if a == right else make(a, den)
            hi = lo if a == b else last if b == right else make(b, den)
            made.append((lo, hi))
        return children, made

    return _rounds(spec, depth, ([(0, 1)], [(make(0, 1), make(1, 1))]), step)


def _refuse_power(what: str, branch: int, depth: int, limit: int) -> None:
    """Refuse `what` `depth` when its branch**depth intervals could pass `limit`.

    The package's one stage-size refusal, in one wording: `{what} D could
    hold up to B**D intervals, over the limit of L`, with D cut (`_cut`)
    and the text built only when it refuses. For branch >= 2 the power
    exceeds the limit once depth passes the limit's bit length, so that
    depth is refused before any power is taken.
    """
    if branch > 1 and depth > limit.bit_length() or branch ** depth > limit:
        shown = _cut(depth)
        raise ResourceLimitError(
            f"{what} {shown} could hold up to {branch}**{shown} intervals, "
            f"over the limit of {limit}")


def _check_depth(spec: ConstructionSpec, depth: int, limit: int) -> None:
    """Refuse a depth that is not a nonnegative int, or one whose stage could pass `limit`.

    The floor is `_at_least`'s and the size refusal `_refuse_power`'s, as
    `stage D`. A path that builds its stages passes `MAX_BUILT_INTERVALS`;
    `analyze`, which keeps only each stage's length census, passes
    `MAX_ENUMERATED_INTERVALS`. `render` bounds the rects it draws instead
    (`render._check_rows`). The bound branch**depth ignores stalling, so a
    stalling construction past the limit is refused as well.
    """
    _at_least(depth, "depth")
    _refuse_power("stage", len(_child_rule(spec)[1](1, 1)), depth, limit)


def _fraction(a: int, den: int) -> Fraction:
    """a/den (den > 0) as a `Fraction` set in place from one gcd.

    It is set as (a // g, den // g), g = gcd(a, den) > 0: lowest terms over
    a positive denominator, the one state `Fraction.__new__` leaves.
    `_numerator` and `_denominator` are the two `__slots__` of `Fraction`
    on Python 3.10-3.13, the two that 3.12's private
    `Fraction._from_coprime_ints` sets.
    """
    g = gcd(a, den)
    f = _new(Fraction)
    f._numerator, f._denominator = a // g, den // g
    return f


def iterate(spec: ConstructionSpec, depth: int) -> list[Stage]:
    """Stages 0..depth; a stalled stage repeats. Refused upfront by `_check_depth`.

    The pairs come from `_round`, which refused them unless prev < a <= b
    on integers over den > 0: that is lo <= hi and prev.hi < lo on the
    `Fraction`s, what the public constructors check, so the intervals and
    the union are built in place without checking again.
    """
    stages: list[Stage] = []
    for _, (_, ends), stalled in _endpoint_stages(spec, depth, _fraction):
        if stages and stages[-1].stalled:
            stages.append(stages[-1])
            continue
        intervals = []
        for lo, hi in ends:
            iv = _new(ClosedInterval)
            _set_lo(iv, lo)
            _set_hi(iv, hi)
            intervals.append(iv)
        union = _new(IntervalUnion)
        IntervalUnion.intervals.__set__(union, tuple(intervals))
        stages.append(Stage(len(stages), union, stalled))
    return stages


def _removed_at(spec: ConstructionSpec, x: Fraction, depth: int) -> int:
    """The round among 1..depth that removes x in [0, 1], or 0 when x survives.

    x = p/q is kept as its offset r from its component's left end and the
    component's length w, integers over q * D**k; the round is the rule on
    [0, w], with the power rule's c = q * 2**(k-1). An endpoint survives.
    """
    factor, rule = _child_rule(spec)
    r, w, c = x.numerator, x.denominator, x.denominator
    for k in range(1, depth + 1):
        if r == 0 or r == w:
            return 0
        children = rule(c, w)
        r *= factor
        c *= 2
        for a, b in children:
            if a <= r <= b:
                r, w = r - a, b - a
                break
        else:
            return k
    return 0


def stage_membership(spec: ConstructionSpec, x: Fraction, depth: int) -> bool:
    """Whether x survives `depth` deletion rounds.

    Follows only the component containing x (`_removed_at`), so the cost is
    linear in the depth rather than the stage size. Points outside [0, 1]
    are simply not members.
    """
    _at_least(depth, "depth")
    x = _as_fraction(x, "query point")
    if not 0 <= x.numerator <= x.denominator:
        _self_similar(spec)  # a value that is not a spec is refused all the same
        return False
    return not _removed_at(spec, x, depth)


class MemberByCycle(_Value):
    """Member: the relative position revisits itself, so x is never removed."""

    __match_args__ = ("cycle_length",)

    def __init__(self, cycle_length: int) -> None:
        object.__setattr__(self, "cycle_length", cycle_length)


class MemberByEndpoint(_Value):
    """Member: x is an endpoint of a stage-`depth` component, and endpoints persist."""

    __match_args__ = ("depth",)

    def __init__(self, depth: int) -> None:
        object.__setattr__(self, "depth", depth)


class ExcludedAtDepth(_Value):
    """Not a member: x lies strictly inside an open interval removed at step `depth`."""

    __match_args__ = ("depth",)

    def __init__(self, depth: int) -> None:
        object.__setattr__(self, "depth", depth)


class UndecidedMemberToDepth(_Value):
    """x survives every round up to `depth`; no verdict beyond that."""

    __match_args__ = ("depth",)

    def __init__(self, depth: int) -> None:
        object.__setattr__(self, "depth", depth)


MembershipVerdict = MemberByCycle | MemberByEndpoint | ExcludedAtDepth | UndecidedMemberToDepth


def verdict_is_member(v: MembershipVerdict) -> bool | None:
    """True / False for definitive verdicts, None for undecided ones."""
    if isinstance(v, (MemberByCycle, MemberByEndpoint)):
        return True
    if isinstance(v, ExcludedAtDepth):
        return False
    return None


def _power_membership(spec: Power, x: Fraction, depth_cap: int) -> MembershipVerdict:
    """Component descent in integers; the power family is not scale invariant.

    With x = p/q, before round k the walk holds the offset r of x from its
    component's left end and the component's length w, both as integers
    over q * (2m)**(k-1), and t = 2**(k-1) * q. On the next grid the offset
    is 2m * r, the component's centre m * w and the removal 1/m**k spans
    2t around it, so each child is m * w - t long. A removal as long as its
    component (m = 2, k = 2; none is longer, see `_stall_round`) leaves
    children of length 0, and the open interval then takes the whole
    interior.
    """
    m = spec.m
    r, w = x.numerator, x.denominator
    t = w
    for k in range(1, depth_cap + 1):
        if r == 0 or r == w:
            return MemberByEndpoint(k - 1)
        centre, r = m * w, 2 * m * r
        w = centre - t
        if w < r < centre + t:
            return ExcludedAtDepth(k)
        if r > w:
            r -= centre + t
        t *= 2
    if r == 0 or r == w:
        return MemberByEndpoint(depth_cap)
    return UndecidedMemberToDepth(depth_cap)


def _walk_table(spec: ConstructionSpec) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, ((a, w, w_c, gcd(w, d)), ...)): the kept runs as the walk reads them.

    A run [a, a + w) has width w, and w_c is the largest divisor of w prime
    to d. The runs come right to left: the first with a <= u / q is the
    only one that can hold u / q.
    """
    d, runs = _kept_grid(spec)
    table = []
    for a, b in reversed(runs):
        w = w_c = b - a
        while (g := gcd(w_c, d)) > 1:
            w_c //= g
        table.append((a, w, w_c, gcd(w, d)))
    return d, tuple(table)


def _query_point(x: Fraction) -> Fraction:
    x = _as_fraction(x, "query point")
    if not 0 <= x.numerator <= x.denominator:
        raise DomainError(f"membership queries require 0 <= x <= 1, got {_cut(x)}")
    return x


def limit_membership(spec: ConstructionSpec, x: Fraction,
                     depth_cap: int = DEFAULT_DEPTH_CAP) -> MembershipVerdict:
    """Decide membership of x in the limit set, without enumerating stages.

    Every walk keeps one rule: an endpoint is never removed. Each round
    starts by asking whether x is an endpoint of its component (position 0
    or 1), and so does the cap, at cap 0 too; such an x is a member from
    that stage on. Otherwise the relative-position map is deterministic; a
    revisited position proves a cycle, a position strictly inside a removed
    span proves exclusion.

    The position p/q is kept in lowest-terms integers over the kept-run
    table: with u = d * p, a run [a, b) of width w holding u / q maps it to
    r / (w * q), r = u - a*q. As gcd(p, q) = 1, a common factor of r and q
    divides gcd(d, q), so g = gcd(r, w * gcd(d, q)) is all that cancels.
    gcd(d, q) is carried from step to step: the next one divides
    m = gcd(d, gcd(w, d) * gcd(d, q)), so it is gcd(m, q'), and 1 with no
    work on q' when m is 1.

    The visited-state table holds only states that can still come back.
    Let w_c be the largest divisor of w prime to d. A step multiplies the
    part of q prime to d by w_c / gcd(r, w_c), so that part never shrinks,
    and it grows exactly when g is not a multiple of w_c. A revisited state
    has the same q, so once the part grows no earlier state can come back
    and the table is cleared; a state is entered only after the step out of
    it shows no growth. The first revisit is found at the same depth as
    with a table of every state. A walk whose q grows at every step (a run
    width that does not cancel) keeps no state at all; it may still never
    end, so `depth_cap` bounds it and the verdict may be
    `UndecidedMemberToDepth`.
    """
    x = _query_point(x)
    p, q = x.numerator, x.denominator
    _at_least(depth_cap, "depth cap")
    if not _self_similar(spec):
        return _power_membership(spec, x, depth_cap)
    d, runs = _walk_table(spec)
    dq = gcd(d, q)
    seen: dict[tuple[int, int], int] = {}
    for depth in range(depth_cap):
        if p == 0 or p == q:
            return MemberByEndpoint(depth)
        if seen and (p, q) in seen:
            return MemberByCycle(depth - seen[p, q])
        u = d * p
        for a, w, w_c, w_d in runs:
            aq = a * q
            if aq <= u:
                break
        else:
            return ExcludedAtDepth(depth + 1)
        r, wq = u - aq, w * q
        if r > wq:
            return ExcludedAtDepth(depth + 1)
        g = gcd(r, w * dq)
        if g % w_c:
            seen.clear()
        else:
            seen[p, q] = depth
        m = gcd(d, w_d * dq)
        if g == 1:
            p, q = r, wq
        else:
            p, q = r // g, wq // g
        dq = 1 if m == 1 else gcd(m, q)
    if p == 0 or p == q:
        return MemberByEndpoint(depth_cap)
    return UndecidedMemberToDepth(depth_cap)
