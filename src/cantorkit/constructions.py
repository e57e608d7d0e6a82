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

Limit membership for the proportional and subdivision families is decided
without enumerating stages: both are scale invariant, so it suffices to
track the relative position of the query point inside its (unique) current
component and watch for boundary hits, removal hits, and revisited states.
The power family has no scale invariance and falls back to a capped
component descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, ResourceLimitError, ValidationError
from .exact import ClosedInterval, IntervalUnion

MAX_ENUMERATED_INTERVALS = 2 ** 30
DEFAULT_DEPTH_CAP = 10_000

UNIT = ClosedInterval(Fraction(0), Fraction(1))


@dataclass(frozen=True)
class Proportional:
    """Remove the open centered proportion p of every component, each round."""

    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ValidationError(f"removal proportion must lie in (0, 1), got {self.p}")

    @property
    def child_ratio(self) -> Fraction:
        """Each of the two children is this fraction of its parent."""
        return (1 - self.p) / 2


@dataclass(frozen=True)
class Power:
    """Remove an open centered interval of length 1/m**k at round k."""

    m: int

    def __post_init__(self) -> None:
        if isinstance(self.m, bool) or not isinstance(self.m, int) or self.m < 2:
            raise ValidationError(f"power base must be an integer >= 2, got {self.m!r}")


@dataclass(frozen=True)
class Subdivision:
    """Split into n equal parts and delete the open spans at `removed` indices.

    Contiguous removed indices are deleted as a single open span, so the
    boundary point between two removed neighbours goes with them, while a
    boundary shared with a kept part survives as a child endpoint.
    """

    n: int
    removed: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "removed", frozenset(self.removed))
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 3:
            raise ValidationError(f"part count must be an integer >= 3, got {self.n!r}")
        for i in self.removed:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < self.n:
                raise ValidationError(
                    f"removed index {i!r} outside the part range 0..{self.n - 1}")
        if not self.removed:
            raise ValidationError("at least one part must be removed")
        if len(self.removed) >= self.n:
            raise ValidationError("at least one part must be kept")

    @property
    def kept(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self.removed)


ConstructionSpec = Proportional | Power | Subdivision


@dataclass(frozen=True)
class Run:
    """Maximal block of consecutive kept part indices."""

    start: int
    width: int
    span: tuple[Fraction, Fraction]


def kept_runs(spec: Subdivision) -> tuple[Run, ...]:
    """Kept-part runs with their relative spans inside a unit parent.

    Built from the sorted removed indices, so the cost does not grow with n.
    """
    runs: list[Run] = []
    start = 0
    for stop in sorted(spec.removed) + [spec.n]:
        if stop > start:
            runs.append(Run(start, stop - start,
                            (Fraction(start, spec.n), Fraction(stop, spec.n))))
        start = stop + 1
    return tuple(runs)


@dataclass(frozen=True)
class Stage:
    """One construction stage: its index, surviving set, and stall flag.

    Once `stalled` is true the process is frozen and every later stage
    equals this one.
    """

    index: int
    intervals: IntervalUnion
    stalled: bool = False


def initial_stage() -> Stage:
    return Stage(0, IntervalUnion((UNIT,)))


def _child_rule(spec: ConstructionSpec) -> Callable:
    """The family's deletion round, as `rule(k, lo, hi) -> (children, stalled)`.

    `children` are the round-k children of a non-degenerate [lo, hi] as
    ordered, pairwise separated (lo, hi) pairs; an edge point left behind
    by an open removal comes out as (e, e). `stalled` is true when the
    round freezes the process: for the power family a removal as long as
    the component leaves only its two endpoints, and a longer one leaves
    the component untouched.
    """
    if isinstance(spec, Proportional):
        q = spec.child_ratio

        def rule(k: int, lo: Fraction, hi: Fraction):
            step = q * (hi - lo)
            return [(lo, lo + step), (hi - step, hi)], False
    elif isinstance(spec, Power):
        m = spec.m

        def rule(k: int, lo: Fraction, hi: Fraction):
            removal = Fraction(1, m ** k)
            length = hi - lo
            if length > removal:
                half = (length - removal) / 2
                return [(lo, lo + half), (hi - half, hi)], False
            if length == removal:
                return [(lo, lo), (hi, hi)], True
            return [(lo, hi)], True
    else:
        spans = [r.span for r in kept_runs(spec)]
        left_point = 0 in spec.removed
        right_point = (spec.n - 1) in spec.removed

        def rule(k: int, lo: Fraction, hi: Fraction):
            length = hi - lo
            children = [(lo, lo)] if left_point else []
            children.extend((lo + a * length, lo + b * length) for a, b in spans)
            if right_point:
                children.append((hi, hi))
            return children, False
    return rule


def next_stage(spec: ConstructionSpec, s: Stage) -> Stage:
    """Apply one deletion round to every non-degenerate component.

    Degenerate points ride along unchanged. The round stalls the process
    when the family's rule says so for any component.
    """
    if s.stalled:
        return s
    rule = _child_rule(spec)
    index = s.index + 1
    children: list[ClosedInterval] = []
    stalled = False
    for iv in s.intervals:
        if iv.is_point:
            children.append(iv)
            continue
        pairs, stop = rule(index, iv.lo, iv.hi)
        children.extend(ClosedInterval(lo, hi) for lo, hi in pairs)
        stalled = stalled or stop
    # The rule's children are ordered and separated, so they need no
    # normalization; IntervalUnion's own check refuses a rule that breaks this.
    return Stage(index, IntervalUnion(tuple(children)), stalled)


def _branch_factor(spec: ConstructionSpec) -> int:
    return len(_child_rule(spec)(1, Fraction(0), Fraction(1))[0])


def iterate(spec: ConstructionSpec, depth: int,
            max_intervals: int = MAX_ENUMERATED_INTERVALS) -> list[Stage]:
    """Stages 0..depth. A stalled stage repeats itself for the remainder.

    Refuses upfront when branch_factor**depth exceeds `max_intervals`, so
    no oversized stage is ever materialized. The bound ignores stalling,
    so a stalling construction past the limit is refused as well.
    """
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    branch = _branch_factor(spec)
    if branch ** depth > max_intervals:
        raise ResourceLimitError(
            f"stage {depth} could hold up to {branch}**{depth} intervals, "
            f"over the limit of {max_intervals}")
    stages = [initial_stage()]
    for _ in range(depth):
        stages.append(next_stage(spec, stages[-1]))
    return stages


def stage_membership(spec: ConstructionSpec, x: Fraction, depth: int) -> bool:
    """Whether x survives `depth` deletion rounds.

    Follows only the component containing x, so the cost is linear in the
    depth rather than the stage size. Points outside [0, 1] are simply
    not members.
    """
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    x = Fraction(x)
    if not 0 <= x <= 1:
        return False
    rule = _child_rule(spec)
    lo, hi = Fraction(0), Fraction(1)
    for k in range(1, depth + 1):
        if lo == hi:
            return True
        children, stalled = rule(k, lo, hi)
        for a, b in children:
            if a <= x <= b:
                lo, hi = a, b
                break
        else:
            return False
        if stalled:
            return True
    return True


@dataclass(frozen=True)
class MemberByCycle:
    """Member: the relative position revisits itself, so x is never removed."""

    cycle_length: int


@dataclass(frozen=True)
class MemberByEndpoint:
    """Member: x is an endpoint of a stage-`depth` component, and endpoints persist."""

    depth: int


@dataclass(frozen=True)
class ExcludedAtDepth:
    """Not a member: x lies strictly inside an open interval removed at step `depth`."""

    depth: int


@dataclass(frozen=True)
class UndecidedMemberToDepth:
    """x survives every round up to `depth`; no verdict beyond that."""

    depth: int


MembershipVerdict = MemberByCycle | MemberByEndpoint | ExcludedAtDepth | UndecidedMemberToDepth


def verdict_is_member(v: MembershipVerdict) -> bool | None:
    """True / False for definitive verdicts, None for undecided ones."""
    if isinstance(v, (MemberByCycle, MemberByEndpoint)):
        return True
    if isinstance(v, ExcludedAtDepth):
        return False
    return None


_CONTINUE, _HIT_ENDPOINT, _HIT_REMOVED = 0, 1, 2


def _proportional_step(spec: Proportional) -> Callable:
    q = spec.child_ratio
    left_hi = q
    right_lo = 1 - q
    def step(t: Fraction):
        if t == left_hi or t == right_lo:
            return _HIT_ENDPOINT, t
        if t < left_hi:
            return _CONTINUE, t / q
        if t < right_lo:
            return _HIT_REMOVED, t
        return _CONTINUE, (t - right_lo) / q
    return step


def _subdivision_step(spec: Subdivision) -> Callable:
    n = spec.n
    runs = [(r.start, r.start + r.width, r.width) for r in kept_runs(spec)]
    def step(t: Fraction):
        u = n * t
        for start, end, width in runs:
            if u < start:
                break
            if u == start or u == end:
                # 0 < u < n here, so the neighbouring part is removed and
                # x is an endpoint of the next stage.
                return _HIT_ENDPOINT, t
            if u < end:
                return _CONTINUE, (u - start) / width
        return _HIT_REMOVED, t
    return step


def _power_membership(spec: Power, x: Fraction, depth_cap: int) -> MembershipVerdict:
    """Component descent; the power family is not scale invariant."""
    lo, hi = Fraction(0), Fraction(1)
    for k in range(1, depth_cap + 1):
        if x == lo or x == hi:
            return MemberByEndpoint(k - 1)
        removal = Fraction(1, spec.m ** k)
        length = hi - lo
        if length > removal:
            half = (length - removal) / 2
            if x <= lo + half:
                hi = lo + half
            elif x >= hi - half:
                lo = hi - half
            else:
                return ExcludedAtDepth(k)
        elif length == removal:
            # the whole interior is removed at once; endpoints were handled above
            return ExcludedAtDepth(k)
        else:
            # removal no longer fits; the component is frozen forever
            return MemberByCycle(1)
    if x == lo or x == hi:
        return MemberByEndpoint(depth_cap)
    return UndecidedMemberToDepth(depth_cap)


def limit_membership(spec: ConstructionSpec, x: Fraction,
                     depth_cap: int = DEFAULT_DEPTH_CAP) -> MembershipVerdict:
    """Decide membership of x in the limit set, without enumerating stages.

    Membership is existential over expansions: a point that lands exactly
    on a kept/removed boundary is an endpoint of some stage component and
    endpoints are never removed, so boundary hits resolve immediately as
    members rather than forking the search. Between boundary hits the
    relative-position map is deterministic; a revisited position proves a
    cycle, a position strictly inside a removed span proves exclusion.

    The visited-state table is finite whenever the kept-run width factors
    cancel (always for width-1 runs and for even-width runs at even
    starts); otherwise `depth_cap` bounds the walk and the verdict may be
    `UndecidedMemberToDepth`.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"membership queries require 0 <= x <= 1, got {x}")
    if depth_cap < 0:
        raise ValidationError("depth cap must be nonnegative")
    if isinstance(spec, Power):
        return _power_membership(spec, x, depth_cap)
    step = _proportional_step(spec) if isinstance(spec, Proportional) else _subdivision_step(spec)
    t = x
    first_seen: dict[Fraction, int] = {}
    depth = 0
    while depth < depth_cap:
        if t == 0 or t == 1:
            return MemberByEndpoint(depth)
        if t in first_seen:
            return MemberByCycle(depth - first_seen[t])
        first_seen[t] = depth
        kind, t = step(t)
        depth += 1
        if kind == _HIT_ENDPOINT:
            return MemberByEndpoint(depth)
        if kind == _HIT_REMOVED:
            return ExcludedAtDepth(depth)
    return UndecidedMemberToDepth(depth_cap)
