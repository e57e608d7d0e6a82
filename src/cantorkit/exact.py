"""Exact rational scalars, closed intervals, and disjoint interval unions.

Everything downstream computes over these three shapes. All endpoints and
measures are `fractions.Fraction` values and every operation is exact; no
floating point enters this module. Values are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError, _cut, _written

Rational = Fraction


def _is_int(value: object) -> bool:
    """Whether value is an int; a bool is not one, though Python says it is."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_fraction(value: object) -> Fraction:
    """value as a Fraction: an exact Fraction as given, anything else converted."""
    return value if type(value) is Fraction else Fraction(value)


def rat(numer: int, denom: int = 1) -> Fraction:
    """Normalized rational numer/denom; the sign lands on the numerator."""
    if denom == 0:
        raise ValidationError("zero denominator")
    return Fraction(numer, denom)


@dataclass(frozen=True, order=True)
class ClosedInterval:
    """Closed interval [lo, hi]. lo == hi is allowed and marks a single point."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        # An exact Fraction is kept as given; anything else, a subclass
        # included, is converted.
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValidationError(
                f"interval endpoints out of order: [{_cut(self.lo)}, {_cut(self.hi)}]")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def covers(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi


def _cut_interval(iv: ClosedInterval) -> str:
    """[lo, hi] cut as one value, so a message naming two intervals stays under 512 bytes."""
    return _cut(f"[{_written(iv.lo, str)}, {_written(iv.hi, str)}]")


@dataclass(frozen=True)
class IntervalUnion:
    """Strictly increasing, pairwise separated closed intervals.

    Consecutive members never touch (prev.hi < next.lo); input that
    overlaps or touches must be merged first, which `union_normalize`
    does. The constructor validates and rejects, it does not repair.
    Equality is exact point-set equality because the form is canonical.
    """

    intervals: tuple[ClosedInterval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))
        for prev, cur in zip(self.intervals, self.intervals[1:]):
            if not prev.hi < cur.lo:
                raise ValidationError(
                    "intervals overlap, touch, or are out of order: "
                    f"{_cut_interval(prev)} before {_cut_interval(cur)}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple]) -> "IntervalUnion":
        """Normalize a sequence of (lo, hi) pairs."""
        return union_normalize(ClosedInterval(lo, hi) for lo, hi in pairs)

    def __iter__(self) -> Iterator[ClosedInterval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    @property
    def measure(self) -> Fraction:
        return sum((iv.length for iv in self.intervals), Fraction(0))

    def covers(self, x: Fraction) -> bool:
        """Whether x lies in some member interval."""
        for iv in self.intervals:
            if x < iv.lo:
                return False
            if x <= iv.hi:
                return True
        return False

    def endpoints(self) -> tuple[Fraction, ...]:
        """All distinct member endpoints in increasing order."""
        out: list[Fraction] = []
        for iv in self.intervals:
            out.append(iv.lo)
            if iv.hi != iv.lo:
                out.append(iv.hi)
        return tuple(out)

    def contains_union(self, other: "IntervalUnion") -> bool:
        """Point-set inclusion other <= self.

        Both sides are normalized, so each interval of `other` must sit
        inside a single interval of `self`.
        """
        mine = iter(self.intervals)
        cur = next(mine, None)
        for iv in other.intervals:
            while cur is not None and cur.hi < iv.lo:
                cur = next(mine, None)
            if cur is None or not (cur.lo <= iv.lo and iv.hi <= cur.hi):
                return False
        return True


_new = object.__new__
_set = object.__setattr__


def _trusted_union(intervals: tuple[ClosedInterval, ...]) -> IntervalUnion:
    """The union of `intervals` built without `__post_init__`.

    Only for a tuple the caller has already shown to be strictly
    increasing and pairwise separated.
    """
    u = _new(IntervalUnion)
    _set(u, "intervals", intervals)
    return u


def union_normalize(raw: Iterable[ClosedInterval]) -> IntervalUnion:
    """Sort intervals and merge overlapping or touching ones.

    The result covers exactly the same points; the input may be in any
    order and may repeat intervals. Idempotent on normalized input.
    """
    merged: list[ClosedInterval] = []
    for iv in sorted(raw):
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = ClosedInterval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return IntervalUnion(tuple(merged))


def union_measure(u: IntervalUnion) -> Fraction:
    """Exact total length of the union."""
    return u.measure


def union_gaps(u: IntervalUnion, ambient: ClosedInterval) -> IntervalUnion:
    """Closure of ambient minus u, as an interval union.

    Gap endpoints are shared with u and ambient; callers treat the gap
    interiors as the removed open sets. Two gaps meeting at a degenerate
    member of u merge (the result is normalized), which only ever glues
    them at single points, so measure(u) + measure(gaps) equals the
    ambient length regardless. Requires u to be contained in ambient.
    """
    if u.intervals:
        if u.intervals[0].lo < ambient.lo or u.intervals[-1].hi > ambient.hi:
            raise ValidationError("union is not contained in the ambient interval")
    gaps: list[ClosedInterval] = []
    cursor = ambient.lo
    for iv in u.intervals:
        if cursor < iv.lo:
            gaps.append(ClosedInterval(cursor, iv.lo))
        cursor = iv.hi
    if cursor < ambient.hi:
        gaps.append(ClosedInterval(cursor, ambient.hi))
    return union_normalize(gaps)
