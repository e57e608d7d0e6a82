"""Closed intervals and the disjoint interval unions that stages are made of.

All endpoints and measures are `fractions.Fraction` values and every
operation is exact; no floating point enters this module. Values are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

from .errors import ValidationError, _cut, _written


def _is_int(value: object) -> bool:
    """Whether value is an int; a bool is not one, though Python says it is."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_fraction(value: object) -> Fraction:
    """value as a Fraction: an exact Fraction as given, anything else converted."""
    return value if type(value) is Fraction else Fraction(value)


def _frozen(cls: type) -> type:
    """`cls` refusing to assign or delete any name, as a frozen dataclass does.

    The `__setattr__` and `__delattr__` that `dataclass(frozen=True)`
    writes name the class that `slots=True` then replaces, so for a name
    that is not a field they end in a `TypeError` from `super()`.
    """
    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_frozen
@dataclass(frozen=True, order=True, slots=True)
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


def _cut_interval(iv: ClosedInterval) -> str:
    """[lo, hi] cut as one value, so a message naming two intervals stays under 512 bytes."""
    return _cut(f"[{_written(iv.lo, str)}, {_written(iv.hi, str)}]")


@_frozen
@dataclass(frozen=True, slots=True)
class IntervalUnion:
    """Strictly increasing, pairwise separated closed intervals.

    Consecutive members never touch (prev.hi < next.lo). The constructor
    rejects input that overlaps or touches; it does not merge. Equality
    is exact point-set equality because the form is canonical.
    """

    intervals: tuple[ClosedInterval, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))
        for prev, cur in zip(self.intervals, self.intervals[1:]):
            if not prev.hi < cur.lo:
                raise ValidationError(
                    "intervals overlap, touch, or are out of order: "
                    f"{_cut_interval(prev)} before {_cut_interval(cur)}")

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
# The slot descriptors set a field of a frozen instance without its checks.
_set_lo = ClosedInterval.lo.__set__
_set_hi = ClosedInterval.hi.__set__
