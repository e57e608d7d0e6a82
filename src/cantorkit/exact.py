"""Closed intervals and the disjoint interval unions that stages are made of.

All endpoints and measures are `fractions.Fraction` values and every
operation is exact; no floating point enters this module. Values are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import total_ordering

from .errors import ValidationError, _cut, _echo, _written


def _is_int(value: object) -> bool:
    """Whether value is an int; a bool is not one, though Python says it is."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_fraction(value: object, what: str) -> Fraction:
    """value as a Fraction: an exact Fraction as given, anything else converted.

    The package's one rational reader: a value that `Fraction` cannot read,
    or a bool, is refused as `{what} must be a rational number`, named by
    `_echo`. A bool is not read as 0 or 1, as no integer field reads one
    (`_is_int`).
    """
    if type(value) is Fraction:
        return value
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ValidationError(f"{what} must be a rational number, got {_echo(value)}")


def _items(value: object, what: str) -> tuple:
    """value's items as a tuple; a value that `tuple` cannot read is refused, named by `_echo`."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{what} must be iterable, got {_echo(value)}") from None


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in `__match_args__` and checks its arguments
    in its own `__init__`, then sets each field once: a single field with
    `object.__setattr__`, several in one call to `__setstate__`, the setter
    that pickle and `copy` use too. Equality and hashing read those
    fields, for instances of the same class only, and the repr writes them
    as `Name(field=value, ...)`. Assigning or deleting any name raises
    `dataclasses.FrozenInstanceError`, as a frozen dataclass does; the
    module is imported only then, so that loading the package does not load
    it. Pickle and `copy` go through `__getstate__` and `__setstate__`,
    which also serve the subclasses that keep their fields in `__slots__`.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash(self.__getstate__())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)


@total_ordering
class ClosedInterval(_Value):
    """Closed interval [lo, hi]. lo == hi is allowed and marks a single point."""

    __match_args__ = __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        lo, hi = _as_fraction(lo, "interval endpoint"), _as_fraction(hi, "interval endpoint")
        if lo > hi:
            raise ValidationError(f"interval endpoints out of order: [{_cut(lo)}, {_cut(hi)}]")
        self.__setstate__((lo, hi))

    def __lt__(self, other: object) -> bool:
        # Ordered as the tuple (lo, hi), against intervals only;
        # `total_ordering` derives the other three comparisons.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) < (other.lo, other.hi)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo


def _cut_interval(iv: ClosedInterval) -> str:
    """[lo, hi] cut as one value, so a message naming two intervals stays under 512 bytes."""
    return _cut(f"[{_written(iv.lo, str)}, {_written(iv.hi, str)}]")


class IntervalUnion(_Value):
    """Strictly increasing, pairwise separated closed intervals.

    Consecutive members never touch (prev.hi < next.lo). The constructor
    rejects input that overlaps or touches; it does not merge. Equality
    is exact point-set equality because the form is canonical.
    """

    __match_args__ = __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[ClosedInterval, ...] = ()) -> None:
        intervals = _items(intervals, "union members")
        for iv in intervals:
            if not isinstance(iv, ClosedInterval):
                raise ValidationError(f"union member {_echo(iv)} is not a ClosedInterval")
        for prev, cur in zip(intervals, intervals[1:]):
            if not prev.hi < cur.lo:
                raise ValidationError(
                    "intervals overlap, touch, or are out of order: "
                    f"{_cut_interval(prev)} before {_cut_interval(cur)}")
        object.__setattr__(self, "intervals", intervals)

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
