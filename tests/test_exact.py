import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorkit import ClosedInterval, IntervalUnion, Stage, ValidationError
from reference_stages import normalize
from reference_stages import table as iu


class TestClosedInterval:
    def test_point_interval(self):
        p = ClosedInterval(Fraction(1, 4), Fraction(1, 4))
        assert p.lo == p.hi == Fraction(1, 4)
        assert p.length == 0

    def test_out_of_order_rejected(self):
        with pytest.raises(ValidationError):
            ClosedInterval(Fraction(1, 2), Fraction(1, 3))

    def test_coercion(self):
        iv = ClosedInterval(0, 1)
        assert iv.lo == Fraction(0) and isinstance(iv.lo, Fraction)


class TestSlottedValues:
    """The value classes keep their fields in slots and behave as frozen dataclasses."""

    IV = ClosedInterval(Fraction(1, 3), Fraction(2, 3))
    UNION = IntervalUnion((ClosedInterval(0, 0), IV))
    STAGE = Stage(2, UNION, True)

    @pytest.mark.parametrize("value", [IV, UNION, STAGE], ids=type)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert type(value).__slots__ == type(value).__match_args__

    @pytest.mark.parametrize("value, field", [(IV, "lo"), (IV, "hi"), (UNION, "intervals"),
                                              (STAGE, "index"), (STAGE, "stalled"),
                                              (IV, "extra"), (UNION, "extra"), (STAGE, "extra")])
    def test_a_field_cannot_be_assigned(self, value, field):
        # A name that is not a field is refused the same way.
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(value, field)

    def test_repr_and_match_args(self):
        assert repr(self.IV) == "ClosedInterval(lo=Fraction(1, 3), hi=Fraction(2, 3))"
        assert repr(self.STAGE) == (
            "Stage(index=2, intervals=IntervalUnion(intervals=(ClosedInterval(lo=Fraction(0, 1), "
            "hi=Fraction(0, 1)), ClosedInterval(lo=Fraction(1, 3), hi=Fraction(2, 3)))), "
            "stalled=True)")
        assert ClosedInterval.__match_args__ == ("lo", "hi")
        assert IntervalUnion.__match_args__ == ("intervals",)
        assert Stage.__match_args__ == ("index", "intervals", "stalled")
        match self.STAGE:
            case Stage(2, IntervalUnion((ClosedInterval(lo, hi), _)), True):
                assert lo == hi == 0
            case _:
                pytest.fail("the stage did not match its fields")

    def test_equality_hash_and_order(self):
        same = ClosedInterval(Fraction(2, 6), Fraction(4, 6))
        assert same == self.IV and hash(same) == hash(self.IV) == hash((same.lo, same.hi))
        assert self.UNION == IntervalUnion((ClosedInterval(0, 0), same))
        assert hash(self.UNION) == hash((self.UNION.intervals,))
        assert self.STAGE == Stage(2, IntervalUnion(self.UNION.intervals), True)
        assert hash(self.STAGE) == hash((2, self.UNION, True))
        assert self.STAGE != Stage(2, self.UNION)
        assert ClosedInterval(0, 1) < ClosedInterval(0, 2) < ClosedInterval(Fraction(1, 2), 1)
        assert ClosedInterval(0, 1) <= ClosedInterval(0, 1) and not self.IV > self.IV
        assert sorted([self.IV, ClosedInterval(0, 0)]) == list(self.UNION)

    @pytest.mark.parametrize("value", [IV, UNION, STAGE, IntervalUnion()], ids=repr)
    def test_pickle_and_deepcopy_round_trip(self, value):
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                      copy.copy(value)):
            assert clone == value and type(clone) is type(value)
            assert repr(clone) == repr(value)


class TestNormalize:
    def test_sorts(self):
        u = normalize([ClosedInterval(Fraction(3, 4), 1),
                       ClosedInterval(0, Fraction(1, 2))])
        assert u == iu([(0, Fraction(1, 2)), (Fraction(3, 4), 1)])

    def test_merges_touching(self):
        u = normalize([ClosedInterval(0, Fraction(1, 2)),
                       ClosedInterval(Fraction(1, 2), 1)])
        assert u == iu([(0, 1)])

    def test_merges_contained(self):
        u = normalize([ClosedInterval(0, 1),
                       ClosedInterval(Fraction(1, 3), Fraction(2, 3))])
        assert u == iu([(0, 1)])

    def test_point_touching_interval_absorbed(self):
        u = normalize([ClosedInterval(0, Fraction(1, 4)),
                       ClosedInterval(Fraction(1, 4), Fraction(1, 4))])
        assert u == iu([(0, Fraction(1, 4))])

    def test_constructor_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            IntervalUnion((ClosedInterval(0, Fraction(1, 2)),
                           ClosedInterval(Fraction(1, 2), 1)))
        with pytest.raises(ValidationError):
            IntervalUnion((ClosedInterval(Fraction(1, 2), 1),
                           ClosedInterval(0, Fraction(1, 4))))

    def test_empty(self):
        assert normalize([]) == IntervalUnion()
        assert IntervalUnion().measure == 0


class TestMeasure:
    def test_measure(self):
        u = iu([(0, Fraction(1, 3)), (Fraction(2, 3), 1)])
        assert u.measure == Fraction(2, 3)


class TestQueries:
    def test_covers(self):
        u = iu([(0, Fraction(1, 3)), (Fraction(2, 3), 1)])
        assert u.covers(Fraction(1, 3))
        assert u.covers(Fraction(2, 3))
        assert not u.covers(Fraction(1, 2))
        assert not u.covers(Fraction(3, 2))

    def test_endpoints(self):
        u = iu([(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), 1)])
        assert u.endpoints() == (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                                 Fraction(3, 4), Fraction(1))

    def test_contains_union(self):
        outer = iu([(0, Fraction(1, 3)), (Fraction(2, 3), 1)])
        inner = iu([(0, Fraction(1, 9)), (Fraction(2, 9), Fraction(1, 3)),
                    (Fraction(2, 3), Fraction(7, 9)), (Fraction(8, 9), 1)])
        assert outer.contains_union(inner)
        assert not inner.contains_union(outer)
        assert outer.contains_union(outer)


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)


@st.composite
def interval_lists(draw):
    out = []
    for _ in range(draw(st.integers(0, 6))):
        a = draw(unit_fractions)
        b = draw(unit_fractions)
        out.append(ClosedInterval(min(a, b), max(a, b)))
    return out


@given(interval_lists())
def test_normalize_idempotent(ivs):
    once = normalize(ivs)
    assert normalize(once.intervals) == once


@given(interval_lists(), st.randoms(use_true_random=False))
def test_normalize_permutation_and_duplication_insensitive(ivs, rng):
    base = normalize(ivs)
    shuffled = ivs + ivs
    rng.shuffle(shuffled)
    assert normalize(shuffled) == base


def test_rational_round_trip_bulk():
    # 1000 seeded arithmetic round trips at mixed denominators
    rng = random.Random(424242)
    for _ in range(1000):
        a = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        b = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        assert (a + b) - b == a
        assert (a - b) + b == a
        if b != 0:
            assert (a / b) * b == a
        assert Fraction(str(a)) == a
