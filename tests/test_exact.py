import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorkit import (
    CANTOR_TERNARY,
    Characterized,
    ClosedInterval,
    DigitExpansion,
    ExcludedAtDepth,
    IntervalUnion,
    MemberByCycle,
    MemberByEndpoint,
    MismatchWitness,
    NotCharacterizable,
    Power,
    Proportional,
    RenderConfig,
    Stage,
    Subdivision,
    UndecidedMemberToDepth,
    ValidationError,
)
from cantorkit.exact import _Value
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


IV = ClosedInterval(Fraction(1, 3), Fraction(2, 3))
UNION = IntervalUnion((ClosedInterval(0, 0), IV))
STAGE = Stage(2, UNION, True)
UNION_REPR = ("IntervalUnion(intervals=(ClosedInterval(lo=Fraction(0, 1), hi=Fraction(0, 1)), "
              "ClosedInterval(lo=Fraction(1, 3), hi=Fraction(2, 3))))")
# Each value class once, with its pinned repr.
VALUES = [
    (IV, "ClosedInterval(lo=Fraction(1, 3), hi=Fraction(2, 3))"),
    (UNION, UNION_REPR),
    (STAGE, f"Stage(index=2, intervals={UNION_REPR}, stalled=True)"),
    (Proportional(Fraction(1, 3)), "Proportional(p=Fraction(1, 3))"),
    (Power(4), "Power(m=4)"),
    (Subdivision(4, frozenset({2})), "Subdivision(n=4, removed=frozenset({2}))"),
    (MemberByCycle(2), "MemberByCycle(cycle_length=2)"),
    (MemberByEndpoint(3), "MemberByEndpoint(depth=3)"),
    (ExcludedAtDepth(3), "ExcludedAtDepth(depth=3)"),
    (UndecidedMemberToDepth(3), "UndecidedMemberToDepth(depth=3)"),
    (CANTOR_TERNARY, "ExpansionSpec(base=3, allowed=frozenset({0, 2}))"),
    (DigitExpansion(3, (0,), (2,)), "DigitExpansion(base=3, preperiod=(0,), period=(2,))"),
    (Characterized(CANTOR_TERNARY),
     "Characterized(spec=ExpansionSpec(base=3, allowed=frozenset({0, 2})))"),
    (NotCharacterizable("no filter"), "NotCharacterizable(reason='no filter')"),
    (MismatchWitness(2, Fraction(1, 2)), "MismatchWitness(depth=2, point=Fraction(1, 2))"),
    (RenderConfig(), "RenderConfig(width_px=800, row_height_px=24, depth=4, label=False)"),
]
SLOTTED = [IV, UNION, STAGE]


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def class_name(value) -> str:
    return type(value).__name__


class TestSlottedValues:
    """The value classes behave as frozen dataclasses; three keep their fields in slots."""

    def test_every_value_class_is_covered(self):
        assert {type(v) for v, _ in VALUES} == set(_Value.__subclasses__())
        assert len(VALUES) == 16

    @pytest.mark.parametrize("value", SLOTTED, ids=class_name)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert type(value).__slots__ == type(value).__match_args__

    @pytest.mark.parametrize("value", [v for v, _ in VALUES[3:]], ids=class_name)
    def test_the_others_keep_their_fields_in_an_instance_dict(self, value):
        # cmd_member writes a verdict's fields from vars(), in field order.
        assert vars(value) == dict(zip(type(value).__match_args__, fields(value)))
        assert list(vars(value)) == list(type(value).__match_args__)

    @pytest.mark.parametrize("value, field", [
        (v, name) for v, _ in VALUES for name in (*type(v).__match_args__, "extra")],
        ids=lambda x: x if isinstance(x, str) else class_name(x))
    def test_a_field_cannot_be_assigned(self, value, field):
        # A name that is not a field is refused the same way.
        before = fields(value)
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, 0)
        assert fields(value) == before
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        assert fields(value) == before

    @pytest.mark.parametrize("value, shown", VALUES, ids=[class_name(v) for v, _ in VALUES])
    def test_repr_is_pinned_and_matches_the_first_field(self, value, shown):
        assert repr(value) == shown
        cls = type(value)
        match value:
            case cls(first):
                assert first is getattr(value, cls.__match_args__[0])
            case _:
                pytest.fail("the value did not match its first field")

    def test_repr_and_match_args(self):
        assert ClosedInterval.__match_args__ == ("lo", "hi")
        assert IntervalUnion.__match_args__ == ("intervals",)
        assert Stage.__match_args__ == ("index", "intervals", "stalled")
        assert Subdivision.__match_args__ == ("n", "removed")
        assert DigitExpansion.__match_args__ == ("base", "preperiod", "period")
        assert RenderConfig.__match_args__ == ("width_px", "row_height_px", "depth", "label")
        match STAGE:
            case Stage(2, IntervalUnion((ClosedInterval(lo, hi), _)), True):
                assert lo == hi == 0
            case _:
                pytest.fail("the stage did not match its fields")

    @pytest.mark.parametrize("value", [v for v, _ in VALUES], ids=class_name)
    def test_keyword_construction_equality_and_hash(self, value):
        cls = type(value)
        clone = cls(**dict(zip(cls.__match_args__, fields(value))))
        assert clone is not value
        assert clone == value and not clone != value
        assert hash(clone) == hash(value) == hash(fields(value))
        # A value is not its field tuple, nor equal to a value of another class.
        assert value != fields(value)
        assert all(value != other for other, _ in VALUES if type(other) is not cls)

    def test_classes_with_the_same_fields_are_unequal(self):
        depth = [MemberByEndpoint(3), ExcludedAtDepth(3), UndecidedMemberToDepth(3)]
        assert {type(v).__match_args__ for v in depth} == {("depth",)}
        for i, a in enumerate(depth):
            for b in depth[i + 1:]:
                assert a != b and not a == b
        assert len(set(depth)) == 3

    def test_defaults(self):
        assert RenderConfig() == RenderConfig(width_px=800, row_height_px=24, depth=4,
                                              label=False)
        assert Stage(1, UNION) == Stage(index=1, intervals=UNION, stalled=False)
        assert Stage(1, UNION).stalled is False and IntervalUnion().intervals == ()

    def test_equality_hash_and_order(self):
        same = ClosedInterval(Fraction(2, 6), Fraction(4, 6))
        assert same == IV and hash(same) == hash(IV) == hash((same.lo, same.hi))
        assert UNION == IntervalUnion((ClosedInterval(0, 0), same))
        assert hash(UNION) == hash((UNION.intervals,))
        assert STAGE == Stage(2, IntervalUnion(UNION.intervals), True)
        assert hash(STAGE) == hash((2, UNION, True))
        assert STAGE != Stage(2, UNION)
        assert ClosedInterval(0, 1) < ClosedInterval(0, 2) < ClosedInterval(Fraction(1, 2), 1)
        assert ClosedInterval(0, 1) <= ClosedInterval(0, 1) and not IV > IV
        assert ClosedInterval(0, 2) >= ClosedInterval(0, 1) > ClosedInterval(0, 0)
        assert sorted([IV, ClosedInterval(0, 0)]) == list(UNION)
        with pytest.raises(TypeError):
            IV < (IV.lo, IV.hi)

    @pytest.mark.parametrize("value", [v for v, _ in VALUES] + [IntervalUnion()], ids=repr)
    def test_pickle_and_deepcopy_round_trip(self, value):
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                      copy.copy(value)):
            assert clone == value and type(clone) is type(value)
            assert repr(clone) == repr(value)
        # A clone keeps its class's layout: slots, or an instance dict.
        assert hasattr(copy.copy(value), "__dict__") == hasattr(value, "__dict__")


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
