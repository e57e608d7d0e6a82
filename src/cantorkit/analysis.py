"""Measures, digit-expansion characterizations, and derived quantities.

Stage and limit measures come from closed recurrences, never from stage
enumeration, so they stay cheap at depths where the stages themselves
would be astronomically large. Digit work runs on a finite automaton over
states p/q with q fixed at the query's denominator: state p steps to
base * p - d * q for an allowed digit d whenever the result stays inside
[0, q]. A base-b expansion avoiding the forbidden digits exists exactly
when an infinite run exists, i.e. when a cycle is reachable, so every
query terminates.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .constructions import (
    MAX_ENUMERATED_INTERVALS,
    ConstructionSpec,
    Power,
    Proportional,
    Stage,
    Subdivision,
    _child_rule,
    iterate,
    kept_runs,
)
from .errors import DomainError, ResourceLimitError, ValidationError
from .exact import ClosedInterval, IntervalUnion, union_normalize


def _power_profile(spec: Power, n: int) -> tuple[int, Fraction, bool]:
    """(component count, component length, stalled) after n rounds.

    All components of a power construction at a given round share one
    length, so the pair (count, length) carries the whole geometry.
    """
    rule = _child_rule(spec)
    count = 1
    length = Fraction(1)
    stalled = False
    for k in range(1, n + 1):
        if stalled:
            break
        children, stalled = rule(k, Fraction(0), length)
        count *= len(children)
        length = children[0][1] - children[0][0]
    return count, length, stalled


def stage_measure(spec: ConstructionSpec, n: int) -> Fraction:
    """Exact total length after n rounds, by closed recursion."""
    if n < 0:
        raise ValidationError("stage index must be nonnegative")
    if isinstance(spec, Proportional):
        return (1 - spec.p) ** n
    if isinstance(spec, Subdivision):
        return Fraction(spec.n - len(spec.removed), spec.n) ** n
    count, length, _ = _power_profile(spec, n)
    return count * length


def limit_measure(spec: ConstructionSpec) -> Fraction:
    """Exact measure of the limit set.

    Proportional and subdivision families lose a fixed proportion each
    round, so their limits are null. A power construction with base m
    removes total length sum(2**(k-1) / m**k) = 1 / (m - 2) for m >= 3,
    leaving (m - 3) / (m - 2); at m = 2 the round-2 removal exactly
    exhausts the components and only finitely many points survive.
    """
    if isinstance(spec, (Proportional, Subdivision)):
        return Fraction(0)
    if spec.m == 2:
        return Fraction(0)
    return Fraction(spec.m - 3, spec.m - 2)


def limit_is_degenerate(spec: ConstructionSpec) -> bool:
    """True when the process stalls and the limit is a finite point set."""
    if isinstance(spec, Power):
        return spec.m == 2
    return False


def max_component_length(spec: ConstructionSpec, n: int) -> Fraction:
    """Largest component length at stage n, in closed form.

    Proportional children all share length ((1-p)/2)**n; subdivision
    children scale by run width / n per round, so the widest run
    dominates; power components share one length tracked by the profile
    recurrence.
    """
    if n < 0:
        raise ValidationError("stage index must be nonnegative")
    if isinstance(spec, Proportional):
        return spec.child_ratio ** n
    if isinstance(spec, Subdivision):
        widest = max(r.width for r in kept_runs(spec))
        return Fraction(widest, spec.n) ** n
    _, length, _ = _power_profile(spec, n)
    return length


@dataclass(frozen=True)
class ExpansionSpec:
    """Digit filter: base-b expansions restricted to the allowed digits."""

    base: int
    allowed: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed", frozenset(self.allowed))
        if isinstance(self.base, bool) or not isinstance(self.base, int) or self.base < 2:
            raise ValidationError(f"expansion base must be an integer >= 2, got {self.base!r}")
        for d in self.allowed:
            if isinstance(d, bool) or not isinstance(d, int) or not 0 <= d < self.base:
                raise ValidationError(f"digit {d!r} outside base-{self.base} range")
        if not self.allowed:
            raise ValidationError("at least one digit must be allowed")
        if len(self.allowed) >= self.base:
            raise ValidationError("at least one digit must be forbidden")


@dataclass(frozen=True)
class DigitExpansion:
    """Eventually periodic base-b digit string after the radix point."""

    base: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        if isinstance(self.base, bool) or not isinstance(self.base, int) or self.base < 2:
            raise ValidationError(f"expansion base must be an integer >= 2, got {self.base!r}")
        if not self.period:
            raise ValidationError("period must be nonempty")
        for d in self.preperiod + self.period:
            if isinstance(d, bool) or not isinstance(d, int) or not 0 <= d < self.base:
                raise ValidationError(f"digit {d!r} outside base-{self.base} range")

    @classmethod
    def from_rational(cls, x: Fraction, base: int) -> "DigitExpansion":
        """Long-division expansion of x in [0, 1].

        Terminating values get a (0,) period; 1 itself is written with the
        all-(base-1) period since it has no terminating form.
        """
        if isinstance(base, bool) or not isinstance(base, int) or base < 2:
            raise ValidationError(f"expansion base must be an integer >= 2, got {base!r}")
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise DomainError(f"expansions are defined on [0, 1], got {x}")
        if x == 1:
            return cls(base, (), (base - 1,))
        digits: list[int] = []
        seen: dict[Fraction, int] = {}
        r = x
        while r not in seen:
            seen[r] = len(digits)
            r *= base
            d = int(r)
            digits.append(d)
            r -= d
        cut = seen[r]
        return cls(base, tuple(digits[:cut]), tuple(digits[cut:]))

    @property
    def value(self) -> Fraction:
        """The exact rational this digit string denotes."""
        b = self.base
        pre_int = 0
        for d in self.preperiod:
            pre_int = pre_int * b + d
        per_int = 0
        for d in self.period:
            per_int = per_int * b + d
        scale = b ** len(self.preperiod)
        return Fraction(pre_int, scale) + Fraction(per_int, scale * (b ** len(self.period) - 1))


def _transition_graph(es: ExpansionSpec, x: Fraction) -> tuple[dict, int]:
    """Digit automaton reachable from x, over integer states p (meaning p/q)."""
    q = x.denominator
    digits = sorted(es.allowed)
    start = x.numerator
    succ: dict[int, list[tuple[int, int]]] = {}
    stack = [start]
    while stack:
        p = stack.pop()
        if p in succ:
            continue
        outs = []
        for d in digits:
            nxt = es.base * p - d * q
            if 0 <= nxt <= q:
                outs.append((d, nxt))
        succ[p] = outs
        for _, t in outs:
            if t not in succ:
                stack.append(t)
    return succ, start


def _predecessors(succ: dict) -> dict[int, list[int]]:
    """Reverse edges of the digit automaton."""
    preds: dict[int, list[int]] = defaultdict(list)
    for s, ts in succ.items():
        for _, t in ts:
            preds[t].append(s)
    return preds


def _alive_states(succ: dict) -> set[int]:
    """States admitting an infinite run: iteratively drop dead ends."""
    outdeg = {s: len(ts) for s, ts in succ.items()}
    preds = _predecessors(succ)
    stack = [s for s, c in outdeg.items() if c == 0]
    alive = set(succ)
    while stack:
        s = stack.pop()
        alive.discard(s)
        for pr in preds[s]:
            if pr in alive:
                outdeg[pr] -= 1
                if outdeg[pr] == 0:
                    stack.append(pr)
    return alive


def expansion_membership(es: ExpansionSpec, x: Fraction) -> bool:
    """Whether some base-b expansion of x uses only the allowed digits.

    Existential over the (at most two) expansions at every branch point;
    total because the state space is finite.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"membership queries require 0 <= x <= 1, got {x}")
    succ, start = _transition_graph(es, x)
    return start in _alive_states(succ)


def _greedy_digits(succ: dict, alive: set[int], start: int) -> tuple[list[int], list[int]]:
    """(preperiod, period) of the run from an alive `start`.

    Each step takes the smallest digit that leads to an alive state.
    """
    digits: list[int] = []
    seen: dict[int, int] = {}
    s = start
    while s not in seen:
        seen[s] = len(digits)
        for d, t in succ[s]:
            if t in alive:
                digits.append(d)
                s = t
                break
    cut = seen[s]
    return digits[:cut], digits[cut:]


def allowed_expansion(es: ExpansionSpec, x: Fraction) -> DigitExpansion | None:
    """One eventually periodic allowed-digit expansion of x, if any exists.

    Greedy on the smallest usable digit, so the result is deterministic.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"membership queries require 0 <= x <= 1, got {x}")
    succ, start = _transition_graph(es, x)
    alive = _alive_states(succ)
    if start not in alive:
        return None
    return DigitExpansion(es.base, *_greedy_digits(succ, alive, start))


def _forced_digit_position(succ: dict, start: int) -> int:
    """First digit position where every allowed prefix from `start` dies.

    Only called when `start` is dead, which makes the whole reachable
    graph dead and therefore acyclic; the longest surviving prefix is the
    longest path, computed iteratively to keep deep chains off the Python
    stack.
    """
    pending = {s: len(ts) for s, ts in succ.items()}
    preds = _predecessors(succ)
    longest: dict[int, int] = {}
    ready = [s for s, c in pending.items() if c == 0]
    while ready:
        s = ready.pop()
        longest[s] = 1 + max((longest[t] for _, t in succ[s]), default=-1)
        for pr in preds[s]:
            pending[pr] -= 1
            if pending[pr] == 0:
                ready.append(pr)
    return longest[start] + 1


CANTOR_TERNARY = ExpansionSpec(3, frozenset({0, 2}))


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
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"the function is defined on [0, 1], got {x}")
    succ, start = _transition_graph(CANTOR_TERNARY, x)
    alive = _alive_states(succ)
    if start not in alive:
        pos = _forced_digit_position(succ, start)
        raise DomainError(
            f"{x} has no ternary expansion avoiding digit 1; "
            f"forced at position {pos}")
    preperiod, period = _greedy_digits(succ, alive, start)
    halved = DigitExpansion(2, [d // 2 for d in preperiod], [d // 2 for d in period])
    return halved.value


@dataclass(frozen=True)
class Characterized:
    """The stage sets coincide with the allowed-digit prefix sets."""

    spec: ExpansionSpec


@dataclass(frozen=True)
class NotCharacterizable:
    """No digit filter matches; `reason` records why and the search scope."""

    reason: str


@dataclass(frozen=True)
class MismatchWitness:
    """A concrete rational separating stage `depth` from the digit prefix set."""

    depth: int
    point: Fraction


CharacterizationVerdict = Characterized | NotCharacterizable | MismatchWitness


def expansion_characterization(spec: ConstructionSpec) -> CharacterizationVerdict:
    """Digit filter matching the construction, when one exists.

    A subdivision matches base n with the kept digits exactly when every
    kept run has width 1. A proportional construction is rewritten over
    its natural equal-parts base: with child ratio 1/b the stages are the
    base-b strings over {0, b-1}. Only the natural base is examined; the
    reason strings say so.
    """
    if isinstance(spec, Power):
        if spec.m == 2:
            return NotCharacterizable(
                "the process stalls to a finite point set, which no digit filter matches")
        return NotCharacterizable(
            "removal lengths vary per round, so no single digit grid matches every stage")
    if isinstance(spec, Subdivision):
        runs = kept_runs(spec)
        widest = max(r.width for r in runs)
        if widest == 1:
            return Characterized(ExpansionSpec(spec.n, frozenset(r.start for r in runs)))
        return NotCharacterizable(
            f"base {spec.n} needs kept runs of width 1, found width {widest} "
            "(no other bases searched)")
    q = spec.child_ratio
    if q.numerator == 1:
        base = q.denominator
        return Characterized(ExpansionSpec(base, frozenset({0, base - 1})))
    return NotCharacterizable(
        f"children span {q} of the parent, so the natural base {q.denominator} "
        f"needs kept runs of width {q.numerator} (no other bases searched)")


def _digit_prefix_union(es: ExpansionSpec, depth: int) -> IntervalUnion:
    """Closure of the points whose first `depth` digits can all be allowed."""
    width = Fraction(1, es.base ** depth)
    out = []
    for digits in product(sorted(es.allowed), repeat=depth):
        acc = 0
        for d in digits:
            acc = acc * es.base + d
        lo = Fraction(acc, es.base ** depth)
        out.append(ClosedInterval(lo, lo + width))
    return union_normalize(out)


def _set_difference_witness(a: IntervalUnion, b: IntervalUnion) -> Fraction:
    """Smallest grid point separating two distinct normalized unions.

    Membership in a closed union is constant between consecutive
    endpoints, so checking every endpoint and every midpoint of adjacent
    endpoints is exhaustive.
    """
    pts = sorted(set(a.endpoints()) | set(b.endpoints()))
    candidates: list[Fraction] = []
    for i, p in enumerate(pts):
        if i:
            candidates.append((pts[i - 1] + p) / 2)
        candidates.append(p)
    for c in candidates:
        if a.covers(c) != b.covers(c):
            return c
    raise AssertionError("unions differ but no separating point was found")


def characterization_equivalence_check(
        spec: ConstructionSpec, es: ExpansionSpec, depth: int,
        max_intervals: int = MAX_ENUMERATED_INTERVALS) -> CharacterizationVerdict:
    """Compare stages against digit prefix sets, level by level.

    Returns Characterized when they agree as point sets at every level up
    to `depth`, else a MismatchWitness holding the first level that
    differs and an explicit rational in the symmetric difference.
    """
    if depth < 1:
        raise ValidationError("comparison depth must be at least 1")
    if len(es.allowed) ** depth > max_intervals:
        raise ResourceLimitError(
            f"digit enumeration would build up to {len(es.allowed)}**{depth} intervals, "
            f"over the limit of {max_intervals}")
    stages = iterate(spec, depth, max_intervals=max_intervals)
    for d in range(1, depth + 1):
        stage_set = stages[d].intervals
        digit_set = _digit_prefix_union(es, d)
        if stage_set != digit_set:
            return MismatchWitness(d, _set_difference_witness(stage_set, digit_set))
    return Characterized(es)


def scale_census(s: Stage) -> list[tuple[Fraction, int]]:
    """Component lengths with multiplicities, largest first."""
    counts = Counter(iv.length for iv in s.intervals)
    return sorted(counts.items(), key=lambda kv: kv[0], reverse=True)


def contraction_ratios(spec: Proportional | Subdivision) -> tuple[Fraction, ...]:
    """Fixed child/parent ratios of one deletion round."""
    if isinstance(spec, Proportional):
        q = spec.child_ratio
        return (q, q)
    if isinstance(spec, Subdivision):
        return tuple(Fraction(r.width, spec.n) for r in kept_runs(spec))
    raise DomainError("power constructions have no fixed child ratios")


def similarity_dimension(spec: Proportional | Subdivision) -> float:
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
