"""Hand-checked stage interval tables for the bundled presets.

Each entry maps a stage index to the exact interval list produced by that
many deletion rounds, written as (lo, hi) fraction strings. The tables
were derived by hand from the construction rules and double-checked via
measure bookkeeping (the stage-n total must follow the closed recursion
for the family).

`normalize` sorts closed intervals and merges the ones that overlap or
touch; `table` builds a union from (lo, hi) pairs with it, and
`length_census` counts a stage's component lengths.

`_own_stages` builds any stage in `Fraction`s straight from the family
definitions, without the package's deletion rule, so the package's
integer-grid kernel can be tested against it. `per_component_round` is the
deletion round with the rule called for every component, its children
shifted to the component and checked in a second pass, the reference for
the package's round, which calls the rule once per distinct length and
checks each child as it places it. `reference_construct` writes
`construct`'s text and JSON endpoint by endpoint, every stage's endpoints
formatted anew and the JSON by `json.dumps`, the reference for the
package's writer, which formats each distinct endpoint once. `_stage_membership` is the
stage descent in absolute coordinates, with its own exit for a point
component, the reference for the package's descent
in x's offset and its component's length. `_power_membership` is the
power family's limit-membership walk in `Fraction`s, the reference for the
package's integer walk. `_self_similar_membership` is the proportional and
subdivision walk with a table of every state it has seen, the reference
for the package's walk, which clears its table once no earlier state can
come back. Both limit walks answer x = 0 or 1 as an endpoint, at cap 0
too.

`_transition_graph`, `_predecessors`, `_dead_ends` and `_greedy_digits`
are the digit automaton as four passes: build every reachable state, peel
the states with no infinite run, then walk greedily on the smallest digit
that stays alive. `reference_digits` answers the three digit questions
with them, the reference for the package's greedy walk, which reads the
automaton as one chain and builds no graph.
"""

import json
from collections import Counter, defaultdict
from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from cantorkit import (
    ClosedInterval,
    DomainError,
    ExcludedAtDepth,
    ExpansionSpec,
    IntervalUnion,
    MemberByCycle,
    MemberByEndpoint,
    MembershipVerdict,
    Power,
    Proportional,
    Subdivision,
    UndecidedMemberToDepth,
    ValidationError,
)
from cantorkit.constructions import _child_rule, _grid_stages, _kept_grid
from cantorkit.spec_io import _ratio_str


def normalize(intervals) -> IntervalUnion:
    """Closed intervals in any order, sorted, with overlapping or touching
    ones merged: the union that covers the same points."""
    merged = []
    for iv in sorted(intervals):
        if merged and iv.lo <= merged[-1].hi:
            if iv.hi > merged[-1].hi:
                merged[-1] = ClosedInterval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return IntervalUnion(tuple(merged))


def table(pairs) -> IntervalUnion:
    """The union of (lo, hi) pairs, each end a fraction string or a number."""
    return normalize(ClosedInterval(Fraction(lo), Fraction(hi)) for lo, hi in pairs)


def length_census(stage) -> list[tuple[Fraction, int]]:
    """A stage's component lengths with their multiplicities, largest first."""
    return sorted(Counter(iv.length for iv in stage.intervals).items(), reverse=True)


EXPECTED_STAGES: dict[str, dict[int, list[tuple[str, str]]]] = {
    "cantor": {
        1: [("0", "1/3"), ("2/3", "1")],
        2: [("0", "1/9"), ("2/9", "1/3"), ("2/3", "7/9"), ("8/9", "1")],
        3: [("0", "1/27"), ("2/27", "1/9"), ("2/9", "7/27"), ("8/27", "1/3"),
            ("2/3", "19/27"), ("20/27", "7/9"), ("8/9", "25/27"), ("26/27", "1")],
    },
    "c12": {
        1: [("0", "1/4"), ("3/4", "1")],
        2: [("0", "1/16"), ("3/16", "1/4"), ("3/4", "13/16"), ("15/16", "1")],
        3: [("0", "1/64"), ("3/64", "1/16"), ("3/16", "13/64"), ("15/64", "1/4"),
            ("3/4", "49/64"), ("51/64", "13/16"), ("15/16", "61/64"), ("63/64", "1")],
    },
    "c14": {
        1: [("0", "3/8"), ("5/8", "1")],
        2: [("0", "9/64"), ("15/64", "3/8"), ("5/8", "49/64"), ("55/64", "1")],
        3: [("0", "27/512"), ("45/512", "9/64"), ("15/64", "147/512"),
            ("165/512", "3/8"), ("5/8", "347/512"), ("365/512", "49/64"),
            ("55/64", "467/512"), ("485/512", "1")],
    },
    "c34": {
        1: [("0", "1/8"), ("7/8", "1")],
        2: [("0", "1/64"), ("7/64", "1/8"), ("7/8", "57/64"), ("63/64", "1")],
        3: [("0", "1/512"), ("7/512", "1/64"), ("7/64", "57/512"), ("63/512", "1/8"),
            ("7/8", "449/512"), ("455/512", "57/64"), ("63/64", "505/512"),
            ("511/512", "1")],
    },
    "svc:4": {
        1: [("0", "3/8"), ("5/8", "1")],
        2: [("0", "5/32"), ("7/32", "3/8"), ("5/8", "25/32"), ("27/32", "1")],
        3: [("0", "9/128"), ("11/128", "5/32"), ("7/32", "37/128"), ("39/128", "3/8"),
            ("5/8", "89/128"), ("91/128", "25/32"), ("27/32", "117/128"),
            ("119/128", "1")],
    },
    "ac": {
        1: [("0", "1/2"), ("3/4", "1")],
        2: [("0", "1/4"), ("3/8", "1/2"), ("3/4", "7/8"), ("15/16", "1")],
        3: [("0", "1/8"), ("3/16", "1/4"), ("3/8", "7/16"), ("15/32", "1/2"),
            ("3/4", "13/16"), ("27/32", "7/8"), ("15/16", "31/32"), ("63/64", "1")],
    },
    "ac-reflected": {
        1: [("0", "1/4"), ("1/2", "1")],
    },
    "ac5a": {
        1: [("0", "3/5"), ("4/5", "1")],
    },
    "ac5b": {
        1: [("0", "2/5"), ("4/5", "1")],
    },
    "svc:2": {
        1: [("0", "1/4"), ("3/4", "1")],
        2: [("0", "0"), ("1/4", "1/4"), ("3/4", "3/4"), ("1", "1")],
    },
}


def _own_round(spec, k, lo, hi):
    """One deletion round on a non-degenerate [lo, hi], written out from the
    family definitions: (pieces left, whether the round stalls)."""
    length = hi - lo
    if isinstance(spec, Proportional):
        gap = spec.p * length
        mid = (lo + hi) / 2
        return [(lo, mid - gap / 2), (mid + gap / 2, hi)], False
    if isinstance(spec, Power):
        removal = Fraction(1, spec.m ** k)
        if removal > length:
            return [(lo, hi)], True
        mid = (lo + hi) / 2
        return [(lo, mid - removal / 2), (mid + removal / 2, hi)], removal == length
    # Every kept part is closed, and both edges of the component survive
    # the open removals; touching kept parts merge when normalized.
    part = length / spec.n
    pieces = [(lo, lo), (hi, hi)]
    pieces += [(lo + i * part, lo + (i + 1) * part)
               for i in range(spec.n) if i not in spec.removed]
    return pieces, False


def _own_stages(spec, depth):
    """(normalized union, stalled) for stages 0..depth."""
    union, stalled = table([(0, 1)]), False
    out = [(union, stalled)]
    for k in range(1, depth + 1):
        if not stalled:
            nxt = []
            for iv in union:
                if iv.lo == iv.hi:
                    nxt.append((iv.lo, iv.hi))
                    continue
                pieces, stop = _own_round(spec, k, iv.lo, iv.hi)
                nxt += pieces
                stalled = stalled or stop
            union = table(nxt)
        out.append((union, stalled))
    return out


def per_component_round(factor, rule, c, pairs, den):
    """One deletion round, the rule called once for every component.

    The rule cuts [0, length]; the children of [a, b] are factor * a plus
    those of [0, b - a], checked after the whole round is placed. Same
    contract as the package's `_round`: the children over den * factor of
    the pairs over den, and the same refusal of children out of order,
    overlapping or touching.
    """
    children = []
    for a, b in pairs:
        if a == b:
            children.append((factor * a, factor * a))
            continue
        children += [(factor * a + u, factor * a + v) for u, v in rule(c, b - a)]
    prev = -1
    for a, b in children:
        if not prev < a <= b:
            raise ValidationError(
                f"deletion round left [{Fraction(a, den * factor)}, "
                f"{Fraction(b, den * factor)}] out of order, overlapping or touching "
                "the interval before it")
        prev = b
    return children


def reference_construct(spec, depth, fmt):
    """`construct`'s output with every endpoint of every stage formatted anew."""
    stages = _grid_stages(spec, depth)
    if fmt == "json":
        return json.dumps([[[_ratio_str(a, den), _ratio_str(b, den)] for a, b in pairs]
                           for den, pairs, _ in stages])
    lines = []
    for den, pairs, stalled in stages:
        line = " ∪ ".join(f"[{_ratio_str(a, den)}, {_ratio_str(b, den)}]" for a, b in pairs)
        if stalled:
            line += " [stalled]"
        lines.append(line)
    return "\n".join(lines)


def _stage_membership(spec, x: Fraction, depth: int) -> bool:
    """Whether x survives `depth` rounds, by a descent in absolute coordinates.

    The component [lo, hi] over den stays on the family grid, its children
    are those of [0, hi - lo] shifted by factor * lo, and x = u/q lies in it
    when lo*q <= u*den <= hi*q. The descent stops at a point component;
    a stalling round leaves only points.
    """
    q, u = x.denominator, x.numerator
    if not 0 <= u <= q:
        return False
    factor, rule = _child_rule(spec)
    lo, hi, c = 0, 1, 1
    for _ in range(depth):
        if lo == hi:
            return True
        children = rule(c, hi - lo)
        shift = factor * lo
        u *= factor
        c *= 2
        for a, b in children:
            if (shift + a) * q <= u <= (shift + b) * q:
                lo, hi = shift + a, shift + b
                break
        else:
            return False
    return True


def _power_membership(spec: Power, x: Fraction, depth_cap: int) -> MembershipVerdict:
    """Component descent; the power family is not scale invariant.

    No removal is longer than its component (see `_stall_round`), so one
    that is not shorter takes the whole interior at once.
    """
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
        else:
            return ExcludedAtDepth(k)
    if x == lo or x == hi:
        return MemberByEndpoint(depth_cap)
    return UndecidedMemberToDepth(depth_cap)


def _self_similar_membership(spec: Proportional | Subdivision, x: Fraction,
                             depth_cap: int) -> MembershipVerdict:
    """Relative-position walk over the kept-run table, remembering every state.

    With u = d * p, a run [a, b) holding u / q maps p/q to
    (u - a*q) / ((b - a) * q), kept in lowest terms.
    """
    d, runs = _kept_grid(spec)
    p, q = x.numerator, x.denominator
    first_seen: dict[tuple[int, int], int] = {}
    for depth in range(depth_cap):
        if p == 0 or p == q:
            return MemberByEndpoint(depth)
        if (p, q) in first_seen:
            return MemberByCycle(depth - first_seen[p, q])
        first_seen[p, q] = depth
        u = d * p
        for a, b in runs:
            if u <= b * q:
                break
        else:
            return ExcludedAtDepth(depth + 1)
        if u < a * q:
            return ExcludedAtDepth(depth + 1)
        if u == a * q or u == b * q:
            return MemberByEndpoint(depth + 1)
        p, w = u - a * q, b - a
        g = gcd(p, w * gcd(d, q))
        p, q = p // g, w * q // g
    if p == 0 or p == q:
        return MemberByEndpoint(depth_cap)
    return UndecidedMemberToDepth(depth_cap)


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


def _dead_ends(succ: dict) -> dict[int, int]:
    """States with no infinite run, each with its longest allowed run.

    Dead ends are peeled iteratively; a state is peeled only after every
    one of its successors, so its longest run is known from theirs.
    """
    outdeg = {s: len(ts) for s, ts in succ.items()}
    preds = _predecessors(succ)
    stack = [s for s, c in outdeg.items() if c == 0]
    dead: dict[int, int] = {}
    while stack:
        s = stack.pop()
        dead[s] = 1 + max((dead[t] for _, t in succ[s]), default=-1)
        for pr in preds[s]:
            if pr not in dead:
                outdeg[pr] -= 1
                if outdeg[pr] == 0:
                    stack.append(pr)
    return dead


def _greedy_digits(succ: dict, dead: dict[int, int], start: int) -> tuple[list[int], list[int]]:
    """(preperiod, period) of the run from a live `start`.

    Each step takes the smallest digit that leads to an alive state.
    """
    digits: list[int] = []
    seen: dict[int, int] = {}
    s = start
    while s not in seen:
        seen[s] = len(digits)
        for d, t in succ[s]:
            if t not in dead:
                digits.append(d)
                s = t
                break
    cut = seen[s]
    return digits[:cut], digits[cut:]


def reference_digits(es: ExpansionSpec, x: Fraction):
    """`(membership, (preperiod, period) or None, longest run or None)` for x."""
    succ, start = _transition_graph(es, x)
    dead = _dead_ends(succ)
    if start in dead:
        return False, None, dead[start]
    return True, _greedy_digits(succ, dead, start), None


def reference_cantor_function(x: Fraction) -> Fraction:
    """Digit-halving value of x over the four-pass automaton, or its DomainError."""
    member, run, longest = reference_digits(ExpansionSpec(3, frozenset({0, 2})), x)
    if not member:
        raise DomainError(
            f"{x} has no ternary expansion avoiding digit 1; "
            f"forced at position {longest + 1}")
    # The halved digits as binary numerals: pre / 2**K + per / (2**K * (2**L - 1)).
    preperiod, period = run
    pre = int("".join(str(d // 2) for d in preperiod) or "0", 2)
    per = int("".join(str(d // 2) for d in period), 2)
    scale = 2 ** len(preperiod)
    return Fraction(pre, scale) + Fraction(per, scale * (2 ** len(period) - 1))


@st.composite
def specs_with_depth(draw):
    family = draw(st.sampled_from(["proportional", "power", "subdivision"]))
    if family == "proportional":
        den = draw(st.integers(2, 12))
        return Proportional(Fraction(draw(st.integers(1, den - 1)), den)), draw(
            st.integers(0, 6))
    if family == "power":
        return Power(draw(st.integers(2, 6))), draw(st.integers(0, 6))
    n = draw(st.integers(3, 7))
    removed = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    return Subdivision(n, frozenset(removed)), draw(st.integers(0, 4 if n > 5 else 6))
