"""Answers computed by the benchmark itself, apart from cantorkit.

Nothing here imports cantorkit. Stages are built on an integer grid (every
endpoint of stage k is an integer over a common denominator), membership
is decided by integer descent, digit questions by a small automaton over
remainders, and SVG output is read back into painted pixel spans. The
workloads compare the program's answers with these.

A spec is a plain tuple: ("proportional", p), ("power", m) or
("subdivision", n, removed).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from itertools import product

# The benchmark's own reading of the bundled presets.
PRESET_SPECS = {
    "cantor": ("proportional", Fraction(1, 3)),
    "c12": ("proportional", Fraction(1, 2)),
    "c14": ("proportional", Fraction(1, 4)),
    "c34": ("proportional", Fraction(3, 4)),
    "ac": ("subdivision", 4, frozenset({2})),
    "ac-reflected": ("subdivision", 4, frozenset({1})),
    "ac5a": ("subdivision", 5, frozenset({3})),
    "ac5b": ("subdivision", 5, frozenset({2, 3})),
}


def spec_of(text: str) -> tuple:
    """Tuple spec for a preset name, svc:<m> or a JSON spec document."""
    if text.startswith("svc:"):
        return ("power", int(text[4:]))
    if text.startswith("{"):
        doc = json.loads(text)
        if doc["type"] == "proportional":
            return ("proportional", Fraction(doc["p"]))
        if doc["type"] == "power":
            return ("power", doc["m"])
        return ("subdivision", doc["n"], frozenset(doc["removed"]))
    return PRESET_SPECS[text]


def runs_of(n: int, removed: frozenset) -> list[tuple[int, int]]:
    """(start, width) of each maximal block of kept parts."""
    runs: list[tuple[int, int]] = []
    for i in range(n):
        if i in removed:
            continue
        if runs and runs[-1][0] + runs[-1][1] == i:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((i, 1))
    return runs


def digit_spec(spec: tuple) -> tuple[int, frozenset] | None:
    """(base, allowed digits) when the stages are digit-prefix sets, else None."""
    if spec[0] == "proportional":
        q = (1 - spec[1]) / 2
        if q.numerator == 1:
            return q.denominator, frozenset({0, q.denominator - 1})
        return None
    if spec[0] == "subdivision":
        n, removed = spec[1], spec[2]
        if all(w == 1 for _, w in runs_of(n, removed)):
            return n, frozenset(set(range(n)) - removed)
    return None


def digit_filter(spec: tuple) -> tuple[int, frozenset]:
    """The digit filter the workloads ask about for a spec.

    Its own characterization when it has one, else the kept parts of a
    subdivision, else the ternary digits {0, 2}.
    """
    if digit_spec(spec):
        return digit_spec(spec)
    if spec[0] == "subdivision":
        return spec[1], frozenset(range(spec[1])) - spec[2]
    return 3, frozenset({0, 2})


# ---------------------------------------------------------------- stages

class GridStage:
    """A stage as `pairs` of integer endpoints over the denominator `den`."""

    __slots__ = ("den", "pairs", "stalled")

    def __init__(self, den: int, pairs: list[tuple[int, int]], stalled: bool = False):
        self.den = den
        self.pairs = pairs
        self.stalled = stalled

    def fractions(self) -> list[tuple[Fraction, Fraction]]:
        return [(Fraction(a, self.den), Fraction(b, self.den)) for a, b in self.pairs]


def _merge(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for a, b in pairs:
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def grid_factor(spec: tuple) -> int:
    """How much finer each round's grid is than the last."""
    if spec[0] == "proportional":
        return ((1 - spec[1]) / 2).denominator
    if spec[0] == "subdivision":
        return spec[1]
    return 2 * spec[1]


def children(spec: tuple, a: int, b: int, k: int) -> tuple[list[tuple[int, int]], bool]:
    """What round k leaves of the component [a, b], on the next grid.

    Also says whether the round stalls a power construction. Points ride along.
    """
    f = grid_factor(spec)
    A, B = a * f, b * f
    if a == b:
        return [(A, A)], False
    length = B - A
    if spec[0] == "proportional":
        step = ((1 - spec[1]) / 2).numerator * (b - a)
        return [(A, A + step), (B - step, B)], False
    if spec[0] == "subdivision":
        n, removed = spec[1], spec[2]
        out = [(A, A)] if 0 in removed else []
        out += [(A + start * (b - a), A + (start + width) * (b - a))
                for start, width in runs_of(n, removed)]
        if n - 1 in removed:
            out.append((B, B))
        return out, False
    removal = 2 ** k  # 1/m**k on the (2m)**k grid
    if length > removal:
        half = (length - removal) // 2
        return [(A, A + half), (B - half, B)], False
    if length == removal:
        return [(A, A), (B, B)], True
    return [(A, B)], True


def grid_stages(spec: tuple, depth: int) -> list[GridStage]:
    """Stages 0..depth on the family's integer grid."""
    stages = [GridStage(1, [(0, 1)])]
    for k in range(1, depth + 1):
        prev = stages[-1]
        if prev.stalled:
            stages.append(prev)
            continue
        out: list[tuple[int, int]] = []
        stalled = False
        for a, b in prev.pairs:
            pieces, stall = children(spec, a, b, k)
            out += pieces
            stalled = stalled or stall
        stages.append(GridStage(prev.den * grid_factor(spec), _merge(out), stalled))
    return stages


def to_grid(intervals, den: int) -> list[tuple[int, int]] | None:
    """Program intervals (objects with .lo/.hi Fractions) as integers over den.

    None when some endpoint is off the grid, which no correct stage has.
    """
    out = []
    for iv in intervals:
        lo, hi = iv.lo, iv.hi
        qa, ra = divmod(den, lo.denominator)
        qb, rb = divmod(den, hi.denominator)
        if ra or rb:
            return None
        out.append((lo.numerator * qa, hi.numerator * qb))
    return out


def closed_form_count(spec: tuple, k: int) -> int:
    """Component count of stage k, by formula."""
    if spec[0] == "proportional":
        return 2 ** k
    if spec[0] == "subdivision":
        n, removed = spec[1], spec[2]
        runs = len(runs_of(n, removed))
        edges = int(0 in removed) + int(n - 1 in removed)
        points = edges * (k if runs == 1 else (runs ** k - 1) // (runs - 1))
        return runs ** k + points
    m = spec[1]
    if m == 2:
        return [1, 2, 4][min(k, 2)]
    return 2 ** k


def closed_form_measure(spec: tuple, k: int) -> Fraction:
    """Measure of stage k, by formula."""
    if spec[0] == "proportional":
        return (1 - spec[1]) ** k
    if spec[0] == "subdivision":
        n, removed = spec[1], spec[2]
        return Fraction(n - len(removed), n) ** k
    m = spec[1]
    if m == 2:
        return [Fraction(1), Fraction(1, 2), Fraction(0)][min(k, 2)]
    # 2**k components, each (1 - sum_{j<=k} 2**(j-1)/m**j) / 2**k long
    r = Fraction(2, m)
    return 1 - r * (1 - r ** k) / (2 * (1 - r))


def closed_form_max_length(spec: tuple, k: int) -> Fraction:
    """Longest component of stage k, by formula."""
    if spec[0] == "proportional":
        return ((1 - spec[1]) / 2) ** k
    if spec[0] == "subdivision":
        n, removed = spec[1], spec[2]
        return Fraction(max(w for _, w in runs_of(n, removed)), n) ** k
    if spec[1] == 2:
        return [Fraction(1), Fraction(1, 4), Fraction(0)][min(k, 2)]
    return closed_form_measure(spec, k) / 2 ** k


def limit_measure(spec: tuple) -> Fraction:
    if spec[0] == "power" and spec[1] >= 3:
        return Fraction(spec[1] - 3, spec[1] - 2)
    return Fraction(0)


def census(stage: GridStage) -> list[tuple[Fraction, int]]:
    """Component lengths with multiplicities, longest first."""
    counts = Counter(b - a for a, b in stage.pairs)
    return [(Fraction(length, stage.den), c) for length, c in sorted(counts.items(), reverse=True)]


def is_nested(inner: list[tuple[int, int]], outer: list[tuple[int, int]]) -> bool:
    """Every inner pair inside one outer pair (both sorted, same grid)."""
    j = 0
    for a, b in inner:
        while j < len(outer) and outer[j][1] < a:
            j += 1
        if j == len(outer) or not (outer[j][0] <= a and b <= outer[j][1]):
            return False
    return True


def covers(pairs: list[tuple[int, int]], den: int, x: Fraction) -> bool:
    return any(a * x.denominator <= x.numerator * den <= b * x.denominator for a, b in pairs)


def endpoints(pairs: list[tuple[int, int]]) -> set[int]:
    return {e for pair in pairs for e in pair}


def digit_prefix_pairs(base: int, allowed: frozenset, depth: int) -> list[tuple[int, int]]:
    """Closure of the points whose first `depth` base-b digits are allowed, over base**depth."""
    out = []
    for digits in product(sorted(allowed), repeat=depth):
        acc = 0
        for d in digits:
            acc = acc * base + d
        out.append((acc, acc + 1))
    return _merge(out)


# ------------------------------------------------------------ membership

def descend(spec: tuple, x: Fraction, depth: int) -> tuple[str, int]:
    """Follow the component holding x for `depth` rounds on the integer grid.

    Returns ("endpoint", k) when x is an endpoint of a stage-k component,
    ("excluded", k) when round k removes it, ("stalled", k) when round k
    of a power construction stops removing, else ("survives", depth).
    """
    p, q = x.numerator, x.denominator
    a, b, den = 0, 1, 1
    for k in range(1, depth + 1):
        if p * den in (a * q, b * q):
            return "endpoint", k - 1
        pieces, stalled = children(spec, a, b, k)
        if stalled and len(pieces) == 1:
            return "stalled", k
        den *= grid_factor(spec)
        for lo, hi in pieces:
            if lo * q <= p * den <= hi * q:
                a, b = lo, hi
                break
        else:
            return "excluded", k
    if p * den in (a * q, b * q):
        return "endpoint", depth
    return "survives", depth


def allowed_digits_path(base: int, allowed: frozenset, x: Fraction):
    """One eventually periodic allowed-digit expansion of x in [0, 1], or None.

    States are remainders r (meaning r/q); digit d leads to base*r - d*q
    when that stays in [0, q]. A state is kept while it has a kept
    successor, so what remains are exactly the states with an infinite run.
    """
    q = x.denominator
    succ: dict[int, list[tuple[int, int]]] = {}
    todo = [x.numerator]
    while todo:
        r = todo.pop()
        if r in succ:
            continue
        succ[r] = [(d, base * r - d * q) for d in sorted(allowed) if 0 <= base * r - d * q <= q]
        todo.extend(t for _, t in succ[r] if t not in succ)
    alive = set(succ)
    changed = True
    while changed:
        changed = False
        for r in list(alive):
            if not any(t in alive for _, t in succ[r]):
                alive.discard(r)
                changed = True
    if x.numerator not in alive:
        return None
    digits: list[int] = []
    seen: dict[int, int] = {}
    r = x.numerator
    while r not in seen:
        seen[r] = len(digits)
        d, r = next((d, t) for d, t in succ[r] if t in alive)
        digits.append(d)
    return digits[:seen[r]], digits[seen[r]:]


def digits_value(base: int, pre, period) -> Fraction:
    """Value of 0.pre(period)... in the given base."""
    pre_int = 0
    for d in pre:
        pre_int = pre_int * base + d
    per_int = 0
    for d in period:
        per_int = per_int * base + d
    scale = base ** len(pre)
    return Fraction(pre_int, scale) + Fraction(per_int, scale * (base ** len(period) - 1))


def cantor_value(x: Fraction) -> Fraction | None:
    """Ternary digits {0, 2} halved and read in base 2; None off the Cantor set."""
    path = allowed_digits_path(3, frozenset({0, 2}), x)
    if path is None:
        return None
    pre, period = path
    return digits_value(2, [d // 2 for d in pre], [d // 2 for d in period])


# ---------------------------------------------------------------- points

def random_component(own: tuple, depth: int, rng):
    """A random stage-`depth` component (a, b, den), through non-degenerate pieces."""
    a, b, den = 0, 1, 1
    for k in range(1, depth + 1):
        pieces, _ = children(own, a, b, k)
        a, b = rng.choice([p for p in pieces if p[0] < p[1]])
        den *= grid_factor(own)
    return a, b, den


def gap_point(own: tuple, k: int, rng) -> Fraction:
    """A point strictly inside an interval that round k removes."""
    a, b, den = random_component(own, k - 1, rng)
    pieces, _ = children(own, a, b, k)
    den *= grid_factor(own)
    lo, hi = rng.choice([(p[1], q[0]) for p, q in zip(pieces, pieces[1:]) if p[1] < q[0]])
    parts = rng.randint(2, 9)
    return Fraction(lo * parts + (hi - lo) * rng.randint(1, parts - 1), den * parts)


def digit_point(base: int, allowed: frozenset, rng) -> Fraction:
    """A point whose eventually periodic base-b expansion uses only allowed digits."""
    digits = sorted(allowed)
    pre = [rng.choice(digits) for _ in range(rng.randint(0, 6))]
    period = [rng.choice(digits) for _ in range(rng.randint(1, 6))]
    return digits_value(base, pre, period)


# ------------------------------------------------------------------- SVG

_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="(\d+)" height="\d+"/>')


def svg_rows(svg: str) -> tuple[list[list[tuple[int, int]]], int]:
    """Painted pixel spans [x0, x1) of each row, top first, and the rect count."""
    rows: dict[int, list[tuple[int, int]]] = {}
    count = 0
    for m in _RECT.finditer(svg):
        x, y, w = int(m.group(1)), int(m.group(2)), int(m.group(3))
        rows.setdefault(y, []).append((x, x + w))
        count += 1
    return [_merge(sorted(rows[y])) for y in sorted(rows)], count


def predicted_row(stage: GridStage, inner: int, offset: int) -> list[tuple[int, int]]:
    """Pixels a stage paints: endpoints rounded half up, at least one pixel wide."""
    den2 = 2 * stage.den
    spans = []
    for a, b in stage.pairs:
        x0 = (2 * a * inner + stage.den) // den2
        x1 = (2 * b * inner + stage.den) // den2
        spans.append((offset + x0, offset + x0 + max(1, x1 - x0)))
    return _merge(sorted(spans))


def svg_pixel_mismatch(svg: str, stages: list[GridStage]) -> str | None:
    """None when every row paints exactly the predicted pixels, else why not.

    The drawing area is read from row 0, which shows the whole unit interval.
    """
    rows, _ = svg_rows(svg)
    if len(rows) != len(stages):
        return f"{len(rows)} rows for {len(stages)} stages"
    if len(rows[0]) != 1:
        return "row 0 is not one span"
    offset, end = rows[0][0]
    for k, (row, stage) in enumerate(zip(rows, stages)):
        if row != predicted_row(stage, end - offset, offset):
            return f"row {k} paints other pixels than predicted"
    return None
