"""Checks of stage, construct, analyze and characterization outputs.

Each check compares one cantorkit output with what the benchmark works out
itself (see oracle.py) and returns OK or the reason the answer is wrong.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import oracle
from ops import OK, frac_text


def check_stages(out, own: tuple, grid: list) -> str:
    """iterate output: closed forms, nesting, persistence, digit sets, grid."""
    if len(out) != len(grid):
        return f"{len(out)} stages for depth {len(grid) - 1}"
    digits = oracle.digit_spec(own)
    prev, prev_den = None, 1
    for k, (stage, g) in enumerate(zip(out, grid)):
        pairs = oracle.to_grid(stage.intervals, g.den)
        if pairs is None:
            return f"stage {k} has an endpoint off the 1/{g.den} grid"
        if len(pairs) != oracle.closed_form_count(own, k):
            return f"stage {k} has {len(pairs)} components"
        if Fraction(sum(b - a for a, b in pairs), g.den) != oracle.closed_form_measure(own, k):
            return f"stage {k} measure differs from the closed form"
        if prev is not None:
            scale = g.den // prev_den
            scaled = [(a * scale, b * scale) for a, b in prev]
            if not oracle.is_nested(pairs, scaled):
                return f"stage {k} is not inside stage {k - 1}"
            if not oracle.endpoints(scaled) <= oracle.endpoints(pairs):
                return f"an endpoint of stage {k - 1} is lost at stage {k}"
        if digits and k <= 8 and pairs != oracle.digit_prefix_pairs(*digits, k):
            return f"stage {k} differs from the base-{digits[0]} digit-prefix union"
        if pairs != g.pairs or bool(stage.stalled) != g.stalled:
            return f"stage {k} differs from the integer-grid stage"
        prev, prev_den = pairs, g.den
    return OK


def check_construct_json(out: str, grid: list) -> str:
    try:
        doc = json.loads(out)
    except ValueError:
        return "construct output is not JSON"
    want = [[[frac_text(lo), frac_text(hi)] for lo, hi in g.fractions()] for g in grid]
    return OK if doc == want else "construct JSON does not parse back to the stage fractions"


def parse_analyze_text(out: str) -> dict:
    """The fields of the analyze text report, shaped like its JSON document."""
    doc: dict = {}
    for line in out.splitlines():
        head, _, tail = line.partition(": ")
        if head == "stage measures":
            doc["stage_measures"] = tail.split(", ")
        elif head == "max component lengths":
            doc["max_component_lengths"] = tail.split(", ")
        elif head == "limit measure":
            doc["limit_measure"] = tail.split(" ")[0]
        elif head.startswith("scale census at depth"):
            doc["scale_census"] = [
                {"length": item.split(" x")[0], "count": int(item.split(" x")[1])}
                for item in tail.split(", ")]
        elif head == "characterization":
            if tail.startswith("base "):
                base, _, digits = tail[5:].partition(", digits ")
                doc["characterization"] = {
                    "status": "characterized", "base": int(base),
                    "allowed": [int(d) for d in digits.strip("{}").split(", ")]}
            else:
                doc["characterization"] = {"status": "none"}
        elif head == "similarity dimension":
            doc["similarity_dimension"] = None if tail.startswith("undefined") else float(tail)
    return doc


def check_analyze(out: str, fmt: str, own: tuple, grid: list) -> str:
    """Measures, lengths and census against closed forms and the grid stage."""
    depth = len(grid) - 1
    try:
        doc = json.loads(out) if fmt == "json" else parse_analyze_text(out)
        want = {
            "stage_measures": [
                frac_text(oracle.closed_form_measure(own, k)) for k in range(depth + 1)],
            "max_component_lengths": [
                frac_text(oracle.closed_form_max_length(own, k)) for k in range(depth + 1)],
            "limit_measure": frac_text(oracle.limit_measure(own)),
            "scale_census": [{"length": frac_text(length), "count": count}
                             for length, count in oracle.census(grid[-1])],
        }
        for key, value in want.items():
            if doc[key] != value:
                return f"analyze {key} differs"
        digits = oracle.digit_spec(own)
        ch = doc["characterization"]
        if digits and ch != {"status": "characterized", "base": digits[0],
                             "allowed": sorted(digits[1])}:
            return "analyze misses the digit characterization"
        if not digits and ch["status"] == "characterized":
            return "analyze claims a digit characterization that does not hold"
        dim = doc["similarity_dimension"]
        if own[0] == "power":
            return OK if dim is None else "analyze gives a power set a dimension"
        ratios = ([float((1 - own[1]) / 2)] * 2 if own[0] == "proportional"
                  else [w / own[1] for _, w in oracle.runs_of(own[1], own[2])])
        if not math.isclose(sum(r ** dim for r in ratios), 1.0, abs_tol=1e-9):
            return "analyze similarity dimension does not solve the Moran equation"
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"analyze output unreadable: {exc!r}"
    return OK


def first_digit_mismatch(grid: list, base: int, allowed: frozenset):
    """(depth, stage pairs over L, digit pairs over L, L) at the first differing level."""
    for k in range(1, len(grid)):
        g = grid[k]
        common = math.lcm(g.den, base ** k)
        sa, sb = common // g.den, common // base ** k
        stage = [(a * sa, b * sa) for a, b in g.pairs]
        digits = [(a * sb, b * sb) for a, b in oracle.digit_prefix_pairs(base, allowed, k)]
        if stage != digits:
            return k, stage, digits, common
    return None


def check_charcheck(out, es_pair: tuple, grid: list) -> str:
    base, allowed = es_pair
    found = first_digit_mismatch(grid, base, allowed)
    kind = type(out).__name__
    if found is None:
        ok = (kind == "Characterized" and out.spec.base == base
              and set(out.spec.allowed) == set(allowed))
        return OK if ok else f"expected Characterized, got {out!r}"
    depth, stage, digits, common = found
    if kind != "MismatchWitness" or out.depth != depth:
        return f"expected a mismatch at depth {depth}, got {out!r}"
    w = Fraction(out.point)
    if oracle.covers(stage, common, w) == oracle.covers(digits, common, w):
        return f"witness {w} lies in both sets or in neither"
    return OK
