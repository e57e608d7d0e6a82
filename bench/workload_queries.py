"""`queries` workload: a seeded batch of point queries; no stage is enumerated.

Every preset, svc:3/4/5 and a JSON-document spec whose child ratio 2/5
has a numerator above 1 get points of known kinds:

* members built from allowed digit strings (cantor, c12, c34);
* endpoints of stage components at depths 1-10;
* points strictly inside an interval removed at a known depth 1-10;
* interior points of the fat sets svc:4 and svc:5 that the benchmark's
  own descent keeps to the cap of 300.

It also holds one fixed query: the growing-denominator walk of x = 1/3 on
p = 1/1000001 to cap 600. Walks stay short (at most about 20 ms) so that
each is repeated often enough in a run for its fastest call to be steady.
Each point runs `limit_membership`, `stage_membership`, `cantor_function`,
`expansion_membership` and `allowed_expansion`, so the membership walks
and the digit automaton are timed while no stage kernel runs: a
stage-kernel change should leave this workload alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

import cantorkit

import oracle
from ops import OK, Op

DIGIT_SPECS = ("cantor", "c12", "c34")
SPECS = ("cantor", "c12", "c14", "c34", "ac", "ac-reflected", "ac5a", "ac5b",
         "svc:3", "svc:4", "svc:5", '{"type": "proportional", "p": "1/5"}')
FAT_CAPS = {"svc:4": 300, "svc:5": 300}
FAT_POINTS = 3
FAT_CANDIDATES = 60
GROWING = ('{"type": "proportional", "p": "1/1000001"}', Fraction(1, 3), 600)
WALK_CAP = 200
STAGE_DEPTH = 20
DIGIT_POINTS, ENDPOINTS, GAP_POINTS = 12, 8, 8


def make_inputs(seed: int) -> list[dict]:
    """Query points of known kinds, plus the fat-set candidates, from the seed."""
    rng = random.Random(seed)
    queries = []
    for text in SPECS:
        spec, own = cantorkit.parse_spec(text), oracle.spec_of(text)

        def add(kind, x, **extra):
            queries.append({"text": text, "spec": spec, "own": own, "kind": kind, "x": x,
                            "cap": WALK_CAP, "stage_depth": STAGE_DEPTH, **extra})

        if text in DIGIT_SPECS:
            base, allowed = oracle.digit_spec(own)
            for _ in range(DIGIT_POINTS):
                add("digits", oracle.digit_point(base, allowed, rng))
        for _ in range(ENDPOINTS):
            a, b, den = oracle.random_component(own, rng.randint(1, 10), rng)
            add("endpoint", Fraction(rng.choice((a, b)), den))
        for _ in range(GAP_POINTS):
            k = rng.randint(1, 10)
            add("gap", oracle.gap_point(own, k, rng), depth=k)
        if text in FAT_CAPS:
            cap = FAT_CAPS[text]
            for _ in range(FAT_CANDIDATES):
                den = rng.randint(50, 400)
                add("fat-candidate", Fraction(rng.randint(1, den - 1), den),
                    cap=cap, stage_depth=cap)
    text, x, cap = GROWING
    queries.append({"text": text, "spec": cantorkit.parse_spec(text), "own": oracle.spec_of(text),
                    "kind": "growing", "x": x, "cap": cap, "stage_depth": STAGE_DEPTH})
    return queries


def _verdict_ok(v, want: tuple) -> bool:
    kind = type(v).__name__
    if want[0] == "member":
        return kind in ("MemberByCycle", "MemberByEndpoint")
    if want[0] == "excluded":
        return kind == "ExcludedAtDepth" and v.depth == want[1]
    return kind == "UndecidedMemberToDepth" and v.depth == want[1]


def _expected_walk(q: dict) -> tuple[tuple, bool]:
    """(limit verdict wanted, stage_membership wanted) for one query."""
    if q["kind"] in ("digits", "endpoint"):
        return ("member",), True
    if q["kind"] == "gap":
        return ("excluded", q["depth"]), False
    result, depth = oracle.descend(q["own"], q["x"], q["cap"])
    limit = {"survives": ("undecided", q["cap"]), "excluded": ("excluded", depth)}.get(
        result, ("member",))
    stage, _ = oracle.descend(q["own"], q["x"], q["stage_depth"])
    return limit, stage != "excluded"


def _check_expansion(out, es_pair: tuple, x: Fraction, path) -> str:
    if path is None:
        return OK if out is None else f"allowed_expansion found {out!r} where none exists"
    if out is None:
        return "allowed_expansion found no expansion where one exists"
    digits = set(out.preperiod) | set(out.period)
    if out.base != es_pair[0] or not digits <= es_pair[1]:
        return f"allowed_expansion used forbidden digits: {out!r}"
    if oracle.digits_value(out.base, out.preperiod, out.period) != x:
        return f"allowed_expansion {out!r} does not denote {x}"
    return OK


def _cantor_call(x: Fraction):
    try:
        return cantorkit.cantor_function(x)
    except cantorkit.DomainError as exc:
        return exc


def _check_cantor(out, want: Fraction | None) -> str:
    if want is None:
        ok = isinstance(out, cantorkit.DomainError)
        return OK if ok else f"cantor_function gave {out!r} off the set"
    return OK if out == want else f"cantor_function gave {out!r}, want {want}"


def _answer_size(out) -> int:
    return len(repr(out).encode())


def _pick_fat_points(queries: list[dict]) -> list[dict]:
    """Keep the first fat candidates per spec that the own descent keeps to the cap."""
    kept, taken = [], {}
    for q in queries:
        if q["kind"] != "fat-candidate":
            kept.append(q)
        elif taken.get(q["text"], 0) < FAT_POINTS and \
                oracle.descend(q["own"], q["x"], q["cap"])[0] == "survives":
            taken[q["text"]] = taken.get(q["text"], 0) + 1
            kept.append({**q, "kind": "fat"})
    short = {t for t in FAT_CAPS if taken.get(t, 0) < FAT_POINTS}
    if short:
        raise RuntimeError(f"too few fat-set interior points among the candidates for {short}")
    return kept


def make_ops(queries: list[dict]) -> list[Op]:
    """Five operations per query point, with answers worked out by the benchmark.

    The five calls on one point make one query, the workload's request.
    """
    ops = []
    for k, q in enumerate(_pick_fat_points(queries)):
        spec, own, x = q["spec"], q["own"], q["x"]
        es_pair = oracle.digit_filter(own)
        es = cantorkit.ExpansionSpec(*es_pair)
        path = oracle.allowed_digits_path(*es_pair, x)
        limit_want, stage_want = _expected_walk(q)
        label = f'{q["text"]}, {x}'
        ops += [
            Op(f"limit_membership({label}, cap={q['cap']})",
               lambda s=spec, x=x, c=q["cap"]: cantorkit.limit_membership(s, x, c),
               lambda out, w=limit_want:
                   OK if _verdict_ok(out, w) else f"verdict {out!r}, want {w}",
               _answer_size, request=k),
            Op(f"stage_membership({label}, {q['stage_depth']})",
               lambda s=spec, x=x, d=q["stage_depth"]: cantorkit.stage_membership(s, x, d),
               lambda out, w=stage_want: OK if out is w else f"stage membership {out!r}, want {w}",
               _answer_size, request=k),
            Op(f"cantor_function({x})", lambda x=x: _cantor_call(x),
               lambda out, w=oracle.cantor_value(x): _check_cantor(out, w),
               _answer_size, request=k),
            Op(f"expansion_membership({es_pair[0]}, {label})",
               lambda e=es, x=x: cantorkit.expansion_membership(e, x),
               lambda out, w=path is not None: OK if out is w else f"expansion membership {out!r}",
               _answer_size, request=k),
            Op(f"allowed_expansion({es_pair[0]}, {label})",
               lambda e=es, x=x: cantorkit.allowed_expansion(e, x),
               lambda out, p=es_pair, x=x, path=path: _check_expansion(out, p, x, path),
               _answer_size, request=k),
        ]
    return ops

