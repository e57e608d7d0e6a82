"""Acceptance suite: one test per headline guarantee, in order.

Run `pytest tests/test_acceptance.py -v` for one PASS/FAIL line per
guarantee; add `-rA` to also see each test's printed summary line.
"""

import json
import math
import random
from fractions import Fraction

from cantorkit import (
    CANTOR_TERNARY,
    Characterized,
    ClosedInterval,
    ExcludedAtDepth,
    ExpansionSpec,
    IntervalUnion,
    MismatchWitness,
    NotCharacterizable,
    Power,
    cantor_function,
    characterization_equivalence_check,
    contraction_ratios,
    emit_spec,
    expansion_characterization,
    expansion_membership,
    iterate,
    limit_measure,
    limit_membership,
    max_component_length,
    parse_fraction,
    parse_spec,
    similarity_dimension,
    stage_measure,
    stage_membership,
    verdict_is_member,
)
from cantorkit.cli import cmd_construct, main
from reference_stages import EXPECTED_STAGES, table


def _line(label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_stage_tables_reproduce_exactly():
    cases = [("cantor", 3), ("c12", 3), ("c14", 2), ("svc:4", 3), ("c34", 3),
             ("ac", 3)]
    compared = 0
    for preset, depth in cases:
        stages = iterate(parse_spec(preset), depth)
        for k in range(1, depth + 1):
            expected = table(EXPECTED_STAGES[preset][k])
            assert stages[k].intervals == expected, (preset, k)
            compared += len(expected)
    assert len(iterate(parse_spec("cantor"), 3)[3].intervals) == 8
    _line("stage reproduction", True,
          f"{compared} intervals across {len(cases)} constructions, exact equality")


def test_02_fat_cantor_limit_measure():
    spec = parse_spec("svc:4")
    assert limit_measure(spec) == Fraction(1, 2)
    for m in range(3, 11):
        assert limit_measure(Power(m)) == Fraction(m - 3, m - 2), m
    prev = None
    for n in range(26):
        mn = stage_measure(spec, n)
        assert mn == Fraction(1, 2) + Fraction(1, 2 ** (n + 1)), n
        assert mn > Fraction(1, 2)
        if prev is not None:
            assert mn < prev
        prev = mn
    _line("fat measure", True,
          "limit 1/2 exact; (m-3)/(m-2) for m=3..10; stage measures fall "
          "toward 1/2 and stay above it through n=25")


def test_03_measure_zero_series():
    cantor = parse_spec("cantor")
    ac = parse_spec("ac")
    for n in range(26):
        assert stage_measure(cantor, n) == Fraction(2, 3) ** n, n
        assert stage_measure(ac, n) == Fraction(3, 4) ** n, n
    removed_total = Fraction(0)
    for n in range(1, 26):
        step = stage_measure(ac, n - 1) - stage_measure(ac, n)
        assert step == Fraction(1, 4) * Fraction(3, 4) ** (n - 1), n
        removed_total += step
    assert removed_total == 1 - Fraction(3, 4) ** 25
    _line("measure-zero series", True,
          "(2/3)^n and (3/4)^n exact through n=25; removed lengths telescope to "
          "1 - (3/4)^25")


def test_04_svc2_stalls_to_four_points():
    stages = iterate(parse_spec("svc:2"), 5)
    assert not stages[1].stalled
    assert stages[2].stalled
    four_points = IntervalUnion(tuple(
        ClosedInterval(p, p) for p in (0, Fraction(1, 4), Fraction(3, 4), 1)))
    assert stages[2].intervals == four_points
    assert stages[2].intervals.measure == 0
    for k in (3, 4, 5):
        assert stages[k] is stages[2]
    _line("svc:2 stall", True,
          "stalls at step 2 on exactly {0, 1/4, 3/4, 1}; later stages repeat it")


def test_05_digit_characterizations():
    positive = {
        "cantor": ExpansionSpec(3, frozenset({0, 2})),
        "c12": ExpansionSpec(4, frozenset({0, 3})),
        "c34": ExpansionSpec(8, frozenset({0, 7})),
    }
    for name, es in positive.items():
        spec = parse_spec(name)
        assert expansion_characterization(spec) == Characterized(es), name
        assert characterization_equivalence_check(spec, es, depth=5) == (
            Characterized(es)), name
    for name in ("c14", "svc:4", "ac"):
        assert isinstance(expansion_characterization(parse_spec(name)),
                          NotCharacterizable), name
    guess = ExpansionSpec(8, frozenset({0, 1, 2, 5, 6, 7}))
    verdict = characterization_equivalence_check(parse_spec("c14"), guess, depth=4)
    assert isinstance(verdict, MismatchWitness)
    assert verdict.depth <= 2
    _line("characterization", True,
          f"3 positives confirmed to depth 5; c14 vs base-8 guess breaks at "
          f"depth {verdict.depth} with witness {verdict.point}")


def test_06_membership_oracles_agree():
    rng = random.Random(58008)
    points = []
    for _ in range(1000):
        q = rng.randint(1, 5000)
        points.append(Fraction(rng.randint(0, q), q))

    expansions = {
        "cantor": ExpansionSpec(3, frozenset({0, 2})),
        "c12": ExpansionSpec(4, frozenset({0, 3})),
        "c34": ExpansionSpec(8, frozenset({0, 7})),
        "c14": None,
        "ac": None,
        "svc:3": CANTOR_TERNARY,
        "svc:4": None,
        "svc:5": None,
    }
    caps = {"c14": 300, "svc:4": 300, "svc:5": 300}
    comparisons = 0
    undecided = 0
    disagreements = []
    for name, es in expansions.items():
        spec = parse_spec(name)
        cap = caps.get(name, 10_000)
        for x in points:
            verdict = limit_membership(spec, x, cap)
            member = verdict_is_member(verdict)
            if member is None:
                undecided += 1
                continue
            s20 = stage_membership(spec, x, 20)
            if isinstance(verdict, ExcludedAtDepth):
                ok = s20 == (verdict.depth > 20)
            else:
                ok = s20
            if es is not None:
                ok = ok and expansion_membership(es, x) == member
            comparisons += 1
            if not ok:
                disagreements.append((name, x, verdict))
    assert comparisons >= 5000
    _line("membership oracles", not disagreements,
          f"{comparisons} definitive verdicts cross-checked "
          f"({undecided} undecided skipped), {len(disagreements)} disagreements")
    assert not disagreements, disagreements[:5]
    # svc:3 removes the middle third of every component, so it is C: its
    # limit walk reads cantor's table while its stage descent runs the power rule.
    assert characterization_equivalence_check(Power(3), CANTOR_TERNARY, 10) == Characterized(
        CANTOR_TERNARY)
    assert expansion_characterization(Power(3)) == Characterized(CANTOR_TERNARY)


def test_07_cantor_function_values():
    assert cantor_function(Fraction(0)) == 0
    assert cantor_function(Fraction(1)) == 1
    assert cantor_function(Fraction(2, 3)) == Fraction(1, 2)
    stages = iterate(parse_spec("cantor"), 10)
    for n in range(1, 11):
        pts = sorted(stages[n].intervals.endpoints())
        assert len(pts) == 2 ** (n + 1)
        values = [cantor_function(x) for x in pts]
        assert values == sorted(values), f"not monotone at stage {n}"
        assert set(values) == {Fraction(k, 2 ** n) for k in range(2 ** n + 1)}, n
    # 1/3 = (0.0222...)_3, and halving those digits gives (0.0111...)_2 = 1/2;
    # 1/4 belongs to the next pair of gap endpoints, 1/9 and 2/9.
    assert cantor_function(Fraction(1, 3)) == Fraction(1, 2)
    assert cantor_function(Fraction(1, 9)) == Fraction(1, 4)
    assert cantor_function(Fraction(2, 9)) == Fraction(1, 4)
    _line("cantor function", True,
          "f(1/3) = f(2/3) = 1/2, f(1/9) = f(2/9) = 1/4; stage-n endpoint "
          "images monotone and equal to the dyadics k/2^n for n<=10")


def test_08_shrinking_and_perfect_witnesses():
    presets = ["cantor", "c12", "c14", "c34", "svc:4", "ac"]
    for name in presets:
        spec = parse_spec(name)
        prev = None
        for n in range(26):
            ml = max_component_length(spec, n)
            assert ml <= Fraction(1, 2 ** n), (name, n)
            if prev is not None:
                assert ml < prev, (name, n)
            prev = ml
        stages = iterate(spec, 10)
        for n in range(11):
            pts = sorted(stages[n].intervals.endpoints())
            assert len(pts) == 2 * len(stages[n].intervals)
            ml = max_component_length(spec, n)
            for i, e in enumerate(pts):
                gaps = []
                if i > 0:
                    gaps.append(e - pts[i - 1])
                if i + 1 < len(pts):
                    gaps.append(pts[i + 1] - e)
                assert min(gaps) <= ml, (name, n, e)
    _line("nowhere-dense/perfect witnesses", True,
          "max lengths strictly decreasing and <= (1/2)^n through n=25; every "
          "stage-n endpoint has a neighbour within that length for n<=10")


def test_09_similarity_dimension_moran():
    worst = 0.0
    for name in ("cantor", "c12", "c14", "c34", "ac", "ac-reflected",
                 "ac5a", "ac5b"):
        spec = parse_spec(name)
        s = similarity_dimension(spec)
        residual = abs(sum(float(r) ** s for r in contraction_ratios(spec)) - 1.0)
        assert residual <= 1e-10, (name, residual)
        worst = max(worst, residual)
    reference = math.log(2) / math.log(3)
    gap = abs(similarity_dimension(parse_spec("cantor")) - reference)
    assert gap <= 1e-10
    _line("similarity dimension", True,
          f"worst Moran residual {worst:.2e}; cantor within {gap:.2e} of "
          "log 2 / log 3")


def test_10_cli_contract(capsys, tmp_path):
    names = ["cantor", "c12", "c14", "c34", "ac", "ac-reflected", "ac5a",
             "ac5b", "svc:2", "svc:4", "svc:9"]
    for name in names:
        spec = parse_spec(name)
        assert parse_spec(emit_spec(spec)) == spec, name

    for name, depth in (("cantor", 3), ("ac", 3), ("svc:4", 3)):
        spec = parse_spec(name)
        payload = json.loads(cmd_construct(spec, depth, fmt="json"))
        stages = iterate(spec, depth)
        for stage, pairs in zip(stages, payload):
            got = [(parse_fraction(lo), parse_fraction(hi)) for lo, hi in pairs]
            assert got == [(iv.lo, iv.hi) for iv in stage.intervals], name

    first = tmp_path / "first.svg"
    second = tmp_path / "second.svg"
    argv = ["render", "--spec", "ac", "--depth", "4", "--label"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    exit_codes = {}
    for label, argv in (
            ("parse", ["construct", "--spec", "no-such-preset"]),
            ("domain", ["member", "--spec", "cantor", "--x", "3/2"]),
            ("resource", ["construct", "--spec", "cantor", "--depth", "64"])):
        code = main(argv)
        err = capsys.readouterr().err
        doc = json.loads(err)
        assert doc["error"] == label
        exit_codes[label] = code
    assert exit_codes == {"parse": 2, "domain": 3, "resource": 4}
    _line("cli contract", True,
          f"{len(names)} spec round-trips; JSON stages re-parse equal; "
          "byte-identical SVG; exit codes 2/3/4")
