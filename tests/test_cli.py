import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cantorkit import (
    CANTOR_TERNARY,
    CantorKitError,
    ClosedInterval,
    DigitExpansion,
    DomainError,
    ExpansionSpec,
    IntervalUnion,
    ParseError,
    Power,
    Proportional,
    RenderConfig,
    ResourceLimitError,
    Subdivision,
    ValidationError,
    allowed_expansion,
    cantor_function,
    characterization_equivalence_check,
    emit_spec,
    expansion_membership,
    fraction_str,
    iterate,
    limit_membership,
    parse_fraction,
    parse_spec,
    render_svg,
    stage_membership,
)
from cantorkit import cli, constructions
from cantorkit.cli import _build_parser, cmd_analyze, cmd_construct, cmd_member, main
from cantorkit.spec_io import _INT_RE, _digit_count

SRC = Path(__file__).resolve().parent.parent / "src"


def run_main(argv):
    """(exit code, stdout, stderr, bytes of the --out file or None) of one main call.

    The --out file, if one was written, is read and removed, so the same
    argv can run again against a clean directory.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    written = None
    if "--out" in argv[:-1]:
        target = argv[argv.index("--out") + 1]
        with contextlib.suppress(OSError, ValueError):
            if os.path.isfile(target):
                written = Path(target).read_bytes()
                os.remove(target)
    return code, stdout.getvalue(), stderr.getvalue(), written


def assert_error_line(result, error=None):
    """A failing run: empty stdout and one JSON line of under 512 bytes on stderr."""
    code, out, err, _ = result
    assert code in (2, 3, 4)
    assert out == "" and err.endswith("\n") and err.count("\n") == 1
    assert len(err.encode()) < 512
    doc = json.loads(err)
    assert doc["error"] == (error or doc["error"])
    return doc["message"]


class TestFractionStrings:
    def test_canonical_form(self):
        assert fraction_str(Fraction(1, 3)) == "1/3"
        assert fraction_str(Fraction(0)) == "0/1"
        assert fraction_str(Fraction(1)) == "1/1"
        assert fraction_str(Fraction(2, 4)) == "1/2"
        assert fraction_str(Fraction(-3, 6)) == "-1/2"

    def test_parse(self):
        assert parse_fraction("1/3") == Fraction(1, 3)
        assert parse_fraction(" 7 ") == 7
        assert parse_fraction("-2/8") == Fraction(-1, 4)

    def test_parse_rejects_noise(self):
        for bad in ("", "one third", "1.5", "1/3/5", "1/ 3", "0x3", "1/0", "1/00", "-5/000",
                    "\u0661/\u0663", "1_0/3"):
            with pytest.raises(ParseError):
                parse_fraction(bad)

    def test_round_trip(self):
        rng = random.Random(1729)
        for _ in range(300):
            q = rng.randint(1, 10_000)
            x = Fraction(rng.randint(-q, q), q)
            assert parse_fraction(fraction_str(x)) == x


class TestParseSpec:
    def test_presets(self):
        assert parse_spec("cantor") == Proportional(Fraction(1, 3))
        assert parse_spec("c34") == Proportional(Fraction(3, 4))
        assert parse_spec("ac") == Subdivision(4, frozenset({2}))
        assert parse_spec("ac-reflected") == Subdivision(4, frozenset({1}))
        assert parse_spec("svc:4") == Power(4)
        assert parse_spec(" svc:17 ") == Power(17)

    def test_documents(self):
        assert parse_spec('{"type": "proportional", "p": "1/3"}') == Proportional(
            Fraction(1, 3))
        assert parse_spec('{"type": "power", "m": 5}') == Power(5)
        assert parse_spec('{"type": "subdivision", "n": 4, "removed": [2]}'
                          ) == Subdivision(4, frozenset({2}))

    def test_unknown_preset(self):
        with pytest.raises(ParseError, match="unknown preset"):
            parse_spec("kantor")

    def test_svc_needs_integer(self):
        with pytest.raises(ParseError):
            parse_spec("svc:x")
        with pytest.raises(ValidationError):
            parse_spec("svc:1")

    def test_document_errors(self):
        bad_docs = [
            '{"type": "proportional"}',
            '{"type": "proportional", "p": 0.3333}',
            '{"type": "proportional", "p": "1/3", "extra": 1}',
            '{"type": "mystery", "p": "1/3"}',
            '{"type": "subdivision", "n": 4, "removed": 2}',
            '{"type": "subdivision", "removed": [2]}',
            '[1, 2]',
            '{"type"',
            '{"type": ' + "[" * 100_000,
        ]
        for doc in bad_docs:
            with pytest.raises(ParseError):
                parse_spec(doc)
        for doc in ('{"type": "power", "m": "2"}', '{"type": "power", "m": true}',
                    '{"type": "subdivision", "n": 4, "removed": ["2"]}'):
            with pytest.raises(ValidationError):
                parse_spec(doc)

    def test_a_document_that_is_not_an_object(self):
        for doc in ("[1]", " [1, 2] ", "[]"):
            with pytest.raises(ParseError, match="^spec document must be a JSON object$"):
                parse_spec(doc)
        message = assert_error_line(run_main(["construct", "--spec", "[1]"]), "parse")
        assert message == "spec document must be a JSON object"

    # Values for a document's integer fields, wrong and right: a document and
    # the family constructor called with the same values must agree.
    FIELD_VALUES = ['"2"', "true", "1.5", "null", "[1, true]", "[[1]]", "[-1]", "[4]",
                    "2", "3", "4", "5"]
    INDEX_LISTS = ["[1, true]", "[[1]]", "[-1]", "[4]", "[5, 4]", "[]", "[1]", "[2, 3]",
                   "[0, 1, 2, 3]"]

    def test_a_document_and_its_family_agree(self):
        def outcome(make):
            try:
                return make()
            except ValidationError as exc:
                return str(exc)

        cases = [('{"type": "power", "m": %s}' % m, Power, (m,)) for m in self.FIELD_VALUES]
        cases += [('{"type": "subdivision", "n": %s, "removed": %s}' % (n, removed),
                   Subdivision, (n, removed))
                  for n in self.FIELD_VALUES for removed in self.INDEX_LISTS]
        for doc, family, values in cases:
            want = outcome(lambda: family(*map(json.loads, values)))
            assert outcome(lambda: parse_spec(doc)) == want, doc

    @pytest.mark.parametrize("argv, message", [
        (["member", "--spec", "cantor", "--x", "1/00"], "zero denominator in '1/00'"),
        (["member", "--spec", "cantor", "--x", "-1/00"], "zero denominator in '-1/00'"),
        (["cantorfun", "--x", "5/000"], "zero denominator in '5/000'"),
        (["construct", "--spec", '{"type": "proportional", "p": "0/00"}'],
         "zero denominator in '0/00'"),
        (["member", "--spec", "cantor", "--x", "\u0661/\u0663"],
         "not a fraction: '\u0661/\u0663'"),
        (["construct", "--spec", "svc:\u0664"], "svc preset needs an integer base, got '\u0664'"),
        (["construct", "--spec", "svc:1_0"], "svc preset needs an integer base, got '1_0'"),
        (["construct", "--spec", "svc: 4"], "svc preset needs an integer base, got ' 4'"),
        (["construct", "--spec", '{"type": [1]}'],
         "unknown construction type [1]; expected one of "
         "['power', 'proportional', 'subdivision']"),
        # Integer options read ASCII digits, as svc:<m> does, not all that int() reads.
        (["construct", "--spec", "cantor", "--depth", "1_0"],
         "argument --depth: invalid int value: '1_0'"),
        (["construct", "--spec", "cantor", "--depth", "\uff12"],
         "argument --depth: invalid int value: '\uff12'"),
        (["render", "--spec", "cantor", "--width", "1_000"],
         "argument --width: invalid int value: '1_000'"),
        (["render", "--spec", "cantor", "--row-height", "\u0663\u0660"],
         "argument --row-height: invalid int value: '\u0663\u0660'"),
        (["member", "--spec", "cantor", "--x", "1/4", "--cap", "1_0"],
         "argument --cap: invalid int value: '1_0'"),
    ], ids=["zero-den", "negative-zero-den", "cantorfun-zero-den", "p-zero-den",
            "arabic-indic-x", "devanagari-svc", "underscore-svc", "space-svc", "list-type",
            "underscore-depth", "full-width-depth", "underscore-width", "arabic-indic-row-height",
            "underscore-cap"])
    def test_an_input_outside_the_grammar_is_one_parse_line(self, argv, message):
        code, _, _, _ = result = run_main(argv)
        assert code == 2
        assert assert_error_line(result, "parse") == message

    def test_an_integer_option_may_carry_surrounding_whitespace(self):
        # As --x may; only the digits themselves are ASCII-only.
        plain = run_main(["construct", "--spec", "cantor", "--depth", "2"])
        for spaced in (" 2 ", "+2\t"):
            assert run_main(["construct", "--spec", "cantor", "--depth", spaced]) == plain

    def test_document_validation_still_applies(self):
        with pytest.raises(ValidationError):
            parse_spec('{"type": "proportional", "p": "5/4"}')
        with pytest.raises(ValidationError):
            parse_spec('{"type": "subdivision", "n": 4, "removed": [0, 1, 2, 3]}')


class TestEmitSpec:
    def test_canonical_documents(self):
        assert emit_spec(Proportional(Fraction(1, 3))) == (
            '{"type": "proportional", "p": "1/3"}')
        assert emit_spec(Power(4)) == '{"type": "power", "m": 4}'
        assert emit_spec(Subdivision(5, frozenset({3, 2}))) == (
            '{"type": "subdivision", "n": 5, "removed": [2, 3]}')

    def test_round_trip_presets(self):
        for name in ("cantor", "c12", "c14", "c34", "ac", "ac-reflected",
                     "ac5a", "ac5b", "svc:2", "svc:4", "svc:9"):
            spec = parse_spec(name)
            assert parse_spec(emit_spec(spec)) == spec

    def test_round_trip_random_specs(self):
        rng = random.Random(8128)
        specs = []
        for _ in range(200):
            kind = rng.randrange(3)
            if kind == 0:
                den = rng.randint(2, 500)
                specs.append(Proportional(Fraction(rng.randint(1, den - 1), den)))
            elif kind == 1:
                specs.append(Power(rng.randint(2, 40)))
            else:
                n = rng.randint(3, 9)
                size = rng.randint(1, n - 1)
                removed = frozenset(rng.sample(range(n), size))
                if len(removed) == n:
                    continue
                specs.append(Subdivision(n, removed))
        assert len(specs) == 200
        for spec in specs:
            assert parse_spec(emit_spec(spec)) == spec


class TestConstruct:
    def test_text_layout(self):
        out = cmd_construct(parse_spec("cantor"), 1)
        assert out.splitlines() == [
            "[0/1, 1/1]",
            "[0/1, 1/3] ∪ [2/3, 1/1]",
        ]

    def test_text_marks_stalled_stages(self):
        lines = cmd_construct(parse_spec("svc:2"), 3).splitlines()
        assert lines[0] == "[0/1, 1/1]"
        assert lines[1] == "[0/1, 1/4] ∪ [3/4, 1/1]"
        stalled = "[0/1, 0/1] ∪ [1/4, 1/4] ∪ [3/4, 3/4] ∪ [1/1, 1/1] [stalled]"
        assert lines[2] == stalled
        assert lines[3] == stalled

    @pytest.mark.parametrize("preset,depth", [("cantor", 4), ("ac", 4),
                                              ("svc:4", 4), ("ac5b", 3)])
    def test_json_reparses_to_the_same_stages(self, preset, depth):
        spec = parse_spec(preset)
        payload = json.loads(cmd_construct(spec, depth, fmt="json"))
        stages = iterate(spec, depth)
        assert len(payload) == depth + 1
        for stage, pairs in zip(stages, payload):
            got = [(parse_fraction(lo), parse_fraction(hi)) for lo, hi in pairs]
            assert got == [(iv.lo, iv.hi) for iv in stage.intervals]


class TestAnalyze:
    def test_json_fields(self):
        doc = json.loads(cmd_analyze(parse_spec("svc:4"), 3, fmt="json"))
        assert doc["spec"] == {"type": "power", "m": 4}
        assert doc["depth"] == 3
        assert doc["stage_measures"] == ["1/1", "3/4", "5/8", "9/16"]
        assert doc["limit_measure"] == "1/2"
        assert doc["limit_degenerate"] is False
        assert doc["stalled"] is False
        assert doc["characterization"]["status"] == "not-characterizable"
        assert doc["similarity_dimension"] is None

    def test_json_fields_characterized(self):
        doc = json.loads(cmd_analyze(parse_spec("cantor"), 2, fmt="json"))
        assert doc["characterization"] == {
            "status": "characterized", "base": 3, "allowed": [0, 2]}
        assert doc["max_component_lengths"] == ["1/1", "1/3", "1/9"]
        assert doc["scale_census"] == [{"length": "1/9", "count": 4}]
        assert abs(doc["similarity_dimension"] - 0.6309297535714574) < 1e-12

    def test_text_mentions_the_key_facts(self):
        text = cmd_analyze(parse_spec("svc:2"), 3)
        assert "stalled by stage 3" in text
        assert "limit measure: 0/1 (degenerate: finite point set)" in text
        text = cmd_analyze(parse_spec("cantor"), 2)
        assert "characterization: base 3, digits {0, 2}" in text
        assert "similarity dimension: " in text

    def test_svc3_is_characterized_as_cantor(self):
        # Power(3) removes the middle third of every component, so it has
        # cantor's maps, and its characterization and dimension are cantor's.
        lines = [[line for line in cmd_analyze(parse_spec(name), 4).splitlines()
                  if line.startswith(("characterization: ", "similarity dimension: "))]
                 for name in ("svc:3", "cantor")]
        assert lines[0] == lines[1] and len(lines[0]) == 2
        svc3, cantor = (json.loads(cmd_analyze(parse_spec(name), 4, fmt="json"))
                        for name in ("svc:3", "cantor"))
        for key in ("characterization", "similarity_dimension"):
            assert svc3[key] == cantor[key]


class TestMember:
    def test_json_doc(self):
        doc = json.loads(cmd_member(parse_spec("cantor"), Fraction(1, 4),
                                    fmt="json"))
        assert doc["x"] == "1/4"
        assert doc["verdict"] == {"kind": "member-cycle", "cycle_length": 2}
        assert doc["member"] is True
        assert doc["stage_member"] is True

    def test_json_doc_excluded(self):
        doc = json.loads(cmd_member(parse_spec("cantor"), Fraction(1, 2),
                                    fmt="json"))
        assert doc["verdict"] == {"kind": "excluded", "depth": 1}
        assert doc["member"] is False
        assert doc["stage_member"] is False

    def test_json_doc_undecided(self):
        doc = json.loads(cmd_member(parse_spec("svc:4"), Fraction(1, 3),
                                    depth_cap=12, fmt="json"))
        assert doc["verdict"] == {"kind": "undecided", "depth": 12}
        assert doc["member"] is None
        assert doc["stage_member"] is True

    @pytest.mark.parametrize("spec, x, cap, verdict, stage", [
        ("ac", Fraction(1, 2), 10_000, "member (endpoint from stage 1 on)", "depth 20): member"),
        ("cantor", Fraction(1, 4), 10_000, "member (position cycles with length 2)",
         "depth 20): member"),
        ("cantor", Fraction(1, 2), 10_000, "not a member (removed at step 1)",
         "depth 20): not a member"),
        ("svc:4", Fraction(1, 3), 12, "undecided through depth 12", "depth 12): member"),
    ], ids=["endpoint", "cycle", "excluded", "undecided"])
    def test_text(self, spec, x, cap, verdict, stage):
        text = cmd_member(parse_spec(spec), x, cap)
        assert text == f"x: {fraction_str(x)}\nverdict: {verdict}\nstage check ({stage}"

    @pytest.mark.parametrize("x", ["1/4", "3/4", "1/10", "1/2", "7/9"])
    def test_svc3_answers_as_cantor(self, x):
        # Every field but the echoed spec is cantor's.
        svc3, cantor = (cmd_member(parse_spec(name), Fraction(x)) for name in ("svc:3", "cantor"))
        assert svc3 == cantor
        svc3, cantor = (json.loads(cmd_member(parse_spec(name), Fraction(x), fmt="json"))
                        for name in ("svc:3", "cantor"))
        assert svc3.pop("spec") == {"type": "power", "m": 3}
        assert cantor.pop("spec") == {"type": "proportional", "p": "1/3"}
        assert svc3 == cantor


class TestRenderSvg:
    def test_rect_count_matches_component_count(self):
        cfg = RenderConfig(depth=3)
        svg = render_svg(parse_spec("cantor"), cfg)
        # one background rect plus one per component of stages 0..3
        assert svg.count("<rect ") == 1 + (1 + 2 + 4 + 8)

    def test_document_shape(self):
        svg = render_svg(parse_spec("ac"), RenderConfig(depth=2))
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
        assert svg.endswith("</svg>\n")
        assert 'width="800"' in svg

    def test_deterministic(self):
        a = render_svg(parse_spec("svc:4"), RenderConfig(depth=4))
        b = render_svg(parse_spec("svc:4"), RenderConfig(depth=4))
        assert a == b

    def test_labels_are_opt_in(self):
        plain = render_svg(parse_spec("cantor"), RenderConfig(depth=2))
        labeled = render_svg(parse_spec("cantor"), RenderConfig(depth=2, label=True))
        assert "<text" not in plain
        assert '<text x="10" y="27">0</text>' in labeled

    def test_degenerate_points_are_one_pixel_marks(self):
        svg = render_svg(parse_spec("svc:2"), RenderConfig(depth=2))
        assert 'width="1"' in svg

    def test_a_deep_render_is_bounded_by_what_it_draws(self, capsys):
        # Row k draws at most min(2**k, 2 * 780 + 2) rects at the default
        # width, so depth 40 is 2**11 - 1 + 30 * 1562 rects at most: drawn.
        assert main(["render", "--spec", "cantor", "--depth", "40"]) == 0
        out = capsys.readouterr()
        rows = re.findall(r'<rect x="\d+" y="(\d+)"', out.out)
        assert out.err == "" and len(set(rows)) == 41
        assert len(rows) <= 2 ** 11 - 1 + 30 * 1562

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RenderConfig(width_px=50)
        with pytest.raises(ValidationError):
            RenderConfig(row_height_px=4)
        with pytest.raises(ValidationError):
            RenderConfig(depth=-1)


def _long_depth_cases():
    """A 250-digit and a 4,300-digit depth on each stage command, with its refusal."""
    for digits in (250, 4300):
        depth = "1" + "0" * (digits - 1)
        # A long depth is written as its first 100 digits and its length.
        shown = f"{depth[:100]}... ({digits} characters)"
        stage = f"stage {shown} could hold up to 2**{shown} intervals, over the limit of"
        for command, message in (
                ("construct", f"{stage} 262144"),
                ("analyze", f"{stage} 1073741824"),
                ("render", f"render depth {shown}: rows 0..177 could draw up to 262901 rects, "
                           "min(2**k, 1562) in row k, over the limit of 262144")):
            yield pytest.param([command, "--spec", "cantor", "--depth", depth], message,
                               id=f"{command}-{digits}-digit-depth")


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["construct", "--spec", "cantor", "--depth", "1"]) == 0
        out = capsys.readouterr()
        assert out.out == "[0/1, 1/1]\n[0/1, 1/3] ∪ [2/3, 1/1]\n"
        assert out.err == ""

    # The README's exit codes: parse and validation 2, domain 3, resource 4.
    @pytest.mark.parametrize("argv, error, status, part", [
        (["construct", "--spec", "not-a-preset"], "parse", 2, "not-a-preset"),
        (["construct", "--spec", '{"type": "proportional", "p": "5/4"}'], "validation", 2,
         "got 5/4"),
        (["member", "--spec", "cantor", "--x", "3/2"], "domain", 3, "got 3/2"),
        (["construct", "--spec", "cantor", "--depth", "64"], "resource", 4, "2**64"),
    ], ids=["parse", "validation", "domain", "resource"])
    def test_each_error_kind_has_its_code_and_status(self, argv, error, status, part):
        code, out, err, _ = run_main(argv)
        doc = json.loads(err)
        assert (code, out, set(doc), doc["error"]) == (status, "", {"error", "message"}, error)
        assert part in doc["message"]

    def test_an_error_of_no_listed_kind_is_internal(self, monkeypatch):
        def fail(*args):
            raise CantorKitError("no listed kind")

        monkeypatch.setattr(cli, "cmd_construct", fail)
        assert run_main(["construct", "--spec", "cantor"]) == (
            1, "", '{"error": "internal", "message": "no listed kind"}\n', None)

    @pytest.mark.parametrize("handler, argv", [
        ("cmd_construct", ["construct", "--spec", "cantor", "--format", "json"]),
        ("render_svg", ["render", "--spec", "cantor"]),
    ])
    def test_running_out_of_memory_is_a_resource_error(self, handler, argv, monkeypatch):
        def fail(*args):
            raise MemoryError

        monkeypatch.setattr(cli, handler, fail)
        assert run_main(argv) == (
            4, "", f'{{"error": "resource", "message": "{argv[0]} ran out of memory"}}\n', None)

    def test_cantorfun_domain_failure(self, capsys):
        assert main(["cantorfun", "--x", "1/2"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain"
        assert "position 1" in err["message"]

    def test_analyze_is_refused_where_construct_is(self, capsys):
        assert main(["analyze", "--spec", "cantor", "--depth", "31"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "resource", "message": "stage 31 could hold up to 2**31 "
                       "intervals, over the limit of 1073741824"}
        assert main(["analyze", "--spec", "cantor", "--depth", "-1"]) == 2
        assert json.loads(capsys.readouterr().err)["message"] == "depth must be nonnegative, got -1"

    @pytest.mark.parametrize("argv, message", [
        # A built stage has its own, lower limit.
        (["construct", "--spec", '{"type":"subdivision","n":5,"removed":[1,3]}',
          "--depth", "100000000"],
         "stage 100000000 could hold up to 3**100000000 intervals, over the limit of 262144"),
        # render sums its per-row bound and stops at the first row past the limit.
        (["render", "--spec", '{"type":"subdivision","n":5,"removed":[1,3]}',
          "--depth", "100000000"],
         "render depth 100000000: rows 0..174 could draw up to 263509 rects, "
         "min(3**k, 1562) in row k, over the limit of 262144"),
        (["analyze", "--spec", "c14", "--depth", "1000000000"],
         "stage 1000000000 could hold up to 2**1000000000 intervals, over the limit of 1073741824"),
        (["render", "--spec", "c14", "--depth", "1000000000"],
         "render depth 1000000000: rows 0..177 could draw up to 262901 rects, "
         "min(2**k, 1562) in row k, over the limit of 262144"),
        # A wide render is bounded by its rows too: 2**19 - 1 rects at depth 18.
        (["render", "--spec", "svc:4", "--depth", "18", "--width", "1000000"],
         "render depth 18: rows 0..18 could draw up to 524287 rects, "
         "min(2**k, 1999962) in row k, over the limit of 262144"),
        *_long_depth_cases(),
    ])
    def test_a_huge_depth_is_refused_at_once(self, argv, message, capsys):
        started = time.perf_counter()
        assert main(argv) == 4
        assert time.perf_counter() - started < 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 512
        assert json.loads(err) == {"error": "resource", "message": message}

    @pytest.mark.parametrize("es, message", [
        (CANTOR_TERNARY, "digit level 1000000000 could hold up to 2**1000000000 intervals"),
        (ExpansionSpec(3, frozenset({0})), "stage 1000000000 could hold up to 2**1000000000 intervals"),
    ])
    def test_a_huge_characterization_depth_is_refused_at_once(self, es, message):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError) as exc:
            characterization_equivalence_check(parse_spec("cantor"), es, 10 ** 9)
        assert time.perf_counter() - started < 2
        # Both sides build what they compare, so both have a built stage's limit.
        assert str(exc.value) == f"{message}, over the limit of 262144"
        # A depth of 4,300 digits is cut where the message names it.
        with pytest.raises(ResourceLimitError) as exc:
            characterization_equivalence_check(parse_spec("cantor"), es, 10 ** 4299)
        assert len(str(exc.value).encode()) < 512 and "... (4300 characters)" in str(exc.value)

    def test_error_output_is_a_single_json_line(self, capsys):
        main(["construct", "--spec", "???"])
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1
        json.loads(err)

    def test_argument_error_is_a_json_line(self, capsys):
        assert main(["construct", "--spec", "cantor", "--depth", "abc"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        err = json.loads(out.err)
        assert err["error"] == "parse" and "--depth" in err["message"]

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cantorkit construct")

    @pytest.mark.parametrize("argv", [
        ["member", "--spec", "cantor", "--x", "1/" + "3" * 5000],
        ["construct", "--spec", '{"type": "power", "m": ' + "3" * 5000 + "}"],
        ["construct", "--spec", "svc:" + "3" * 5000],
    ], ids=["fraction", "document", "svc"])
    def test_oversized_integer_is_refused_without_echo(self, argv, capsys):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        err = json.loads(out.err)
        assert err["error"] == "parse"
        assert "5000-digit" in err["message"] and "3333" not in err["message"]

    @pytest.mark.parametrize("argv", [
        ["construct", "--spec", "cantor", "--depth", "3" * 5000],
        ["member", "--spec", "cantor", "--x", "x" * 100_000],
        ["construct", "--spec", "k" * 100_000],
        ["construct", "--spec", "cantor", "z" * 100_000],
    ], ids=["depth", "x", "spec", "extra"])
    def test_oversized_value_is_echoed_in_part(self, argv, capsys):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        assert len(out.err.encode()) < 512
        err = json.loads(out.err)
        assert err["error"] == "parse"
        assert f"... ({max(map(len, argv))} characters)" in err["message"]

    def test_value_of_100_characters_is_echoed_whole(self, capsys):
        for argv, message in (
                (["member", "--spec", "cantor", "--x", "x" * 100],
                 "not a fraction: '" + "x" * 100 + "'"),
                (["construct", "--spec", "cantor", "--depth", "3" * 99 + "x"],
                 "argument --depth: invalid int value: '" + "3" * 99 + "x'"),
                (["construct", "--spec", "cantor", "z" * 100],
                 "unrecognized arguments: " + "z" * 100)):
            assert main(argv) == 2
            assert json.loads(capsys.readouterr().err)["message"] == message

    def test_unwritable_out_is_a_json_line(self, tmp_path, capsys):
        target = tmp_path / "missing" / "dir" / "f"
        assert main(["construct", "--spec", "cantor", "--out", str(target)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1
        err = json.loads(out.err)
        assert err["error"] == "parse" and "cannot write" in err["message"]


class TestMainPlumbing:
    def test_cantorfun_value(self, capsys):
        assert main(["cantorfun", "--x", "1/4"]) == 0
        assert capsys.readouterr().out == "1/3\n"

    def test_member_cap_flag(self, capsys):
        code = main(["member", "--spec", "svc:4", "--x", "1/3", "--cap", "7",
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == {"kind": "undecided", "depth": 7}

    def test_out_writes_the_file_and_keeps_stdout_quiet(self, tmp_path, capsys):
        target = tmp_path / "stages.txt"
        code = main(["construct", "--spec", "cantor", "--depth", "1",
                     "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == (
            "[0/1, 1/1]\n[0/1, 1/3] ∪ [2/3, 1/1]\n")

    def test_spec_file_argument(self, tmp_path, capsys):
        doc = tmp_path / "spec.json"
        doc.write_text('{"type": "subdivision", "n": 4, "removed": [2]}',
                       encoding="utf-8")
        code = main(["construct", "--spec", str(doc), "--depth", "1"])
        assert code == 0
        assert capsys.readouterr().out == "[0/1, 1/1]\n[0/1, 1/2] ∪ [3/4, 1/1]\n"

    def test_render_to_file_is_stable(self, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        argv = ["render", "--spec", "ac", "--depth", "3", "--label"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b'<?xml version="1.0"')

    def test_analyze_json_via_argv(self, capsys):
        code = main(["analyze", "--spec", "ac", "--depth", "2",
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"] == {"type": "subdivision", "n": 4, "removed": [2]}
        assert doc["stage_measures"] == ["1/1", "3/4", "9/16"]


SWEEP_SPECS = ("cantor", "c12", "c14", "c34", "ac", "ac-reflected", "ac5a", "ac5b",
               "svc:2", "svc:3", "svc:4", '{"type": "subdivision", "n": 5, "removed": [1, 3]}')


def sweep_argv(tmp: str, rng: random.Random) -> list[list[str]]:
    """Every subcommand in text and JSON, --out, --help and every error kind."""
    out, missing = os.path.join(tmp, "out.txt"), os.path.join(tmp, "missing", "f")
    argvs = [
        ["--help"], ["construct", "--help"], ["analyze", "--help"], ["member", "--help"],
        ["render", "--help"], ["cantorfun", "--help"],
        [], ["bogus"], ["construct"], ["member", "--spec", "cantor"],
        ["construct", "--spec", "cantor", "--depth", "abc"],
        ["construct", "--spec", "cantor", "--format", "xml"],
        ["construct", "--spec", "cantor", "--bogus", "1"],
        ["construct", "--spec", "cantor", "--=1"],
        ["construct", "--spec", "kantor"],
        ["member", "--spec", "cantor", "--x", "one third"],
        ["construct", "--spec", '{"type": "proportional", "p": "5/4"}'],
        ["analyze", "--spec", "cantor", "--depth", "-1"],
        ["render", "--spec", "cantor", "--width", "50"],
        ["member", "--spec", "cantor", "--x", "3/2"],
        ["cantorfun", "--x", "1/2"],
        ["construct", "--spec", "cantor", "--depth", "64"],
        ["construct", "--spec", "svc:1" + "0" * 1500],
        ["construct", "--spec", "cantor", "--out", missing],
    ]
    while len(argvs) < 240:
        command = rng.choice(("construct", "analyze", "member", "render", "cantorfun"))
        argv = [command]
        if command != "cantorfun":
            argv += ["--spec", rng.choice(SWEEP_SPECS)]
        if command in ("construct", "analyze", "render") and rng.random() < 0.8:
            argv += ["--depth", str(rng.randint(0, 4))]
        if command in ("member", "cantorfun"):
            q = rng.randint(1, 60)
            argv += ["--x", f"{rng.randint(0, q)}/{q}"]
        if command == "member" and rng.random() < 0.5:
            argv += ["--cap", rng.choice(("0", "7", "50"))]
        if command in ("construct", "analyze", "member") and rng.random() < 0.7:
            argv += ["--format", rng.choice(("text", "json"))]
        if command == "render":
            if rng.random() < 0.5:
                argv.append("--label")
            if rng.random() < 0.3:
                argv += ["--width", str(rng.choice((100, 320, 800)))]
        if rng.random() < 0.2:
            argv += ["--out", out]
        argvs.append(argv)
    rng.shuffle(argvs)
    return argvs


def argparse_only(monkeypatch):
    """Make main parse every argv with argparse, as it did before the option table."""
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)


class TestParserReuse:
    def test_the_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_the_parser_is_not_built_at_import(self):
        # Well-formed calls are read from the option table: no parser is
        # built and argparse is not imported. The first argv left to argparse
        # builds the parser, and later ones reuse it.
        code = ("import sys\n"
                "import cantorkit.cli as cli\n"
                "print(cli._build_parser.cache_info().misses)\n"
                "for _ in range(3):\n"
                "    cli.main(['cantorfun', '--x', '1/4'])\n"
                "print(cli._build_parser.cache_info().misses, 'argparse' in sys.modules)\n"
                "for _ in range(2):\n"
                "    cli.main(['cantorfun', '--x=1/4'])\n"
                "print(cli._build_parser.cache_info().misses)\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "1/3", "1/3", "1/3", "0", "False", "1/3", "1/3",
                                       "1"]

    def test_a_reused_parser_answers_as_a_fresh_one(self, tmp_path, monkeypatch):
        argparse_only(monkeypatch)
        argvs = sweep_argv(str(tmp_path), random.Random(2718))
        reused = [run_main(argv) for argv in argvs]
        monkeypatch.setattr(cli, "_build_parser", lambda: _build_parser.__wrapped__())
        fresh = [run_main(argv) for argv in argvs]
        for argv, got, want in zip(argvs, reused, fresh):
            assert got == want, argv
        assert {code for code, *_ in fresh} == {0, 2, 3, 4}
        assert any(written for *_, written in fresh)

    @pytest.mark.parametrize("first, second, check", [
        (["render", "--spec", "cantor", "--depth", "2", "--label"],
         ["render", "--spec", "cantor", "--depth", "2"], lambda out: "<text" not in out),
        (["member", "--spec", "svc:4", "--x", "1/3", "--cap", "50"],
         ["member", "--spec", "svc:4", "--x", "1/3"],
         lambda out: "undecided through depth 10000" in out),
        (["construct", "--spec", "cantor", "--depth", "2", "--format", "json"],
         ["construct", "--spec", "cantor", "--depth", "2"],
         lambda out: out.startswith("[0/1, 1/1]\n")),
    ], ids=["label", "cap", "format"])
    @pytest.mark.parametrize("parse", [lambda monkeypatch: None, argparse_only],
                             ids=["table", "argparse"])
    def test_an_option_does_not_leak_into_the_next_call(self, first, second, check, parse,
                                                        monkeypatch):
        parse(monkeypatch)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_build_parser", lambda: _build_parser.__wrapped__())
            want = run_main(second)
        run_main(first)
        got = run_main(second)
        assert got == want
        assert got[0] == 0 and check(got[1])


# argvs on either side of the dispatch: no command, top-level help, an unknown
# or abbreviated command, an option before the command, and a subcommand's
# help, "--", abbreviated option, missing value and extra argument.
EDGE_ARGV = [
    [], ["-h"], ["--help"], ["bogus"], ["constr", "--spec", "cantor"],
    ["--spec", "cantor", "construct"], ["construct", "-h"], ["construct", "--", "--spec", "cantor"],
    ["construct", "--sp", "cantor"], ["construct", "--spec", "cantor", "--depth"],
    ["cantorfun", "--x", "1/4", "extra"],
]


def whole_tree(monkeypatch):
    """Make main parse every argv with the whole tree, as it once did."""
    argparse_only(monkeypatch)
    parser, _ = _build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))


class TestDispatch:
    def test_dispatch_answers_as_the_whole_tree(self, tmp_path, monkeypatch):
        argvs = EDGE_ARGV + sweep_argv(str(tmp_path), random.Random(1618))
        dispatched = [run_main(argv) for argv in argvs]
        whole_tree(monkeypatch)
        tree = [run_main(argv) for argv in argvs]
        for argv, got, want in zip(argvs, dispatched, tree):
            assert got == want, argv
        assert {code for code, *_ in tree} == {0, 2, 3, 4}
        assert any(written for *_, written in tree)

    @pytest.mark.parametrize("argv, usage", [
        (["-h"], "usage: cantorkit [-h]"), (["--help"], "usage: cantorkit [-h]"),
        (["construct", "-h"], "usage: cantorkit construct"),
        (["cantorfun", "--help"], "usage: cantorkit cantorfun"),
    ])
    def test_help_exits_zero_with_the_same_text_on_both_paths(self, argv, usage,
                                                              monkeypatch):
        def help_text():
            with pytest.raises(SystemExit) as exc, \
                    contextlib.redirect_stdout(io.StringIO()) as out:
                main(argv)
            assert exc.value.code == 0
            return out.getvalue()

        dispatched = help_text()
        whole_tree(monkeypatch)
        assert help_text() == dispatched and dispatched.startswith(usage)

    # argparse before Python 3.13 (3.10, 3.11 and 3.12.1 at least) reads
    # `--opt=--` as an empty list: a traceback for --spec, no choices check
    # for --format. "--" is the option's text, as Python 3.13 reads it.
    @pytest.mark.parametrize("argv, message", [
        (["construct", "--spec=--"], "unknown preset '--'"),
        (["construct", "--sp=--"], "unknown preset '--'"),
        (["construct", "--spec", "cantor", "--depth=--"],
         "argument --depth: invalid int value: '--'"),
        (["cantorfun", "--x=--"], "not a fraction: '--'"),
        (["construct", "--spec", "cantor", "--format=--"],
         "argument --format: invalid choice: '--'"),
    ])
    def test_an_equals_value_of_two_dashes_is_read_as_its_text(self, argv, message):
        result = run_main(argv)
        assert result[0] == 2
        assert assert_error_line(result, "parse").startswith(message)

    # A well-formed request makes no argparse pass. Any other argv makes one:
    # by its subcommand's parser when argv[0] names one, else by the whole tree.
    @pytest.mark.parametrize("argv, parsed_by", [
        (["cantorfun", "--x", "1/4"], []),
        (["render", "--spec", "cantor", "--label", "--depth", "1"], []),
        (["cantorfun", "--x=1/4"], ["cantorfun"]),
        (["construct", "--spec", "cantor", "--depth", "x"], ["construct"]),
        (["member", "--spec", "cantor", "--x", "-1/3"], ["member"]),
        ([], ["tree"]), (["constr", "--spec", "cantor"], ["tree"]),
        (["--spec", "cantor", "construct"], ["tree"]),
    ])
    def test_a_request_that_names_its_command_is_parsed_once(self, argv, parsed_by,
                                                             monkeypatch):
        parser, commands = _build_parser.__wrapped__()
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, commands))
        passes = []
        for p in (parser, *commands.values()):
            monkeypatch.setattr(p, "parse_known_args",
                                lambda *a, p=p, parse=p.parse_known_args:
                                passes.append(p) or parse(*a))
        run_main(argv)
        assert passes == [commands.get(name, parser) for name in parsed_by]


# Draws for the option table's differential test. Most options come exact,
# once, with a value their reader takes. The rest are left out, come as
# `--flag=value`, or take a value some reader refuses: `1_0`, padded and
# full-width integers, negative and empty values, "--", "-x", `xml`. Stray
# flags (exact, abbreviated, repeated, `-h`, "--") and values come between.
# The test runs in a fresh directory, so every --out file, however its flag
# is spelled, lands there.
TABLE_GOOD = {"--spec": ["cantor", "ac", "svc:4"], "--x": ["1/4", "3/4", "1/3", "0"],
              "--depth": ["0", "2", " 3 "], "--cap": ["5", "50"], "--format": ["text", "json"],
              "--width": ["100", "320"], "--row-height": ["8", "24"], "--out": ["out.txt"]}
TABLE_ODD_FLAGS = ["--spec", "--x", "--depth", "--cap", "--format", "--width", "--row-height",
                   "--label", "--out", "--sp", "--dep", "--c", "--form", "--w", "--row",
                   "--lab", "--ou", "--", "-h"]
TABLE_VALUES = st.sampled_from([
    "cantor", "1/4", "0", "9", " 2 ", "1_0", "\uff12", "-1", "-1/3", "", "-", "--", "-x",
    "--depth", "text", "json", "xml", "x", "out.txt"])


@st.composite
def table_argv(draw):
    """A command line over the subcommands' flags, well formed about half the time."""
    command = draw(_mostly(st.sampled_from(sorted(FLAGS)),
                           st.sampled_from(["constr", "--spec", "bogus"])))
    required = {"member": ["--spec", "--x"], "cantorfun": ["--x"]}.get(command, ["--spec"])
    flags = draw(st.lists(st.sampled_from(FLAGS.get(command, FLAGS["construct"])), unique=True))
    argv = [command]
    for flag in draw(st.permutations(required + flags)):
        form = draw(st.integers(0, 19))
        if form < 15 and flag == "--label":
            argv.append(flag)
        elif form < 15:
            argv += [flag, draw(st.sampled_from(TABLE_GOOD[flag]))]
        elif form < 17:
            argv += [flag, draw(TABLE_VALUES)]
        elif form == 17:
            argv.append(f"{flag}={draw(TABLE_VALUES)}")
        elif form == 18:
            argv += draw(st.lists(st.sampled_from(TABLE_ODD_FLAGS) | TABLE_VALUES, max_size=2))
        # form 19 leaves the option out.
    return argv


def run_main_writing(argv):
    """run_main's result and every file main left in the working directory,
    read and removed."""
    result = run_main(argv)
    left = {}
    for name in sorted(os.listdir()):
        left[name] = Path(name).read_bytes()
        os.remove(name)
    return result, left


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_argv())
@example(["member", "--spec", "cantor", "--x", "1/4", "--cap", "1_0"])
@example(["member", "--spec", "cantor", "--x", "1/4", "--format", "xml"])
@example(["member", "--x", "1/4"])
@example(["cantorfun", "--x", "-1/3"])
@example(["construct", "--spec", "-x"])
@example(["render", "--spec", "", "--label", "x", "--width", " 100 "])
@example(["construct", "--spec", "cantor", "--", "--depth", "\uff12"])
@example(["construct", "--sp", "ac", "--depth=2", "--depth", "2", "--out", "out.txt"])
@example(["construct", "--spec", "ac", "--out=--"])
def test_the_option_table_reads_a_request_as_argparse_does(argv):
    # The reader's namespace is the one argparse gives the subcommand's
    # parser, and main's answer is the same with the reader forced to None.
    read = cli._read_argv(argv)
    if read is not None:
        _, commands = _build_parser()
        parsed = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        assert vars(read) == vars(parsed)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as out_dir:
        os.chdir(out_dir)
        try:
            got = run_main_writing(argv)
            with pytest.MonkeyPatch.context() as patched:
                argparse_only(patched)
                assert run_main_writing(argv) == got
        finally:
            os.chdir(cwd)


class TestNegativeFractionValues:
    """A negative fraction after --x is its value, as a negative integer is."""

    DOMAIN = {
        "member": "membership queries require 0 <= x <= 1, got {}",
        "cantorfun": "the function is defined on [0, 1], got {}",
    }
    HEADS = [["member", "--spec", "cantor"], ["cantorfun"]]

    @pytest.mark.parametrize("tree", [False, True], ids=["dispatched", "whole tree"])
    @pytest.mark.parametrize("head", HEADS, ids=lambda head: head[0])
    @pytest.mark.parametrize("x", ["-1/3", "-2/1", "-0/5", "-10/7", "-1"])
    def test_a_negative_value_answers_as_its_equals_form(self, x, head, tree, monkeypatch):
        if tree:
            whole_tree(monkeypatch)
        joined = run_main(head + [f"--x={x}"])
        assert run_main(head + ["--x", x]) == joined
        if x == "-0/5":
            assert joined[0] == 0
        else:
            line = json.dumps({"error": "domain",
                               "message": self.DOMAIN[head[0]].format(x.removesuffix("/1"))})
            assert joined == (3, "", line + "\n", None)

    @pytest.mark.parametrize("head", HEADS, ids=lambda head: head[0])
    @pytest.mark.parametrize("x", ["-a/3", "-1/3/4", "-1/"])
    def test_other_dash_text_is_still_an_option(self, x, head):
        result = run_main(head + ["--x", x])
        assert result[0] == 2
        assert_error_line(result, "parse")
        assert "argument --x: expected one argument" in result[2]


class TestPathSpelling:
    """A --spec or --out path is opened as pathlib spells it, as it always was."""

    SPEC = '{"type": "subdivision", "n": 4, "removed": [2]}'
    TAILS = ["/", "/.", "//", "/./", "/.//."]

    @pytest.mark.parametrize("tail", TAILS)
    def test_a_spec_path_ending_in_a_slash_or_dot_reads_the_file(self, tail, tmp_path):
        doc = tmp_path / "spec.json"
        doc.write_text(self.SPEC, encoding="utf-8")
        argv = ["construct", "--spec", str(doc), "--depth", "1"]
        want = run_main(argv)
        assert want == (0, "[0/1, 1/1]\n[0/1, 1/2] ∪ [3/4, 1/1]\n", "", None)
        assert run_main(argv[:2] + [str(doc) + tail] + argv[3:]) == want

    @pytest.mark.parametrize("tail", TAILS)
    def test_an_out_path_ending_in_a_slash_or_dot_writes_the_file(self, tail, tmp_path):
        target = tmp_path / "f.txt"
        argv = ["construct", "--spec", "cantor", "--depth", "1", "--out", str(target) + tail]
        assert run_main(argv)[:3] == (0, "", "")
        assert target.read_text(encoding="utf-8") == "[0/1, 1/1]\n[0/1, 1/3] ∪ [2/3, 1/1]\n"

    @pytest.mark.parametrize("tail", TAILS)
    def test_a_path_that_fails_is_named_as_pathlib_names_it(self, tail, tmp_path,
                                                           monkeypatch):
        monkeypatch.chdir(tmp_path)  # short relative paths keep the messages whole
        (tmp_path / "bad.json").write_bytes(b"\xff")
        bad, missing = "bad.json", os.path.join("missing", "g")
        message = assert_error_line(run_main(["construct", "--spec", bad + tail]), "parse")
        assert message.startswith(f"cannot read spec document {bad + tail!r}: ")
        message = assert_error_line(run_main(["construct", "--spec", "cantor",
                                              "--out", missing + tail]), "parse")
        assert message == (f"cannot write output file {missing + tail!r}: "
                           f"[Errno 2] No such file or directory: {missing!r}")

    def test_the_path_is_spelled_as_pathlib_spells_it(self):
        rng = random.Random(31)
        parts = ["/", "//", ".", "..", "a", "b.json", "", ".a", "a.", " ", "\\", "é"]
        for _ in range(5000):
            raw = "".join(rng.choice(parts) for _ in range(rng.randint(0, 8)))
            assert cli._fs_path(raw) == str(PurePosixPath(raw)), raw


HUGE_BASE = "svc:1" + "0" * 1500


class TestOutputIntegerLimit:
    @pytest.mark.parametrize("argv", [
        ["construct", "--spec", HUGE_BASE],
        ["construct", "--spec", HUGE_BASE, "--format", "json"],
        ["analyze", "--spec", HUGE_BASE, "--depth", "3"],
        ["analyze", "--spec", HUGE_BASE, "--depth", "3", "--format", "json"],
        ["construct", "--spec", "svc:1" + "0" * 3000],
        ["analyze", "--spec", "svc:1" + "0" * 3000, "--format", "json"],
    ], ids=["construct-text", "construct-json", "analyze-text", "analyze-json",
            "construct-3001", "analyze-3001"])
    def test_an_output_integer_over_the_limit_is_refused(self, argv):
        message = assert_error_line(run_main(argv), "resource")
        match = re.fullmatch(
            r"output fraction holds a (\d+)-digit integer, over the limit of (\d+) digits",
            message)
        assert match and int(match[1]) > int(match[2]) == sys.get_int_max_str_digits()
        assert "0" * 50 not in message

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_construct_refuses_at_the_first_stage_it_cannot_write(self, monkeypatch, fmt):
        # Stage 2 of this spec lies over n**2, an 8000-digit integer; the
        # stages after it are never built. Round k calls the rule with
        # c = 2**(k-1) (the depth check's call has c = 1 too), so the c
        # values the rule sees are the rounds taken.
        seen = set()
        real_child_rule = constructions._child_rule

        def watched_child_rule(spec):
            factor, rule = real_child_rule(spec)

            def watched(c, length):
                seen.add(c)
                return rule(c, length)
            return factor, watched

        monkeypatch.setattr(constructions, "_child_rule", watched_child_rule)
        doc = '{"type": "subdivision", "n": %s, "removed": [1, 3, 5, 7]}' % ("9" * 4000)
        result = run_main(["construct", "--spec", doc, "--depth", "6", "--format", fmt])
        assert result[0] == 4
        assert assert_error_line(result, "resource") == (
            "output fraction holds a 8000-digit integer, "
            f"over the limit of {sys.get_int_max_str_digits()} digits")
        assert seen == {1, 2}

    def test_render_and_member_still_answer(self):
        assert run_main(["render", "--spec", HUGE_BASE, "--depth", "3"])[0] == 0
        code, out, err, _ = run_main(["member", "--spec", HUGE_BASE, "--x", "1/3",
                                      "--cap", "20"])
        assert (code, err) == (0, "") and "undecided through depth 20" in out

    def test_digit_count(self):
        for k in range(1200):
            for n in (10 ** k - 1, 10 ** k, 10 ** k + 1, 2 ** k, -(3 ** k)):
                assert _digit_count(n) == len(str(abs(n)))


LONG_TEXT = "k" * 5000
LONG_INT = "3" * 4000
BIG = 10 ** 5000


class TestEchoedValues:
    @pytest.mark.parametrize("doc, message", [
        ('{"type": "proportional", "p": "1/3", "extra": 1}',
         "unknown field(s) ['extra'] for type 'proportional'"),
        ('{"type": "mystery"}',
         "unknown construction type 'mystery'; expected one of "
         "['power', 'proportional', 'subdivision']"),
        ('{"type": "power", "m": "2"}', "power base must be an integer, got '2'"),
        ('{"type": "proportional", "p": 0.5}',
         "field 'p' must be a fraction string, got 0.5"),
        ('{"type": "subdivision", "n": 4, "removed": 2}',
         "field 'removed' must be a list of integers, got 2"),
        ('{"type": "subdivision", "n": 4, "removed": ["2"]}',
         "removed index '2' is not an integer"),
        ('{"type": "power", "m": 1}', "power base must be at least 2, got 1"),
        ('{"type": "subdivision", "n": 2, "removed": [1]}',
         "part count must be at least 3, got 2"),
        ('{"type": "subdivision", "n": 4, "removed": [4]}',
         "removed index 4 outside the part range 0..3"),
        ('{"type": "proportional", "p": "5/4"}',
         "removal proportion must lie in (0, 1), got 5/4"),
    ])
    def test_a_short_value_is_echoed_whole(self, doc, message):
        assert assert_error_line(run_main(["construct", "--spec", doc])) == message

    @pytest.mark.parametrize("doc", [
        '{"type": "proportional", "p": "1/3", "%s": 1}' % LONG_TEXT,
        '{"type": "%s"}' % LONG_TEXT,
        '{"type": "power", "m": "%s"}' % LONG_TEXT,
        '{"type": "proportional", "p": %s}' % LONG_INT,
        '{"type": "subdivision", "n": 4, "removed": "%s"}' % LONG_TEXT,
        '{"type": "subdivision", "n": 4, "removed": ["%s"]}' % LONG_TEXT,
        '{"type": "power", "m": -%s}' % LONG_INT,
        '{"type": "subdivision", "n": -%s, "removed": [1]}' % LONG_INT,
        '{"type": "subdivision", "n": 4, "removed": [%s]}' % LONG_INT,
        '{"type": "subdivision", "n": %s, "removed": [-1]}' % LONG_INT,
        '{"type": "proportional", "p": "%s"}' % LONG_INT,
    ], ids=["field", "type", "m", "p", "removed", "removed-item", "power-base",
            "part-count", "index", "index-range", "proportion"])
    def test_a_long_value_in_a_spec_document_is_echoed_in_part(self, doc):
        message = assert_error_line(run_main(["construct", "--spec", doc]))
        assert re.search(r"\.\.\. \((4\d\d\d|5\d\d\d) characters\)", message)

    @pytest.mark.parametrize("argv", [
        ["member", "--spec", "cantor", "--x", LONG_INT],
        ["cantorfun", "--x", LONG_INT],
        ["cantorfun", "--x", "1/" + "2" * 4000],
        ["render", "--spec", "cantor", "--width", "-" + LONG_INT],
        ["render", "--spec", "cantor", "--row-height", "-" + LONG_INT],
    ], ids=["member", "cantorfun-range", "cantorfun-not-in-set", "width", "row-height"])
    def test_a_long_number_in_a_domain_or_render_check_is_echoed_in_part(self, argv):
        assert "characters)" in assert_error_line(run_main(argv))

    @pytest.mark.parametrize("argv, message", [
        (["render", "--spec", "cantor", "--depth", "20", "--row-height", "1" + "0" * 4299],
         f"row height must be at most 2147483647, got 1{'0' * 99}... (4300 characters)"),
        (["render", "--spec", "cantor", "--depth", "17", "--width", "1" + "0" * 300],
         f"render width must be at most 2147483647, got 1{'0' * 99}... (301 characters)"),
    ], ids=["row-height", "width"])
    def test_a_render_size_over_the_pixel_ceiling_is_refused(self, argv, message):
        assert assert_error_line(run_main(argv), "validation") == message

    def test_a_render_at_the_pixel_ceiling_is_drawn(self):
        # 2**18 - 1 rects over rows 0..17, the most a render draws.
        code, out, err, _ = run_main(["render", "--spec", "cantor", "--depth", "17",
                                      "--width", "2147483647"])
        assert (code, err) == (0, "") and out.count("<rect ") == 2 ** 18

    @pytest.mark.parametrize("value", ["é" * 100, "\\" * 100, "\U0001F600" * 100, '"' * 100],
                             ids=["accent", "backslash", "astral", "quote"])
    def test_a_value_that_escapes_long_in_json_is_cut_sooner(self, value):
        for argv in (["construct", "--spec", value],
                     ["member", "--spec", "cantor", "--x", value],
                     ["construct", "--spec", "cantor", "--format", value],
                     ["construct", "--spec", "cantor", value]):
            assert "... (100 characters)" in assert_error_line(run_main(argv), "parse")

    @pytest.mark.parametrize("call, error", [
        (lambda: Proportional(Fraction(BIG)), ValidationError),
        (lambda: Power(-BIG), ValidationError),
        (lambda: Subdivision(-BIG, {1}), ValidationError),
        (lambda: Subdivision(3, {BIG}), ValidationError),
        (lambda: ExpansionSpec(3, {BIG}), ValidationError),
        (lambda: ExpansionSpec(-BIG, {0}), ValidationError),
        (lambda: DigitExpansion(3, (), (BIG,)), ValidationError),
        (lambda: allowed_expansion(CANTOR_TERNARY, Fraction(BIG)), DomainError),
        (lambda: limit_membership(parse_spec("cantor"), Fraction(BIG)), DomainError),
        (lambda: expansion_membership(CANTOR_TERNARY, Fraction(BIG, 3)), DomainError),
        (lambda: cantor_function(Fraction(BIG // 2 + 1, BIG)), DomainError),
        (lambda: RenderConfig(width_px=-BIG), ValidationError),
        (lambda: RenderConfig(row_height_px=BIG), ValidationError),
        (lambda: iterate(parse_spec("cantor"), BIG), ResourceLimitError),
        (lambda: characterization_equivalence_check(parse_spec("cantor"), CANTOR_TERNARY, BIG),
         ResourceLimitError),
        (lambda: Power([BIG]), ValidationError),
        (lambda: ClosedInterval(BIG, 0), ValidationError),
        (lambda: IntervalUnion((ClosedInterval(0, BIG), ClosedInterval(1, 2))), ValidationError),
    ], ids=["proportion", "power-base", "part-count", "removed-index", "expansion-digit",
            "expansion-base", "period-digit", "allowed-expansion", "limit-membership",
            "expansion-membership", "cantor-function", "render-width", "render-row-height",
            "iterate-depth", "characterization-depth", "power-base-list",
            "interval", "union"])
    def test_a_library_call_with_a_number_too_long_to_write_raises_its_error(self, call, error):
        # The CLI refuses such numbers while parsing; a library caller can pass them.
        with pytest.raises(error) as exc:
            call()
        message = str(exc.value)
        assert len(message.encode()) < 512 and "0" * 50 not in message
        assert re.search(r"<\d+-digit integer>|<list too long to write>", message)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Subdivision(4, 2), ValidationError, "removed indices must be iterable, got 2"),
        (lambda: ExpansionSpec(3, 5), ValidationError, "allowed digits must be iterable, got 5"),
        (lambda: DigitExpansion(3, None, (1,)), ValidationError,
         "preperiod must be iterable, got None"),
        (lambda: DigitExpansion(3, (), 1), ValidationError, "period must be iterable, got 1"),
        (lambda: parse_fraction(None), ParseError, "a fraction must be text, got None"),
        (lambda: parse_fraction(b"1/3"), ParseError, "a fraction must be text, got b'1/3'"),
        (lambda: parse_spec(3), ParseError, "a spec must be text, got 3"),
        (lambda: parse_spec(["x" * 200]), ParseError,
         f"a spec must be text, got ['{'x' * 98}... (204 characters)"),
        (lambda: limit_membership(parse_spec("cantor"), None), ValidationError,
         "query point must be a rational number, got None"),
        (lambda: stage_membership(parse_spec("cantor"), None, 3), ValidationError,
         "query point must be a rational number, got None"),
        (lambda: cantor_function("x"), ValidationError,
         "query point must be a rational number, got 'x'"),
        (lambda: cantor_function(float("inf")), ValidationError,
         "query point must be a rational number, got inf"),
        (lambda: ClosedInterval(None, 1), ValidationError,
         "interval endpoint must be a rational number, got None"),
        (lambda: IntervalUnion(3), ValidationError, "union members must be iterable, got 3"),
        (lambda: IntervalUnion([(0, 1), (2, 3)]), ValidationError,
         "union member (0, 1) is not a ClosedInterval"),
        # A bool is not read as 0 or 1, as no integer field reads one.
        (lambda: ClosedInterval(False, True), ValidationError,
         "interval endpoint must be a rational number, got False"),
        (lambda: limit_membership(parse_spec("cantor"), True), ValidationError,
         "query point must be a rational number, got True"),
        (lambda: stage_membership(parse_spec("cantor"), True, 3), ValidationError,
         "query point must be a rational number, got True"),
        (lambda: cantor_function(True), ValidationError,
         "query point must be a rational number, got True"),
        (lambda: Proportional(True), ValidationError,
         "removal proportion must be a rational number, got True"),
    ], ids=["removed", "allowed", "preperiod", "period", "fraction", "fraction-bytes", "spec",
            "spec-long", "limit-membership", "stage-membership", "cantor-function-text",
            "cantor-function-inf", "interval", "union", "union-member", "interval-bool",
            "limit-membership-bool", "stage-membership-bool", "cantor-function-bool",
            "proportion-bool"])
    def test_a_library_call_with_a_value_of_the_wrong_kind_raises_its_error(self, call, error,
                                                                            message):
        # Only a library caller can pass these: the command line reads text.
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message

    def test_a_long_interval_endpoint_is_echoed_in_part(self):
        long = 3 ** 4000  # 1,909 digits, under the int-string limit
        # A union refusal cuts each interval as one value, "[lo, hi]".
        for call, shown in (
                (lambda: ClosedInterval(long, 0), 1909),
                (lambda: IntervalUnion((ClosedInterval(0, long), ClosedInterval(1, 2))), 1914),
                (lambda: IntervalUnion((ClosedInterval(long, long + 1),
                                        ClosedInterval(long, long + 2))), 3822)):
            with pytest.raises(ValidationError) as exc:
                call()
            message = str(exc.value)
            assert len(message.encode()) < 512 and f"... ({shown} characters)" in message
        # Short endpoints are written whole, as before.
        with pytest.raises(ValidationError) as exc:
            ClosedInterval(Fraction(1, 2), 0)
        assert str(exc.value) == "interval endpoints out of order: [1/2, 0]"
        with pytest.raises(ValidationError) as exc:
            IntervalUnion((ClosedInterval(0, 1), ClosedInterval(Fraction(1, 2), 2)))
        assert str(exc.value) == ("intervals overlap, touch, or are out of order: "
                                  "[0, 1] before [1/2, 2]")

    def test_an_ambiguous_option_is_echoed_in_part(self):
        message = assert_error_line(run_main(["construct", "--spec", "cantor",
                                              "--=" + "z" * 100_000]), "parse")
        assert "(100003 characters)" in message
        message = assert_error_line(run_main(["construct", "--spec", "cantor", "--=1"]))
        assert message.startswith("ambiguous option: --=1 could match --")

    @pytest.mark.parametrize("name", ["a\x00b", "\ud800", "d" * 100_000],
                             ids=["nul", "surrogate", "long"])
    def test_an_out_path_that_cannot_be_written_is_a_json_line(self, name, tmp_path):
        argv = ["construct", "--spec", "cantor", "--out", str(tmp_path / name)]
        assert "cannot write output file" in assert_error_line(run_main(argv), "parse")

    def test_a_spec_file_that_is_not_utf8_is_a_json_line(self, tmp_path):
        doc = tmp_path / "spec.bin"
        doc.write_bytes(b"\xff\xfe\x00")
        message = assert_error_line(run_main(["construct", "--spec", str(doc)]), "parse")
        assert message.startswith("cannot read spec document ")
        assert "'utf-8' codec can't decode byte 0xff" in message


# Strategies for the fuzz below. Long integers come as a repeated chunk, so a
# 5,000-digit draw costs hypothesis a few bytes of its buffer.
def _mostly(good, bad):
    """good nine times in ten, else bad."""
    return st.integers(0, 9).flatmap(lambda i: good if i else bad)


def _digits(low: int, high: int):
    return st.builds(lambda head, chunk, k: head + (chunk * k)[:k - 1],
                     st.sampled_from("123456789"), st.text("0123456789", min_size=1, max_size=4),
                     st.integers(low, high))


_signs = _mostly(st.just(""), st.just("-"))
SMALL_INTS = st.integers(-3, 12).map(str) | st.builds(str.__add__, _signs, _digits(1, 40))
LONG_INTS = st.builds(str.__add__, _signs, _digits(4000, 5000))
HOSTILE = st.text(max_size=20) | st.builds(
    lambda piece, k: piece * k, st.text(min_size=1, max_size=3), st.integers(90, 5000))


def _not_int(text: str) -> bool:
    # The CLI's rule for an integer option: ASCII digits, so `1_0` and other
    # scripts' digits are hostile too.
    return not _INT_RE.fullmatch(text.strip())


# Hostile values for integer flags must not parse: "29" as a depth would ask
# for 2**29 intervals.
NOT_INT = HOSTILE.filter(_not_int)
UNIT_FRACTIONS = st.fractions(0, 1, max_denominator=1000).map(
    lambda x: f"{x.numerator}/{x.denominator}")


# Denominators that the grammar or the value refuses: all zeros, or digits
# of other scripts, which `int()` would read.
ODD_DENOMINATORS = st.text("0", min_size=1, max_size=4) | st.text(
    "\u0660\u0661\u0663\u0966\u0969\uff13", min_size=1, max_size=4)


def _fractions(ints):
    denominators = _mostly(ints, ODD_DENOMINATORS)
    return _mostly(UNIT_FRACTIONS | ints | st.builds(lambda a, b: f"{a}/{b}", ints, denominators),
                   HOSTILE)


def _json_values(ints):
    return st.one_of(
        ints, st.sampled_from(["null", "true", "0.5", "{}"]),
        st.one_of(HOSTILE, _fractions(ints)).map(json.dumps),
        st.lists(ints, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"))


@st.composite
def spec_texts(draw, long_ints: bool):
    """Presets, svc forms, hostile text and spec documents, mostly well formed.

    With long_ints, integers run up to 5,000 digits, and a subdivision with
    such an n removes at most one index.
    """
    ints = st.one_of(SMALL_INTS, LONG_INTS) if long_ints else SMALL_INTS
    form = draw(st.sampled_from(["preset", "svc", "text", "document"]))
    if form == "preset":
        return draw(st.sampled_from(SWEEP_SPECS))
    if form == "svc":
        return "svc:" + draw(_mostly(ints, NOT_INT))
    if form == "text":
        return draw(HOSTILE)
    kind = draw(_mostly(st.sampled_from(["proportional", "power", "subdivision"]), HOSTILE))
    fields = {"type": json.dumps(kind)}
    if kind == "proportional":
        fields["p"] = draw(_mostly(_fractions(ints).map(json.dumps), _json_values(ints)))
    elif kind == "power":
        fields["m"] = draw(_mostly(ints, _json_values(ints)))
    elif kind == "subdivision":
        fields["n"] = n = draw(_mostly(ints, _json_values(ints)))
        index = _mostly(st.integers(-1, 12).map(str) | ints,
                        st.sampled_from(["true", "[1]", "[[2], 3]"]))
        indices = st.lists(index, max_size=1 if len(n) > 40 else 4)
        fields["removed"] = draw(_mostly(indices.map(lambda xs: "[" + ", ".join(xs) + "]"),
                                         _json_values(SMALL_INTS)))
    if not draw(st.integers(0, 9)):
        fields[json.dumps(draw(HOSTILE))[1:-1]] = draw(_json_values(ints))
    if not draw(st.integers(0, 9)):
        del fields[draw(st.sampled_from(sorted(fields)))]
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"


FLAGS = {
    "construct": ("--depth", "--format", "--out"),
    "analyze": ("--depth", "--format", "--out"),
    "member": ("--cap", "--format", "--out"),
    "render": ("--depth", "--width", "--row-height", "--label", "--out"),
    "cantorfun": ("--out",),
}


@st.composite
def fuzz_argv(draw):
    """One command line; depths stay <= 6 or run to 5,000 digits, which every
    command refuses at once, and caps stay <= 200, so every run is bounded.

    An --out value is a bare file name, which the test puts in a fresh directory.
    """
    command = draw(st.sampled_from(sorted(FLAGS)))
    # The membership walks' state grows with the spec's integers (a cap-200
    # walk over a 1,000-digit base takes about a second), so member draws
    # short ones.
    values = {
        "--spec": spec_texts(long_ints=command != "member"),
        "--x": _fractions(SMALL_INTS | LONG_INTS),
        "--depth": _mostly(st.integers(-1, 6).map(str), LONG_INTS | NOT_INT),
        "--cap": _mostly(st.integers(-1, 200).map(str), NOT_INT),
        "--format": _mostly(st.sampled_from(["text", "json"]), HOSTILE),
        "--width": _mostly(st.sampled_from(["100", "800"]) | SMALL_INTS, LONG_INTS | NOT_INT),
        "--row-height": _mostly(st.sampled_from(["8", "24"]), SMALL_INTS | LONG_INTS | NOT_INT),
        "--out": HOSTILE.filter(lambda name: "/" not in name),
    }
    argv = [command if draw(st.integers(0, 9)) else draw(HOSTILE)]
    required = {"member": ["--spec", "--x"], "cantorfun": ["--x"]}.get(command, ["--spec"])
    for flag in required + draw(st.lists(st.sampled_from(FLAGS[command]), unique=True)):
        if flag == "--label":
            argv.append(flag)
        elif flag not in required or draw(st.integers(0, 9)):
            argv += [flag, draw(values[flag])]
    if not draw(st.integers(0, 9)):
        # A drawn "--d=29" would abbreviate --depth, so extras start otherwise.
        argv.append(draw(st.sampled_from(["--help", "--=z", "--depth"])
                         | HOSTILE.filter(lambda text: not text.startswith("-"))))
    return argv


@settings(max_examples=200, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(fuzz_argv())
# A row height that would make the document's height too long to write, and a
# depth too long to write whole in one error line.
@example(["render", "--spec", "cantor", "--depth", "1", "--row-height", str(9 * 10 ** 4299)])
@example(["construct", "--spec", "cantor", "--depth", str(10 ** 249)])
# A zero denominator written with two zeros.
@example(["member", "--spec", "cantor", "--x", "1/00"])
def test_fuzz_every_run_keeps_the_error_contract(argv):
    with tempfile.TemporaryDirectory() as out_dir:
        argv = [os.path.join(out_dir, arg) if flag == "--out" else arg
                for flag, arg in zip([None, *argv], argv)]
        code, out, err, _ = result = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    if code:
        assert_error_line(result)
    else:
        assert err == ""
