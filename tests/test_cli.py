import json
import random
import time
from fractions import Fraction

import pytest

from cantorkit import (
    CANTOR_TERNARY,
    ExpansionSpec,
    ParseError,
    Power,
    Proportional,
    RenderConfig,
    ResourceLimitError,
    Subdivision,
    ValidationError,
    characterization_equivalence_check,
    emit_spec,
    fraction_str,
    iterate,
    parse_fraction,
    parse_spec,
    render_svg,
)
from cantorkit.cli import cmd_analyze, cmd_construct, cmd_member, main


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
        for bad in ("", "one third", "1.5", "1/3/5", "1/ 3", "0x3", "1/0"):
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
            '{"type": "power", "m": "2"}',
            '{"type": "power", "m": true}',
            '{"type": "subdivision", "n": 4, "removed": 2}',
            '{"type": "subdivision", "n": 4, "removed": ["2"]}',
            '{"type": "subdivision", "removed": [2]}',
            '[1, 2]',
            '{"type"',
            '{"type": ' + "[" * 100_000,
        ]
        for doc in bad_docs:
            with pytest.raises(ParseError):
                parse_spec(doc)

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

    def test_text(self):
        text = cmd_member(parse_spec("ac"), Fraction(1, 2))
        assert "member (endpoint from stage 1 on)" in text
        assert "stage check (depth 20): member" in text


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

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RenderConfig(width_px=50)
        with pytest.raises(ValidationError):
            RenderConfig(row_height_px=4)
        with pytest.raises(ValidationError):
            RenderConfig(depth=-1)


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["construct", "--spec", "cantor", "--depth", "1"]) == 0
        out = capsys.readouterr()
        assert out.out == "[0/1, 1/1]\n[0/1, 1/3] ∪ [2/3, 1/1]\n"
        assert out.err == ""

    def test_parse_failure(self, capsys):
        assert main(["construct", "--spec", "not-a-preset"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse"
        assert "not-a-preset" in err["message"]

    def test_validation_failure(self, capsys):
        doc = '{"type": "proportional", "p": "5/4"}'
        assert main(["construct", "--spec", doc]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"

    def test_domain_failure(self, capsys):
        assert main(["member", "--spec", "cantor", "--x", "3/2"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain"

    def test_cantorfun_domain_failure(self, capsys):
        assert main(["cantorfun", "--x", "1/2"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain"
        assert "position 1" in err["message"]

    def test_resource_failure(self, capsys):
        assert main(["construct", "--spec", "cantor", "--depth", "64"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "resource"

    def test_analyze_is_refused_where_construct_is(self, capsys):
        assert main(["analyze", "--spec", "cantor", "--depth", "31"]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "resource", "message": "stage 31 could hold up to 2**31 "
                       "intervals, over the limit of 1073741824"}
        assert main(["analyze", "--spec", "cantor", "--depth", "-1"]) == 2
        assert json.loads(capsys.readouterr().err)["message"] == "depth must be nonnegative"

    @pytest.mark.parametrize("argv, message", [
        (["construct", "--spec", '{"type":"subdivision","n":5,"removed":[1,3]}',
          "--depth", "100000000"], "stage 100000000 could hold up to 3**100000000 intervals"),
        (["render", "--spec", '{"type":"subdivision","n":5,"removed":[1,3]}',
          "--depth", "100000000"], "stage 100000000 could hold up to 3**100000000 intervals"),
        (["analyze", "--spec", "c14", "--depth", "1000000000"],
         "stage 1000000000 could hold up to 2**1000000000 intervals"),
        (["render", "--spec", "c14", "--depth", "1000000000"],
         "stage 1000000000 could hold up to 2**1000000000 intervals"),
    ])
    def test_a_huge_depth_is_refused_at_once(self, argv, message, capsys):
        started = time.perf_counter()
        assert main(argv) == 4
        assert time.perf_counter() - started < 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "resource", "message": f"{message}, over the limit of 1073741824"}

    @pytest.mark.parametrize("es, message", [
        (CANTOR_TERNARY, "digit enumeration would build up to 2**1000000000 intervals"),
        (ExpansionSpec(3, frozenset({0})), "stage 1000000000 could hold up to 2**1000000000 intervals"),
    ])
    def test_a_huge_characterization_depth_is_refused_at_once(self, es, message):
        started = time.perf_counter()
        with pytest.raises(ResourceLimitError) as exc:
            characterization_equivalence_check(parse_spec("cantor"), es, 10 ** 9)
        assert time.perf_counter() - started < 2
        assert str(exc.value) == f"{message}, over the limit of 1073741824"

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
