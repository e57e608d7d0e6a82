"""The benchmark's checks catch wrong answers: run `python3 bench/test_checks.py`.

Each test takes a correct cantorkit output, confirms the check passes it,
then breaks it the way a faulty optimisation might (a flipped verdict, a
dropped component, a mis-painted pixel) and confirms the check refuses it.
"""

import json
import re
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cantorkit  # noqa: E402
from cantorkit import cli as ck_cli  # noqa: E402

import oracle  # noqa: E402
import workload_cli  # noqa: E402
import workload_queries  # noqa: E402
from checks import check_analyze, check_construct_json, check_stages  # noqa: E402
from ops import FAILED, OK  # noqa: E402


class DroppedComponent(unittest.TestCase):
    def setUp(self):
        self.own = oracle.spec_of("ac")
        self.grid = oracle.grid_stages(self.own, 5)

    def test_iterate_output(self):
        stages = cantorkit.iterate(cantorkit.parse_spec("ac"), 5)
        self.assertEqual(check_stages(stages, self.own, self.grid), OK)
        last = stages[-1]
        kept = last.intervals.intervals[:7] + last.intervals.intervals[8:]
        broken = stages[:-1] + [cantorkit.Stage(last.index, cantorkit.IntervalUnion(kept))]
        self.assertNotEqual(check_stages(broken, self.own, self.grid), OK)

    def test_construct_json(self):
        text = ck_cli.cmd_construct(cantorkit.parse_spec("ac"), 5, "json")
        self.assertEqual(check_construct_json(text, self.grid), OK)
        doc = json.loads(text)
        del doc[4][2]
        self.assertNotEqual(check_construct_json(json.dumps(doc), self.grid), OK)

    def test_analyze_census(self):
        spec = cantorkit.parse_spec("svc:4")
        grid = oracle.grid_stages(("power", 4), 6)
        text = ck_cli.cmd_analyze(spec, 6, "json")
        self.assertEqual(check_analyze(text, "json", ("power", 4), grid), OK)
        doc = json.loads(text)
        doc["scale_census"][0]["count"] -= 1
        self.assertNotEqual(check_analyze(json.dumps(doc), "json", ("power", 4), grid), OK)


class FlippedVerdict(unittest.TestCase):
    def test_query_answers(self):
        ops = workload_queries.make_ops(workload_queries.make_inputs(7))
        flips = {"limit_membership": lambda v: cantorkit.MemberByCycle(1)
                 if cantorkit.verdict_is_member(v) is not True else cantorkit.ExcludedAtDepth(1),
                 "stage_membership": lambda v: not v,
                 "expansion_membership": lambda v: not v}
        flipped = 0
        for op in ops:
            fn = op.name.split("(")[0]
            if fn not in flips:
                continue
            out = op.run()
            self.assertEqual(op.check(out), OK, op.name)
            self.assertNotEqual(op.check(flips[fn](out)), OK, op.name)
            flipped += 1
        self.assertGreater(flipped, 300)

    def test_cli_member(self):
        reqs = [r for r in workload_cli.make_inputs(3) if r["expect"] == "member"]
        ops = workload_cli.make_ops(reqs, workload_cli.run_in_process)
        for op in ops:
            code, stdout, stderr, written = op.run()
            self.assertEqual(op.check((code, stdout, stderr, written)), OK, op.name)
            if stdout.startswith("{"):
                doc = json.loads(stdout)
                doc["member"] = not doc["member"]
                flipped = json.dumps(doc)
            else:
                flipped = (stdout.replace("not a member", "MEMBER")
                           .replace("member", "not a member").replace("MEMBER", "member"))
            self.assertNotEqual(op.check((code, flipped, stderr, written)), OK, op.name)

    def test_error_contract(self):
        judge = workload_cli._error({2}, {"parse"})
        self.assertEqual(judge((2, "", '{"error": "parse", "message": "x"}\n', None)), OK)
        self.assertEqual(judge((2, "", "usage: cantorkit ...\n", None)), FAILED)
        self.assertEqual(judge((1, "", "Traceback ...\n", None)), FAILED)
        self.assertNotIn(judge((3, "", '{"error": "domain", "message": "x"}\n', None)),
                         (OK, FAILED))


class MisPaintedPixel(unittest.TestCase):
    def setUp(self):
        self.grid = oracle.grid_stages(oracle.spec_of("cantor"), 9)
        self.svg = cantorkit.render_svg(cantorkit.parse_spec("cantor"),
                                        cantorkit.RenderConfig(depth=9, label=True))

    def test_correct_output_passes(self):
        self.assertIsNone(oracle.svg_pixel_mismatch(self.svg, self.grid))

    def test_shifted_rect(self):
        m = list(re.finditer(r'<rect x="(\d+)"', self.svg))[1]  # stage 1, [0, 1/3]
        broken = self.svg[:m.start(1)] + str(int(m.group(1)) + 1) + self.svg[m.end(1):]
        self.assertIsNotNone(oracle.svg_pixel_mismatch(broken, self.grid))

    def test_extra_pixel(self):
        broken = self.svg.replace("</g>", '<rect x="15" y="130" width="1" height="18"/>\n</g>', 1)
        self.assertIsNotNone(oracle.svg_pixel_mismatch(broken, self.grid))

    def test_merged_rects_still_pass(self):
        """A renderer that paints the same pixels with fewer rects is still correct."""
        rows, _ = oracle.svg_rows(self.svg)
        ys = sorted({int(y) for y in re.findall(r'<rect x="\d+" y="(\d+)"', self.svg)})
        rects = "".join(f'<rect x="{a}" y="{y}" width="{b - a}" height="18"/>\n'
                        for y, row in zip(ys, rows) for a, b in row)
        merged = re.sub(r'<rect x=.*/>\n', "", self.svg).replace(
            '<g fill="#1f2430">\n', '<g fill="#1f2430">\n' + rects)
        self.assertLess(merged.count("<rect"), self.svg.count("<rect"))
        self.assertIsNone(oracle.svg_pixel_mismatch(merged, self.grid))


class OwnAnswers(unittest.TestCase):
    def test_descent_matches_closed_stages(self):
        for text in ("cantor", "c14", "ac5b", "svc:4"):
            own = oracle.spec_of(text)
            grid = oracle.grid_stages(own, 6)
            for num in range(0, 97):
                x = Fraction(num, 96)
                survives = oracle.descend(own, x, 6)[0] != "excluded"
                self.assertEqual(survives, oracle.covers(grid[6].pairs, grid[6].den, x), (text, x))

    def test_cantor_value(self):
        self.assertEqual(oracle.cantor_value(Fraction(1, 3)), Fraction(1, 2))
        self.assertEqual(oracle.cantor_value(Fraction(1, 4)), Fraction(1, 3))
        self.assertIsNone(oracle.cantor_value(Fraction(1, 2)))


if __name__ == "__main__":
    unittest.main()
