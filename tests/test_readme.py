"""The README's library tour runs, and each comment in it is the `repr` of
what its line returns.

The tour is the first `python` block under "## Library tour". Its
statements run in order in one namespace; an expression statement must end
in a comment equal to the `repr` of its value, and every comment must
belong to one.
"""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_block(text: str) -> str:
    """The first python block after the library tour heading."""
    after = text.split("\n## Library tour\n", 1)[1]
    return after.split("```python\n", 1)[1].split("\n```", 1)[0] + "\n"


def mismatched_comments(source: str) -> list[str]:
    """Run `source`; each expression whose comment is not its repr, or a comment with no expression."""
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    faults = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            got = repr(eval(code, namespace))
            want = comments.pop(node.end_lineno, None)
            if got != want:
                faults.append(f"{code}  # {want} (returns {got})")
        else:
            exec(code, namespace)
    faults += [f"line {n}: comment on no expression: {c}" for n, c in comments.items()]
    return faults


def test_every_comment_in_the_tour_is_the_repr_of_its_line():
    assert mismatched_comments(tour_block(README.read_text(encoding="utf-8"))) == []


def test_the_check_sees_a_wrong_missing_or_stray_comment():
    source = "x = 2  # two\nx + 1  # 3\nx * 2  # 5\nx - 1\n"
    assert mismatched_comments(source) == [
        "x * 2  # 5 (returns 4)",
        "x - 1  # None (returns 1)",
        "line 1: comment on no expression: two",
    ]
