"""Byte identity of every public output in a fixed sweep.

Each case is one output: a command-line request through `cantorkit.cli.main`
(its exit status, stdout and stderr) or the `repr` of one library call. The
sha256 of each is kept in `output_digests.json` beside this file, one entry
per case, so a failure names every output that changed. The sweep covers
every preset, svc:2-svc:7, three subdivisions with edge points and p = 2/5:
`construct` text and JSON at depths 0-6, `analyze` text and JSON, `render`
with and without labels, `member` text and JSON on fixed points, `iterate`,
the characterization and the characterization check; and `cantorfun` on
fixed points.

Standard library only. Run it as a script to check the outputs against the
fixture (exit 1 naming each changed case), or with `--write` to write the
fixture from the outputs of the code it runs on:

    python tests/test_output_digests.py [--write]
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cantorkit import (  # noqa: E402
    CANTOR_TERNARY,
    Characterized,
    ExpansionSpec,
    characterization_equivalence_check,
    expansion_characterization,
    iterate,
    parse_spec,
)
from cantorkit.cli import main  # noqa: E402

FIXTURE = Path(__file__).resolve().with_name("output_digests.json")

SPECS = [
    "cantor", "c12", "c14", "c34", "ac", "ac-reflected", "ac5a", "ac5b",
    *(f"svc:{m}" for m in range(2, 8)),
    '{"type": "subdivision", "n": 5, "removed": [0, 2]}',
    '{"type": "subdivision", "n": 6, "removed": [0, 5]}',
    '{"type": "subdivision", "n": 5, "removed": [0, 2, 4]}',
    '{"type": "proportional", "p": "2/5"}',
]
MEMBER_POINTS = ["0", "1", "1/4", "1/3", "1/2", "3/4", "7/9", "1/10", "2/7"]
CANTORFUN_POINTS = ["0", "1", "1/4", "1/3", "2/3", "1/2", "1/9", "3/10", "5/13"]
OTHER_DIGITS = ExpansionSpec(4, frozenset({0, 3}))


def _request(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    return f"exit {status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def outputs():
    """(case name, output text) for every case of the sweep."""
    for text in SPECS:
        requests = [["construct", "--spec", text, "--depth", str(depth), "--format", fmt]
                    for depth in range(7) for fmt in ("text", "json")]
        requests += [["analyze", "--spec", text, "--depth", "6", "--format", fmt]
                     for fmt in ("text", "json")]
        requests += [["render", "--spec", text, "--depth", "5", *label]
                     for label in ([], ["--label"])]
        requests += [["member", "--spec", text, "--x", x, "--cap", "200", "--format", fmt]
                     for x in MEMBER_POINTS for fmt in ("text", "json")]
        for argv in requests:
            yield " ".join(argv), _request(argv)
        spec = parse_spec(text)
        yield f"iterate({text}, 5)", repr(iterate(spec, 5))
        verdict = expansion_characterization(spec)
        yield f"expansion_characterization({text})", repr(verdict)
        checked = [CANTOR_TERNARY, OTHER_DIGITS]
        if isinstance(verdict, Characterized) and verdict.spec not in checked:
            checked.append(verdict.spec)
        for es in checked:
            yield (f"characterization_equivalence_check({text}, {es!r}, 5)",
                   repr(characterization_equivalence_check(spec, es, 5)))
    for x in CANTORFUN_POINTS:
        argv = ["cantorfun", "--x", x]
        yield " ".join(argv), _request(argv)


def digests() -> dict[str, str]:
    found: dict[str, str] = {}
    for name, text in outputs():
        assert name not in found, f"case {name!r} appears twice"
        found[name] = hashlib.sha256(text.encode()).hexdigest()
    return found


def changed_cases(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Every case whose digest differs, is new or is gone, each with what happened."""
    return ([f"changed: {n}" for n in want if n in got and got[n] != want[n]]
            + [f"new: {n}" for n in got if n not in want]
            + [f"gone: {n}" for n in want if n not in got])


def test_every_output_matches_its_digest():
    want = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert changed_cases(digests(), want) == []


def test_a_changed_new_or_gone_case_is_named():
    want = {"a": "1", "b": "2", "c": "3"}
    got = {"a": "1", "b": "x", "d": "4"}
    assert changed_cases(got, want) == ["changed: b", "new: d", "gone: c"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        FIXTURE.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    else:
        faults = changed_cases(digests(), json.loads(FIXTURE.read_text(encoding="utf-8")))
        print("\n".join(faults) or "every output matches its digest")
        sys.exit(1 if faults else 0)
