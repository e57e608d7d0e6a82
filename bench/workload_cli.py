"""`cli` workload: what the command line does with a request.

Forty small requests across all five subcommands, in text and JSON, with
`--out` to a file, a spec given as a file path, and error requests that
end with exit 2, 3 or 4 and one JSON line on stderr. The timed rounds call
`cantorkit.cli.main(argv)` in process, so argument parsing, dispatch,
formatting, writing and the error contract dominate. One untimed round
runs every request as a `python -m cantorkit` process, one in flight at a
time, to check exit codes and stderr as a shell sees them and to measure
the request processes' peak memory. Kernel changes should leave this
workload alone; error-handling or `--stats` work shows here.

Three requests hit faults of the program and count as failed in every
round until they are fixed: `construct --depth abc` (argparse usage text
instead of the JSON line), `member --x 1/<5000 digits>` (a ValueError
traceback, exit 1) and `construct --out` into a missing directory (a
FileNotFoundError traceback, exit 1). Their inputs do not depend on the seed.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import cantorkit.cli as ck_cli

import oracle
from checks import check_analyze, check_construct_json
from ops import FAILED, OK, OUT_DIR, ROOT, Op, child_env, frac_text

SPECS = ("cantor", "c12", "c14", "c34", "ac", "ac-reflected", "ac5a", "ac5b",
         "svc:3", "svc:4", "svc:5")
SUBDIVISION_DOC = '{"type": "subdivision", "n": 5, "removed": [1, 3]}'
SPEC_FILE = "spec.json"
TMP = (OUT_DIR / "tmp").relative_to(ROOT).as_posix()  # --out files, relative to the checkout


def _stage_text(grid: list) -> str:
    lines = []
    for g in grid:
        line = " ∪ ".join(f"[{frac_text(lo)}, {frac_text(hi)}]" for lo, hi in g.fractions())
        lines.append(line + (" [stalled]" if g.stalled else ""))
    return "\n".join(lines) + "\n"


def _member_check(text: str, fmt: str, x: Fraction, want: tuple, cap: int) -> str:
    """want is ("member",) or ("excluded", k)."""
    depth = min(cap, 20)
    if fmt == "json":
        doc = json.loads(text)
        kind = doc["verdict"]["kind"]
        ok = (doc["x"] == frac_text(x)
              and doc["stage_check_depth"] == depth
              and doc["member"] is (want[0] == "member")
              and doc["stage_member"] is (want[0] == "member" or want[1] > depth)
              and (kind in ("member-cycle", "member-endpoint") if want[0] == "member"
                   else kind == "excluded" and doc["verdict"]["depth"] == want[1]))
    else:
        lines = text.splitlines()
        verdict = ("verdict: member (" if want[0] == "member"
                   else f"verdict: not a member (removed at step {want[1]})")
        stage = "member" if want[0] == "member" or want[1] > depth else "not a member"
        ok = (len(lines) == 3 and lines[0] == f"x: {frac_text(x)}"
              and lines[1].startswith(verdict)
              and lines[2] == f"stage check (depth {depth}): {stage}")
    return OK if ok else f"member answer {text!r}, want {want}"


def _success(check):
    """Exit 0, quiet stderr, and a result (stdout, or the --out file) that passes check."""
    def judge(out) -> str:
        code, stdout, stderr, written = out
        if code != 0:
            return FAILED
        if stderr:
            return f"stderr on success: {stderr[:200]!r}"
        text = stdout if written is None else written
        if written is not None and stdout:
            return "stdout not quiet with --out"
        try:
            return check(text)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return f"unreadable result: {exc!r}"
    return judge


def _error(codes: set, kinds: set):
    """Exit in codes with exactly one JSON line {"error": kind, "message": ...} on stderr."""
    def judge(out) -> str:
        code, stdout, stderr, _ = out
        lines = stderr.splitlines()
        try:
            doc = json.loads(lines[0]) if len(lines) == 1 else None
        except ValueError:
            doc = None
        if code not in (2, 3, 4) or not isinstance(doc, dict) or \
                not isinstance(doc.get("message"), str):
            return FAILED
        if code not in codes or doc.get("error") not in kinds or stdout:
            return f"error answer exit {code}, {stderr.strip()!r}"
        return OK
    return judge


def make_inputs(seed: int) -> list[dict]:
    """The forty requests, each with the parameters its check needs."""
    rng = random.Random(seed)
    reqs: list[dict] = []

    def add(argv, expect, out=None, **params):
        if out:
            argv = argv + ["--out", f"{TMP}/{out}"]
        reqs.append({"argv": argv, "expect": expect, "out": out, **params})

    # Specs and depths are fixed so the output size does not depend on the seed.
    for spec, depth in (("svc:2", 3), ("ac", 4), ("c14", 3), ("ac5b", 3)):
        add(["construct", "--spec", spec, "--depth", str(depth)], "construct-text", spec=spec)
    for spec, depth, out in (("cantor", 5, "construct.json"), ("svc:4", 4, None),
                             ("ac-reflected", 4, None)):
        add(["construct", "--spec", spec, "--depth", str(depth), "--format", "json"],
            "construct-json", spec=spec, out=out)
    for spec, depth, fmt, out in (("cantor", 6, "text", None), ("svc:5", 5, "json", None),
                                  ("ac5a", 6, "text", None), ("c34", 5, "json", "analyze.json")):
        add(["analyze", "--spec", spec, "--depth", str(depth), "--format", fmt],
            "analyze", spec=spec, fmt=fmt, out=out)
    for i in range(8):
        spec = rng.choice(("cantor", "c12", "c34")) if i < 3 else rng.choice(SPECS)
        own = oracle.spec_of(spec)
        if i < 3:
            x, want = oracle.digit_point(*oracle.digit_spec(own), rng), ("member",)
        elif i < 5:
            a, b, den = oracle.random_component(own, rng.randint(1, 8), rng)
            x, want = Fraction(rng.choice((a, b)), den), ("member",)
        else:
            k = rng.randint(1, 8)
            x, want = oracle.gap_point(own, k, rng), ("excluded", k)
        cap = rng.choice((50, 10_000))
        fmt = ("text", "json")[i % 2]
        add(["member", "--spec", spec, "--x", str(x), "--cap", str(cap), "--format", fmt],
            "member", x=x, want=want, cap=cap, fmt=fmt)
    for spec, depth, label, out in (("cantor", 5, False, "render.svg"), ("ac", 4, True, "ac.svg"),
                                    ("svc:3", 4, False, None), ("c12", 4, True, None)):
        argv = ["render", "--spec", spec, "--depth", str(depth),
                "--width", str(rng.randint(200, 800)), "--row-height", str(rng.randint(8, 30))]
        add(argv + (["--label"] if label else []), "render", spec=spec, depth=depth, out=out)
    for _ in range(3):
        x = oracle.digit_point(3, frozenset({0, 2}), rng)
        add(["cantorfun", "--x", str(x)], "cantorfun", x=x)
    off_set = oracle.gap_point(oracle.spec_of("cantor"), rng.randint(1, 8), rng)
    add(["cantorfun", "--x", str(off_set)], "error", codes={3}, kinds={"domain"})
    k = rng.randint(1, 6)
    x = oracle.gap_point(oracle.spec_of(SUBDIVISION_DOC), k, rng)
    add(["member", "--spec", SUBDIVISION_DOC, "--x", str(x), "--format", "json"], "member",
        x=x, want=("excluded", k), cap=10_000, fmt="json")
    add(["construct", "--spec", f"{TMP}/{SPEC_FILE}", "--depth", "3"],
        "construct-text", spec=SUBDIVISION_DOC)
    # Error requests that already end correctly.
    errors = [
        (["construct", "--spec", "kantor"], {2}, {"parse"}),
        (["construct", "--spec", '{"type": "power", "m": 1}'], {2}, {"validation"}),
        (["construct", "--spec", "svc:x"], {2}, {"parse"}),
        (["construct", "--spec", "cantor", "--depth", "-1"], {2}, {"validation"}),
        (["analyze", "--spec", "cantor", "--depth", str(rng.randint(31, 60))], {4}, {"resource"}),
        (["member", "--spec", "cantor", "--x", f"{rng.randint(5, 9)}/4"], {3}, {"domain"}),
        (["member", "--spec", "c34", "--x", "1/0"], {2}, {"parse"}),
        (["render", "--spec", "ac", "--width", str(rng.randint(10, 99))], {2}, {"validation"}),
    ]
    for argv, codes, kinds in errors:
        add(argv, "error", codes=codes, kinds=kinds)
    # Faults of the program, kept as failed requests until they are fixed.
    add(["construct", "--spec", "cantor", "--depth", "abc"], "error", codes={2}, kinds={"parse"})
    add(["member", "--spec", "cantor", "--x", "1/" + "3" * 5000], "error",
        codes={2}, kinds={"parse", "validation"})
    add(["construct", "--spec", "cantor", "--out", f"{TMP}/missing/dir/f"], "error",
        codes={2, 3, 4}, kinds={"parse", "validation", "domain", "resource", "io"})
    return reqs


def write_spec_file() -> None:
    (ROOT / TMP).mkdir(parents=True, exist_ok=True)
    (ROOT / TMP / SPEC_FILE).write_text(SUBDIVISION_DOC, encoding="utf-8")


def _judge(req: dict):
    kind = req["expect"]
    if kind == "error":
        return _error(req["codes"], req["kinds"])
    if kind in ("construct-text", "construct-json", "analyze", "render"):
        own = oracle.spec_of(req["spec"])
        depth = int(req["argv"][req["argv"].index("--depth") + 1])
        grid = oracle.grid_stages(own, depth)
        if kind == "construct-text":
            return _success(
                lambda t, g=grid: OK if t == _stage_text(g) else "construct text differs")
        if kind == "construct-json":
            return _success(lambda t, g=grid: check_construct_json(t, g))
        if kind == "analyze":
            return _success(lambda t, f=req["fmt"], o=own, g=grid: check_analyze(t, f, o, g))
        return _success(lambda t, g=grid: oracle.svg_pixel_mismatch(t, g) or OK)
    if kind == "member":
        return _success(lambda t, r=req: _member_check(t, r["fmt"], r["x"], r["want"], r["cap"]))
    want = oracle.cantor_value(req["x"])
    return _success(lambda t, w=want: OK if t == frac_text(w) + "\n"
                    else f"cantorfun {t!r}, want {w}")


class SubprocessRunner:
    """Runs `python -m cantorkit` from the checkout root, one request at a time.

    `-S` leaves out the host's site hooks (`.pth` files), which cantorkit
    does not need, so the peak memory is the program's own. Output goes to
    scratch files rather than pipes so the child can be reaped with wait4,
    which also gives its peak resident memory.
    """

    def __init__(self):
        self.scratch = ROOT / TMP
        self.peak_kib = 0

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-S", "-m", "cantorkit", *argv],
                                    stdout=out, stderr=err, cwd=ROOT, env=child_env())
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        return (proc.returncode, out_path.read_text(encoding="utf-8"),
                err_path.read_text(encoding="utf-8"))


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """cantorkit.cli.main in this process, as the timed rounds call it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ck_cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped error is the request's answer, as in a shell
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def make_ops(reqs: list[dict], runner) -> list[Op]:
    """One operation per request; `runner` runs argv and returns (exit, stdout, stderr)."""
    def call(req):
        code, stdout, stderr = runner(req["argv"])
        written = None
        if req["out"]:
            path = ROOT / TMP / req["out"]
            if path.exists():
                written = path.read_text(encoding="utf-8")
                path.unlink()
        return code, stdout, stderr, written

    def size(out) -> int:
        return sum(len(t.encode()) for t in out[1:] if t)

    return [Op("cantorkit " + " ".join(r["argv"])[:120], lambda r=r: call(r), _judge(r), size)
            for r in reqs]
