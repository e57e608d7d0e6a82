"""`stages` workload: deep stage enumeration for all three families.

Each operation enumerates whole stages: `iterate`, `cmd_construct --format
json`, `cmd_analyze` (which builds the census from the last stage),
`render_svg` and `characterization_equivalence_check`. Depths keep one
call between about 0.05 s and 0.5 s. No membership walk runs here, so an
integer-walk change should leave this workload alone, while a stage-kernel,
census or render change should move it.

The seed picks which of two mirror images of the asymmetric sets to use
(same cost, different endpoints) and the order of the calls in each round.
"""

from __future__ import annotations

import random

import cantorkit
from cantorkit import cli as ck_cli

import oracle
from checks import check_analyze, check_charcheck, check_construct_json, check_stages
from ops import OK, Op, text_size

AC = ("ac", "ac-reflected")
AC5 = ("ac5a", '{"type": "subdivision", "n": 5, "removed": [1]}')

# (operation, spec, depth, option): option is the analyze format or the render label flag.
PLAN = [
    ("iterate", "cantor", 8, None),
    ("iterate", "svc:4", 8, None),
    ("iterate", AC, 8, None),
    ("iterate", "c34", 8, None),
    ("iterate", "svc:5", 8, None),
    ("iterate", AC5, 7, None),
    ("construct", "cantor", 8, None),
    ("construct", "svc:4", 7, None),
    ("construct", AC, 7, None),
    ("construct", "c12", 7, None),
    ("analyze", "cantor", 8, "text"),
    ("analyze", "svc:4", 8, "json"),
    ("analyze", AC, 7, "text"),
    ("analyze", "c34", 7, "json"),
    ("analyze", AC5, 6, "json"),
    ("render", "cantor", 9, False),
    ("render", "svc:4", 8, False),
    ("render", AC, 8, True),
    ("render", "c14", 7, False),
    ("render", AC5, 6, True),
    ("charcheck", "cantor", 8, None),
    ("charcheck", "c34", 7, None),
    ("charcheck", "c12", 7, None),
    ("charcheck", AC, 7, None),
]


def make_inputs(seed: int) -> list[dict]:
    """The fixed operation list, with the seed's mirror choices, parsed."""
    rng = random.Random(seed)
    cases = []
    for kind, text, depth, option in PLAN:
        if isinstance(text, tuple):
            text = rng.choice(text)
        cases.append({"kind": kind, "text": text, "spec": cantorkit.parse_spec(text),
                      "depth": depth, "option": option})
    return cases


def make_ops(cases: list[dict]) -> list[Op]:
    """Operations with their expected answers worked out by the benchmark."""
    grids: dict = {}
    ops = []
    for c in cases:
        own, depth, spec = oracle.spec_of(c["text"]), c["depth"], c["spec"]
        key = (c["text"], depth)
        if key not in grids:
            grids[key] = oracle.grid_stages(own, depth)
        grid = grids[key]
        name = f'{c["kind"]}({c["text"]}, {depth})'
        if c["kind"] == "iterate":
            ops.append(Op(name, lambda s=spec, d=depth: cantorkit.iterate(s, d),
                          lambda out, o=own, g=grid: check_stages(out, o, g)))
        elif c["kind"] == "construct":
            ops.append(Op(name, lambda s=spec, d=depth: ck_cli.cmd_construct(s, d, "json"),
                          lambda out, g=grid: check_construct_json(out, g), text_size))
        elif c["kind"] == "analyze":
            fmt = c["option"]
            ops.append(Op(f"{name} {fmt}",
                          lambda s=spec, d=depth, f=fmt: ck_cli.cmd_analyze(s, d, f),
                          lambda out, f=fmt, o=own, g=grid: check_analyze(out, f, o, g),
                          text_size))
        elif c["kind"] == "render":
            cfg = cantorkit.RenderConfig(depth=depth, label=c["option"])
            ops.append(Op(name + (" label" if c["option"] else ""),
                          lambda s=spec, f=cfg: cantorkit.render_svg(s, f),
                          lambda out, g=grid: oracle.svg_pixel_mismatch(out, g) or OK,
                          text_size))
        else:
            es_pair = oracle.digit_filter(own)
            es = cantorkit.ExpansionSpec(*es_pair)
            ops.append(Op(name, lambda s=spec, e=es, d=depth:
                          cantorkit.characterization_equivalence_check(s, e, d),
                          lambda out, p=es_pair, g=grid: check_charcheck(out, p, g)))
    return ops
