"""Command line interface: construct, analyze, member, render, cantorfun.

Results go to stdout (or --out); errors go to stderr as a single JSON
line carrying a machine-readable code. Exit codes: 0 success, 2 parse or
validation failure, 3 domain error, 4 resource refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .analysis import (
    Characterized,
    MismatchWitness,
    NotCharacterizable,
    cantor_function,
    expansion_characterization,
    limit_is_degenerate,
    limit_measure,
    max_component_length,
    scale_census,
    similarity_dimension,
    stage_measure,
)
from .constructions import (
    DEFAULT_DEPTH_CAP,
    ConstructionSpec,
    ExcludedAtDepth,
    MemberByCycle,
    MemberByEndpoint,
    MembershipVerdict,
    Power,
    UndecidedMemberToDepth,
    iterate,
    limit_membership,
    stage_membership,
    verdict_is_member,
)
from .errors import (
    CantorKitError,
    DomainError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from .render import RenderConfig, render_svg
from .spec_io import emit_spec, fraction_str, parse_fraction, parse_spec

_ERROR_CODES = (
    (ParseError, "parse", 2),
    (ValidationError, "validation", 2),
    (DomainError, "domain", 3),
    (ResourceLimitError, "resource", 4),
)


def _interval_str(iv) -> str:
    return f"[{fraction_str(iv.lo)}, {fraction_str(iv.hi)}]"


def cmd_construct(spec: ConstructionSpec, depth: int, fmt: str = "text") -> str:
    """Stages 0..depth; text is one line per stage, JSON nested fraction pairs."""
    stages = iterate(spec, depth)
    if fmt == "json":
        payload = [
            [[fraction_str(iv.lo), fraction_str(iv.hi)] for iv in st.intervals]
            for st in stages
        ]
        return json.dumps(payload)
    lines = []
    for st in stages:
        line = " ∪ ".join(_interval_str(iv) for iv in st.intervals)
        if st.stalled:
            line += " [stalled]"
        lines.append(line)
    return "\n".join(lines)


def _characterization_doc(verdict) -> dict:
    if isinstance(verdict, Characterized):
        return {
            "status": "characterized",
            "base": verdict.spec.base,
            "allowed": sorted(verdict.spec.allowed),
        }
    if isinstance(verdict, NotCharacterizable):
        return {"status": "not-characterizable", "reason": verdict.reason}
    return {
        "status": "mismatch",
        "depth": verdict.depth,
        "point": fraction_str(verdict.point),
    }


def cmd_analyze(spec: ConstructionSpec, depth: int, fmt: str = "text") -> str:
    """Measure, characterization, census, and dimension report."""
    stages = iterate(spec, depth)
    measures = [stage_measure(spec, k) for k in range(depth + 1)]
    max_lengths = [max_component_length(spec, k) for k in range(depth + 1)]
    census = scale_census(stages[-1])
    characterization = expansion_characterization(spec)
    dimension = None if isinstance(spec, Power) else similarity_dimension(spec)
    doc = {
        "spec": json.loads(emit_spec(spec)),
        "depth": depth,
        "stage_measures": [fraction_str(v) for v in measures],
        "max_component_lengths": [fraction_str(v) for v in max_lengths],
        "limit_measure": fraction_str(limit_measure(spec)),
        "limit_degenerate": limit_is_degenerate(spec),
        "stalled": stages[-1].stalled,
        "characterization": _characterization_doc(characterization),
        "scale_census": [
            {"length": fraction_str(length), "count": count} for length, count in census
        ],
        "similarity_dimension": dimension,
    }
    if fmt == "json":
        return json.dumps(doc)
    lines = [
        f"spec: {emit_spec(spec)}",
        f"stage measures: {', '.join(doc['stage_measures'])}",
        f"max component lengths: {', '.join(doc['max_component_lengths'])}",
        f"limit measure: {doc['limit_measure']}"
        + (" (degenerate: finite point set)" if doc["limit_degenerate"] else ""),
    ]
    if doc["stalled"]:
        lines.append(f"stalled by stage {depth}")
    ch = doc["characterization"]
    if ch["status"] == "characterized":
        digits = ", ".join(str(d) for d in ch["allowed"])
        lines.append(f"characterization: base {ch['base']}, digits {{{digits}}}")
    else:
        lines.append(f"characterization: none ({ch['reason']})")
    census_text = ", ".join(f"{c['length']} x{c['count']}" for c in doc["scale_census"])
    lines.append(f"scale census at depth {depth}: {census_text}")
    if dimension is None:
        lines.append("similarity dimension: undefined (no fixed child ratios)")
    else:
        lines.append(f"similarity dimension: {dimension!r}")
    return "\n".join(lines)


def _verdict_doc(verdict: MembershipVerdict) -> dict:
    if isinstance(verdict, MemberByCycle):
        return {"kind": "member-cycle", "cycle_length": verdict.cycle_length}
    if isinstance(verdict, MemberByEndpoint):
        return {"kind": "member-endpoint", "depth": verdict.depth}
    if isinstance(verdict, ExcludedAtDepth):
        return {"kind": "excluded", "depth": verdict.depth}
    return {"kind": "undecided", "depth": verdict.depth}


def _verdict_text(verdict: MembershipVerdict) -> str:
    if isinstance(verdict, MemberByCycle):
        return f"member (position cycles with length {verdict.cycle_length})"
    if isinstance(verdict, MemberByEndpoint):
        return f"member (endpoint from stage {verdict.depth} on)"
    if isinstance(verdict, ExcludedAtDepth):
        return f"not a member (removed at step {verdict.depth})"
    return f"undecided through depth {verdict.depth}"


def cmd_member(spec: ConstructionSpec, x: Fraction, depth_cap: int = DEFAULT_DEPTH_CAP,
               fmt: str = "text") -> str:
    """Limit membership verdict plus a stage-descent cross-check."""
    verdict = limit_membership(spec, x, depth_cap)
    check_depth = min(depth_cap, 20)
    stage_ok = stage_membership(spec, x, check_depth)
    if fmt == "json":
        return json.dumps({
            "spec": json.loads(emit_spec(spec)),
            "x": fraction_str(x),
            "verdict": _verdict_doc(verdict),
            "member": verdict_is_member(verdict),
            "stage_check_depth": check_depth,
            "stage_member": stage_ok,
        })
    return "\n".join([
        f"x: {fraction_str(x)}",
        f"verdict: {_verdict_text(verdict)}",
        f"stage check (depth {check_depth}): "
        + ("member" if stage_ok else "not a member"),
    ])


def cmd_render(spec: ConstructionSpec, cfg: RenderConfig = RenderConfig()) -> str:
    """SVG document for the first cfg.depth stages."""
    return render_svg(spec, cfg)


def cmd_cantorfun(x: Fraction) -> str:
    """Exact digit-halving function value as a fraction string."""
    return fraction_str(cantor_function(x))


def _load_spec(raw: str) -> ConstructionSpec:
    path = Path(raw)
    try:
        is_file = path.is_file()
    except OSError:
        is_file = False
    if is_file:
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot read spec document {raw!r}: {exc}") from exc
    return parse_spec(raw)


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors raise ParseError, so they end in the JSON error line."""

    def error(self, message: str):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cantorkit",
        description="Exact-arithmetic toolkit for Cantor-like deletion constructions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--spec", required=True,
            help="preset name, svc:<m>, inline JSON document, or path to a document file")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the result to this file instead of stdout")

    p = sub.add_parser("construct", help="emit exact stage intervals")
    add_spec(p)
    p.add_argument("--depth", type=int, default=3)
    add_common(p)

    p = sub.add_parser("analyze", help="measures, characterization, census, dimension")
    add_spec(p)
    p.add_argument("--depth", type=int, default=5)
    add_common(p)

    p = sub.add_parser("member", help="limit membership verdict for a rational")
    add_spec(p)
    p.add_argument("--x", required=True, help="query point as num/den")
    p.add_argument("--cap", type=int, default=DEFAULT_DEPTH_CAP,
                   help="depth cap for the membership walk")
    add_common(p)

    p = sub.add_parser("render", help="SVG iteration diagram")
    add_spec(p)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--row-height", type=int, default=24)
    p.add_argument("--label", action="store_true", help="label rows with stage indices")
    p.add_argument("--out", help="write the SVG to this file instead of stdout")

    p = sub.add_parser("cantorfun", help="exact digit-halving function value")
    p.add_argument("--x", required=True, help="query point as num/den")
    p.add_argument("--out", help="write the result to this file instead of stdout")
    return parser


def _run(args: argparse.Namespace) -> str:
    if args.command == "construct":
        return cmd_construct(_load_spec(args.spec), args.depth, args.format)
    if args.command == "analyze":
        return cmd_analyze(_load_spec(args.spec), args.depth, args.format)
    if args.command == "member":
        return cmd_member(
            _load_spec(args.spec), parse_fraction(args.x), args.cap, args.format)
    if args.command == "render":
        cfg = RenderConfig(
            width_px=args.width, row_height_px=args.row_height,
            depth=args.depth, label=args.label)
        return cmd_render(_load_spec(args.spec), cfg)
    return cmd_cantorfun(parse_fraction(args.x))


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot write output file {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _emit(_run(args), args.out)
    except CantorKitError as exc:
        for klass, code, status in _ERROR_CODES:
            if isinstance(exc, klass):
                print(json.dumps({"error": code, "message": str(exc)}), file=sys.stderr)
                return status
        print(json.dumps({"error": "internal", "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
