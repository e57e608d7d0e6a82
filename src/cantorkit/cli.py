"""Command line interface: construct, analyze, member, render, cantorfun.

A request is parsed once, by its subcommand's parser. Results go to stdout
(or --out); errors go to stderr as a single JSON line carrying the error
kind's code, and the exit status is the kind's (see `errors`): 0 success,
2 parse or validation failure, 3 domain error, 4 resource refusal, running
out of memory included.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import cache

from .analysis import (
    Characterized,
    _length_census,
    cantor_function,
    expansion_characterization,
    limit_is_degenerate,
    limit_measure,
    similarity_dimension,
)
from .constructions import (
    DEFAULT_DEPTH_CAP,
    MAX_ENUMERATED_INTERVALS,
    ConstructionSpec,
    ExcludedAtDepth,
    MemberByCycle,
    MemberByEndpoint,
    UndecidedMemberToDepth,
    _check_depth,
    _endpoint_stages,
    _self_similar,
    limit_membership,
    stage_membership,
    verdict_is_member,
)
from .errors import CantorKitError, ParseError, ResourceLimitError, _cut, _echo, _fits
from .render import RenderConfig, render_svg
from .spec_io import (_INT_RE, _ratio_str, _spec_doc, emit_spec, fraction_str, parse_fraction,
                      parse_spec)


def cmd_construct(spec: ConstructionSpec, depth: int, fmt: str = "text") -> str:
    """Stages 0..depth; text is one line per stage, JSON nested fraction pairs.

    Endpoints are written straight from the integer grid, each distinct one
    once (`_endpoint_stages`).
    """
    stages = _endpoint_stages(spec, depth, _ratio_str)
    if fmt == "json":
        # An endpoint is digits and "/", which json.dumps writes as it is.
        return "[%s]" % ", ".join(
            "[%s]" % ", ".join(f'["{lo}", "{hi}"]' for lo, hi in ends)
            for _, (_, ends), _ in stages)
    return "\n".join(
        " ∪ ".join(f"[{lo}, {hi}]" for lo, hi in ends)
        + (" [stalled]" if stalled else "") for _, (_, ends), stalled in stages)


def _characterization_doc(verdict) -> dict:
    if isinstance(verdict, Characterized):
        return {
            "status": "characterized",
            "base": verdict.spec.base,
            "allowed": sorted(verdict.spec.allowed),
        }
    return {"status": "not-characterizable", "reason": verdict.reason}


def cmd_analyze(spec: ConstructionSpec, depth: int, fmt: str = "text") -> str:
    """Measure, characterization, census, and dimension report."""
    _check_depth(spec, depth, MAX_ENUMERATED_INTERVALS)
    measures, max_lengths = [], []
    for den, lengths, stalled in _length_census(spec, depth):
        measures.append((sum(length * count for length, count in lengths.items()), den))
        max_lengths.append((max(lengths), den))
    characterization = expansion_characterization(spec)
    dimension = similarity_dimension(spec) if _self_similar(spec) else None
    doc = {
        "spec": _spec_doc(spec),
        "depth": depth,
        "stage_measures": [_ratio_str(*v) for v in measures],
        "max_component_lengths": [_ratio_str(*v) for v in max_lengths],
        "limit_measure": fraction_str(limit_measure(spec)),
        "limit_degenerate": limit_is_degenerate(spec),
        "stalled": stalled,
        "characterization": _characterization_doc(characterization),
        # Every length of the last stage lies over one denominator, den.
        "scale_census": [{"length": _ratio_str(length, den), "count": lengths[length]}
                         for length in sorted(lengths, reverse=True)],
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


# Each verdict type's JSON kind and text. A verdict holds one field, which
# the JSON verdict carries under its own name and the text fills in.
_VERDICTS = {
    MemberByCycle: ("member-cycle", "member (position cycles with length {})"),
    MemberByEndpoint: ("member-endpoint", "member (endpoint from stage {} on)"),
    ExcludedAtDepth: ("excluded", "not a member (removed at step {})"),
    UndecidedMemberToDepth: ("undecided", "undecided through depth {}"),
}


def cmd_member(spec: ConstructionSpec, x: Fraction, depth_cap: int = DEFAULT_DEPTH_CAP,
               fmt: str = "text") -> str:
    """Limit membership verdict plus a stage-descent cross-check."""
    verdict = limit_membership(spec, x, depth_cap)
    check_depth = min(depth_cap, 20)
    stage_ok = stage_membership(spec, x, check_depth)
    kind, text = _VERDICTS[type(verdict)]
    field = vars(verdict)
    if fmt == "json":
        return json.dumps({
            "spec": _spec_doc(spec),
            "x": fraction_str(x),
            "verdict": {"kind": kind, **field},
            "member": verdict_is_member(verdict),
            "stage_check_depth": check_depth,
            "stage_member": stage_ok,
        })
    return "\n".join([
        f"x: {fraction_str(x)}",
        f"verdict: {text.format(*field.values())}",
        f"stage check (depth {check_depth}): "
        + ("member" if stage_ok else "not a member"),
    ])


def _fs_path(raw: str) -> str:
    """`raw` as pathlib spells it: `spec.json/` and `spec.json/.` name `spec.json`."""
    root = raw[:len(raw) - len(raw.lstrip("/"))]
    parts = [part for part in raw.split("/") if part not in ("", ".")]
    return (root if root == "//" else root[:1]) + "/".join(parts) or "."


def _load_spec(raw: str) -> ConstructionSpec:
    if os.path.isfile(path := _fs_path(raw)):
        try:
            with open(path, encoding="utf-8") as file:
                raw = file.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read spec document {_echo(raw)}: {_cut(exc)}") from exc
    return parse_spec(raw)


# argparse writes an offending value as its repr. Only the escapes repr
# produces are matched, so literal_eval decodes every match. The pattern is
# compiled by the first argument error that uses it, and cached by `re`.
_ESCAPE = r"""\\(?:[\\'"tnr]|x[0-9a-f]{2}|u[0-9a-f]{4}|U[0-9a-f]{8})"""
_REPR = r"'(?:[^'\\]|%s)*'|" % _ESCAPE + r'"(?:[^"\\]|%s)*"' % _ESCAPE

_UNRECOGNIZED = "unrecognized arguments: "
_AMBIGUOUS = "ambiguous option: "


class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors raise ParseError, so they end in the JSON error line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative fraction such as -1/3 is a value, as -1 and -0.5 already are.
        self._negative_number_matcher = re.compile(
            self._negative_number_matcher.pattern + r"|^-\d+/\d+$")

    def error(self, message: str):
        # argparse writes the offending text in these two messages unquoted.
        if message.startswith(_UNRECOGNIZED):
            head, text, tail = _UNRECOGNIZED, message[len(_UNRECOGNIZED):], ""
        elif message.startswith(_AMBIGUOUS):
            text, sep, matches = message[len(_AMBIGUOUS):].rpartition(" could match ")
            head, tail = _AMBIGUOUS, sep + matches
        else:
            # Loaded here only: a request that parses never loads `ast`.
            from ast import literal_eval
            raise ParseError(re.sub(_REPR,
                lambda m: m[0] if len(m[0]) <= 102 and _fits(m[0])
                else _echo(literal_eval(m[0])), message))
        shown = _echo(text)
        raise ParseError(message if shown == repr(text) else head + shown + tail)


def _int(text: str) -> int:
    """An integer option in ASCII digits (`spec_io._INT_RE`), as a spec reads one.

    `int()` also reads `1_0` and other scripts' digits. Surrounding
    whitespace is allowed, as `parse_fraction` allows it.
    """
    if _INT_RE.fullmatch(body := text.strip()):
        try:
            return int(body)
        except ValueError:  # over the int-string limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommands' parsers by name (its
    subparsers action's `choices`), built on first use and shared by later calls.

    Sharing is safe: `parse_args` returns a fresh Namespace each time, `prog`
    is fixed rather than read from sys.argv, and help is formatted per call.
    Each subcommand binds its handler as `run`. A handler looks up what it
    calls in this module's globals when it runs, so a function replaced there
    after the parser is built (a tracing wrapper, say) is the one called.
    """
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
    p.add_argument("--depth", type=_int, default=3)
    add_common(p)
    p.set_defaults(run=lambda a: cmd_construct(_load_spec(a.spec), a.depth, a.format))

    p = sub.add_parser("analyze", help="measures, characterization, census, dimension")
    add_spec(p)
    p.add_argument("--depth", type=_int, default=5)
    add_common(p)
    p.set_defaults(run=lambda a: cmd_analyze(_load_spec(a.spec), a.depth, a.format))

    p = sub.add_parser("member", help="limit membership verdict for a rational")
    add_spec(p)
    p.add_argument("--x", required=True, help="query point as num/den")
    p.add_argument("--cap", type=_int, default=DEFAULT_DEPTH_CAP,
                   help="depth cap for the membership walk")
    add_common(p)
    p.set_defaults(run=lambda a: cmd_member(
        _load_spec(a.spec), parse_fraction(a.x), a.cap, a.format))

    def render(a: argparse.Namespace) -> str:
        # The options are checked before the spec is loaded.
        cfg = RenderConfig(width_px=a.width, row_height_px=a.row_height, depth=a.depth,
                           label=a.label)
        return render_svg(_load_spec(a.spec), cfg)

    p = sub.add_parser("render", help="SVG iteration diagram")
    add_spec(p)
    p.add_argument("--depth", type=_int, default=4)
    p.add_argument("--width", type=_int, default=800)
    p.add_argument("--row-height", type=_int, default=24)
    p.add_argument("--label", action="store_true", help="label rows with stage indices")
    p.add_argument("--out", help="write the SVG to this file instead of stdout")
    p.set_defaults(run=render)

    p = sub.add_parser("cantorfun", help="exact digit-halving function value")
    p.add_argument("--x", required=True, help="query point as num/den")
    p.add_argument("--out", help="write the result to this file instead of stdout")
    p.set_defaults(run=lambda a: fraction_str(cantor_function(parse_fraction(a.x))))
    return parser, sub.choices


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(_fs_path(out), "w", encoding="utf-8") as file:
                file.write(text)
        except (OSError, ValueError) as exc:
            # ValueError: a NUL or an unencodable character in the path.
            raise ParseError(f"cannot write output file {_echo(out)}: {_cut(exc)}") from exc
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser, commands = _build_parser()
        sub = commands.get(argv[0]) if argv else None
        args = (sub.parse_args(argv[1:], argparse.Namespace(command=argv[0])) if sub
                else parser.parse_args(argv))
        try:
            _emit(args.run(args), args.out)
        except MemoryError:
            raise ResourceLimitError(f"{args.command} ran out of memory") from None
    except CantorKitError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return exc.status
    return 0


if __name__ == "__main__":
    sys.exit(main())
