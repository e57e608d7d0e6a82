"""Command line interface: construct, analyze, member, render, cantorfun.

Each subcommand's options are declared once, in the option table
(`_COMMANDS`). A well-formed request is read straight from that table
(`_read_argv`). Any other argv (help, an abbreviation, `--opt=value`, a
repeat, a negative value, "--", every error) is parsed by argparse, which is
imported, and its parser built from the same table, only then
(`_build_parser`); both paths give the same namespace. Results go to stdout
(or --out); errors go to stderr as a single JSON line carrying the error
kind's code, and the exit status is the kind's (see `errors`): 0 success,
2 parse or validation failure, 3 domain error, 4 resource refusal, running
out of memory included.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

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


def _ascii_int(text: str) -> int | None:
    """An integer option in ASCII digits (`spec_io._INT_RE`), as a spec reads
    one, or None.

    `int()` also reads `1_0` and other scripts' digits. Surrounding
    whitespace is allowed, as `parse_fraction` allows it.
    """
    if _INT_RE.fullmatch(body := text.strip()):
        try:
            return int(body)
        except ValueError:  # over the int-string limit
            pass
    return None


def _int(text: str) -> int:
    """argparse's reader of an integer option: `_ascii_int`, or its refusal."""
    if (value := _ascii_int(text)) is None:
        from argparse import ArgumentTypeError
        raise ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _render(a) -> str:
    # The options are checked before the spec is loaded.
    cfg = RenderConfig(width_px=a.width, row_height_px=a.row_height, depth=a.depth,
                       label=a.label)
    return render_svg(_load_spec(a.spec), cfg)


# The option table: each subcommand's help, handler and options, in the order
# `--help` lists them. A handler looks up what it calls in this module's
# globals when it runs, so a function replaced there (a tracing wrapper, say)
# is the one called. An option maps its flag to (dest, reader, default,
# required, help); a reader is `_int`, a tuple of choices, `str` for the text
# as given, or `bool` for a flag that takes no value and sets True.
_SPEC = ("spec", str, None, True,
         "preset name, svc:<m>, inline JSON document, or path to a document file")
_X = ("x", str, None, True, "query point as num/den")
_FORMAT = ("format", ("text", "json"), "text", False, None)
_OUT = ("out", str, None, False, "write the result to this file instead of stdout")
_COMMANDS = {
    "construct": ("emit exact stage intervals",
                  lambda a: cmd_construct(_load_spec(a.spec), a.depth, a.format),
                  {"--spec": _SPEC, "--depth": ("depth", _int, 3, False, None),
                   "--format": _FORMAT, "--out": _OUT}),
    "analyze": ("measures, characterization, census, dimension",
                lambda a: cmd_analyze(_load_spec(a.spec), a.depth, a.format),
                {"--spec": _SPEC, "--depth": ("depth", _int, 5, False, None),
                 "--format": _FORMAT, "--out": _OUT}),
    "member": ("limit membership verdict for a rational",
               lambda a: cmd_member(_load_spec(a.spec), parse_fraction(a.x), a.cap, a.format),
               {"--spec": _SPEC, "--x": _X,
                "--cap": ("cap", _int, DEFAULT_DEPTH_CAP, False,
                          "depth cap for the membership walk"),
                "--format": _FORMAT, "--out": _OUT}),
    "render": ("SVG iteration diagram", _render,
               {"--spec": _SPEC, "--depth": ("depth", _int, 4, False, None),
                "--width": ("width", _int, 800, False, None),
                "--row-height": ("row_height", _int, 24, False, None),
                "--label": ("label", bool, False, False, "label rows with stage indices"),
                "--out": ("out", str, None, False,
                          "write the SVG to this file instead of stdout")}),
    "cantorfun": ("exact digit-halving function value",
                  lambda a: fraction_str(cantor_function(parse_fraction(a.x))),
                  {"--x": _X, "--out": _OUT}),
}


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """A well-formed request's namespace, read from the option table, or None.

    Well formed: argv[0] names a subcommand; after it each option is named
    exactly, at most once, and each but `--label` is followed by one value
    that does not start with "-" and that its reader accepts; every required
    option is given. The namespace holds what argparse's would: `command`,
    every dest and `run`.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, run, options = command
    values = {}
    rest = iter(argv[1:])
    for flag in rest:
        option = options.get(flag)
        if option is None or option[0] in values:
            return None
        dest, reader = option[0], option[1]
        if reader is bool:
            values[dest] = True
            continue
        text = next(rest, "-")  # a flag that ends argv has no value
        if text.startswith("-"):
            return None
        value = _ascii_int(text) if reader is _int else text
        if value is None or type(reader) is tuple and text not in reader:
            return None
        values[dest] = value
    for dest, _, default, required, _ in options.values():
        if dest not in values:
            if required:
                return None
            values[dest] = default
    return SimpleNamespace(command=argv[0], **values, run=run)


# argparse writes an offending value as its repr. Only the escapes repr
# produces are matched, so literal_eval decodes every match. The pattern is
# compiled by the first argument error that uses it, and cached by `re`.
_ESCAPE = r"""\\(?:[\\'"tnr]|x[0-9a-f]{2}|u[0-9a-f]{4}|U[0-9a-f]{8})"""
_REPR = r"'(?:[^'\\]|%s)*'|" % _ESCAPE + r'"(?:[^"\\]|%s)*"' % _ESCAPE

_UNRECOGNIZED = "unrecognized arguments: "
_AMBIGUOUS = "ambiguous option: "


@cache
def _build_parser() -> tuple:
    """The argparse parser and its subcommands' parsers by name (its
    subparsers action's `choices`), built from the option table on first use
    and shared by later calls.

    Only an argv that `_read_argv` leaves alone reaches argparse, which is
    imported here. Sharing is safe: `parse_args` returns a fresh Namespace
    each time, `prog` is fixed rather than read from sys.argv, and help is
    formatted per call.
    """
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """Argument errors raise ParseError, so they end in the JSON error line."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # A negative fraction such as -1/3 is a value, as -1 and -0.5 already are.
            self._negative_number_matcher = re.compile(
                self._negative_number_matcher.pattern + r"|^-\d+/\d+$")

        def _get_values(self, action, arg_strings):
            # argparse before Python 3.13 (3.10, 3.11 and 3.12.1 at least)
            # drops the "--" of `--opt=--` and leaves the option an empty
            # list: a traceback for --spec, no choices check for --format.
            # Its value is the text "--", as Python 3.13 reads it.
            if arg_strings == ["--"] and action.nargs is None:
                value = self._get_value(action, "--")
                self._check_value(action, value)
                return value
            return super()._get_values(action, arg_strings)

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

    parser = _ArgumentParser(
        prog="cantorkit",
        description="Exact-arithmetic toolkit for Cantor-like deletion constructions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, run, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, (dest, reader, default, required, help_text) in options.items():
            if reader is bool:
                p.add_argument(flag, dest=dest, action="store_true", help=help_text)
            else:
                p.add_argument(flag, dest=dest, type=_int if reader is _int else None,
                               choices=reader if type(reader) is tuple else None,
                               default=default, required=required, help=help_text)
        p.set_defaults(run=run)
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
        args = _read_argv(argv)
        if args is None:
            from argparse import Namespace  # loaded for this argv only
            parser, commands = _build_parser()
            sub = commands.get(argv[0]) if argv else None
            args = (sub.parse_args(argv[1:], Namespace(command=argv[0])) if sub
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
