"""Construction spec documents: preset names, JSON documents, fraction strings.

A spec document is a UTF-8 JSON object with a `type` field and the
family's parameters; unknown fields are rejected. Fractions travel as
"num/den" strings in lowest terms, denominator always present ("0/1",
"1/1"). `parse_spec` also accepts the bundled preset names and the
dynamic `svc:<m>` form.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .constructions import ConstructionSpec, Power, Proportional, Subdivision
from .errors import ParseError

_FRACTION_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

PRESETS: dict[str, ConstructionSpec] = {
    "cantor": Proportional(Fraction(1, 3)),
    "c12": Proportional(Fraction(1, 2)),
    "c14": Proportional(Fraction(1, 4)),
    "c34": Proportional(Fraction(3, 4)),
    "ac": Subdivision(4, frozenset({2})),
    "ac-reflected": Subdivision(4, frozenset({1})),
    "ac5a": Subdivision(5, frozenset({3})),
    "ac5b": Subdivision(5, frozenset({2, 3})),
}


def fraction_str(x: Fraction) -> str:
    """Canonical "num/den" form, lowest terms, denominator always written."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _too_many_digits(what: str, text: str) -> ParseError:
    """Refusal of an integer over the interpreter's int-string limit.

    States the digit count and the limit rather than echoing the input.
    """
    digits = max(map(len, re.findall(r"\d+", text)), default=0)
    return ParseError(
        f"{what} holds a {digits}-digit integer, over the limit of "
        f"{sys.get_int_max_str_digits()} digits")


def parse_fraction(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer) into an exact rational."""
    body = text.strip()
    if not _FRACTION_RE.match(body):
        raise ParseError(f"not a fraction: {body!r}")
    if body.endswith("/0"):
        raise ParseError(f"zero denominator in {body!r}")
    try:
        return Fraction(body)
    except ValueError:
        raise _too_many_digits("fraction", body) from None


_DOCUMENT_FIELDS = {
    "proportional": {"type", "p"},
    "power": {"type", "m"},
    "subdivision": {"type", "n", "removed"},
}


def _require_int(doc: dict, field: str) -> int:
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _parse_document(body: str) -> ConstructionSpec:
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    except ValueError:
        raise _too_many_digits("spec document", body) from None
    except RecursionError:
        raise ParseError("spec document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("spec document must be a JSON object")
    kind = doc.get("type")
    if kind not in _DOCUMENT_FIELDS:
        raise ParseError(
            f"unknown construction type {kind!r}; expected one of "
            f"{sorted(_DOCUMENT_FIELDS)}")
    expected = _DOCUMENT_FIELDS[kind]
    unknown = set(doc) - expected
    if unknown:
        raise ParseError(f"unknown field(s) {sorted(unknown)} for type {kind!r}")
    missing = expected - set(doc)
    if missing:
        raise ParseError(f"missing field(s) {sorted(missing)} for type {kind!r}")
    if kind == "proportional":
        p = doc["p"]
        if not isinstance(p, str):
            raise ParseError(f"field 'p' must be a fraction string, got {p!r}")
        return Proportional(parse_fraction(p))
    if kind == "power":
        return Power(_require_int(doc, "m"))
    removed = doc["removed"]
    if not isinstance(removed, list):
        raise ParseError(f"field 'removed' must be a list of integers, got {removed!r}")
    for i in removed:
        if isinstance(i, bool) or not isinstance(i, int):
            raise ParseError(f"removed index {i!r} is not an integer")
    return Subdivision(_require_int(doc, "n"), frozenset(removed))


def parse_spec(text: str) -> ConstructionSpec:
    """Resolve a preset name, an svc:<m> form, or a JSON spec document."""
    body = text.strip()
    if body in PRESETS:
        return PRESETS[body]
    if body.startswith("svc:"):
        tail = body[4:]
        try:
            m = int(tail)
        except ValueError:
            if tail.lstrip("+-").isdigit():
                raise _too_many_digits("svc preset", tail) from None
            raise ParseError(f"svc preset needs an integer base, got {tail!r}") from None
        return Power(m)
    if body.startswith("{"):
        return _parse_document(body)
    raise ParseError(
        f"unknown preset {body!r}; expected one of {sorted(PRESETS)}, "
        "svc:<m>, or a JSON spec document")


def emit_spec(spec: ConstructionSpec) -> str:
    """Canonical spec document text; parse_spec(emit_spec(s)) == s."""
    if isinstance(spec, Proportional):
        doc = {"type": "proportional", "p": fraction_str(spec.p)}
    elif isinstance(spec, Power):
        doc = {"type": "power", "m": spec.m}
    else:
        doc = {"type": "subdivision", "n": spec.n, "removed": sorted(spec.removed)}
    return json.dumps(doc)
