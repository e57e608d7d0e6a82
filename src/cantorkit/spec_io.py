"""Construction spec documents: preset names, JSON documents, fraction strings.

A spec document is a UTF-8 JSON object with a `type` field naming the
family and, as its other fields, exactly that family's constructor
arguments; unknown or missing fields are rejected, and the family checks
the values. Fractions travel as "num/den" strings in lowest terms,
denominator always present ("0/1", "1/1"); numbers are read in ASCII
digits only. `parse_spec` also accepts the bundled preset names and the
dynamic `svc:<m>` form.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import gcd

from .constructions import ConstructionSpec, Power, Proportional, Subdivision, _self_similar
from .errors import ParseError, ResourceLimitError, _digit_count, _echo
from .exact import _as_fraction

# ASCII digits only: `\d` and `int()` also read other scripts' digits.
_INT_RE = re.compile(r"[+-]?[0-9]+")
_FRACTION_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

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
    """Canonical "num/den" form, lowest terms, denominator always written.

    x is read as every rational argument is (`_as_fraction`).
    """
    x = _as_fraction(x, "fraction")
    return _ratio_str(x.numerator, x.denominator)


def _ratio_str(num: int, den: int) -> str:
    """num/den (den > 0) in the canonical form of `fraction_str`, reduced by one gcd."""
    g = gcd(num, den)
    try:
        return f"{num // g}/{den // g}"
    except ValueError:
        raise _too_long_to_write(num // g, den // g) from None


def _too_many_digits(what: str, text: str) -> ParseError:
    """Refusal of an integer over the interpreter's int-string limit.

    States the digit count and the limit rather than echoing the input.
    """
    digits = max(map(len, re.findall(r"[0-9]+", text)), default=0)
    return ParseError(
        f"{what} holds a {digits}-digit integer, over the limit of "
        f"{sys.get_int_max_str_digits()} digits")


def _too_long_to_write(num: int, den: int) -> ResourceLimitError:
    """Refusal of an output fraction with a part over the int-string limit.

    Like `_too_many_digits`, it states the digit count and the limit rather
    than the number.
    """
    return ResourceLimitError(
        f"output fraction holds a {_digit_count(max(abs(num), den))}-digit integer, "
        f"over the limit of {sys.get_int_max_str_digits()} digits")


def parse_fraction(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer) in ASCII digits into an exact rational."""
    if not isinstance(text, str):
        raise ParseError(f"a fraction must be text, got {_echo(text)}")
    body = text.strip()
    if not _FRACTION_RE.fullmatch(body):
        raise ParseError(f"not a fraction: {_echo(body)}")
    try:
        return Fraction(body)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {_echo(body)}") from None
    except ValueError:
        raise _too_many_digits("fraction", body) from None


_FAMILIES = {"proportional": Proportional, "power": Power, "subdivision": Subdivision}


def _parse_document(body: str) -> ConstructionSpec:
    """The family named by `type`, called with the document's other fields.

    The fields are the family's constructor arguments, which check their
    own values. Only what a constructor cannot see is checked here: the
    JSON, the field names, `p` as a fraction string and `removed` as an
    array.
    """
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
    family = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise ParseError(
            f"unknown construction type {_echo(kind)}; expected one of "
            f"{sorted(_FAMILIES)}")
    expected = {"type", *family.__match_args__}
    unknown = set(doc) - expected
    if unknown:
        raise ParseError(f"unknown field(s) {_echo(sorted(unknown))} for type {kind!r}")
    missing = expected - set(doc)
    if missing:
        raise ParseError(f"missing field(s) {sorted(missing)} for type {kind!r}")
    fields = {name: doc[name] for name in family.__match_args__}
    if "p" in fields:
        if not isinstance(fields["p"], str):
            raise ParseError(f"field 'p' must be a fraction string, got {_echo(fields['p'])}")
        fields["p"] = parse_fraction(fields["p"])
    if "removed" in fields and not isinstance(fields["removed"], list):
        raise ParseError(
            f"field 'removed' must be a list of integers, got {_echo(fields['removed'])}")
    return family(**fields)


def parse_spec(text: str) -> ConstructionSpec:
    """Resolve a preset name, an svc:<m> form, or a JSON spec document."""
    if not isinstance(text, str):
        raise ParseError(f"a spec must be text, got {_echo(text)}")
    body = text.strip()
    if body in PRESETS:
        return PRESETS[body]
    if body.startswith("svc:"):
        tail = body[4:]
        if not _INT_RE.fullmatch(tail):
            raise ParseError(f"svc preset needs an integer base, got {_echo(tail)}")
        try:
            m = int(tail)
        except ValueError:
            raise _too_many_digits("svc preset", tail) from None
        return Power(m)
    if body.startswith(("{", "[")):
        return _parse_document(body)
    raise ParseError(
        f"unknown preset {_echo(body)}; expected one of {sorted(PRESETS)}, "
        "svc:<m>, or a JSON spec document")


def _spec_doc(spec: ConstructionSpec) -> dict:
    """The canonical spec document as a dict, the `spec` field of JSON output.

    A value that is not a spec is refused (`_self_similar`).
    """
    _self_similar(spec)
    if isinstance(spec, Proportional):
        return {"type": "proportional", "p": fraction_str(spec.p)}
    if isinstance(spec, Power):
        return {"type": "power", "m": spec.m}
    return {"type": "subdivision", "n": spec.n, "removed": sorted(spec.removed)}


def emit_spec(spec: ConstructionSpec) -> str:
    """Canonical spec document text; parse_spec(emit_spec(s)) == s."""
    return json.dumps(_spec_doc(spec))
