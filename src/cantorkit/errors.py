"""Exception taxonomy shared across the toolkit.

Each kind carries the code the CLI writes in its JSON error line and the
CLI's exit status: parse and validation problems exit 2, domain errors 3,
resource refusals 4, and any other toolkit error is reported as
"internal" with exit 1.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from fractions import Fraction


class CantorKitError(Exception):
    """Base class for all toolkit errors."""
    code, status = "internal", 1


class ParseError(CantorKitError):
    """Input text (spec document, preset name, fraction) could not be parsed."""
    code, status = "parse", 2


class ValidationError(CantorKitError):
    """A value violates a structural invariant."""
    code, status = "validation", 2


class DomainError(CantorKitError):
    """An argument lies outside the mathematical domain of an operation."""
    code, status = "domain", 3


class ResourceLimitError(CantorKitError):
    """Refused for size: an enumeration over its bound, out of memory, or the int-string limit."""
    code, status = "resource", 4


def _digit_count(n: int) -> int:
    """Decimal digits of n, found without writing n out."""
    n = abs(n)
    # 0.30103 > log10(2), so this never undercounts.
    digits = n.bit_length() * 30103 // 100000 + 1
    while digits > 1 and n < 10 ** (digits - 1):
        digits -= 1
    return digits


def _written(value: object, show: Callable[[object], str]) -> str:
    """show(value), never raising: an integer over the int-string limit by its digit count."""
    try:
        return show(value)
    except ValueError:
        if isinstance(value, Fraction) and value.denominator != 1:
            return f"{_written(value.numerator, str)}/{_written(value.denominator, str)}"
        if isinstance(value, (int, Fraction)):
            return f"{'-' * (value < 0)}<{_digit_count(int(value))}-digit integer>"
        return f"<{type(value).__name__} too long to write>"


def _fits(shown: str) -> bool:
    """Whether `shown` takes at most 150 bytes inside the JSON error line."""
    # JSON writes printable ASCII in at most two bytes a character.
    return (len(shown) <= 75 and shown.isascii() and shown.isprintable()
            or len(json.dumps(shown)) <= 152)


def _shorten(text: str, show: Callable[[str], str]) -> str:
    """show(text), or show() of its first characters followed by its length.

    The cut comes after 100 characters, or sooner where the shown part would
    take more than 150 bytes of the JSON error line (escapes, non-ASCII), so
    that one error line stays under 512 bytes.
    """
    cut = min(len(text), 100)
    shown = show(text[:cut])
    while not _fits(shown):
        cut -= 1
        shown = show(text[:cut])
    if cut == len(text):
        return shown
    return f"{shown}... ({len(text)} characters)"


def _echo(value: object) -> str:
    """An offending value as its repr, cut to a bounded size (see `_shorten`)."""
    if isinstance(value, str):
        return _shorten(value, repr)
    return _shorten(_written(value, repr), str)


def _cut(value: object) -> str:
    """An offending value shown as str() does, cut to a bounded size (see `_shorten`)."""
    return _shorten(_written(value, str), str)
