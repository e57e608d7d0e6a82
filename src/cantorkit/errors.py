"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes: parse and validation problems exit 2,
domain errors 3, resource refusals 4.
"""

from __future__ import annotations

import json
from typing import Callable


class CantorKitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CantorKitError):
    """Input text (spec document, preset name, fraction) could not be parsed."""


class ValidationError(CantorKitError):
    """A value violates a structural invariant."""


class DomainError(CantorKitError):
    """An argument lies outside the mathematical domain of an operation."""


class ResourceLimitError(CantorKitError):
    """An enumeration would exceed the configured size limit."""


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
    return _shorten(repr(value), str)


def _cut(text: str) -> str:
    """Offending text shown as it is, cut to a bounded size (see `_shorten`)."""
    return _shorten(text, str)
