"""Exact-arithmetic toolkit for Cantor-like deletion constructions.

Builds construction stages with exact rational endpoints, decides limit
membership, computes stage and limit measures, detects digit-expansion
characterizations, evaluates the digit-halving (Cantor) function, and
renders deterministic SVG iteration diagrams.

Each public name is declared once, in `_EXPORTS`, under the module that
defines it, and `__all__` is read from that table. `import cantorkit`
loads none of those modules: the first read of a name (`cantorkit.name`,
`from cantorkit import name` or a star import) imports its module and
stores the name here (PEP 562 `__getattr__`), so every later read is a
plain lookup.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "CANTOR_TERNARY",
        "Characterized",
        "CharacterizationVerdict",
        "DigitExpansion",
        "ExpansionSpec",
        "MismatchWitness",
        "NotCharacterizable",
        "allowed_expansion",
        "cantor_function",
        "characterization_equivalence_check",
        "contraction_ratios",
        "expansion_characterization",
        "expansion_membership",
        "limit_is_degenerate",
        "limit_measure",
        "max_component_length",
        "similarity_dimension",
        "stage_measure",
    ),
    "constructions": (
        "DEFAULT_DEPTH_CAP",
        "MAX_ENUMERATED_INTERVALS",
        "ConstructionSpec",
        "ExcludedAtDepth",
        "MemberByCycle",
        "MemberByEndpoint",
        "MembershipVerdict",
        "Power",
        "Proportional",
        "Stage",
        "Subdivision",
        "UndecidedMemberToDepth",
        "iterate",
        "limit_membership",
        "stage_membership",
        "verdict_is_member",
    ),
    "errors": ("CantorKitError", "DomainError", "ParseError", "ResourceLimitError",
               "ValidationError"),
    "exact": ("ClosedInterval", "IntervalUnion"),
    "render": ("RenderConfig", "render_svg"),
    "spec_io": ("PRESETS", "emit_spec", "fraction_str", "parse_fraction", "parse_spec"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str) -> object:
    """A public name read for the first time: import its module, keep the name here."""
    for module, names in _EXPORTS.items():
        if name in names:
            # `from .module import name`, through the import statement's own
            # path (so `-X importtime` reports the module).
            value = getattr(__import__(module, globals(), None, (name,), 1), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
