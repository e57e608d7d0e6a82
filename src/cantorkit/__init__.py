"""Exact-arithmetic toolkit for Cantor-like deletion constructions.

Builds construction stages with exact rational endpoints, decides limit
membership, computes stage and limit measures, detects digit-expansion
characterizations, evaluates the digit-halving (Cantor) function, and
renders deterministic SVG iteration diagrams.
"""

from .analysis import (
    CANTOR_TERNARY,
    Characterized,
    CharacterizationVerdict,
    DigitExpansion,
    ExpansionSpec,
    MismatchWitness,
    NotCharacterizable,
    allowed_expansion,
    cantor_function,
    characterization_equivalence_check,
    contraction_ratios,
    expansion_characterization,
    expansion_membership,
    limit_is_degenerate,
    limit_measure,
    max_component_length,
    similarity_dimension,
    stage_measure,
)
from .constructions import (
    DEFAULT_DEPTH_CAP,
    MAX_ENUMERATED_INTERVALS,
    ConstructionSpec,
    ExcludedAtDepth,
    MemberByCycle,
    MemberByEndpoint,
    MembershipVerdict,
    Power,
    Proportional,
    Stage,
    Subdivision,
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
from .exact import (
    ClosedInterval,
    IntervalUnion,
)
from .render import RenderConfig, render_svg
from .spec_io import PRESETS, emit_spec, fraction_str, parse_fraction, parse_spec

__version__ = "0.1.0"

__all__ = [
    "CANTOR_TERNARY",
    "CantorKitError",
    "Characterized",
    "CharacterizationVerdict",
    "ClosedInterval",
    "ConstructionSpec",
    "DEFAULT_DEPTH_CAP",
    "DigitExpansion",
    "DomainError",
    "ExcludedAtDepth",
    "ExpansionSpec",
    "IntervalUnion",
    "MAX_ENUMERATED_INTERVALS",
    "MemberByCycle",
    "MemberByEndpoint",
    "MembershipVerdict",
    "MismatchWitness",
    "NotCharacterizable",
    "ParseError",
    "Power",
    "PRESETS",
    "Proportional",
    "RenderConfig",
    "ResourceLimitError",
    "Stage",
    "Subdivision",
    "UndecidedMemberToDepth",
    "ValidationError",
    "allowed_expansion",
    "cantor_function",
    "characterization_equivalence_check",
    "contraction_ratios",
    "emit_spec",
    "expansion_characterization",
    "expansion_membership",
    "fraction_str",
    "iterate",
    "limit_is_degenerate",
    "limit_measure",
    "limit_membership",
    "max_component_length",
    "parse_fraction",
    "parse_spec",
    "render_svg",
    "similarity_dimension",
    "stage_measure",
    "stage_membership",
    "verdict_is_member",
]
