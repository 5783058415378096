"""Exact trace codes over finite commutative rings.

Everything is integer arithmetic: character sums over unit multiples are
integers read off Ramanujan sums, and every weight and transform value is an
integer numerator over a denominator its table or enumerator carries.  Each
ring has one gamma = 1 homogeneous-weight table, checked against the
axiomatic solve when it is built; transform values are derived from it.
Only ``parse_gamma`` imports ``fractions``, for a gamma spelled like
``0.5``, so no other job loads it.
"""

from .codes import (Code, CodeFunction, WeightEnumerator, build_code,
                    closed_form_enumerator, closed_form_spectrum, code_from_specs,
                    code_spectrum, frank_map, function_from_spec, power_map,
                    sigma_quadratic_map, weight_enumerator)
from .errors import (BadPermutation, BudgetExceeded, HomringError,
                     InternalInvariantViolation, InvalidParameter, NotLocal,
                     NotTwoWeight, OutOfRange, ParseError, UnknownPreset,
                     ValidationFailed, WrongRingFamily)
from .graphs import (CodeGraph, SRGFailure, SRGParams, connected_components,
                     is_modular, srg_check, two_weight_graph)
from .rings import (GaloisRing, IntegerModRing, Ring, TableRing, fxy_ring,
                    make_galois_ring, make_integer_ring, ring_from_spec,
                    subring_embedding, z4x_ring)
from .traces import (Character, TraceMap, TraceReport, canonical_character,
                     enumerate_trace_maps, galois_trace, generating_character,
                     identity_trace, trace_from_spec, validate_trace)
from .weights import (WeightTable, hamming_table, hom_weight,
                      hom_weight_axiomatic, parse_gamma, validate_weight)

__version__ = "0.1.0"

__all__ = [
    "BadPermutation", "BudgetExceeded", "Character", "Code", "CodeFunction",
    "CodeGraph", "GaloisRing", "HomringError", "IntegerModRing",
    "InternalInvariantViolation", "InvalidParameter", "NotLocal",
    "NotTwoWeight", "OutOfRange",
    "ParseError", "Ring", "SRGFailure", "SRGParams", "TableRing", "TraceMap",
    "TraceReport", "UnknownPreset", "ValidationFailed", "WeightEnumerator",
    "WeightTable", "WrongRingFamily",
    "build_code", "canonical_character", "closed_form_enumerator",
    "closed_form_spectrum", "code_from_specs", "code_spectrum",
    "connected_components",
    "enumerate_trace_maps", "frank_map",
    "function_from_spec", "fxy_ring", "galois_trace", "generating_character",
    "hamming_table", "hom_weight", "hom_weight_axiomatic", "identity_trace",
    "is_modular", "make_galois_ring", "make_integer_ring", "parse_gamma",
    "power_map", "ring_from_spec", "sigma_quadratic_map", "srg_check",
    "subring_embedding", "trace_from_spec", "two_weight_graph",
    "validate_trace", "validate_weight", "weight_enumerator", "z4x_ring",
]
