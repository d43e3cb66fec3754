"""Ramsey-style combinatorics on well-founded trees.

Exact ordinal arithmetic below epsilon-zero, finite tree derivative and
rank calculus, symbolic canonical trees, constructive stabilization of
node and pair colorings, contraction machinery on canonical trees, and
independent brute-force verification oracles.
"""

from .canonical import (
    CanonicalNode,
    CanonicalTree,
    Truncation,
    instantiate,
    node_tau,
    pair_facts,
    rank_symbolic,
    separation,
    truncate,
)
from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalError,
    add,
    compare,
    factorize,
    format_ordinal,
    is_additively_indecomposable,
    is_multiplicatively_indecomposable,
    left_divide,
    left_subtract,
    mul,
    omega_pow,
    ordinal,
    parse_ordinal,
    sum_decompose,
)
from .rules import RuleColoring, parse_rule
from .stabilize import (
    Coloring,
    StabilizationResult,
    extract_monochromatic,
    finite_ramsey,
    ramsey_reduce_levels,
    stabilize_leaf_chains,
    stabilize_levels,
    stabilize_pairs_by_level,
)
from .transfinite import (
    Budget,
    ContractionSpec,
    audit_contraction,
    contract,
    stabilize_transfinite,
)
from .tree_core import (
    FiniteTree,
    LevelDecomposition,
    graft,
    incomparable_union,
    levels,
    select_levels,
)
from .verify import (
    SearchReport,
    additive_obstruction,
    cross_validate,
    max_monochromatic_rank,
    max_monochromatic_rank_nodes,
    multiplicative_obstruction,
)

__all__ = [
    "OMEGA", "ONE", "ZERO", "Ordinal", "OrdinalError", "add", "compare",
    "factorize", "format_ordinal", "is_additively_indecomposable",
    "is_multiplicatively_indecomposable", "left_divide", "left_subtract",
    "mul", "omega_pow", "ordinal", "parse_ordinal", "sum_decompose",
    "FiniteTree", "LevelDecomposition", "graft", "incomparable_union", "levels",
    "select_levels",
    "CanonicalNode", "CanonicalTree", "Truncation",
    "instantiate", "node_tau", "rank_symbolic", "separation",
    "pair_facts", "truncate",
    "Coloring", "StabilizationResult", "extract_monochromatic", "finite_ramsey",
    "ramsey_reduce_levels", "stabilize_leaf_chains", "stabilize_levels",
    "stabilize_pairs_by_level",
    "RuleColoring", "parse_rule",
    "Budget", "ContractionSpec", "audit_contraction", "contract",
    "stabilize_transfinite",
    "SearchReport", "additive_obstruction", "cross_validate",
    "max_monochromatic_rank", "max_monochromatic_rank_nodes", "multiplicative_obstruction",
]

__version__ = "0.1.0"
