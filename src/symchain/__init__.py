"""Exact-arithmetic constraint-chain analysis for first-order Lagrangians.

The symplectic (Faddeev-Jackiw style) procedure with the truncation
rule generates second-class constraint chains from left null vectors of
extended symplectic matrices; an independent Dirac-Bergmann consistency
oracle validates every run.  All computation is over exact rationals.
"""

from .chain import (
    Candidate,
    ChainError,
    ChainOptions,
    ChainReport,
    Constraint,
    Termination,
    assemble_extended_matrix,
    run_chain,
    span_fingerprint,
)
from .dirac import (
    ConstraintMatrix,
    OracleResult,
    SpanVerdict,
    classify,
    compare_spans,
    consistency_algorithm,
)
from .expressions import (
    EchelonBasis,
    Expression,
    ParseError,
    UnknownVariableError,
    VarTable,
    parse_expression,
)
from .lattice import (
    LatticeSpec,
    SiteStencil,
    build_schwinger,
    difference_matrix,
    map_constraint_to_sites,
)
from .linalg import (
    RationalMatrix,
    determinant,
    left_null_space,
    rank,
    rref,
)
from .model import (
    FirstOrderModel,
    ModelFormatError,
    SecondOrderLagrangian,
    legendre_transform,
    load_model,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "ChainError",
    "ChainOptions",
    "ChainReport",
    "Constraint",
    "ConstraintMatrix",
    "EchelonBasis",
    "Expression",
    "FirstOrderModel",
    "LatticeSpec",
    "ModelFormatError",
    "OracleResult",
    "ParseError",
    "RationalMatrix",
    "SecondOrderLagrangian",
    "SiteStencil",
    "SpanVerdict",
    "Termination",
    "UnknownVariableError",
    "VarTable",
    "assemble_extended_matrix",
    "build_schwinger",
    "classify",
    "compare_spans",
    "consistency_algorithm",
    "determinant",
    "difference_matrix",
    "left_null_space",
    "legendre_transform",
    "load_model",
    "map_constraint_to_sites",
    "parse_expression",
    "rank",
    "rref",
    "run_chain",
    "save_model",
    "span_fingerprint",
]
