"""Self-orthogonal rank-metric code toolkit.

Constructs random self-orthogonal rank-metric codes in both the matrix
(GF(q)-linear) and vector (GF(q^m)-linear) representations via the
quadratic-form route, and verifies their combinatorial and
list-decodability properties against brute-force oracles at desk scale.
"""

from .balls import ball_size_exact, gaussian_binomial
from .construct import sample_code_star, so_code
from .errors import BudgetError, FormatError, ParamError, SizeError, ToolkitError
from .fields import ExtField, Field, ext_field, field_from_q, find_self_dual_basis
from .quadforms import QuadraticForm, count_roots_brute, count_roots_formula, rank_of_form, sample_root
from .words import (
    LinearCode,
    MatrixWord,
    VectorWord,
    dual,
    dump_code,
    is_self_orthogonal,
    load_code,
    rank_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ExtField",
    "Field",
    "FormatError",
    "LinearCode",
    "MatrixWord",
    "ParamError",
    "QuadraticForm",
    "SizeError",
    "ToolkitError",
    "VectorWord",
    "ball_size_exact",
    "count_roots_brute",
    "count_roots_formula",
    "dual",
    "dump_code",
    "ext_field",
    "field_from_q",
    "find_self_dual_basis",
    "gaussian_binomial",
    "is_self_orthogonal",
    "load_code",
    "rank_distance",
    "rank_of_form",
    "sample_code_star",
    "sample_root",
    "so_code",
]
