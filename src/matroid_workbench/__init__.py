"""Exact computational workbench for matroid invariants.

Rank oracles over several backings feed four pipelines: Tutte /
characteristic / h polynomials, Orlik-Solomon algebras with nbc bases,
Euler-characteristic tables by torus fixed-point localization, and toric
quadric-generation (fiber connectivity) checks. Everything is exact —
integers, rationals, and prime fields only.
"""

from .errors import (
    InternalInvariantViolation,
    InvalidField,
    InvalidInput,
    LooplessRequired,
    TooLarge,
    WorkbenchError,
)
from .fields import QQ, PrimeField, RationalField, field_from_name
from .matroids import (
    Matroid,
    from_bases,
    from_descriptor,
    from_graph,
    from_matrix,
    uniform,
)
from .polynomials import BivariatePoly, UnivariatePoly
from .tutte import (
    char_poly,
    h_matrix,
    h_polynomial,
    rank_size_counts,
    reduced_char_poly,
    tutte_dc,
    tutte_sum,
)
from .orlik_solomon import (
    ExteriorElement,
    broken_circuits,
    koszul_boundary,
    nbc_sets,
    normal_form,
    os_dimensions,
    os_multiply,
    os_space,
    reduced_nbc_basis,
    reduced_nbc_index_sets,
    reduced_os_dimensions,
)
from .localization import calibrate_signs, euler_table
from .white import check_degree, symmetric_exchange_neighbors, toric_fibers
from .corpus import CORPUS, corpus_matroid, verify_corpus

__version__ = "0.1.0"

__all__ = [
    "BivariatePoly",
    "CORPUS",
    "ExteriorElement",
    "InternalInvariantViolation",
    "InvalidField",
    "InvalidInput",
    "LooplessRequired",
    "Matroid",
    "PrimeField",
    "QQ",
    "RationalField",
    "TooLarge",
    "UnivariatePoly",
    "WorkbenchError",
    "broken_circuits",
    "calibrate_signs",
    "char_poly",
    "check_degree",
    "corpus_matroid",
    "euler_table",
    "field_from_name",
    "from_bases",
    "from_descriptor",
    "from_graph",
    "from_matrix",
    "h_matrix",
    "h_polynomial",
    "koszul_boundary",
    "nbc_sets",
    "normal_form",
    "os_dimensions",
    "os_multiply",
    "os_space",
    "rank_size_counts",
    "reduced_char_poly",
    "reduced_nbc_basis",
    "reduced_nbc_index_sets",
    "reduced_os_dimensions",
    "symmetric_exchange_neighbors",
    "toric_fibers",
    "tutte_dc",
    "tutte_sum",
    "uniform",
    "verify_corpus",
]
