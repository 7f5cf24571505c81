"""Exact computational workbench for matroid invariants.

Rank oracles over several backings feed four pipelines: Tutte /
characteristic / h polynomials, Orlik-Solomon algebras with nbc bases,
Euler-characteristic tables by torus fixed-point localization, and toric
quadric-generation (fiber connectivity) checks. Everything is exact —
integers, rationals, and prime fields only.
"""

from importlib import import_module

# public name -> the module that defines it; each module is imported on first
# use of one of its names (PEP 562), so a command imports only what it runs
_SOURCES = {
    "errors": (
        "InternalInvariantViolation",
        "InvalidField",
        "InvalidInput",
        "LooplessRequired",
        "TooLarge",
        "WorkbenchError",
    ),
    "fields": ("QQ", "PrimeField", "RationalField", "field_from_name"),
    "matroids": ("Matroid", "from_bases", "from_descriptor", "from_graph", "from_matrix", "uniform"),
    "polynomials": ("BivariatePoly", "UnivariatePoly"),
    "tutte": (
        "char_poly",
        "h_matrix",
        "h_polynomial",
        "rank_size_counts",
        "reduced_char_poly",
        "tutte_dc",
        "tutte_sum",
    ),
    "orlik_solomon": (
        "ExteriorElement",
        "broken_circuits",
        "koszul_boundary",
        "nbc_sets",
        "normal_form",
        "os_dimensions",
        "os_multiply",
        "os_space",
        "reduced_nbc_basis",
        "reduced_nbc_index_sets",
        "reduced_os_dimensions",
    ),
    "localization": ("calibrate_signs", "euler_table"),
    "white": ("check_degree", "symmetric_exchange_neighbors", "toric_fibers"),
    "corpus": ("CORPUS", "corpus_matroid", "verify_corpus"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
