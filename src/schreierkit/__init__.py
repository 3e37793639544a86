"""Finite-window combinatorics of Schreier families and family norms.

Exact rational arithmetic throughout: families of finite sets with their
closure/trace/block algebra, generalized Schreier families indexed by
ordinals below omega^omega, family norms and their block-aggregated and
interpolated variants, and a symbolic engine for the density-projection
counterexample family, all backed by brute-force-checkable verification
suites (see the ``schreierkit`` command line).
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; a submodule is imported on
# first access to one of its names, so a CLI call loads only what it runs
_EXPORTS = {
    name: module
    for module, names in {
        "families": (
            "Family", "PartitionMeasure", "UniformTraceResult",
            "bounded_cardinality_family", "best_set_sum", "find_uniform_trace",
            "finite_set", "g_delta_mu", "g_lambda", "g_plus", "hereditary_closure",
            "interval", "is_hereditary", "largeness_witness", "oplus", "otimes",
            "restrict", "trace",
        ),
        "interpolation": (
            "DfjpNormResult", "GaugeBracket", "GaugeProblem", "dfjp_gauge", "dfjp_norm",
            "inner_distance",
        ),
        "lp": ("LPResult", "solve_lp"),
        "norms": (
            "NormingSpec", "SpreadingResult", "alpha_null_witness", "baernstein_norm",
            "block_p_norm_power", "cesaro_profile", "eps_support_family", "f_norm",
            "spreading_constant", "uniform_weak_bound",
        ),
        "schreier": (
            "InclusionReport", "OrdinalCNF", "barrier_member", "check_inclusion",
            "fundamental_sequence", "parse_ordinal", "schreier_enumerate",
            "schreier_family", "schreier_member",
        ),
        "tfamily": (
            "IndexPoint", "PigeonholeReport", "SymbolicSet", "TParams",
            "TransversalReport", "averages_norm", "barrier_window_members",
            "erdos_hajnal_count", "erdos_hajnal_member", "f_of_u", "index_cardinality",
            "pigeonhole_intersection_empty", "measure_ratio", "point_membership",
            "point_to_integer", "radius", "sample_in", "sample_point",
            "transversal_norm", "transversal_norms", "transversal_trace_report",
        ),
        "vectors": ("SparseVector",),
    }.items()
    for name in names
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
