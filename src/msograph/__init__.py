"""Finite labeled graphs, MSO evaluation, interpretations, and width oracles.

The exported names are loaded on first use (PEP 562): ``import msograph``
alone imports none of the package's modules.  A name imports its module
the first time it is looked up, and so does a module of the package read
as an attribute.
"""

from importlib import import_module

# each module and the names the package exports from it
_MODULES = {
    "graphs": (
        "LabeledGraph", "SubdivisionPlan", "antichain_member_In",
        "branch_vertices", "contract_subdivision", "grid", "induced_subgraph",
        "make_Tn", "mn", "subdivide", "tri_corner_grid",
        "uniform_subdivide_utg", "upper_tri_grid",
    ),
    "search": (
        "is_antichain", "is_induced_subgraph_of", "is_isomorphic",
    ),
    "logic": (
        "PredicateLibrary", "evaluate", "materialize", "materialize_all",
        "parse_formula", "parse_library", "relativize", "tc_naive_encoding",
    ),
    "interpret": (
        "Interpretation", "Pipeline", "apply", "apply_all_params",
        "builtin_complement", "builtin_induced", "compose_pipeline",
        "parse_interpretation",
    ),
    "word_family": (
        "build_Gn", "build_Hn", "delta_interp", "gamma_contract_interp",
        "grid_parameter_O", "palpha_segment", "plan_Gn", "word_ground_truth",
        "word_predicates",
    ),
    "bichain_family": (
        "bichain_ground_truth", "bichain_predicates", "build_Pn", "build_Zn",
        "psi_bichain", "psi_split", "split_from_bichain", "zn_parts",
    ),
    "power_family": (
        "build_Dn", "check_power_input", "expected_embedding",
        "longest_factor_length", "phi_power", "power_ground_truth",
        "power_predicates",
    ),
    "widths": (
        "KExpression", "TreeDecomposition", "cliquewidth_exact",
        "extend_decomposition_for_subdivision", "treewidth_exact",
        "verify_k_expression", "verify_tree_decomposition",
    ),
    "verify": (
        "SUITES", "VerificationReport", "run_suite",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items()
            for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
        globals()[name] = value  # later lookups do not come here
        return value
    if not name.startswith("_"):  # a module of the package
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
