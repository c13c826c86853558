"""The layers of msograph as the traced run sees them, and the per-layer
metrics derived from their spans.

A layer is a module.  ``targets()`` names the exported functions whose
calls are timed; ``spans.install`` wraps each wherever the program or
the benchmark looks it up.  ``metrics()`` turns the spans of the traced
children of one run into per-layer numbers, each the mean per pass.
"""

from __future__ import annotations

from spans import Spans

# Every predicate of word.mso that materialize_all tabulates, in library
# order; test_perfbench checks the list against the library.
WORD_PREDICATES = (
    "colour_0", "rlboundary", "samecolumn", "adjcolumn", "domain", "eta_0",
    "eta_1", "eta_2", "rhscolumn_2", "rhscolumn_1", "rhscolumn_0",
    "lessthan", "gamma_2", "gamma_1", "gamma_0", "hedge", "zreach",
    "prepenultedge", "vedge", "gridpoint", "griddomain")


def _materialized(spans: Spans, args, kwargs, result, seconds) -> None:
    # materialize(G, lib, name, ...) as materialize_all calls it: the
    # dependencies are already in the shared tables, so the call's time
    # and rows belong to the predicate it names.
    name = args[2]
    spans.counters[f"logic.materialize.{name}_s"] += seconds
    spans.counters[f"logic.materialize.{name}_rows"] += len(result)
    spans.counters["logic.rows"] += len(result)


def _applied(spans: Spans, args, kwargs, result, seconds) -> None:
    spans.counters["interpret.domain_evals"] += args[1].n
    spans.counters["interpret.edge_evals"] += result.n * result.n


def _isomorphic(spans: Spans, args, kwargs, result, seconds) -> None:
    if result is not None:
        spans.counters["search.isomorphic_hits"] += 1


def _cliquewidth(spans: Spans, args, kwargs, result, seconds) -> None:
    spans.counters["widths.cliquewidth_k_sum"] += result[0]


def targets() -> list[tuple]:
    """(module, attribute, span name, kind, options) for each function."""
    from msograph import (bichain_family, graphs, interpret, logic, search,
                          widths, word_family)
    logic_unknown = {"unknown": ("logic.unknown",
                                 (logic.SetQuantifierCapError,))}
    search_unknown = {"unknown": ("search.unknown",
                                  (search.BudgetExhausted,))}
    widths_unknown = {"unknown": ("widths.unknown",
                                  (widths.SizeCapExceeded,
                                   search.BudgetExhausted))}
    call, gen = "call", "generator"
    return [
        (graphs, "grid", "graphs.build", call, {}),
        (graphs, "upper_tri_grid", "graphs.build", call, {}),
        (graphs, "make_Tn", "graphs.build", call, {}),
        (graphs, "contract_subdivision", "graphs.contract", call, {}),
        (word_family, "build_Hn", "word_family.build", call, {}),
        (bichain_family, "build_Zn", "bichain_family.build", call, {}),
        (bichain_family, "build_Pn", "bichain_family.build", call, {}),
        (logic, "parse_formula", "logic.parse", call, {}),
        (logic, "parse_library", "logic.parse", call, {}),
        (logic, "materialize_all", "logic.materialize_all", call,
         logic_unknown),
        (logic, "materialize", "logic.materialize", call,
         dict(logic_unknown, on_result=_materialized)),
        (logic, "evaluate", "logic.evaluate", call, logic_unknown),
        (logic, "relativize", "logic.rewrite", call, {}),
        (logic, "tc_naive_encoding", "logic.rewrite", call, {}),
        (interpret, "apply", "interpret.apply", call,
         dict(logic_unknown, on_result=_applied)),
        (interpret, "apply_all_params", "interpret.apply_all_params", gen,
         logic_unknown),
        (search, "is_isomorphic", "search.isomorphic", call,
         dict(search_unknown, on_result=_isomorphic)),
        (search, "is_induced_subgraph_of", "search.embed", call,
         search_unknown),
        (widths, "treewidth_exact", "widths.treewidth", call, widths_unknown),
        (widths, "cliquewidth_exact", "widths.cliquewidth", call,
         dict(widths_unknown, on_result=_cliquewidth)),
        (widths, "verify_tree_decomposition", "widths.certify", call, {}),
        (widths, "verify_k_expression", "widths.certify", call, {}),
    ]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(spans: Spans, passes: int, traced_wall_s: float,
            overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}, each the mean per
    traced pass; ``spans`` holds the merged spans of ``passes`` traced
    children, set-up included.  ``traced_wall_s`` is the mean traced
    pass time in seconds; ``overhead_ratio`` compares traced with
    untraced pass times in ref units."""
    per = 1.0 / passes
    c = spans.counters

    def secs(*names):  # time inside the named spans, nesting counted once
        return spans.outer_total(names) * per, "s"

    def count(value):
        return value * per, "count"

    iso_calls = spans.calls("search.isomorphic")
    census_applies = spans.calls("interpret.apply",
                                 parents=("interpret.apply_all_params",))
    direct = {"exclude": ("search.isomorphic",)}
    out = {
        "graphs.build_s": secs("graphs.build"),
        "word_family.build_s": secs("word_family.build"),
        "bichain_family.build_s": secs("bichain_family.build"),
        "graphs.contract_s": secs("graphs.contract"),
        "logic.parse_s": secs("logic.parse"),
        "logic.parse_calls": count(spans.calls("logic.parse")),
        "logic.materialize_s": secs("logic.materialize_all",
                                    "logic.materialize"),
        "logic.materialize_calls": count(spans.calls("logic.materialize")),
        "logic.rows": count(c["logic.rows"]),
    }
    for pred in WORD_PREDICATES:
        key = f"logic.materialize.{pred}"
        out[key + "_s"] = (c[key + "_s"] * per, "s")
        out[key + "_rows"] = count(c[key + "_rows"])
    out.update({
        "logic.evaluate_s": secs("logic.evaluate"),
        "logic.evaluate_calls": count(spans.calls("logic.evaluate")),
        "logic.rewrite_s": secs("logic.rewrite"),
        "interpret.apply_s": secs("interpret.apply"),
        "interpret.apply_calls": count(spans.calls("interpret.apply")),
        # apply's own work, the domain and edge scans, without tabulation
        "interpret.apply_self_s": (spans.self_time("interpret.apply") * per,
                                   "s"),
        "interpret.domain_evals": count(c["interpret.domain_evals"]),
        "interpret.edge_evals": count(c["interpret.edge_evals"]),
        "interpret.dedupe_keep_ratio": (_ratio(
            c["interpret.apply_all_params.yields"], census_applies), "ratio"),
        "search.isomorphic_s": secs("search.isomorphic"),
        "search.isomorphic_calls": count(iso_calls),
        "search.isomorphic_hit_ratio": (_ratio(c["search.isomorphic_hits"],
                                               iso_calls), "ratio"),
        # embeddings asked for directly, not the ones is_isomorphic runs
        "search.embed_s": (spans.total("search.embed", **direct) * per, "s"),
        "search.embed_calls": count(spans.calls("search.embed", **direct)),
        "widths.treewidth_s": secs("widths.treewidth"),
        "widths.treewidth_calls": count(spans.calls("widths.treewidth")),
        "widths.cliquewidth_s": secs("widths.cliquewidth"),
        "widths.cliquewidth_calls": count(spans.calls("widths.cliquewidth")),
        "widths.cliquewidth_k_sum": count(c["widths.cliquewidth_k_sum"]),
        "widths.certify_s": secs("widths.certify"),
        # certification minus the isomorphism search it delegates
        "widths.certify_self_s": (spans.self_time("widths.certify") * per,
                                  "s"),
        "logic.unknown": count(c["logic.unknown"]),
        "search.unknown": count(c["search.unknown"]),
        "widths.unknown": count(c["widths.unknown"]),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return out
