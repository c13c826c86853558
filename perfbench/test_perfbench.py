"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import spans as spans_mod  # noqa: E402
import workloads  # noqa: E402
from msograph import graphs, search, widths, word_family  # noqa: E402
from msograph.logic import MAX_MATERIALIZE_ARITY, is_set_var  # noqa: E402


class FakeClock:
    """Each reading advances time by the next step."""

    def __init__(self, steps):
        self.now, self.steps = 0.0, list(steps)

    def __call__(self):
        value = self.now
        if self.steps:
            self.now += self.steps.pop(0)
        return value


def test_self_time_is_span_minus_children():
    # readings: outer start, inner start/end, inner start/end, outer end
    sp = spans_mod.Spans(clock=FakeClock([1.0, 2.0, 0.5, 3.0, 0.25, 0.0]))
    inner = sp.wrap(lambda: None, "search.embed")

    def body():
        inner()
        inner()

    sp.wrap(body, "search.isomorphic")()
    count, total, self_s = sp.agg[("search.isomorphic", "")]
    assert (count, total) == (1, 6.75)
    children = sp.total("search.embed", parents=("search.isomorphic",))
    assert children == 5.0
    assert self_s == total - children == 1.75
    assert sp.agg[("search.embed", "search.isomorphic")] == [2, 5.0, 5.0]
    assert sp.outer_total(("search.isomorphic", "search.embed")) == 6.75


def test_merge_adds_aggregates():
    sp = spans_mod.Spans(clock=FakeClock([1.0, 0.0]))
    sp.wrap(lambda: None, "logic.parse")()
    sp.counters["logic.rows"] += 3
    merged = spans_mod.Spans()
    merged.merge(sp.to_json())
    merged.merge(sp.to_json())
    assert merged.agg[("logic.parse", "")] == [2, 2.0, 2.0]
    assert merged.counters["logic.rows"] == 6


def test_unknown_verdict_counts_as_failed():
    def budget_hit():
        raise search.BudgetExhausted(10)

    out = workloads.judge(workloads.Item("x", ("a", "b"), budget_hit))
    assert (out.attempted, out.failed, out.unknown) == (2, 2, 2)
    out = workloads.judge(workloads.Item("y", ("a", "b"),
                                         lambda: (True, False)))
    assert (out.attempted, out.failed, out.unknown) == (2, 1, 0)


def test_unknown_counted_once_by_the_innermost_span():
    sp = spans_mod.Spans()
    unknown = {"unknown": ("search.unknown", (search.BudgetExhausted,))}

    def hit():
        raise search.BudgetExhausted(1)

    inner = sp.wrap(hit, "search.embed", **unknown)
    outer = sp.wrap(lambda: inner(), "search.isomorphic", **unknown)
    with pytest.raises(search.BudgetExhausted):
        outer()
    assert sp.counters["search.unknown"] == 1
    assert sp.agg[("search.isomorphic", "")][0] == 1


def test_generator_steps_are_spans():
    sp = spans_mod.Spans()
    child = sp.wrap(lambda x: x, "interpret.apply")

    def gen():
        for i in range(3):
            yield child(i)

    assert list(sp.wrap_generator(gen, "interpret.apply_all_params")()) \
        == [0, 1, 2]
    assert sp.counters["interpret.apply_all_params.yields"] == 3
    assert sp.calls("interpret.apply_all_params") == 4  # 3 items + the end
    assert sp.calls("interpret.apply",
                    parents=("interpret.apply_all_params",)) == 3


def test_install_wraps_every_lookup_and_uninstall_restores():
    original = search.is_isomorphic
    sp = spans_mod.Spans()
    undo = spans_mod.install(sp, [(search, "is_isomorphic",
                                   "search.isomorphic", "call", {})])
    try:
        assert widths.is_isomorphic is search.is_isomorphic is not original
        assert widths.verify_k_expression(*_k2_expression())
        assert sp.calls("search.isomorphic", parents=("",)) == 1
    finally:
        spans_mod.uninstall(undo)
    assert widths.is_isomorphic is search.is_isomorphic is original


def _k2_expression():
    G = graphs.grid(1, 2)
    _, expr = widths.cliquewidth_exact(G)
    return G, expr


def test_word_predicate_list_matches_library():
    lib = word_family.word_predicates()
    tabulated = tuple(d.name for d in lib.defs
                      if len(d.params) <= MAX_MATERIALIZE_ARITY
                      and not any(is_set_var(p) for p in d.params))
    assert layers.WORD_PREDICATES == tabulated


def test_workload_names_agree():
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)


def test_layer_metrics_of_empty_trace_are_zero():
    out = layers.metrics(spans_mod.Spans(), 1, 2.0, 1.1)
    assert out["trace.wall_s"] == (2.0, "s")
    assert out["trace.overhead_ratio"] == (1.1, "ratio")
    assert all(value == 0 for name, (value, _) in out.items()
               if not name.startswith("trace."))


def test_same_seed_same_inputs():
    a = workloads.sentence_check(5)
    b = workloads.sentence_check(5)
    assert [i.run.__defaults__ for i in a[:20]] == \
        [i.run.__defaults__ for i in b[:20]]


def test_items_are_timed_against_the_slices_around_them():
    import child
    from reference import SpeedSampler
    items = [workloads.Item(f"i{k}", ("c",), lambda: (True,))
             for k in range(3)]
    wall, rows = child.run_items(items, workloads.judge, SpeedSampler())
    assert [row[:5] for row in rows] == \
        [[f"i{k}", row[1], 1, 0, 0] for k, row in enumerate(rows)]
    assert wall == sum(row[1] for row in rows)
    # items this short see only the slice before the first item and
    # the one after the last
    assert len({row[5] for row in rows}) == 1 and rows[0][5] > 0


def test_sampler_clock_leaves_out_the_slices():
    from reference import SpeedSampler
    sampler = SpeedSampler()
    t0 = sampler.clock()
    sampler.sample()
    sampler.sample()
    assert sampler.clock() - t0 < sum(sampler.samples)


def test_setup_is_scaled_by_each_childs_interpreter_start():
    children = [{"setup_s": 0.30, "start_s": 0.10},  # a slow moment
                {"setup_s": 0.15, "start_s": 0.05},  # a fast one
                {"setup_s": 0.35, "start_s": 0.10}]
    assert run.setup_seconds(children) == \
        pytest.approx(3.0 * run.NOMINAL_START_S)
