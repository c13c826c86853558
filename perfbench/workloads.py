"""The benchmark's four workloads.

A workload's ``setup(seed)`` builds every input and parses every
formula, library and interpretation, and returns a fixed list of
items.  An item is one input carried through all of its claims; its
``run`` returns one boolean verdict per claim.  The seed chooses edges,
labels, vertex numberings and formula shapes, never sizes, so the work
in a pass does not depend on the seed beyond what those choices imply.

Every call into the program goes through a module attribute
(``search.is_isomorphic(...)``), so the traced run sees it.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from msograph import (bichain_family, graphs, interpret, logic, search,
                      widths, word_family)
from msograph.logic import (And, EdgeAtom, Eq, ExistsS, ExistsV, ForallS,
                            ForallV, Iff, Implies, Not, Or, SetAtom)

# Outcomes the program reports as "unknown": a cap or a budget was hit.
UNKNOWN = (logic.SetQuantifierCapError, search.BudgetExhausted,
           widths.SizeCapExceeded)


@dataclass
class Item:
    name: str
    claims: tuple[str, ...]
    run: Callable[[], tuple[bool, ...]]


@dataclass
class Outcome:
    attempted: int
    failed: int
    unknown: int


def judge(item: Item) -> Outcome:
    """Run an item and count its verdicts.  A wrong verdict and an
    unknown one (a cap or budget hit) both count as failed; so does any
    other error, which is reported on stderr."""
    attempted = len(item.claims)
    try:
        verdicts = item.run()
    except UNKNOWN:
        return Outcome(attempted, attempted, attempted)
    except Exception as exc:  # a wrong answer of another kind
        print(f"item {item.name}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return Outcome(attempted, attempted, 0)
    if len(verdicts) != attempted:
        raise RuntimeError(f"item {item.name} returned {len(verdicts)} "
                           f"verdicts for {attempted} claims")
    return Outcome(attempted, sum(1 for v in verdicts if v is not True), 0)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def relabel(G: graphs.LabeledGraph, perm: list[int]) -> graphs.LabeledGraph:
    """An isomorphic copy of G with vertex v renamed perm[v]; labels and
    provenance names move with their vertices."""
    return graphs.LabeledGraph.build(
        G.n, [(perm[u], perm[v]) for u, v in G.edges],
        labels={k: [perm[v] for v in vs] for k, vs in G.labels.items()},
        names={perm[v]: G.name_of(v) for v in range(G.n)})


def shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_graph(rng: random.Random, n: int, p: float,
                 labels: tuple[str, ...] = ()) -> graphs.LabeledGraph:
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < p]
    labs = {k: [v for v in range(n) if rng.random() < 0.5] for k in labels}
    return graphs.LabeledGraph.build(n, edges, labels=labs)


# ---------------------------------------------------------------------------
# word-grid: the criterion-2 pipeline; tabulation carries the work
# ---------------------------------------------------------------------------

# `01` at n=2 (about 7 s) and every n=3 item (up to 30 s) are left out
# so that a pass fits several times into one run; `102` at n=2 is the
# item whose `lessthan` table sets the peak RSS.
WORD_ITEMS = (("12", 1), ("2", 1), ("102", 1), ("01", 1),
              ("12", 2), ("2", 2), ("102", 2))


def word_prefix(pattern: str, n: int) -> str:
    """The shortest repetition of pattern with 2n+4 non-0 letters."""
    reps = -(-(2 * n + 4) // sum(c != "0" for c in pattern))
    return pattern * reps


def word_grid(seed: int) -> list[Item]:
    rng = _rng("word-grid", seed)
    word_family.word_predicates()  # functools.cache: parse word.mso once
    delta = word_family.delta_interp()
    gamma = word_family.gamma_contract_interp()
    items = []
    for pattern, n in WORD_ITEMS:
        H = word_family.build_Hn(word_prefix(pattern, n), n)
        H = relabel(H, shuffled(rng, H.n))
        target = graphs.upper_tri_grid(2 * n)
        square = graphs.grid(n, n)

        def run(H=H, target=target, square=square):
            D = interpret.apply(delta, H)
            O = word_family.grid_parameter_O(D)
            via_formula = interpret.apply(gamma, D, [O])
            via_oracle = graphs.contract_subdivision(D, O)
            return (via_formula.edges == via_oracle.edges,
                    search.is_isomorphic(via_oracle, target) is not None,
                    search.is_induced_subgraph_of(square,
                                                  via_oracle) is not None)

        claims = ("gamma=contract", "contract~U_2n", "grid<=contract")
        items.append(Item(f"{pattern}-n{n}", claims, run))
    return items


# ---------------------------------------------------------------------------
# sentence-check: point evaluation by the tree walker over set masks
# ---------------------------------------------------------------------------

REL_ITEMS, REL_N, REL_A = 600, 6, 4
# A TC item checks every body on one connected graph with a fixed edge
# count.  The last TC item is the same for every seed, the ladder
# grid(2,4) with its first row labeled, and takes about three times as
# long as the others: it is the pass's longest wait, so item_max does
# not follow the seed's slowest random graph.
TC_ITEMS, TC_N, TC_M = 6, 7, 10
TC_BODIES = ("E(a, b)", "E(a, b) & L0(b)", "E(a, b) & L0(a) & L0(b)",
             "(E(a, b) | a = b) & !L0(a)")


def connected_graph(rng: random.Random, n: int, m: int,
                    labels: tuple[str, ...] = ()) -> graphs.LabeledGraph:
    """A seeded random spanning tree plus seeded extra edges, m in all."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    rest = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    edges |= set(rng.sample(rest, m - len(edges)))
    perm = shuffled(rng, n)
    labs = {k: [v for v in range(n) if rng.random() < 0.5] for k in labels}
    return graphs.LabeledGraph.build(
        n, [(perm[u], perm[v]) for u, v in edges], labels=labs)


def random_sentence(rng: random.Random) -> logic.Formula:
    """A prenex sentence with one set and two vertex quantifiers in a
    seeded order and polarity, over a seeded depth-2 matrix of E, = and
    membership atoms."""
    kinds = ["S", "v", "v"]
    rng.shuffle(kinds)
    vvars, svars, prefix = [], [], []
    for i, kind in enumerate(kinds):
        if kind == "S":
            svars.append(f"S{i}")
            prefix.append((rng.choice((ExistsS, ForallS)), f"S{i}"))
        else:
            vvars.append(f"v{i}")
            prefix.append((rng.choice((ExistsV, ForallV)), f"v{i}"))

    def atom():
        kind = rng.choice(("edge", "edge", "eq", "mem", "mem"))
        if kind == "edge":
            a = EdgeAtom(rng.choice(vvars), rng.choice(vvars))
        elif kind == "eq":
            a = Eq(rng.choice(vvars), rng.choice(vvars))
        else:
            a = SetAtom(svars[0], rng.choice(vvars))
        return Not(a) if rng.random() < 0.15 else a

    def matrix(depth):
        if depth == 0:
            return atom()
        op = rng.choice((And, Or, Implies, Iff))
        return op(matrix(depth - 1), matrix(depth - 1))

    f = matrix(2)
    for quantifier, var in reversed(prefix):
        f = quantifier(var, f)
    return f


def sentence_check(seed: int) -> list[Item]:
    rng = _rng("sentence-check", seed)
    items = []
    for i in range(REL_ITEMS):
        G = random_graph(rng, REL_N, 0.5)
        A = frozenset(rng.sample(range(REL_N), REL_A))
        f = random_sentence(rng)

        def run(G=G, A=A, f=f):
            inner = logic.evaluate(graphs.induced_subgraph(G, sorted(A)),
                                   None, f)
            outer = logic.evaluate(G, None, logic.relativize(f, "X"),
                                   {"X": A})
            return (inner == outer,)

        items.append(Item(f"rel-{i:04d}", ("G[A]|=f <=> G|=f^X",), run))
    bodies = [(logic.parse_formula(text),
               logic.parse_formula(f"TC[a, b: {text}](s, t)"))
              for text in TC_BODIES]
    ladder = graphs.grid(2, 4).with_labels({"L0": range(4)})
    tc_graphs = [connected_graph(rng, TC_N, TC_M, labels=("L0",))
                 for _ in range(TC_ITEMS)] + [ladder]
    for i, G in enumerate(tc_graphs):

        def run(G=G):
            verdicts = []
            for body, prim in bodies:
                naive = logic.tc_naive_encoding("a", "b", body, "s", "t")
                verdicts.append(all(
                    logic.evaluate(G, None, prim, {"s": s, "t": t}) ==
                    logic.evaluate(G, None, naive, {"s": s, "t": t})
                    for s in range(G.n) for t in range(G.n)))
            return tuple(verdicts)

        name = "tc-ladder" if G is ladder else f"tc-{i:02d}"
        claims = tuple(f"TC[{text}] = naive encoding" for text in TC_BODIES)
        items.append(Item(name, claims, run))
    return items


# ---------------------------------------------------------------------------
# census-iso: thousands of tiny applies, millions of isomorphism tests
# ---------------------------------------------------------------------------

CENSUS_HOSTS = {
    "grid(3,4)": lambda: graphs.grid(3, 4),
    "grid(2,6)": lambda: graphs.grid(2, 6),
    "grid(3,3)": lambda: graphs.grid(3, 3),
    "upper_tri_grid(4)": lambda: graphs.upper_tri_grid(4),
    "make_Tn(3)": lambda: graphs.make_Tn(3),
    "build_Pn(3)": lambda: bichain_family.build_Pn(3),
    "build_Zn(3)": lambda: bichain_family.build_Zn(3, with_labels=False),
}
# Fixed relabelings, the same for every seed: the time of a labeled
# isomorphism test swings several-fold with the shuffle.
ZN_RELABELINGS = ((5, 0), (5, 1), (5, 2), (6, 0))
CENSUS_EXPECTED = Path(__file__).with_name("census_expected.json")


def is_label_isomorphism(G, H, m) -> bool:
    if m is None or sorted(m) != list(range(G.n)) or \
            sorted(m.values()) != list(range(H.n)):
        return False
    return ({tuple(sorted((m[u], m[v]))) for u, v in G.edges} == set(H.edges)
            and all(frozenset(m[v] for v in vs) == H.labels[k]
                    for k, vs in G.labels.items()))


def census_iso(seed: int) -> list[Item]:
    rng = _rng("census-iso", seed)
    expected = json.loads(CENSUS_EXPECTED.read_text())
    induced = interpret.builtin_induced()
    items = []
    for name, make in CENSUS_HOSTS.items():
        G = make()
        G = relabel(G, shuffled(rng, G.n))

        def run(G=G, want=expected[name]):
            classes = sum(1 for _ in interpret.apply_all_params(
                induced, G, dedupe=True))
            return (classes == want,)

        items.append(Item(f"census {name}", ("classes = networkx count",),
                          run))
    for n, shuffle in ZN_RELABELINGS:
        Z = bichain_family.build_Zn(n)
        Z2 = relabel(Z, shuffled(random.Random(shuffle), Z.n))

        def run(Z=Z, Z2=Z2):
            m = search.is_isomorphic(Z, Z2, respect_labels=True)
            return (is_label_isomorphism(Z, Z2, m),)

        items.append(Item(f"Z_{n} relabeling {shuffle}",
                          ("labeled isomorphism found",), run))
    return items


# ---------------------------------------------------------------------------
# width-oracles: the exact treewidth DP and clique-width search
# ---------------------------------------------------------------------------

TW_ITEMS, TW_N = 4, 12
CW_ITEMS, CW_N = 4, 7


def _cw_bound_holds(cw: int, tw: int) -> bool:
    """cw <= 3 * 2^(tw-1) (Corneil & Rotics 2005); edgeless graphs have
    tw 0 and cw 1."""
    return cw <= 3 * 2 ** (tw - 1) if tw >= 1 else cw == 1


def width_oracles(seed: int) -> list[Item]:
    rng = _rng("width-oracles", seed)
    items = []
    for i in range(TW_ITEMS):
        G = random_graph(rng, TW_N, 0.3)

        def run(G=G):
            tw, td = widths.treewidth_exact(G)
            return (widths.verify_tree_decomposition(G, td), td.width == tw)

        items.append(Item(f"tw random n={TW_N} #{i}",
                          ("decomposition verifies", "width matches"), run))

    def cw_item(name, G, claims, extra=(), **kw):
        def run():
            cw, expr = widths.cliquewidth_exact(G, **kw)
            tw, td = widths.treewidth_exact(G)
            verdicts = (widths.verify_k_expression(G, expr), expr.k == cw,
                        widths.verify_tree_decomposition(G, td),
                        _cw_bound_holds(cw, tw))
            return verdicts + tuple(check(cw, tw) for check in extra)

        return Item(name, ("k-expression verifies", "expression width matches",
                           "decomposition verifies", "cw <= 3*2^(tw-1)")
                    + claims, run)

    for i in range(CW_ITEMS):
        items.append(cw_item(f"cw random n={CW_N} #{i}",
                             random_graph(rng, CW_N, 0.5), ()))
    items.append(cw_item("cw grid(2,4)", graphs.grid(2, 4), ()))
    items.append(cw_item("cw grid(3,3)", graphs.grid(3, 3),
                         ("tw = 3", "cw = 4"),
                         (lambda cw, tw: tw == 3, lambda cw, tw: cw == 4),
                         cap=10, budget=200_000_000))
    return items


WORKLOADS = {
    "word-grid": word_grid,
    "sentence-check": sentence_check,
    "census-iso": census_iso,
    "width-oracles": width_oracles,
}
