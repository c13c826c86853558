"""Named verification suites with machine-readable reports.

Each suite re-derives a family's construction-level claims mechanically
(tables against coordinate ground truth, interpretations against
expected grids, oracles against known widths) and records one pass/fail
line per check.  Randomized suites take a seed and are deterministic
given it.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from typing import Callable, Optional

from . import bichain_family as bf
from . import power_family as pf
from . import word_family as wf
from .graphs import (LabeledGraph, SubdivisionPlan, antichain_member_In,
                     branch_vertices, contract_subdivision, grid, mn,
                     make_Tn, subdivide, tri_corner_grid,
                     uniform_subdivide_utg, upper_tri_grid, induced_subgraph)
from .interpret import apply
from .logic import (And, EdgeAtom, Eq, ExistsS, ExistsV, ForallS, ForallV,
                    Formula, Implies, Not, Or, SetAtom, TC, TrueF, evaluate,
                    materialize_all, parse_formula, relativize,
                    tc_naive_encoding)
from .records import Record
from .search import is_antichain, is_induced_subgraph_of, is_isomorphic
from .widths import (cliquewidth_exact, extend_decomposition_for_subdivision,
                     treewidth_exact, verify_k_expression,
                     verify_tree_decomposition)


class CheckRecord(Record):
    __match_args__ = ("id", "parameters", "expected", "observed", "passed",
                      "seconds")

    def __init__(self, id: str, parameters: dict, expected: str,
                 observed: str, passed: bool, seconds: float):
        self.id = id
        self.parameters = parameters
        self.expected = expected
        self.observed = observed
        self.passed = passed
        self.seconds = seconds


class VerificationReport(Record):
    __match_args__ = ("suite", "records")

    def __init__(self, suite: str,
                 records: Optional[list[CheckRecord]] = None):
        self.suite = suite
        self.records = [] if records is None else records
        # the end of the last check, or the making of the report; no
        # field, so neither compared nor shown
        self._t0 = time.perf_counter()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        return json.dumps({
            "suite": self.suite,
            "status": "pass" if self.passed else "fail",
            "records": [{
                "id": r.id, "parameters": r.parameters,
                "expected": r.expected, "observed": r.observed,
                "pass": r.passed, "seconds": round(r.seconds, 3),
            } for r in sorted(self.records, key=lambda r: r.id)],
        }, indent=2)

    def check(self, id: str, parameters: dict, expected, observed) -> None:
        dt = time.perf_counter() - self._t0
        self._t0 = time.perf_counter()
        self.records.append(CheckRecord(
            id, parameters, str(expected), str(observed),
            expected == observed, dt))


# ---------------------------------------------------------------------------
# Random formulas for the relativization and TC suites
# ---------------------------------------------------------------------------

def _random_graph(rng: random.Random, n: int,
                  n_labels: int = 0) -> LabeledGraph:
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < 0.5]
    labels = {f"L{i}": frozenset(v for v in range(n) if rng.random() < 0.5)
              for i in range(n_labels)}
    return LabeledGraph.build(n, edges, labels=labels)


def _random_sentence(rng: random.Random, depth: int) -> Formula:
    """A closed formula over E and = with vertex and set quantifiers."""
    counter = [0]

    def go(depth: int, vvars: list[str], svars: list[str]) -> Formula:
        if depth == 0 or (rng.random() < 0.2 and vvars):
            choices = ["true"]
            if vvars:
                choices += ["edge", "eq"] * 2
                if svars:
                    choices += ["mem"] * 2
            kind = rng.choice(choices)
            if kind == "edge":
                return EdgeAtom(rng.choice(vvars), rng.choice(vvars))
            if kind == "eq":
                return Eq(rng.choice(vvars), rng.choice(vvars))
            if kind == "mem":
                return SetAtom(rng.choice(svars), rng.choice(vvars))
            return TrueF()
        kind = rng.choice(["existsv", "forallv", "existss", "foralls",
                           "and", "or", "implies", "not", "existsv", "forallv"])
        if kind in ("existsv", "forallv"):
            counter[0] += 1
            v = f"v{counter[0]}"
            body = go(depth - 1, vvars + [v], svars)
            return ExistsV(v, body) if kind == "existsv" else ForallV(v, body)
        if kind in ("existss", "foralls"):
            counter[0] += 1
            S = f"S{counter[0]}"
            body = go(depth - 1, vvars, svars + [S])
            return ExistsS(S, body) if kind == "existss" else ForallS(S, body)
        if kind == "not":
            return Not(go(depth - 1, vvars, svars))
        left = go(depth - 1, vvars, svars)
        right = go(depth - 1, vvars, svars)
        op = {"and": And, "or": Or, "implies": Implies}[kind]
        return op(left, right)

    return go(depth, [], [])


def suite_relativize(trials: int = 200, seed: int = 2026) -> VerificationReport:
    """Confining quantifiers to A equals evaluating on the induced G[A]."""
    rng = random.Random(seed)
    rep = VerificationReport("relativize")
    for t in range(trials):
        n = rng.randrange(1, 7)
        G = _random_graph(rng, n)
        A = frozenset(v for v in range(n) if rng.random() < 0.6)
        f = _random_sentence(rng, rng.randrange(1, 4))
        inner = evaluate(induced_subgraph(G, sorted(A)), None, f)
        outer = evaluate(G, None, relativize(f, "X"), {"X": A})
        rep.check(f"triple-{t:03d}", {"n": n, "A": sorted(A)}, inner, outer)
    return rep


def suite_tc(seed: int = 2026, graphs: int = 30, max_n: int = 10,
             between_max_n: int = 12) -> VerificationReport:
    """TC primitive vs its pure set-quantifier encoding, and the derived
    between predicate vs the explicit path-set form on the power graphs."""
    rng = random.Random(seed)
    rep = VerificationReport("tc")
    for t in range(graphs):
        n = rng.randrange(1, max_n + 1)
        G = _random_graph(rng, n, n_labels=1)
        body_txt = rng.choice(["E(a, b)", "E(a, b) & L0(b)",
                               "E(a, b) & L0(a) & L0(b)"])
        body = parse_formula(body_txt)
        prim = parse_formula(f"TC[a, b: {body_txt}](s, t)")
        naive = tc_naive_encoding("a", "b", body, "s", "t")
        bad = 0
        for s in range(n):
            for u in range(n):
                va = {"s": s, "t": u}
                if evaluate(G, None, prim, va) != evaluate(G, None, naive, va):
                    bad += 1
        rep.check(f"tc-vs-naive-{t:02d}", {"n": n, "body": body_txt}, 0, bad)
    for n in range(9, between_max_n + 1):
        D = pf.build_Dn(n)
        tabs = materialize_all(D, pf.power_predicates(), set_cap=22)
        naive = pf.between_naive(D, tabs["pathedge"])
        rep.check(f"between-exists-P-D{n:02d}", {"n": n},
                  True, tabs["between"] == naive)
    return rep


# ---------------------------------------------------------------------------
# Family suites
# ---------------------------------------------------------------------------

WORDS = ("12", "2", "102", "01")


def suite_word(max_n: int = 2) -> VerificationReport:
    """Tables against coordinate ground truth, and the full pipeline:
    the domain-restricted interpretation of the labeled word graph
    contracts (by formula and by the combinatorial oracle, agreeing) to
    the upper triangular grid, which contains the square grid."""
    rep = VerificationReport("word")
    for pattern in WORDS:
        for n in range(1, max_n + 1):
            reps = -(-(2 * n + 4) // sum(c != "0" for c in pattern))
            alpha = pattern * reps
            H = wf.build_Hn(alpha, n)
            tabs = materialize_all(H, wf.word_predicates(), set_cap=22)
            gt = wf.word_ground_truth(alpha, n)
            bad = sorted(name for name in gt if tabs.get(name) != gt[name])
            rep.check(f"tables-{pattern}-n{n}", {"word": pattern, "n": n},
                      [], bad)
            D = apply(wf.delta_interp(), H)
            O = wf.grid_parameter_O(D)
            via_formula = apply(wf.gamma_contract_interp(), D, [O])
            via_oracle = contract_subdivision(D, O)
            target = upper_tri_grid(2 * n)
            rep.check(f"contract-formula-{pattern}-n{n}",
                      {"word": pattern, "n": n}, True,
                      is_isomorphic(via_formula, target) is not None)
            rep.check(f"contract-oracle-{pattern}-n{n}",
                      {"word": pattern, "n": n}, True,
                      is_isomorphic(via_oracle, target) is not None)
            rep.check(f"grid-embeds-{pattern}-n{n}",
                      {"word": pattern, "n": n}, True,
                      is_induced_subgraph_of(grid(n, n), via_oracle)
                      is not None)
    return rep


def suite_bichain(max_n: int = 5) -> VerificationReport:
    """The marker-label interpretation of Z_{n+2} is the n x n grid."""
    rep = VerificationReport("bichain")
    for n in range(4, max_n + 3):
        Z = bf.build_Zn(n)
        tabs = materialize_all(Z, bf.bichain_predicates(), set_cap=22)
        gt = bf.bichain_ground_truth(n)
        bad = sorted(name for name in gt if tabs.get(name) != gt[name])
        rep.check(f"tables-Z{n}", {"n": n}, [], bad)
    for n in range(1, max_n + 1):
        H = apply(bf.psi_bichain(), bf.build_Zn(n + 2))
        rep.check(f"grid-{n}x{n}", {"n": n}, True,
                  is_isomorphic(H, grid(n, n)) is not None)
    return rep


def suite_split(max_n: int = 6) -> VerificationReport:
    """Completing one side into a clique and deleting it again is the
    identity on the bichain edge set."""
    rep = VerificationReport("split")
    for n in range(1, max_n + 1):
        Z = bf.build_Zn(n)
        A, _ = bf.zn_parts(n)
        S = bf.split_from_bichain(Z, A)
        back = apply(bf.psi_split(), S)
        same = (back.n == Z.n and
                {(back.name_of(u), back.name_of(v)) for (u, v) in back.edges}
                == {(Z.name_of(u), Z.name_of(v)) for (u, v) in Z.edges})
        rep.check(f"round-trip-Z{n}", {"n": n}, True, same)
    return rep


def suite_bpg(max_n: int = 5) -> VerificationReport:
    """The universal bipartite permutation graph is the all-2s member of
    the word family."""
    rep = VerificationReport("bpg")
    for n in range(1, max_n + 1):
        P = bf.build_Pn(n)
        W = wf.palpha_segment("2" * n, n, n)
        rep.check(f"identification-P{n}", {"n": n}, True,
                  is_isomorphic(P, W) is not None)
    return rep


def suite_power(max_n: int = 20) -> VerificationReport:
    """Tables against 2-adic ground truth; the parameterless
    interpretation realizes the expected bipartite permutation patch."""
    rep = VerificationReport("power")
    names = ["odd", "pathedge", "clique", "linord", "cliquemin",
             "one", "succ", "cliqueord", "cliquemin_succ", "forward"]
    for n in range(10, max_n + 1, 2):
        tabs = materialize_all(pf.build_Dn(n), pf.power_predicates(),
                               set_cap=22)
        gt = pf.power_ground_truth(n)
        bad = sorted(nm for nm in names if tabs.get(nm) != gt[nm])
        rep.check(f"tables-D{n}", {"n": n}, [], bad)
    D12 = pf.build_Dn(12)
    H = apply(pf.phi_power(), D12)
    sub = {"2", "4", "10", "12"}
    got = sorted(tuple(sorted((int(H.name_of(u)), int(H.name_of(v)))))
                 for (u, v) in H.edges
                 if H.name_of(u) in sub and H.name_of(v) in sub)
    rep.check("D12-patch-edges", {"n": 12, "vertices": sorted(sub)},
              [(2, 4), (2, 12), (10, 12)], got)
    emb = pf.expected_embedding(2, 12)
    name2v = {H.name_of(v): v for v in range(H.n)}
    E = {frozenset(e) for e in H.edges}
    ok = all(
        ((i2 == i + 1 and j <= j2) or (i == i2 + 1 and j2 <= j)) ==
        (frozenset({name2v[str(a)], name2v[str(b)]}) in E)
        for (i, j), a in emb.items() for (i2, j2), b in emb.items()
        if (i, j) < (i2, j2))
    rep.check("embedding-k2-n12", {"k": 2, "n": 12}, True, ok)
    rep.check("generic-search-k2-n12", {"k": 2, "n": 12}, True,
              is_induced_subgraph_of(bf.build_Pn(2), H) is not None)
    return rep


def suite_widths(seed: int = 2026) -> VerificationReport:
    """Known widths, certificate validity, the subdivision construction,
    and Corneil & Rotics' cw <= 3 * 2^(tw-1) on a corpus."""
    rng = random.Random(seed)
    rep = VerificationReport("widths")
    tree7 = LabeledGraph.build(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5),
                                   (2, 6)])
    K4 = LabeledGraph.build(4, [e for e in itertools.combinations(range(4), 2)])
    K1 = LabeledGraph.build(1, [])
    K3 = LabeledGraph.build(3, [(0, 1), (0, 2), (1, 2)])
    C5 = LabeledGraph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    for G, w, nm in [(tree7, 1, "tree"), (K4, 3, "K4"),
                     (grid(3, 3), 3, "grid33"), (grid(4, 4), 4, "grid44"),
                     (grid(4, 5), 4, "grid45")]:
        got, td = treewidth_exact(G)
        rep.check(f"twd-{nm}", {}, w, got)
        rep.check(f"twd-cert-{nm}", {}, True,
                  verify_tree_decomposition(G, td) and td.width == w)
    for G, w, nm in [(K1, 1, "K1"), (K3, 2, "K3"), (C5, 3, "C5"),
                     (grid(2, 2), 2, "C4")]:
        got, e = cliquewidth_exact(G)
        rep.check(f"cwd-{nm}", {}, w, got)
        rep.check(f"cwd-cert-{nm}", {}, True, verify_k_expression(G, e))
    corpus = [tree7, K4, K3, C5, grid(2, 2), grid(2, 3)]
    corpus += [_random_graph(rng, rng.randrange(2, 8)) for _ in range(8)]
    for i, G in enumerate(corpus):
        tw, td = treewidth_exact(G)
        for t in (2, 3):
            td2 = extend_decomposition_for_subdivision(G, td, t)
            ok = (verify_tree_decomposition(subdivide(G, t), td2) and
                  td2.width <= max(tw, 3))
            rep.check(f"subdiv-{i:02d}-t{t}", {"n": G.n, "t": t}, True, ok)
        cw, e = cliquewidth_exact(G)
        rep.check(f"bound-{i:02d}", {"n": G.n, "twd": tw, "cwd": cw},
                  True, cw <= 3 * 2 ** (tw - 1) if tw >= 1 else True)
    return rep


def suite_gamma_class(max_n: int = 8) -> VerificationReport:
    """The 3-regular gadget family, the two antichain families, and the
    branch-vertex bookkeeping on subdivisions."""
    rep = VerificationReport("gamma-class")
    for n in range(3, max_n + 1):
        T = make_Tn(n)
        degs = set(T.degree_sequence())
        rep.check(f"Tn-{n}-3regular", {"n": n}, {3}, degs)
        rep.check(f"Tn-{n}-size", {"n": n, "vertices": T.n}, True,
                  T.n < 4 * n * n)
    ants = [antichain_member_In(i) for i in range(1, 7)]
    rep.check("In-antichain", {"members": 6}, (True, None),
              is_antichain(ants))
    tris = [tri_corner_grid(i) for i in range(3, 6)]
    rep.check("tri-grid-antichain", {"members": 3}, (True, None),
              is_antichain(tris))
    for t in (2, 3):
        H = subdivide(make_Tn(3), t)
        base = make_Tn(3)
        rep.check(f"branch-count-t{t}", {"t": t},
                  base.n, len(branch_vertices(H)))
        rep.check(f"mn-t{t}", {"t": t}, t * mn(base), mn(H))
    plan = SubdivisionPlan(4, {1: 3, 2: 4, 3: 5})
    U, originals = uniform_subdivide_utg(plan)
    back = contract_subdivision(U, originals)
    rep.check("subdiv-utg-contract", {"r": 4}, True,
              is_isomorphic(back, upper_tri_grid(4)) is not None)
    return rep


SUITES: dict[str, Callable[..., VerificationReport]] = {
    "relativize": suite_relativize,
    "tc": suite_tc,
    "word": suite_word,
    "bichain": suite_bichain,
    "split": suite_split,
    "bpg": suite_bpg,
    "power": suite_power,
    "widths": suite_widths,
    "gamma-class": suite_gamma_class,
}


def run_suite(name: str, **knobs) -> VerificationReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(SUITES)}")
    return SUITES[name](**knobs)
