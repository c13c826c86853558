"""Column graphs built from an infinite word over {0, 1, 2}.

A word alpha determines an infinite "column graph": columns X_0, X_1,
... of vertices, with the edges between consecutive columns X_j and
X_{j+1} chosen by the letter alpha_j:

* letter 0: X_{j+1} is a copy of X_j; row i is joined to row i only.
* letter 1: |X_{j+1}| = |X_j| + 1; row i of X_j is joined to every row
  of X_{j+1} except row i ("all but the twin").
* letter 2: |X_{j+1}| = |X_j| + 1; row i of X_j is joined to the rows
  k >= i of X_{j+1} ("staircase").

The pieces G_n are finite windows of this graph: starting at the first
non-0 letter, take the shortest block of columns containing exactly
2n + 2 non-0 letters, with the first column of size 3.  H_n is G_n
plus eight marker label sets; the interpretation ``delta_interp``
recovers an upper-triangular grid (uniformly subdivided when the word
contains 0s) from H_n, and ``gamma_contract_interp`` contracts the
subdivision away.
"""

from __future__ import annotations

import functools
import itertools

from .graphs import LabeledGraph
from .interpret import Interpretation
from .logic import PredicateLibrary, parse_formula
from .records import Frozen
from .syntax import _packaged_library


class WordError(ValueError):
    pass


def _check_word(alpha: str) -> None:
    if not alpha or any(c not in "012" for c in alpha):
        raise WordError(f"word must be a nonempty string over 0/1/2, got {alpha!r}")


# ---------------------------------------------------------------------------
# Planning and construction
# ---------------------------------------------------------------------------

class ColumnPlan(Frozen):
    """The column window realizing a piece G_n of the word graph.

    ``p`` is the index of the first non-0 letter of alpha, ``l`` the
    number of columns, ``beta`` the letters alpha_p .. alpha_{p+l-1},
    and ``sizes[j]`` the height of column j (so ``beta[j]`` governs the
    edges between columns j and j+1 for j < l - 1).
    """

    __match_args__ = ("alpha", "n", "p", "l", "beta", "sizes")

    def __init__(self, alpha: str, n: int, p: int, l: int, beta: str,
                 sizes: tuple[int, ...]):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sizes", sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @functools.cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.sizes[:-1], initial=0))

    def index(self, row: int, col: int) -> int:
        if not (0 <= col < self.l and 0 <= row < self.sizes[col]):
            raise WordError(f"no vertex at row {row}, column {col}")
        return self.offsets[col] + row


def plan_Gn(alpha: str, n: int) -> ColumnPlan:
    """Column window for the n-th piece: exactly 2n + 2 non-0 letters,
    starting at the word's first non-0 letter, first column of height 3.
    """
    _check_word(alpha)
    if n < 1:
        raise WordError(f"n must be >= 1, got {n}")
    try:
        p = next(i for i, c in enumerate(alpha) if c != "0")
    except StopIteration:
        raise WordError(
            f"word prefix {alpha!r} contains no non-0 letter") from None
    need = 2 * n + 2
    count, end = 0, None
    for i in range(p, len(alpha)):
        if alpha[i] != "0":
            count += 1
            if count == need:
                end = i
                break
    if end is None:
        raise WordError(
            f"word prefix {alpha!r} has only {count} non-0 letters after "
            f"position {p}; n = {n} needs {need} (extend the prefix)")
    beta = alpha[p:end + 1]
    sizes = [3]
    for c in beta[:-1]:
        sizes.append(sizes[-1] + (c != "0"))
    return ColumnPlan(alpha, n, p, len(beta), beta, tuple(sizes))


def _column_edges(rule: str, left_rows: int, right_rows: int,
                  ) -> list[tuple[int, int]]:
    """Row pairs (i, k) joined between adjacent columns, per the letter."""
    out = []
    for i in range(left_rows):
        for k in range(right_rows):
            if rule == "0":
                if i == k:
                    out.append((i, k))
            elif rule == "1":
                if i != k:
                    out.append((i, k))
            else:
                if i <= k:
                    out.append((i, k))
    return out


def _column_graph(letters: str, sizes: tuple[int, ...]) -> LabeledGraph:
    """The columns of the given sizes, letters[j] joining columns j and
    j + 1: vertex (i, j), named "(i,j)", is row i after the columns
    before j."""
    offsets = tuple(itertools.accumulate(sizes, initial=0))
    edges = [(offsets[j] + i, offsets[j + 1] + k)
             for j in range(len(sizes) - 1)
             for i, k in _column_edges(letters[j], sizes[j], sizes[j + 1])]
    names = {offsets[j] + i: f"({i},{j})"
             for j, h in enumerate(sizes) for i in range(h)}
    return LabeledGraph.build(offsets[-1], edges, names=names)


def palpha_segment(alpha: str, rows: int, cols: int) -> LabeledGraph:
    """The top-left rows x cols window of the infinite column graph,
    columns taken from position 0 of the word.  Vertex names "(i,j)".
    """
    _check_word(alpha)
    if rows < 1 or cols < 1:
        raise WordError("rows and cols must be >= 1")
    if cols - 1 > len(alpha):
        raise WordError(
            f"{cols} columns need {cols - 1} letters; word prefix has "
            f"{len(alpha)}")
    return _column_graph(alpha, (rows,) * cols)


def build_Gn(alpha: str, n: int) -> LabeledGraph:
    """The unlabeled piece G_n; vertex names "(row,col)" (plan-relative)."""
    plan = plan_Gn(alpha, n)
    return _column_graph(plan.beta, plan.sizes)


WORD_LABELS = ("Colour1", "Colour2", "top", "bottom", "penult", "prepenult",
               "first", "last")


def build_Hn(alpha: str, n: int) -> LabeledGraph:
    """G_n with the eight marker labels the interpretations expect:
    column colours (Colour1/Colour2 by letter, 0-columns unmarked), the
    top/bottom/penult/prepenult rows, and the first/last columns.
    """
    plan = plan_Gn(alpha, n)
    G = _column_graph(plan.beta, plan.sizes)
    lab: dict[str, set[int]] = {k: set() for k in WORD_LABELS}
    for j in range(plan.l):
        h = plan.sizes[j]
        rule = plan.beta[j]
        for i in range(h):
            v = plan.index(i, j)
            if rule == "1":
                lab["Colour1"].add(v)
            elif rule == "2":
                lab["Colour2"].add(v)
            if i == 0:
                lab["top"].add(v)
            if i == h - 1:
                lab["bottom"].add(v)
            if i == h - 2:
                lab["penult"].add(v)
            if i == h - 3:
                lab["prepenult"].add(v)
            if j == 0:
                lab["first"].add(v)
            if j == plan.l - 1:
                lab["last"].add(v)
    return G.with_labels({k: frozenset(v) for k, v in lab.items()})


# ---------------------------------------------------------------------------
# Predicates and interpretations
# ---------------------------------------------------------------------------

def word_predicates() -> PredicateLibrary:
    """The predicate library for the word pieces (loaded once)."""
    return _packaged_library("word")


def delta_interp() -> Interpretation:
    """The grid-recovering interpretation.

    On H_n it yields the upper-triangular grid U_{2n} when the word has
    no 0s, and a uniform subdivision of U_{2n} otherwise (each 0-column
    contributing one subdivision vertex per crossing horizontal edge).
    """
    return Interpretation(
        WORD_LABELS,
        parse_formula("griddomain(x)"),
        parse_formula("hedge(x,y) | hedge(y,x) | vedge(x,y) | vedge(y,x)"),
        library=word_predicates(),
        name="delta")


def gamma_contract_interp() -> Interpretation:
    """Contract a uniform subdivision back onto its original vertices O.

    Two O-vertices are joined iff they are adjacent or connected by a
    path whose interior avoids O.
    """
    return Interpretation(
        ("O",),
        parse_formula("O(x)"),
        parse_formula(
            "O(x) & O(y) & x != y & (E(x,y) | "
            "exists u. (exists w. (!O(u) & !O(w) & E(x,u) & E(w,y) & "
            "TC[a, b: !O(a) & !O(b) & E(a,b)](u, w))))"),
        name="gamma-contract")


def grid_parameter_O(H_delta: LabeledGraph) -> frozenset[int]:
    """The original (non-subdivision) vertices of a delta output: the
    vertices carrying a column colour."""
    return frozenset(H_delta.labels.get("Colour1", frozenset())
                     | H_delta.labels.get("Colour2", frozenset()))


# ---------------------------------------------------------------------------
# Coordinate ground truth
# ---------------------------------------------------------------------------

def word_ground_truth(alpha: str, n: int) -> dict[str, set[tuple[int, ...]]]:
    """Tables for the library predicates computed from coordinates and
    the letter rules alone, with no formula evaluation involved.

    Only the predicates with a direct combinatorial reading are
    produced; the internal plumbing (lessthan, the eta/gamma helpers)
    is exercised through its users.
    """
    plan = plan_Gn(alpha, n)
    l, sizes, beta = plan.l, plan.sizes, plan.beta
    V = [(i, j) for j in range(l) for i in range(sizes[j])]

    def idx(c):
        return plan.index(c[0], c[1])

    def colour0(c):
        return beta[c[1]] == "0"

    def rlb(c):
        i, j = c
        return i >= sizes[j] - 2 or j == l - 1

    def edge(c, d):
        (i, j), (k, m) = c, d
        if m == j + 1:
            rule = beta[j]
        elif j == m + 1:
            rule = beta[m]
            i, k = k, i
        else:
            return False
        if rule == "0":
            return i == k
        if rule == "1":
            return i != k
        return i <= k

    def samecol(c, d):
        return (c[1] == d[1] and not colour0(c)
                and not rlb(c) and not rlb(d))

    def dom(c):
        i, j = c
        return i != 0 and j != 0 and not rlb(c)

    def adjcol(c, d):
        # edge-witnessed reading: some off-boundary element of c's
        # column is adjacent to d
        if rlb(c) or colour0(c):
            return False
        return any(edge(u, d) for u in V if samecol(c, u))

    def rhs(c, d, rule):
        # d in the column directly right of c's, c's column of the
        # given letter, both in the domain
        return (dom(c) and dom(d) and beta[c[1]] == rule
                and d[1] == c[1] + 1)

    def hedge(c, d):
        # same row, adjacent columns; rightward always, leftward only
        # between equal letters other than 2
        if not (dom(c) and dom(d)) or c[0] != d[0]:
            return False
        if d[1] == c[1] + 1:
            return True
        if c[1] == d[1] + 1:
            return beta[d[1]] == beta[c[1]] != "2"
        return False

    def vedge(c, d):
        return (dom(c) and dom(d) and not colour0(c)
                and c[1] == d[1] and d[0] == c[0] + 1)

    def prepenultedge(c, d):
        # the lowest interior vertical pair of a non-0 column: d in the
        # prepenult row, c one row up; needs column height >= 5 so the
        # witnessing prepenult one size step down is off-boundary
        if colour0(c) or c[1] != d[1] or rlb(c) or rlb(d):
            return False
        s = sizes[c[1]]
        return s >= 5 and d[0] == s - 3 and c[0] == s - 4

    def gridpoint(c):
        return dom(c) and not colour0(c)

    nz_dom_cols = [j for j in range(l) if beta[j] != "0"
                   and any(dom((i, j)) for i in range(sizes[j]))]

    def griddom(c):
        i, j = c
        if not dom(c):
            return False
        if not colour0(c):
            return True
        # a 0-column vertex counts only if flanked by non-0 columns
        # whose row i is in the domain (sizes are monotone, so the
        # left flank is the binding one)
        left = any(j1 < j and 1 <= i <= sizes[j1] - 3 for j1 in nz_dom_cols)
        right = any(j2 > j and 1 <= i <= sizes[j2] - 3 for j2 in nz_dom_cols)
        return left and right

    tables: dict[str, set[tuple[int, ...]]] = {
        "colour_0": {(idx(c),) for c in V if colour0(c)},
        "rlboundary": {(idx(c),) for c in V if rlb(c)},
        "domain": {(idx(c),) for c in V if dom(c)},
        "gridpoint": {(idx(c),) for c in V if gridpoint(c)},
        "griddomain": {(idx(c),) for c in V if griddom(c)},
        "samecolumn": {(idx(c), idx(d)) for c in V for d in V
                       if samecol(c, d)},
        "adjcolumn": {(idx(c), idx(d)) for c in V for d in V
                      if adjcol(c, d)},
        "rhscolumn_0": {(idx(c), idx(d)) for c in V for d in V
                        if rhs(c, d, "0") and not colour0(d)},
        "rhscolumn_1": {(idx(c), idx(d)) for c in V for d in V
                        if rhs(c, d, "1") and beta[d[1]] != "1"},
        "rhscolumn_2": {(idx(c), idx(d)) for c in V for d in V
                        if rhs(c, d, "2")},
        "hedge": {(idx(c), idx(d)) for c in V for d in V if hedge(c, d)},
        "vedge": {(idx(c), idx(d)) for c in V for d in V if vedge(c, d)},
        "prepenultedge": {(idx(c), idx(d)) for c in V for d in V
                          if prepenultedge(c, d)},
    }
    return tables
