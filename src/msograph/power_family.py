"""Power graphs: a path on 1..n plus a clique on each 2-adic level.

D_n has vertex set {1, ..., n}, path edges {i, i+1}, and clique edges
between numbers whose largest dividing power of 2 agrees (the "power
clique" of level k holds the numbers 2^k * odd).  An interpretation
with no parameters recovers, inside D_n, arbitrarily large universal
bipartite permutation graphs, using only the definable structure: odd
numbers, path vs clique edges, the natural order, and the order on
power cliques.
"""

from __future__ import annotations

from .graphs import LabeledGraph
from .interpret import Interpretation
from .logic import PredicateLibrary, parse_formula
from .syntax import _packaged_library


class PowerError(ValueError):
    pass


def _level(i: int) -> int:
    """Exponent of the largest power of 2 dividing i."""
    return (i & -i).bit_length() - 1


def build_Dn(n: int) -> LabeledGraph:
    """The power graph D_n; vertex names "1".."n"."""
    if n < 1:
        raise PowerError(f"n must be >= 1, got {n}")
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if j == i + 1 or _level(i) == _level(j):
                edges.append((i - 1, j - 1))
    names = {i - 1: str(i) for i in range(1, n + 1)}
    return LabeledGraph.build(n, edges, names=names)


def longest_factor_length(G: LabeledGraph) -> int:
    """Length of the longest run of consecutive numbers present in G.

    G must carry number provenance: every vertex name is a positive
    integer (as produced by build_Dn and induced_subgraph).
    """
    try:
        nums = sorted(int(G.name_of(v)) for v in range(G.n))
    except ValueError:
        raise PowerError(
            "vertex names are not numbers; provenance missing") from None
    if not nums:
        return 0
    best = run = 1
    for a, b in zip(nums, nums[1:]):
        run = run + 1 if b == a + 1 else 1
        best = max(best, run)
    return best


def power_predicates() -> PredicateLibrary:
    """The predicate library for the power graphs (loaded once)."""
    return _packaged_library("power")


def check_power_input(n: int) -> None:
    """The derived predicates need n >= 9 and n even (odd n admits an
    order-reversing automorphism that defeats the orientation)."""
    if n % 2 == 1 or n < 9:
        raise PowerError(
            f"interpretation needs even n >= 9, got n = {n}")


def phi_power() -> Interpretation:
    """Keep every vertex; join consecutive power cliques forward.

    Apply only to D_n with n even and n >= 9 (see check_power_input).
    """
    return Interpretation(
        (),
        parse_formula("x = x"),
        parse_formula("forward(x,y) | forward(y,x)"),
        library=power_predicates(),
        name="phi-power")


def expected_embedding(k: int, n: int) -> dict[tuple[int, int], int]:
    """The candidate induced embedding of the bipartite permutation
    graph on a k x k point grid into the interpreted D_n: grid point
    (i, j) with 0 <= i, j <= k-1 maps to the number j*2^(k+1) + 2^(i+1),
    a member of power clique i+1.
    """
    if k < 1:
        raise PowerError(f"k must be >= 1, got {k}")
    if 2 ** k * (2 * k - 1) > n:
        raise PowerError(
            f"2^{k}*(2*{k}-1) = {2 ** k * (2 * k - 1)} exceeds n = {n}")
    return {(i, j): j * 2 ** (k + 1) + 2 ** (i + 1)
            for i in range(k) for j in range(k)}


# ---------------------------------------------------------------------------
# Ground truth and the set-quantifier cross-check
# ---------------------------------------------------------------------------

def power_ground_truth(n: int) -> dict[str, set[tuple[int, ...]]]:
    """Tables computed from the numbers alone (vertex v is number v+1)."""
    if n < 9:
        raise PowerError("ground truth is meaningful for n >= 9 only")
    nums = range(1, n + 1)
    odd = {(i - 1,) for i in nums if i % 2 == 1}
    pathedge = {(i - 1, j - 1) for i in nums for j in nums if abs(i - j) == 1}
    clique = {(i - 1, j - 1) for i in nums for j in nums
              if i != j and _level(i) == _level(j)}
    out = {"odd": odd, "pathedge": pathedge, "clique": clique}
    if n % 2 == 0:
        out["one"] = {(0,)}
        out["succ"] = {(i - 1, i) for i in range(1, n)}
        out["linord"] = {(i - 1, j - 1) for i in nums for j in nums if i <= j}
        out["cliquemin"] = {(i - 1,) for i in nums if i == (i & -i)}
        out["cliqueord"] = {(i - 1, j - 1) for i in nums for j in nums
                            if _level(i) < _level(j)}
        out["cliquemin_succ"] = {(i - 1, j - 1) for i in nums for j in nums
                                 if _level(j) == _level(i) + 1}
        out["forward"] = {(i - 1, j - 1) for i in nums for j in nums
                          if _level(j) == _level(i) + 1 and i < j}
        out["between"] = {(x - 1, y - 1, z - 1) for x in nums for y in nums
                          for z in nums if x != z and min(x, z) <= y <= max(x, z)}
    return out


def between_naive(G: LabeledGraph, pathedge: set[tuple[int, int]]
                  ) -> set[tuple[int, int, int]]:
    """The set-quantifier reading of between, by brute enumeration.

    A set P is an x-z path when x, z are in P with exactly one
    path-edge neighbour inside P each, and every other member of P has
    two distinct path-edge neighbours inside P.  between(x, y, z) holds
    when some such P contains y.  Runs in 2^n; keep G small.
    """
    n = G.n
    nbr = [0] * n
    for (u, v) in pathedge:
        nbr[u] |= 1 << v
    out: set[tuple[int, int, int]] = set()
    for P in range(1 << n):
        members = [v for v in range(n) if (P >> v) & 1]
        ends = []
        interior_ok = True
        for v in members:
            d = bin(nbr[v] & P).count("1")
            if d == 1:
                ends.append(v)
            elif d < 2:
                interior_ok = False
                break
        if not interior_ok or len(ends) != 2:
            continue
        # the path must be connected: walk from one end
        seen = 1 << ends[0]
        cur = ends[0]
        while True:
            step = nbr[cur] & P & ~seen
            if step == 0:
                break
            cur = (step & -step).bit_length() - 1
            seen |= 1 << cur
        if seen != P:
            continue
        x, z = ends
        for y in members:
            out.add((x, y, z))
            out.add((z, y, x))
    return out
