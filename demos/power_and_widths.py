"""The power graphs, their parameter-free interpretation, and the
exact width oracles.

D_n is the path 1..n plus a clique on each set of numbers sharing the
exponent of their largest power-of-2 divisor.  Without any set
parameters, formulas recover the order, the clique ordering, and an
edge relation under which a k x k bipartite permutation grid appears
as soon as n >= 2^k (2k - 1).  The width oracles give exact treewidth
and clique-width with verifiable certificates.
"""

from msograph import (apply, build_Dn, cliquewidth_exact, expected_embedding,
                      grid, materialize_all, phi_power, power_predicates,
                      treewidth_exact, verify_k_expression,
                      verify_tree_decomposition)

D = build_Dn(12)
print(f"D_12: {D.n} vertices, {len(D.edges)} edges")
tables = materialize_all(D, power_predicates(), set_cap=22)
print("clique minima:", sorted(int(D.name_of(v)) for (v,) in
                               tables["cliquemin"]))

H = apply(phi_power(), D)
emb = expected_embedding(2, 12)
print(f"interpreted graph: {len(H.edges)} edges; "
      f"2x2 patch embeds at {sorted(emb.values())}")

G = grid(3, 3)
tw, td = treewidth_exact(G)
assert verify_tree_decomposition(G, td) and td.width == tw
print(f"\ntreewidth(3x3 grid) = {tw}, certificate checks out")

cw, e = cliquewidth_exact(G, cap=10)
assert verify_k_expression(G, e)
print(f"clique-width(3x3 grid) = {cw} (exhaustive at {cw - 1}), "
      f"certificate checks out")
