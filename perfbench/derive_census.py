"""Derive the committed census class counts with networkx.

For each census host, count the induced subgraphs (one per vertex
subset, the empty one included) up to isomorphism, independently of
msograph's own search.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/derive_census.py

It rewrites ``perfbench/census_expected.json``.
"""

import itertools
import json

import networkx as nx

from workloads import CENSUS_EXPECTED, CENSUS_HOSTS


def class_count(G) -> int:
    host = nx.Graph()
    host.add_nodes_from(range(G.n))
    host.add_edges_from(G.edges)
    buckets: dict[tuple, list[nx.Graph]] = {}
    count = 0
    for r in range(G.n + 1):
        for subset in itertools.combinations(range(G.n), r):
            H = host.subgraph(subset)
            key = (r, H.number_of_edges(),
                   tuple(sorted(d for _, d in H.degree())),
                   nx.weisfeiler_lehman_graph_hash(H))
            reps = buckets.setdefault(key, [])
            if not any(nx.is_isomorphic(H, K) for K in reps):
                reps.append(H)
                count += 1
    return count


def main() -> None:
    counts = {name: class_count(make()) for name, make in CENSUS_HOSTS.items()}
    CENSUS_EXPECTED.write_text(json.dumps(counts, indent=1) + "\n")
    print(json.dumps(counts, indent=1))


if __name__ == "__main__":
    main()
