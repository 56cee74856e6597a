"""Independent checks of the program's outputs.

These routines never call into folkman.graphs' clique code: they read the
adjacency bits of a graph once into Python sets and recurse over plain
vertex lists, so a defect in the bitset clique search cannot hide behind a
check that shares it.
"""

from __future__ import annotations

from itertools import combinations


def neighbour_sets(graph) -> list[set[int]]:
    return [{u for u in range(graph.n) if graph.adj[v] >> u & 1} for v in range(graph.n)]


def has_clique(nbrs: list[set[int]], vertices: list[int], k: int) -> bool:
    """True iff `vertices` holds k pairwise adjacent vertices."""
    if k <= 0:
        return True
    for i, v in enumerate(vertices):
        if len(vertices) - i < k:
            return False
        if has_clique(nbrs, [u for u in vertices[i + 1:] if u in nbrs[v]], k - 1):
            return True
    return False


def is_clique(graph, vertices) -> bool:
    nbrs = neighbour_sets(graph)
    vs = list(vertices)
    return (len(set(vs)) == len(vs) and all(0 <= v < graph.n for v in vs)
            and all(u in nbrs[v] for u, v in combinations(vs, 2)))


def is_free_coloring(graph, parts, coloring) -> bool:
    """True iff colour class c of `coloring` holds no parts[c]-clique."""
    if coloring is None or len(coloring) != graph.n:
        return False
    if any(not 0 <= c < len(parts) for c in coloring):
        return False
    nbrs = neighbour_sets(graph)
    return not any(
        has_clique(nbrs, [v for v, col in enumerate(coloring) if col == c], cap)
        for c, cap in enumerate(parts))
