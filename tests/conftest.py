"""Shared test helpers: independent brute-force oracles and seeded corpora.

Everything here must stay independent of the engine's search path: clique
checks go through itertools.combinations and colorings are enumerated in
full, so these routines can serve as ground truth for the pruned search.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from folkman.graphs import Graph, from_edges


def brute_clique_number(g: Graph) -> int:
    for k in range(g.n, 1, -1):
        for combo in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
                return k
    return 1 if g.n else 0


def brute_subset_has_clique(g: Graph, verts, k: int) -> bool:
    verts = list(verts)
    if k <= 0:
        return True
    if k > len(verts):
        return False
    for combo in combinations(verts, k):
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            return True
    return False


def scan_adjacency(n: int, adj) -> None:
    """Per-bit validity scan of adjacency rows: raises the ValueError of the
    first row with bits beyond n or a loop, else of the first pair (v, u) in
    row order with u in row v but v not in row u."""
    full = (1 << n) - 1
    for v, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"adjacency row {v} has bits beyond vertex range")
        if (row >> v) & 1:
            raise ValueError(f"vertex {v} is self-adjacent")
    for v, row in enumerate(adj):
        rest = row
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not (adj[u] >> v) & 1:
                raise ValueError(f"adjacency not symmetric at ({v}, {u})")


def coloring_is_free(g: Graph, parts, coloring) -> bool:
    """Brute-force check that class i avoids an a_i-clique for every i."""
    for c, cap in enumerate(parts):
        members = [v for v in range(g.n) if coloring[v] == c]
        if brute_subset_has_clique(g, members, cap):
            return False
    return True


def naive_find_free(g: Graph, parts):
    """Exhaustive r^n scan with full clique rechecks; a free coloring or None."""
    r = len(parts)
    if r == 0:
        return None if g.n else ()
    for coloring in product(range(r), repeat=g.n):
        if coloring_is_free(g, parts, coloring):
            return coloring
    return None


def naive_arrows(g: Graph, parts) -> bool:
    return naive_find_free(g, parts) is None


def properly_colorable(g: Graph, r: int) -> bool:
    """Independent proper-coloring decision by plain backtracking."""
    colors = [-1] * g.n
    order = sorted(range(g.n), key=lambda v: -g.degree(v))

    def assign(idx: int) -> bool:
        if idx == g.n:
            return True
        v = order[idx]
        used = {colors[u] for u in range(g.n) if g.has_edge(u, v) and colors[u] != -1}
        for c in range(r):
            if c in used:
                continue
            colors[v] = c
            if assign(idx + 1):
                return True
            colors[v] = -1
        return False

    return assign(0)


def mycielskian(g: Graph) -> Graph:
    """Mycielski's construction: triangle-free in, triangle-free out, one
    more color needed."""
    n = g.n
    edges = list(g.edges())
    edges += [(u + n, v) for u, v in g.edges()] + [(v + n, u) for u, v in g.edges()]
    edges += [(u + n, 2 * n) for u in range(n)]
    return from_edges(2 * n + 1, edges)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])


def signatures_up_to(max_r: int, max_m: int) -> list[tuple[int, ...]]:
    """All normalized signatures (parts >= 2, ascending) with r <= max_r, m <= max_m."""
    out: list[tuple[int, ...]] = []

    def rec(parts: tuple[int, ...], m: int):
        if parts:
            out.append(parts)
        if len(parts) == max_r:
            return
        lo = parts[-1] if parts else 2
        a = lo
        while m + (a - 1) <= max_m:
            rec(parts + (a,), m + (a - 1))
            a += 1

    rec((), 1)
    return out
