"""Immutable simple graphs on at most 64 vertices, with bitset adjacency.

Vertices are the integers 0..n-1 and each adjacency row is a Python int
used as a bitset.  Exceeding the width cap is a clean error, never silent
truncation; every desk-scale computation in this toolkit fits in 64
vertices.

By the paper's composition law a join's clique number is the sum of its
parts', so the clique routines answer a join block by block, on its split
into co-components (the components of the complement), by a BFS `arrowing` shares.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, Sequence

from .signatures import _Record, _integer

MAX_VERTICES = 64


def _repeat(pattern: int, period: int, count: int) -> int:
    """`count` copies of `pattern`, placed `period` bits apart."""
    return pattern * (((1 << period * count) - 1) // ((1 << period) - 1))


# Graph validation packs the rows into one matrix of MAX_VERTICES-bit rows,
# row v at bit v * MAX_VERTICES.  `_ROW_ONES` has bit 0 of every row set and
# `_DIAGONAL` the bit of each vertex in its own row.  Each swap exchanges
# bit j of the row index with bit j of the column index: it moves every
# entry of row r and column c, r without and c with bit j, to row r + j and
# column c - j and back.  Done for every j, that transposes the matrix
# (Warren, Hacker's Delight, 7-3).
_ROW_BYTES = MAX_VERTICES // 8
_ROW_ONES = _repeat(1, MAX_VERTICES, MAX_VERTICES)
_DIAGONAL = _repeat(1, MAX_VERTICES + 1, MAX_VERTICES)
_SWAPS = tuple(
    ((MAX_VERTICES - 1) * j,
     _repeat(_repeat(_repeat(((1 << j) - 1) << j, 2 * j, MAX_VERTICES // (2 * j)),
                     MAX_VERTICES, j), 2 * j * MAX_VERTICES, MAX_VERTICES // (2 * j)))
    for j in (32, 16, 8, 4, 2, 1))


def _transpose(matrix: int) -> int:
    """The packed matrix with entry (v, u) moved to (u, v)."""
    for shift, mask in _SWAPS:
        swap = (matrix >> shift ^ matrix) & mask
        matrix ^= swap ^ swap << shift
    return matrix


class Graph(_Record):
    """Finite simple graph: vertex count plus one neighbor bitset per vertex.

    `n` and each row are integers, read as `operator.index` reads them (a
    bool counts as 0 or 1); any other value is a ValueError that names it.
    The rows are kept as a tuple, so a caller's list is copied, not shared.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        n = _integer(n, "vertex count n must be an integer")
        adj = tuple(adj)  # no copy when it already is one
        set_n, set_adj = self._set
        set_n(self, n)
        set_adj(self, adj)
        if n < 0 or n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        try:
            matrix = int.from_bytes(b"".join([row.to_bytes(_ROW_BYTES, "little")
                                              for row in adj]), "little")
        except (AttributeError, OverflowError):  # a row that is no int in 0..2**64-1
            matrix = -1
        if matrix < 0 or matrix & (_DIAGONAL | ~(full * _ROW_ONES)):
            for v, row in enumerate(adj):
                row = _integer(row, f"adjacency row {v} must be an integer")
                if row & ~full:
                    raise ValueError(f"adjacency row {v} has bits beyond vertex range")
                if (row >> v) & 1:
                    raise ValueError(f"vertex {v} is self-adjacent")
            # No row is at fault, so one that is no int but reads as one (by
            # __index__) stopped the packing: the graph is built from the ints.
            Graph.__init__(self, n, tuple(map(index, adj)))
            return
        # The lowest bit set in the matrix but not in its transpose is the
        # first pair (v, u) in row order with u in row v but v not in row u.
        asym = matrix & ~_transpose(matrix)
        if asym:
            v, u = divmod((asym & -asym).bit_length() - 1, MAX_VERTICES)
            raise ValueError(f"adjacency not symmetric at ({v}, {u})")

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; loops and out-of-range vertices rejected."""
    n = _integer(n, "vertex count n must be an integer")
    if n < 0 or n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
    adj = [0] * n
    u = v = 0
    try:
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed in a simple graph")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    except TypeError:
        # Every endpoint before this edge indexed `adj`, so the first one that
        # is no integer is in it.  An edge that did not unpack leaves the last
        # good pair in (u, v), and its own error stands.
        _integer(u, "edge endpoints must be integers")
        _integer(v, "edge endpoints must be integers")
        raise
    return Graph(n, tuple(adj))


def complete(n: int) -> Graph:
    """K_n: every distinct pair adjacent."""
    n = _integer(n, "vertex count n must be an integer")
    if not 0 <= n <= MAX_VERTICES:  # checked before K_n is built: n may come from outside
        raise ValueError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    """C_n on vertices 0..n-1 with edges {i, i+1 mod n}; requires n >= 3."""
    n = _integer(n, "vertex count n must be an integer")
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets.

    Vertices of g1 keep their indices; vertices of g2 are shifted by g1.n.
    The clique number of the result is the sum of the operands' clique
    numbers.
    """
    n = g1.n + g2.n
    mask1 = (1 << g1.n) - 1
    mask2 = ((1 << n) - 1) & ~mask1
    adj = [g1.adj[v] | mask2 for v in range(g1.n)]
    adj += [(g2.adj[v] << g1.n) | mask1 for v in range(g2.n)]
    return Graph(n, tuple(adj))


def complement(g: Graph) -> Graph:
    """Same vertices, exactly the non-edges of g."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n)))


def _mask_has_clique(adj: tuple[int, ...], mask: int, k: int) -> bool:
    """True iff the vertices in `mask` contain a k-clique.

    The lowest vertex v is branched on first.  Once no k-clique goes through
    v, only v's non-neighbours in `mask` are branched on, each dropped after
    its branch fails: a k-clique that avoids all of them lies inside N(v),
    and swapping any of its vertices for v gives a k-clique through v.  This
    is the pivot of Bron & Kerbosch (1973) in the form of Tomita, Tanaka &
    Takahashi (2006), asked a yes/no question.  k = 2 takes one AND per
    vertex, and a branch with fewer than k - 1 candidates is never entered.
    """
    if k <= 2:
        if k <= 1:
            return k <= 0 or mask != 0
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if adj[v] & mask:
                return True
        return False
    if mask.bit_count() < k:
        return False
    k -= 1  # the vertices a branch must find among its candidates
    # v's branch is taken before the loop: a call that finds a clique mostly
    # finds it there, and never needs v's non-neighbours.
    row = adj[(mask & -mask).bit_length() - 1]
    mask &= mask - 1
    cand = mask & row
    if cand.bit_count() >= k and _mask_has_clique(adj, cand, k):
        return True
    branch = mask & ~row
    while branch:
        if mask.bit_count() <= k:
            return False
        bit = branch & -branch
        branch ^= bit
        mask ^= bit
        cand = mask & adj[bit.bit_length() - 1]
        if cand.bit_count() >= k and _mask_has_clique(adj, cand, k):
            return True
    return False


def _co_component(adj: tuple[int, ...], mask: int) -> int:
    """The co-component of the lowest vertex of `mask` in the subgraph on `mask`, by
    a BFS over the complement's rows: u's unvisited non-neighbours are `left & ~adj[u]`."""
    block = frontier = mask & -mask
    left = mask ^ block
    while frontier:
        u = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = left & ~adj[u]
        left ^= new
        frontier |= new
        block |= new
    return block


def _co_components(adj: tuple[int, ...], mask: int) -> list[int]:
    """Vertex masks of the co-components of the subgraph on `mask`, lowest vertex first."""
    blocks = []
    while mask:
        blocks.append(_co_component(adj, mask))
        mask ^= blocks[-1]
    return blocks


def has_clique(g: Graph, subset: Iterable[int], k: int) -> bool:
    """True iff the induced subgraph on `subset` contains a k-clique.

    k = 0 is vacuously true; k = 1 asks whether the subset is nonempty.
    """
    k = _integer(k, "clique size k must be an integer")
    if k < 0:
        raise ValueError("clique size must be nonnegative")
    mask = 0
    for v in subset:
        v = _integer(v, "subset vertices must be integers")
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return _join_has_clique(g.adj, _co_components(g.adj, mask), k)


def _join_has_clique(adj: tuple[int, ...], blocks: list[int], k: int) -> bool:
    """True iff the join of the vertex masks `blocks` contains a k-clique.

    The singleton blocks are joined to everything, so each counts toward k.
    With at most one larger block, the early-stopping search looks for the
    rest of k in it; with several, their maximum cliques are summed.
    """
    big = []
    for block in blocks:
        if block & (block - 1):
            big.append(block)
        elif block:
            k -= 1
    if len(big) < 2:
        return _mask_has_clique(adj, big[0] if big else 0, k)
    return _max_clique_mask(adj, big).bit_count() >= k


def _max_clique_mask(adj: tuple[int, ...], blocks: list[int]) -> int:
    """One maximum clique of the join of `blocks`: the one branch and bound
    finds in each block extends those of the blocks before it."""
    def expand(cand: int, cur_mask: int, cur_size: int):
        nonlocal best_mask, best_size
        # Greedy-color the candidate set; a vertex of color c can extend the
        # clique by at most c more vertices.
        seq: list[int] = []
        col: list[int] = []
        rest = cand
        c = 0
        while rest:
            c += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                seq.append(v)
                col.append(c)
                avail &= avail - 1
                avail &= ~adj[v]
                rest &= ~(1 << v)
        for i in range(len(seq) - 1, -1, -1):
            if cur_size + col[i] <= best_size:
                return
            v = seq[i]
            new_mask = cur_mask | (1 << v)
            if cur_size + 1 > best_size:
                best_size = cur_size + 1
                best_mask = new_mask
            sub = cand & adj[v]
            if sub:
                expand(sub, new_mask, cur_size + 1)
            cand &= ~(1 << v)

    best_mask = 0
    for block in blocks:
        best_size = 0
        expand(block, best_mask, 0)
    return best_mask


def max_clique(g: Graph) -> list[int]:
    """One maximum clique: the union of one per co-component."""
    clique = _max_clique_mask(g.adj, _co_components(g.adj, (1 << g.n) - 1))
    return [v for v in range(g.n) if clique >> v & 1]


def _is_free_coloring(g: Graph, parts: Sequence[int], coloring: Sequence[int]) -> bool:
    """True iff no class c of `coloring` holds a clique of parts[c] vertices.

    A class's clique number is the sum of its co-components' (the composition
    law), each by `_max_clique_mask`'s branch and bound, which is fast on
    large free classes.  It shares no code with `_mask_has_clique`, but on a
    join with two or more searched blocks the engine's "no p-clique" exit
    sums `_max_clique_mask` sizes too (`_join_has_clique`), so there the two
    checks share that routine; `tests/conftest.py` holds an independent one.
    """
    masks = [0] * len(parts)
    for v, c in enumerate(coloring):
        masks[c] |= 1 << v
    return all(_max_clique_mask(g.adj, _co_components(g.adj, mask)).bit_count() < cap
               for mask, cap in zip(masks, parts))


def clique_number(g: Graph) -> int:
    """Exact maximum clique size; 0 for the empty graph."""
    return len(max_clique(g))
