"""Shared test helpers: independent brute-force oracles and seeded corpora.

Everything here must stay independent of the engine's search path: clique
checks test edges one pair at a time (subsets by itertools.combinations, or
by plain backtracking over common neighbours) and colorings are enumerated
in full, so these routines can serve as ground truth for the pruned search.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from folkman.formats import GraphFormatError
from folkman.graphs import MAX_VERTICES, Graph, from_edges


def brute_clique_number(g: Graph) -> int:
    for k in range(g.n, 1, -1):
        for combo in combinations(range(g.n), k):
            if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
                return k
    return 1 if g.n else 0


def brute_subset_has_clique(g: Graph, verts, k: int) -> bool:
    """True iff `verts` holds k pairwise adjacent vertices: each vertex in
    turn, then the later ones adjacent to it, cut once fewer than k remain."""
    verts = list(verts)
    if k <= 0:
        return True
    for i, v in enumerate(verts):
        if len(verts) - i < k:
            return False
        if brute_subset_has_clique(g, [u for u in verts[i + 1:] if g.has_edge(u, v)], k - 1):
            return True
    return False


def walk_clique_number(n: int, closed: bool, positions) -> int:
    """Clique number of the vertices at `positions` of co-P_n, or of co-C_n
    if `closed`, numbered along the path or cycle.  A clique there is an
    independent set of the path or cycle: the sum of ceil(L/2) over the runs
    of consecutive positions, a run through n-1 and 0 counted once on a
    cycle, and floor(n/2) for the whole cycle."""
    inside = [i in set(positions) for i in range(n)]
    if closed and all(inside):
        return n // 2
    # On a cycle, start after a gap, so that no run is split in two.
    start = inside.index(False) + 1 if closed else 0
    total = run = 0
    for i in range(start, start + n):
        if inside[i % n]:
            run += 1
        else:
            total += (run + 1) // 2
            run = 0
    return total + (run + 1) // 2


def co_walk_oracle(adj, block: int):
    """The walk `arrowing._co_walk` must return, by its definition: when the
    complement on the vertices of `block` is one path or one cycle, those
    vertices along it, from the lowest path end or the lowest vertex of a
    cycle, each step to the lowest unvisited non-neighbour, with True for a
    cycle; None otherwise.  Built on complement adjacency lists."""
    verts = [v for v in range(len(adj)) if block >> v & 1]
    co = {v: [u for u in verts if u != v and not adj[v] >> u & 1] for v in verts}
    if any(len(us) > 2 for us in co.values()):
        return None
    reached, stack = {verts[0]}, [verts[0]]
    while stack:
        for u in co[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    if len(reached) < len(verts):
        return None
    ends = [v for v in verts if len(co[v]) < 2]
    walk = [ends[0] if ends else verts[0]]
    while len(walk) < len(verts):
        walk.append(min(u for u in co[walk[-1]] if u not in walk))
    return walk, not ends


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


def graph6_encode_oracle(g: Graph) -> str:
    """graph6 by the letter of the format: the upper triangle as a list of
    bits, column by column, packed six to a byte."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> shift) & 0x3F) + 63) for shift in (12, 6, 0))
    bits = [(g.adj[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return head + "".join(chars)


def _g6_oracle_val(ch: str, offset: int) -> int:
    b = ord(ch)
    if not 63 <= b <= 126:
        raise GraphFormatError(f"byte {b!r} outside graph6 range 63..126", line=1, offset=offset)
    return b - 63


def graph6_decode_oracle(text: str) -> Graph:
    """Per-bit graph6 decoder: the body as a list of bits, then an edge list
    for `from_edges`; raises what `parse_graph6` must raise, in its order."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise GraphFormatError("empty graph6 string", line=1)
    if s.startswith(":"):
        raise GraphFormatError("sparse6 strings are not supported, expected dense graph6", line=1)
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise GraphFormatError("graph6 long-long vertex counts exceed the width cap", line=1)
        if len(s) < 4:
            raise GraphFormatError("truncated graph6 vertex count", line=1)
        n = 0
        for pos in range(1, 4):
            n = (n << 6) | _g6_oracle_val(s[pos], pos)
        pos = 4
    else:
        n = _g6_oracle_val(s[0], 0)
        pos = 1
    if n > MAX_VERTICES:
        raise GraphFormatError(f"graph on {n} vertices exceeds the width cap {MAX_VERTICES}", line=1)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = s[pos:]
    if len(body) < nchars:
        raise GraphFormatError(
            f"graph6 body too short: need {nchars} bytes for {n} vertices, got {len(body)}", line=1)
    if len(body) > nchars:
        raise GraphFormatError(f"trailing junk after graph6 body ({len(body) - nchars} extra bytes)",
                               line=1, offset=pos + nchars)
    bits = []
    for k, ch in enumerate(body):
        val = _g6_oracle_val(ch, pos + k)
        bits.extend((val >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise GraphFormatError("nonzero padding bits in graph6 body", line=1)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return from_edges(n, [pair for pair, bit in zip(pairs, bits) if bit])


def edge_list_decode_oracle(text: str) -> Graph:
    """Edge-list decoder that collects the pairs for `from_edges`; raises
    what `parse_edge_list` must raise, in its order."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "n" or len(tokens) != 2:
                raise GraphFormatError(f"expected header 'n <count>', got {raw!r}", line=lineno)
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"vertex count {tokens[1]!r} is not an integer", line=lineno)
            if n < 0:
                raise GraphFormatError(f"negative vertex count {n}", line=lineno)
            if n > MAX_VERTICES:
                raise GraphFormatError(f"vertex count {n} exceeds the width cap {MAX_VERTICES}",
                                       line=lineno)
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"expected 'u v' edge pair, got {raw!r}", line=lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex in {raw!r}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex out of range 0..{n - 1} in edge ({u}, {v})", line=lineno)
        if u == v:
            raise GraphFormatError(f"loop at vertex {u} not allowed", line=lineno)
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("missing 'n <count>' header line")
    return from_edges(n, edges)


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


def circulant(n: int, offsets) -> Graph:
    """The circulant graph C_n(offsets): i ~ i + s (mod n) for each s."""
    return from_edges(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in offsets})


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
