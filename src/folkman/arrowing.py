"""Exhaustive arrowing decisions: does every r-coloring of V(G) produce a
monochromatic a_i-clique in some color class i?

A graph is first split into its co-components by `graphs._co_components`.
It is their join, so by the paper's composition law a class's clique number
is the sum of its clique numbers in the parts.  The singleton co-components
form one K_k, which fits a room of r_i per class iff the rooms sum to at
least k; every other part is decided on its own, under each way of sharing
the room that can matter.  A co-connected graph is one part, searched
whole.  Every search runs in the calling process.

Each part is numbered once, before any decision: a part decided by the rule
below along its walk, any other in smallest-last order (`_vertex_order`),
with its neighbour rows renumbered to match.  Every decision works in those
positions, so the lowest vertex of a set is its earliest in search order, and
the masks it finds are mapped back to input labels in one place.

A part's search, `_extend`, assigns colors vertex by vertex in that order,
prunes a branch as soon as a class would acquire its forbidden clique, asked
of `graphs._mask_has_clique` in the same positions, and breaks symmetry
among colors with equal caps by first-use order.  A part whose caps are all
2 asks only for a proper r-coloring, and `_color` decides it with forward
checking (Haralick & Elliott 1980) on bitset domains: class c's forbidden
set is the union of its vertices' neighbour rows, a vertex with no color
left prunes the branch at once, and a vertex with one color left, or else
one of those with two left that has the most uncolored neighbours, as in
DSATUR (Brelaz 1979), is colored before the next in smallest-last order.
The same symmetry rule and node budget apply.

A part whose complement is one path or one cycle, such as the co-C_{2p+1}
of every stock witness, is found by `_co_walk` and decided by a rule, with
no search and no node (`_walk_coloring`).  Number the part 0..n-1 along its
walk and let caps c_1..c_t have rooms d_i = c_i - 1.  Then:

- co-P_n is free iff d_1 + ... + d_t >= ceil(n/2);
- co-C_n is free iff that sum holds, or some d_i >= floor(n/2).

Proof.  A clique of co-P_n or co-C_n is an independent set of P_n or C_n.
A class S other than the whole cycle induces in the path or cycle disjoint
paths, its runs along the walk, so omega(S) is the sum of ceil(L/2) over
its runs of lengths L; the whole cycle has floor(n/2).  The runs of all
classes split the walk, and ceil(a/2) + ceil(b/2) >= ceil((a+b)/2), so in a
free coloring where no class is the whole cycle, sum d_i >= sum omega(S_i)
>= ceil(n/2).  A class that is the whole cycle needs d_i >= floor(n/2).
Conversely, consecutive arcs of 2*d_i vertices, the last one cut short,
cover the walk when the sum holds, and an arc of L <= 2*d_i vertices has
omega = ceil(L/2) <= d_i, or floor(n/2) if it closes the cycle; otherwise
the class with d_i >= floor(n/2) takes the whole cycle.  The coloring is
built in O(n), as one arc mask per class.

"Arrows" is only reported after the pruned tree is provably exhausted; a
free coloring is returned as a concrete counterexample otherwise.  Node
budgets make "undecided" a first-class outcome rather than an open-ended
run: a used-up budget raises BudgetExceededError out of the search, and
`find_free_coloring` reports it as undecided.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .graphs import (Graph, _co_components, _join_has_clique, _mask_has_clique, has_clique,
                     join)
from .signatures import Signature, _Record, as_signature, merge_at

DEFAULT_BUDGET = 10**8

ARROWS = "arrows"
FREE = "free-coloring"
UNDECIDED = "undecided"

class BudgetExceededError(RuntimeError):
    """A search used up its node budget.  `find_free_coloring` reports it as
    "undecided"; callers that return a bool, such as `arrows`, raise it."""


class SearchResult(_Record):
    """Outcome of one arrowing search.

    `coloring` maps vertex -> color index (0-based) when the verdict is a
    free coloring, else None.  `nodes` counts search-tree nodes expanded.
    """

    __slots__ = ("verdict", "coloring", "nodes")

    def __init__(self, verdict: str, coloring: tuple[int, ...] | None, nodes: int):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "coloring", coloring)
        object.__setattr__(self, "nodes", nodes)


def color_classes(coloring: Sequence[int], r: int) -> list[list[int]]:
    """Split a vertex->color assignment into the r color classes."""
    classes: list[list[int]] = [[] for _ in range(r)]
    for v, c in enumerate(coloring):
        classes[c].append(v)
    return classes


class _Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int | None):
        self.nodes = 0
        self.limit = limit


def _extend(rows: list[int], caps: tuple[int, ...], pos: int, masks: list[int],
            budget: _Budget) -> bool:
    """True iff the vertices from `pos` on can be placed on top of `masks`,
    which then hold the free coloring; False once the subtree is exhausted.
    Vertex i is the part's i-th in search order, bit i of `masks`."""
    if pos == len(rows):
        return True
    vbit = 1 << pos
    nbrs = rows[pos]
    for c, cap in enumerate(caps):
        # Colors with equal caps are interchangeable while empty: only the
        # first empty one in each group may receive its first vertex.
        if c and caps[c - 1] == cap and not masks[c - 1]:
            continue
        if budget.nodes == budget.limit:
            raise BudgetExceededError(f"search budget of {budget.limit} nodes used up")
        budget.nodes += 1
        # Cap 2 forbids an edge: a class may take v only with no neighbour.
        if masks[c] & nbrs if cap == 2 else _mask_has_clique(rows, masks[c] & nbrs, cap - 1):
            continue
        masks[c] |= vbit
        if _extend(rows, caps, pos + 1, masks, budget):
            return True  # keep masks intact: they hold the coloring
        masks[c] &= ~vbit
    return False


def _color(rows: list[int], left: int, masks: list[int], forb: list[int], used: int,
           budget: _Budget) -> bool:
    """True iff the vertices in `left` can be colored on top of `masks`, the
    first `used` of which are nonempty; `forb[c]` is the union of the rows
    of class c, the vertices it can no longer take.

    Only the first empty class may open, so a vertex's colors left are
    those classes c < used whose `forb` misses it, plus one if a class is
    still empty.  Bit-sliced ORs over them give the vertices with at least
    one, two and three colors left."""
    if not left:
        return True
    r = len(masks)
    one = left if used < r else 0
    two = three = 0
    for c in range(used):
        free = left & ~forb[c]
        three |= two & free
        two |= one & free
        one |= free
    if left & ~one:
        return False  # a vertex with no color left
    # A vertex with one color left; else, of those with two, the one with
    # the most uncolored neighbours (DSATUR's tie), the earliest on ties;
    # else the next in the order.
    pick = one & ~two
    if pick:
        vbit = pick & -pick
    else:
        vbit = left & -left
        pick = two & ~three
        most = -1
        while pick:
            bit = pick & -pick
            pick ^= bit
            degree = (rows[bit.bit_length() - 1] & left).bit_count()
            if degree > most:
                most, vbit = degree, bit
    row = rows[vbit.bit_length() - 1]
    left ^= vbit
    for c in range(used + 1 if used < r else r):
        f = forb[c]
        if f & vbit:
            continue
        if budget.nodes == budget.limit:
            raise BudgetExceededError(f"search budget of {budget.limit} nodes used up")
        budget.nodes += 1
        masks[c] |= vbit
        forb[c] = f | row
        if _color(rows, left, masks, forb, used + (c == used), budget):
            return True  # keep masks intact: they hold the coloring
        masks[c] ^= vbit
        forb[c] = f
    return False


def _coloring_from_masks(masks: Sequence[int], n: int) -> tuple[int, ...]:
    out = [0] * n
    for c, mask in enumerate(masks):
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            out[v] = c
    return tuple(out)


def _vertex_order(adj: tuple[int, ...], block: int) -> list[int]:
    """The vertices of `block` in smallest-last order (Matula & Beck 1983):
    a vertex of least degree among those left, the lowest on ties, is
    removed until none is left, and the search takes them in reverse.  On a
    regular part such as co-C_{2p+1} this puts a maximum clique first.

    `buckets[k]` holds the vertices left with k neighbours left, and the
    least such k is removed first.  A removal moves each of its neighbours
    down one bucket, so the least k drops by at most one.
    """
    verts = [v for v in range(len(adj)) if block >> v & 1]
    buckets = [0] * len(verts)
    for v in verts:
        buckets[(adj[v] & block).bit_count()] |= 1 << v
    removed = []
    left = block
    lo = 0
    while left:
        found = buckets[lo]
        while not found:
            lo += 1
            found = buckets[lo]
        vbit = found & -found
        buckets[lo] = found ^ vbit
        left ^= vbit
        v = vbit.bit_length() - 1
        removed.append(v)
        # Each neighbour left moves down one bucket.  Its key is at least lo,
        # and at least 1 while v was left, so at k = 0 nothing moves.
        nbrs = adj[v] & left
        k = lo
        while nbrs:
            moved = buckets[k] & nbrs
            buckets[k] ^= moved
            buckets[k - 1] |= moved
            nbrs ^= moved
            k += 1
        if lo:
            lo -= 1
    removed.reverse()
    return removed


def _co_walk(adj: tuple[int, ...], block: int) -> tuple[list[int], bool] | None:
    """The vertices of `block` along its complement, with True if that walk
    closes, when the complement of the block is one path or one cycle: the
    block is then co-P_n or co-C_n.  None otherwise, as soon as a vertex has
    more than two non-neighbours in `block`.

    The walk starts at the lowest path end, or at the lowest vertex of a
    cycle, and steps to the lowest unvisited non-neighbour."""
    start = -1
    rest = block
    while rest:
        bit = rest & -rest
        rest ^= bit
        count = (block & ~adj[bit.bit_length() - 1] ^ bit).bit_count()
        if count > 2:
            return None
        if count < 2 and start < 0:
            start = bit.bit_length() - 1
    closed = start < 0
    v = (block & -block).bit_length() - 1 if closed else start
    walk = [v]
    seen = 1 << v
    step = block & ~adj[v] & ~seen
    while step:
        bit = step & -step
        seen |= bit
        v = bit.bit_length() - 1
        walk.append(v)
        step = block & ~adj[v] & ~seen
    return (walk, closed) if seen == block else None


def _walk_coloring(n: int, closed: bool, caps: tuple[int, ...]) -> list[int] | None:
    """One mask per cap of a free coloring of co-P_n, or co-C_n if `closed`,
    numbered 0..n-1 along its walk, or None if there is none: the rule of
    the module docstring.  Caps ascend, so the last class is the widest."""
    rooms = [cap - 1 for cap in caps]
    if closed and rooms and 2 * rooms[-1] >= n - 1:  # room for the whole cycle
        return [0] * (len(rooms) - 1) + [(1 << n) - 1]
    if 2 * sum(rooms) < n:
        return None
    masks = []
    start = 0
    for room in rooms:
        end = min(start + 2 * room, n)
        masks.append((1 << end) - (1 << start))
        start = end
    return masks


def _splits(room: tuple[int, ...], total: int) -> Iterator[tuple[int, ...]]:
    """The vectors d <= room with sum(d) == total, generated lazily, the
    first entry largest first: that puts the even shares of an ascending
    room early, and their smaller caps make the cheaper searches."""
    if not room:
        if total == 0:
            yield ()
        return
    for x in range(min(room[0], total), max(0, total - sum(room[1:])) - 1, -1):
        for tail in _splits(room[1:], total - x):
            yield (x, *tail)


def _join_coloring(adj: tuple[int, ...], parts: tuple[int, ...], blocks: list[int],
                   bud: _Budget) -> list[int] | None:
    """One mask per color of a free coloring of the join of `blocks`, or None
    if the join arrows `parts`.

    Class i may hold cliques whose sizes over the blocks sum to at most
    room_i = a_i - 1.  The singleton blocks form one K_k, which fits a
    leftover room iff it sums to at least k.  The other blocks are placed in
    turn: block j takes a share d <= room, must be free under caps d + 1, and
    leaves room - d to the blocks after it.  A block only gets freer as d
    grows, so the last block needs only the shares that leave exactly k, and
    an earlier block skips each d above a share it already passed on.

    A join without a p-clique needs none of this: the widest class takes
    every vertex.  A co-P_n block counts ceil(n/2) toward that clique and a
    co-C_n block floor(n/2), the clique numbers of the walk rule.
    """
    r = len(parts)
    singles = 0
    big = []
    for block in blocks:
        if block & (block - 1):
            big.append(block)
        else:
            singles |= block
    big.sort(key=int.bit_count)  # the largest block is placed last
    k = singles.bit_count()
    # Each block's walk, when the rule decides it.
    walks = [_co_walk(adj, block) for block in big]
    if parts:
        need = parts[-1] - k - sum([(len(walk) + (not closed)) // 2
                                    for walk, closed in filter(None, walks)])
        if not _join_has_clique(adj, [b for b, walked in zip(big, walks) if not walked], need):
            return [0] * (r - 1) + [singles | sum(big)]
    # Each block is numbered once, along its walk or else in smallest-last
    # order, and a searched block's rows are renumbered to match: vertex i
    # is orders[j][i], bit i of every mask a decision finds.
    orders = [walked[0] if walked else _vertex_order(adj, block)
              for block, walked in zip(big, walks)]
    rows: list[list[int] | None] = [None] * len(big)
    for j, order in enumerate(orders):
        if walks[j] is None:
            bits = [1 << i for i in range(len(order))]
            rows[j] = [sum([bit for u, bit in zip(order, bits) if adj[v] >> u & 1]) for v in order]
    decided: dict[tuple[int, tuple[int, ...]], list[int] | None] = {}
    placed: dict[tuple[int, tuple[int, ...]], tuple[list[int], tuple[int, ...]] | None] = {}

    def decide(j: int, d: tuple[int, ...]) -> list[int] | None:
        # A cap of 1 keeps its class empty, so only the live colors are
        # searched, in ascending cap order: (block, caps) names the decision.
        live = sorted((c for c in range(r) if d[c]), key=d.__getitem__)
        caps = tuple(d[c] + 1 for c in live)
        key = (big[j], caps)
        if key not in decided:
            order = orders[j]
            if walks[j] is not None:
                found = _walk_coloring(len(order), walks[j][1], caps)
            else:
                masks = [0] * len(caps)
                # Caps ascend, so a last cap of 2 asks for a proper coloring.
                # No caps at all stay with `_extend`: no coloring, at no node.
                if caps and caps[-1] == 2:
                    ok = _color(rows[j], (1 << len(order)) - 1, masks, [0] * len(caps), 0, bud)
                else:
                    ok = _extend(rows[j], caps, 0, masks, bud)
                found = masks if ok else None
            for c, mask in enumerate(found or ()):  # back to input labels
                label = 0
                while mask:
                    label |= 1 << order[(mask & -mask).bit_length() - 1]
                    mask &= mask - 1
                found[c] = label
            decided[key] = found
        found = decided[key]
        if found is None:
            return None
        out = [0] * r
        for c, mask in zip(live, found):
            out[c] = mask
        return out

    def place(j: int, room: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]] | None:
        """Masks of blocks j.. and the room they leave for the K_k, or None."""
        if j == len(big):
            return ([0] * r, room) if sum(room) >= k else None
        key = (j, room)
        if key in placed:
            return placed[key]
        placed[key] = None
        # Every block after this one needs a room of at least 1.
        spare = sum(room) - k - (len(big) - 1 - j)
        passed: list[tuple[int, ...]] = []
        for total in range(spare if j == len(big) - 1 else 1, spare + 1):
            for d in _splits(room, total):
                if any(all(x >= y for x, y in zip(d, e)) for e in passed):
                    continue
                masks = decide(j, d)
                if masks is None:
                    continue
                rest = place(j + 1, tuple(a - b for a, b in zip(room, d)))
                if rest is not None:
                    placed[key] = [m | n for m, n in zip(masks, rest[0])], rest[1]
                    return placed[key]
                passed.append(d)
        return None

    found = place(0, tuple(a - 1 for a in parts))
    if found is None:
        return None
    masks, leftover = found
    for c, spare in enumerate(leftover):  # deal the K_k out by leftover room
        for _ in range(spare):
            if singles:
                masks[c] |= singles & -singles
                singles &= singles - 1
    return masks


def find_free_coloring(g: Graph, sig: Signature | Iterable[int],
                       budget: int | None = DEFAULT_BUDGET, jobs: int = 1) -> SearchResult:
    """Search for an (a1, ..., ar)-free coloring of g.

    Returns a free coloring if one exists, the "arrows" verdict after the
    pruned search space is exhausted, or "undecided" once `budget` search
    nodes have been expanded (budget None means unlimited).  A join is
    decided part by part, every part search drawing on the one budget.

    `jobs` has no effect: every search runs in this process.  It must be
    >= 1, and it is kept only because the benchmark's `parallel` workload
    passes jobs=2; it goes when ROADMAP item 1 redefines that workload.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return _decide(g, as_signature(sig), _co_components(g.adj, (1 << g.n) - 1), budget)


def _decide(g: Graph, sig: Signature, blocks: list[int],
            budget: int | None) -> SearchResult:
    """Decide g as the join of the vertex masks `blocks`, block by block:
    a lone block, such as a co-connected graph, is searched whole."""
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive (or None for unlimited)")
    bud = _Budget(budget)
    try:
        masks = _join_coloring(g.adj, sig.parts, blocks, bud)
    except BudgetExceededError:
        return SearchResult(UNDECIDED, None, bud.nodes)
    if masks is None:
        return SearchResult(ARROWS, None, bud.nodes)
    return SearchResult(FREE, _coloring_from_masks(masks, g.n), bud.nodes)


def arrows(g: Graph, sig: Signature | Iterable[int],
           budget: int | None = DEFAULT_BUDGET) -> bool:
    """True iff g arrows the signature.  Undecided surfaces as an error."""
    return _arrows(find_free_coloring(g, sig, budget=budget), budget)


def _arrows(result: SearchResult, budget: int | None) -> bool:
    if result.verdict == UNDECIDED:
        raise BudgetExceededError(
            f"arrowing search undecided after {result.nodes} nodes (budget {budget})")
    return result.verdict == ARROWS


def in_class_H(g: Graph, sig: Signature | Iterable[int], q: int,
               budget: int | None = DEFAULT_BUDGET) -> bool:
    """Membership in H(a1, ..., ar; q): g arrows the signature and cl(g) < q."""
    if q < 1:
        raise ValueError("clique cap q must be >= 1")
    if has_clique(g, range(g.n), q):
        return False
    return arrows(g, sig, budget=budget)


def verify_composition_instance(g1: Graph, sig1: Signature | Iterable[int],
                                g2: Graph, sig2: Signature | Iterable[int],
                                position: int,
                                budget: int | None = DEFAULT_BUDGET) -> bool:
    """Check the join-composition law on one instance.

    Given g1 arrowing sig1 and g2 arrowing sig2, where the two signatures
    agree everywhere except (possibly) at `position`, the join must arrow
    the merged signature carrying the sum of the two caps at that position.
    The composition law guarantees True; a False return means the engine
    itself is broken, so callers should treat it as fatal.  The join is
    searched as one part, so the law is checked against a flat search
    rather than decided by itself.
    """
    g = join(g1, g2)
    return _arrows(_decide(g, merge_at(sig1, sig2, position), [(1 << g.n) - 1],
                           budget), budget)
