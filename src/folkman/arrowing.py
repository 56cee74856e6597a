"""Exhaustive arrowing decisions: does every r-coloring of V(G) produce a
monochromatic a_i-clique in some color class i?

A graph is first split into its co-components, each walked as it is found
(`_co_blocks`).  It is their join, so by the paper's composition law a
class's clique number is the sum of its clique numbers in the parts, and
class i has a room of a_i - 1 to share among them.  A part the rule below
decides is counted as room; every other part is searched, under each
sharing that can matter.  Every search runs in the calling process.

A part whose complement is one path or one cycle, such as a singleton or
the co-C_{2p+1} of every stock witness, is walked by `_co_walk` and decided
by the walk rule, at no node.  Along its walk 0..n-1, with shares d_1..d_r:

- co-P_n is free iff d_1 + ... + d_r >= ceil(n/2);
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
omega = ceil(L/2) <= d_i, or floor(n/2) if it closes the cycle.

So co-P_n and co-C_{2t} count as ceil(n/2) units of room, as K_{ceil(n/2)}
does, and co-C_{2t+1} as t + 1 units or as one class of room t that takes
it whole, saving a unit.  The room the searched parts leave must hold the
units less those saved; if any s odd co-cycles fit whole, the s smallest
do (`_place_whole`).  `_deal_arcs` writes the rest straight into the
output coloring, class by class in arcs along each walk.

A join of rule parts alone is placed by that arithmetic (`_place_walks`);
only one with a searched part builds search state (`_search_blocks`).
Each such part is numbered once in smallest-last order (`_vertex_order`),
its rows renumbered from each vertex's neighbours, and decided in those
positions: `_extend` colors it vertex by vertex in that order and prunes a
branch once a class would hold its forbidden clique
(`graphs._mask_has_clique`); under caps all 2, `_color` asks for a proper
coloring with forward checking (Haralick & Elliott 1980) and DSATUR's tie
(Brelaz 1979).  Both break symmetry among colors with equal caps by first
use and share one budget.  Once the rest of the join fits, a part's classes
are written through its order into the output coloring, as is each odd
co-cycle put whole along its walk: nothing written is ever taken back.

"Arrows" is only reported after the pruned tree is provably exhausted; a
free coloring is returned as a concrete counterexample otherwise.  Node
budgets make "undecided" a first-class outcome rather than an open-ended
run: a used-up budget raises BudgetExceededError out of the search, and
`find_free_coloring` reports it as undecided.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .graphs import (Graph, _co_component, _join_has_clique, _mask_has_clique, has_clique,
                     join)
from .signatures import Signature, _Record, _integer, as_signature, merge_at

DEFAULT_BUDGET = 10**8

ARROWS = "arrows"
FREE = "free-coloring"
UNDECIDED = "undecided"

# A co-component as (vertex mask, its walk or None, whether the walk closes).
_Block = tuple[int, list[int] | None, bool]

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
        set_verdict, set_coloring, set_nodes = self._set
        set_verdict(self, verdict)
        set_coloring(self, coloring)
        set_nodes(self, nodes)


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


def _co_walk(adj: tuple[int, ...], mask: int) -> _Block:
    """(block, walk, closed): the co-component of the lowest vertex of
    `mask` in the subgraph on `mask` and, when it is co-P_n or co-C_n, its
    vertices along the complement's path or cycle, with True for a cycle.
    Complement edges never leave a block, so the walk covers it.  Once a
    vertex on the walk has more than two non-neighbours in `mask`, the
    block is found by the BFS of `graphs._co_component`, with walk None.

    The walk starts at the lowest path end, or at the lowest vertex of a
    cycle, and steps to the lowest unvisited non-neighbour.  It is found in
    one pass: from the lowest vertex towards its lower non-neighbour, then,
    unless that closed a cycle, towards the other."""
    v = (mask & -mask).bit_length() - 1
    seen = 1 << v
    ends = mask & ~adj[v] ^ seen
    degree = ends.bit_count()
    if degree > 2:
        return _co_component(adj, mask), None, False
    sides = []
    while ends:
        bit = ends & -ends
        side = []
        while bit:
            seen |= bit
            u = bit.bit_length() - 1
            side.append(u)
            step = mask & ~adj[u] ^ bit
            if step.bit_count() > 2:
                return _co_component(adj, mask), None, False
            bit = step & ~seen
        sides.append(side)
        ends &= ~seen
    if len(sides) == 2:  # v inside a path: start at its lower end
        first, second = sides if sides[0][-1] < sides[1][-1] else sides[::-1]
        return seen, first[::-1] + [v] + second, False
    # v ends a path, or its one side came back round a cycle.
    return seen, [v, *(sides[0] if sides else ())], degree == 2


def _co_blocks(adj: tuple[int, ...], mask: int) -> list[_Block]:
    """The co-components of the subgraph on `mask` as `_co_walk` gives them,
    in one pass: the lowest vertex left is a block of its own when it is
    joined to everything left, else its co-component is walked."""
    blocks = []
    while mask:
        bit = mask & -mask
        v = bit.bit_length() - 1
        blocks.append((bit, [v], False) if mask & ~adj[v] == bit else _co_walk(adj, mask))
        mask ^= blocks[-1][0]
    return blocks


def _deal_arcs(walks: list[list[int]], room: list[int], coloring: list[int]) -> None:
    """Color each walk, a co-P_n or co-C_n along its complement, out of `room`,
    which holds their ceil(n/2) units: class by class, an arc of L vertices,
    L <= 2 * room[c], costs class c ceil(L/2), at least its clique number.
    Each vertex v of an arc dealt to class c gets coloring[v] = c."""
    c = 0
    for walk in walks:
        while walk:
            while not room[c]:
                c += 1
            arc, walk = walk[:2 * room[c]], walk[2 * room[c]:]
            room[c] -= (len(arc) + 1) // 2
            for v in arc:
                coloring[v] = c


def _place_whole(odd: list[tuple[int, int, list[int]]], room: tuple[int, ...],
                 coloring: list[int], failed: set[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The room left once each co-C_{2t+1} (t, block, walk) of `odd` is put
    whole in a class c with room at least t, coloring[v] = c along its walk,
    or None if they do not fit.  Classes with equal room are interchangeable:
    `failed` holds (len(odd), *sorted(room)) of each room found too small."""
    if not odd:
        return room
    key = (len(odd), *sorted(room))
    if key in failed:
        return None
    t, _, walk = odd[0]
    for c, x in enumerate(room):
        if x >= t:
            left = _place_whole(odd[1:], room[:c] + (x - t,) + room[c + 1:], coloring, failed)
            if left is not None:
                for v in walk:
                    coloring[v] = c
                return left
    failed.add(key)
    return None


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


def _place_walks(units: int, odd: list[tuple[int, int, list[int]]], room: tuple[int, ...],
                 coloring: list[int]) -> tuple[tuple[int, ...], int] | None:
    """(the room left, how many odd co-cycles went whole into `coloring`) once
    the walks' `units` fit in `room`, or None."""
    short = max(units - sum(room), 0)
    left = _place_whole(odd[:short], room, coloring, set()) if short <= len(odd) else None
    return None if left is None else (left, short)


def _search_blocks(adj: tuple[int, ...], big: list[int], units: int,
                   odd: list[tuple[int, int, list[int]]], room: tuple[int, ...],
                   bud: _Budget, coloring: list[int]) -> tuple[tuple[int, ...], int] | None:
    """`_place_walks` with the searched blocks `big` placed first: block j
    takes a share d <= room, must be free under caps d + 1, and leaves room - d
    to the rest.  It only gets freer as d grows, so the last takes only shares
    that leave at most the units, and an earlier one skips d above one passed.
    Block j's classes are written into `coloring` once the rest fit."""
    r = len(room)
    # Searched block j's vertex i is orders[j][i], bit i of its decisions,
    # and at[v] is v's position in its block's order.
    orders = [_vertex_order(adj, block) for block in big]
    at = [0] * len(adj)
    rows = []
    for block, order in zip(big, orders):
        for i, v in enumerate(order):
            at[v] = i
        rows.append([])
        for v in order:
            row, nbrs = 0, adj[v] & block
            while nbrs:
                bit = nbrs & -nbrs
                row |= 1 << at[bit.bit_length() - 1]
                nbrs ^= bit
            rows[-1].append(row)
    decided: dict[tuple[int, tuple[int, ...]], list[int] | None] = {}
    failed: set[tuple[int, tuple[int, ...]]] = set()  # the (j, room) that place found no fit for

    def decide(j: int, d: tuple[int, ...]) -> tuple[list[int], list[int]] | None:
        # A cap of 1 keeps its class empty, so only the live colors are
        # searched, in ascending cap order: (block, caps) names the decision.
        live = sorted((c for c in range(r) if d[c]), key=d.__getitem__)
        caps = tuple(d[c] + 1 for c in live)
        key = (big[j], caps)
        if key not in decided:
            masks = [0] * len(caps)
            # Caps ascend, so a last cap of 2 asks for a proper coloring.
            # No caps at all stay with `_extend`: no coloring, at no node.
            if caps and caps[-1] == 2:
                ok = _color(rows[j], (1 << len(rows[j])) - 1, masks, [0] * len(caps), 0, bud)
            else:
                ok = _extend(rows[j], caps, 0, masks, bud)
            decided[key] = masks if ok else None
        return None if decided[key] is None else (live, decided[key])

    def write(j: int, live: list[int], masks: list[int]) -> None:
        # Block j's classes into `coloring`, through its order.
        for c, mask in zip(live, masks):
            while mask:
                coloring[orders[j][(mask & -mask).bit_length() - 1]] = c
                mask &= mask - 1

    def place(j: int, room: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
        # As `_place_walks`, with searched blocks j.. placed first.
        if j == len(big):
            return _place_walks(units, odd, room, coloring)
        if j == len(big) - 1 and not units:
            # No unit is left to place after the last block: its one share is the room.
            found = decide(j, room)
            if found is None:
                return None
            write(j, *found)
            return (0,) * r, 0
        if (j, room) in failed:
            return None
        # Each searched block after this one needs 1, each odd co-cycle t.
        spare = sum(room) - units + len(odd) - (len(big) - 1 - j)
        passed: list[tuple[int, ...]] = []
        for total in range(spare - len(odd) if j == len(big) - 1 else 1, spare + 1):
            for d in _splits(room, total):
                if any(all(x >= y for x, y in zip(d, e)) for e in passed):
                    continue
                found = decide(j, d)
                if found is None:
                    continue
                rest = place(j + 1, tuple(a - b for a, b in zip(room, d)))
                if rest is not None:
                    write(j, *found)  # the blocks after j fit: block j's classes are final
                    return rest
                passed.append(d)
        failed.add((j, room))
        return None

    return place(0, room)


def _join_coloring(adj: tuple[int, ...], parts: tuple[int, ...], blocks: list[_Block],
                   bud: _Budget) -> tuple[int, ...] | None:
    """A free coloring (vertex -> color) of the join of `blocks`, as
    `_co_walk` gives them, or None if the join arrows `parts`.

    The walk rule's blocks count as units of room, a singleton as one.  A
    join without a p-clique needs nothing more: the widest class takes every
    vertex.  Else a join of walks alone is placed by `_place_walks`; only one
    with a searched block builds search state, in `_search_blocks`.
    """
    big = []  # the searched blocks
    walks = []  # the walks of co-paths and even co-cycles
    singles = []  # the walks [v] of singletons
    odd = []  # (t, block, walk) of each co-C_{2t+1}
    units = 0
    for block, walk, closed in blocks:
        if walk is None:
            big.append(block)
        elif len(walk) == 1:
            singles.append(walk)
        else:
            units += (len(walk) + 1) // 2
            if closed and len(walk) % 2:
                odd.append((len(walk) // 2, block, walk))
            else:
                walks.append(walk)
    units += len(singles)
    big.sort(key=int.bit_count)  # the largest block is placed last
    odd.sort()  # if any s odd co-cycles fit whole, the s smallest do
    # The walks' clique number is their units less one per odd co-cycle.
    if parts and not _join_has_clique(adj, big, parts[-1] - units + len(odd)):
        return (len(parts) - 1,) * len(adj)
    room = tuple(a - 1 for a in parts)
    coloring = [0] * len(adj)
    found = (_search_blocks(adj, big, units, odd, room, bud, coloring) if big
             else _place_walks(units, odd, room, coloring))
    if found is None:
        return None
    left, short = found
    walks += [walk for _, _, walk in odd[short:]]
    walks.sort(key=len)
    _deal_arcs(walks + singles, list(left), coloring)
    return tuple(coloring)


def find_free_coloring(g: Graph, sig: Signature | Iterable[int],
                       budget: int | None = DEFAULT_BUDGET, jobs: int = 1) -> SearchResult:
    """Search for an (a1, ..., ar)-free coloring of g.

    Returns a free coloring if one exists, the "arrows" verdict after the
    pruned search space is exhausted, or "undecided" once `budget` search
    nodes have been expanded (a positive integer, or None for unlimited).  A join is
    decided part by part, every part search drawing on the one budget.

    `jobs` has no effect: every search runs in this process.  It must be
    >= 1, and it is kept only because the benchmark's `parallel` workload
    passes jobs=2; it goes with that workload (ROADMAP item 3, stage A).
    """
    if _integer(jobs, "jobs must be an integer") < 1:
        raise ValueError("jobs must be >= 1")
    return _decide(g, as_signature(sig), _co_blocks(g.adj, (1 << g.n) - 1), budget)


def _decide(g: Graph, sig: Signature, blocks: list[_Block],
            budget: int | None) -> SearchResult:
    """Decide g as the join of `blocks`, block by block: a lone block with
    no walk, such as a co-connected graph, is searched whole."""
    if budget is not None:
        budget = _integer(budget, "budget must be an integer or None")
    bud = _Budget(budget)
    if bud.limit is not None and bud.limit <= 0:
        raise ValueError("budget must be positive (or None for unlimited)")
    try:
        coloring = _join_coloring(g.adj, sig.parts, blocks, bud)
    except BudgetExceededError:
        return SearchResult(UNDECIDED, None, bud.nodes)
    return SearchResult(ARROWS if coloring is None else FREE, coloring, bud.nodes)


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
    q = _integer(q, "clique cap q must be an integer")
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
    return _arrows(_decide(g, merge_at(sig1, sig2, position), [((1 << g.n) - 1, None, False)],
                           budget), budget)
