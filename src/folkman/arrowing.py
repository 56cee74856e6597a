"""Exhaustive arrowing decisions: does every r-coloring of V(G) produce a
monochromatic a_i-clique in some color class i?

The search assigns colors vertex by vertex (descending degree order), prunes
a branch as soon as a class would acquire its forbidden clique, and breaks
symmetry among colors with equal caps by first-use order.  "Arrows" is only
reported after the pruned tree is provably exhausted; a free coloring is
returned as a concrete counterexample otherwise.  Node budgets make
"undecided" a first-class outcome rather than an open-ended run.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Iterable, Sequence

from .graphs import Graph, _mask_has_clique, has_clique, join
from .signatures import Signature, as_signature, merge_at

DEFAULT_BUDGET = 10**8

ARROWS = "arrows"
FREE = "free-coloring"
UNDECIDED = "undecided"

_FOUND, _EXHAUSTED, _OUT_OF_BUDGET = 0, 1, 2
# Worker limit standing in for an unlimited budget: never reached.
_NO_LIMIT = 2**62
_SYNC = 2048


class BudgetExceededError(RuntimeError):
    """Raised where an undecided outcome cannot be surfaced as a value."""


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one arrowing search.

    `coloring` maps vertex -> color index (0-based) when the verdict is a
    free coloring, else None.  `nodes` counts search-tree nodes expanded.
    """

    verdict: str
    coloring: tuple[int, ...] | None
    nodes: int

    @property
    def decided(self) -> bool:
        return self.verdict != UNDECIDED


def color_classes(coloring: Sequence[int], r: int) -> list[list[int]]:
    """Split a vertex->color assignment into the r color classes."""
    classes: list[list[int]] = [[] for _ in range(r)]
    for v, c in enumerate(coloring):
        classes[c].append(v)
    return classes


class _Budget:
    __slots__ = ("nodes", "limit", "shared")

    def __init__(self, limit: int | None, shared=None):
        self.nodes = 0
        self.limit = limit
        self.shared = shared

    def spend(self) -> bool:
        """Count one node; True means the budget is exhausted."""
        self.nodes += 1
        if self.shared is not None:
            # A worker adds its nodes to the shared count _SYNC at a time.
            if self.nodes % _SYNC:
                return False
            with self.shared.get_lock():
                self.shared.value += _SYNC
                return self.shared.value > self.limit
        return self.limit is not None and self.nodes > self.limit


def _found(masks: list[int]) -> int:
    """Default leaf of `_extend`: a full assignment is a free coloring."""
    return _FOUND


def _extend(adj: tuple[int, ...], parts: tuple[int, ...], order: Sequence[int],
            pos: int, masks: list[int], budget: _Budget,
            leaf: Callable[[list[int]], int] = _found) -> int:
    if pos == len(order):
        return leaf(masks)
    v = order[pos]
    vbit = 1 << v
    nbrs = adj[v]
    for c, cap in enumerate(parts):
        # Colors with equal caps are interchangeable while empty: only the
        # first empty one in each group may receive its first vertex.
        if c and parts[c - 1] == cap and not masks[c - 1]:
            continue
        if budget.spend():
            return _OUT_OF_BUDGET
        if _mask_has_clique(adj, masks[c] & nbrs, cap - 1):
            continue
        masks[c] |= vbit
        res = _extend(adj, parts, order, pos + 1, masks, budget, leaf)
        if res != _EXHAUSTED:
            return res  # keep masks intact: on _FOUND they hold the coloring
        masks[c] &= ~vbit
    return _EXHAUSTED


def _coloring_from_masks(masks: Sequence[int], n: int) -> tuple[int, ...]:
    out = [0] * n
    for c, mask in enumerate(masks):
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            out[v] = c
    return tuple(out)


def _vertex_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-g.degree(v), v))


def _search_worker(adj, parts, order, depth, prefixes, tasks, out, counter, limit):
    """Search the subtrees whose prefix indices `tasks` hands out, sending one
    (result, coloring, nodes) per subtree down `out`; stop at a None or once
    the shared count has passed `limit`."""
    while (i := tasks.get()) is not None and counter.value <= limit:
        budget = _Budget(limit, shared=counter)
        masks = list(prefixes[i])
        res = _extend(adj, parts, order, depth, masks, budget)
        coloring = _coloring_from_masks(masks, len(adj)) if res == _FOUND else None
        out.send((res, coloring, budget.nodes))


def find_free_coloring(g: Graph, sig: Signature | Iterable[int],
                       budget: int | None = DEFAULT_BUDGET, jobs: int = 1) -> SearchResult:
    """Search for an (a1, ..., ar)-free coloring of g.

    Returns a free coloring if one exists, the "arrows" verdict after the
    pruned search space is exhausted, or "undecided" once `budget` search
    nodes have been expanded (budget None means unlimited).  With jobs > 1
    the top of the search tree is split across worker processes; the
    verdict never depends on jobs, though which free coloring is found may.
    """
    sig = as_signature(sig)
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive (or None for unlimited)")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    # The search itself settles the empty signature and the empty graph.
    parts = sig.parts
    if parts and not _mask_has_clique(g.adj, (1 << g.n) - 1, sig.p):
        # No p-clique: the widest class can hold every vertex.
        return SearchResult(FREE, tuple([len(parts) - 1] * g.n), 0)
    order = _vertex_order(g)
    if jobs == 1 or g.n < 2:
        bud = _Budget(budget)
        masks = [0] * len(parts)
        res = _extend(g.adj, parts, order, 0, masks, bud)
        if res == _FOUND:
            return SearchResult(FREE, _coloring_from_masks(masks, g.n), bud.nodes)
        if res == _OUT_OF_BUDGET:
            return SearchResult(UNDECIDED, None, bud.nodes)
        return SearchResult(ARROWS, None, bud.nodes)
    return _parallel_search(g, parts, order, budget, jobs)


def _parallel_search(g: Graph, parts: tuple[int, ...], order: list[int],
                     budget: int | None, jobs: int) -> SearchResult:
    bud = _Budget(budget)
    prefixes: list[tuple[int, ...]] = []

    def collect(masks: list[int]) -> int:
        prefixes.append(tuple(masks))
        return _EXHAUSTED

    for depth in range(1, min(g.n, 6) + 1):
        prefixes.clear()
        if _extend(g.adj, parts, order[:depth], 0, [0] * len(parts), bud,
                   collect) == _OUT_OF_BUDGET:
            return SearchResult(UNDECIDED, None, bud.nodes)
        if len(prefixes) >= 3 * jobs:
            break
    if not prefixes:
        return SearchResult(ARROWS, None, bud.nodes)
    # Workers stop once the shared count passes `limit`; pushing it past is
    # also how the search stops them when it returns early.
    limit = _NO_LIMIT if budget is None else budget - bud.nodes
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    counter = ctx.Value("q", 0)
    # Workers take prefix indices from `tasks` and each sends its results down
    # its own pipe, whose end of file says that the worker has exited.
    tasks = ctx.SimpleQueue()
    readers, procs = [], []
    total_nodes, reported = bud.nodes, 0
    verdict = ARROWS
    coloring = None
    try:
        for _ in range(jobs):
            reader, writer = ctx.Pipe(duplex=False)
            procs.append(ctx.Process(target=_search_worker, daemon=True, args=(
                g.adj, parts, order, depth, prefixes, tasks, writer, counter, limit)))
            procs[-1].start()
            writer.close()
            readers.append(reader)
        for i in [*range(len(prefixes)), *[None] * jobs]:
            tasks.put(i)
        while readers and verdict != FREE:
            for reader in wait(readers):
                try:
                    res, col, nodes = reader.recv()
                except EOFError:
                    readers.remove(reader)
                    continue
                reported += 1
                total_nodes += nodes
                if res == _FOUND:
                    verdict, coloring = FREE, col
                    break
                if res == _OUT_OF_BUDGET:
                    verdict = UNDECIDED
        if verdict == ARROWS and reported < len(prefixes):
            raise RuntimeError("a search worker exited before finishing its subtrees")
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        with counter.get_lock():
            counter.value = limit + 1
        for proc in procs:
            proc.join()
    return SearchResult(verdict, coloring, total_nodes)


def arrows(g: Graph, sig: Signature | Iterable[int],
           budget: int | None = DEFAULT_BUDGET, jobs: int = 1) -> bool:
    """True iff g arrows the signature.  Undecided surfaces as an error."""
    result = find_free_coloring(g, sig, budget=budget, jobs=jobs)
    if result.verdict == UNDECIDED:
        raise BudgetExceededError(
            f"arrowing search undecided after {result.nodes} nodes (budget {budget})")
    return result.verdict == ARROWS


def in_class_H(g: Graph, sig: Signature | Iterable[int], q: int,
               budget: int | None = DEFAULT_BUDGET, jobs: int = 1) -> bool:
    """Membership in H(a1, ..., ar; q): g arrows the signature and cl(g) < q."""
    if q < 1:
        raise ValueError("clique cap q must be >= 1")
    if has_clique(g, range(g.n), q):
        return False
    return arrows(g, sig, budget=budget, jobs=jobs)


def verify_composition_instance(g1: Graph, sig1: Signature | Iterable[int],
                                g2: Graph, sig2: Signature | Iterable[int],
                                position: int,
                                budget: int | None = DEFAULT_BUDGET,
                                jobs: int = 1) -> bool:
    """Check the join-composition law on one instance.

    Given g1 arrowing sig1 and g2 arrowing sig2, where the two signatures
    agree everywhere except (possibly) at `position`, the join must arrow
    the merged signature carrying the sum of the two caps at that position.
    The composition law guarantees True; a False return means the engine
    itself is broken, so callers should treat it as fatal.
    """
    return arrows(join(g1, g2), merge_at(sig1, sig2, position), budget=budget, jobs=jobs)
