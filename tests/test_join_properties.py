"""Property tests: the part-by-part decision of joins against the naive
oracle, and the node budget, on joins of small random graphs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from folkman import arrowing, graphs as graphs_
from folkman.arrowing import ARROWS, FREE, UNDECIDED, SearchResult, find_free_coloring
from folkman.formats import parse_graph6
from folkman.graphs import Graph, complement, complete, cycle, from_edges, has_clique, join
from folkman.signatures import normalize

from conftest import (brute_subset_has_clique, circulant, coloring_is_free, mycielskian,
                      naive_arrows, naive_find_free)

MAX_N = 8
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

# Raw signatures of up to three colors; all ones normalizes to the empty one.
raw_signatures = st.lists(st.integers(1, 4), min_size=1, max_size=3)


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 4) -> Graph:
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edges(n, [e for e in pairs if draw(st.booleans())])


@st.composite
def co_connected_graphs(draw, min_n: int = 2, max_n: int = 4,
                        extra_edges: bool = True) -> Graph:
    """The complement of a connected graph: one co-component, never a
    singleton.  Without extra edges that graph is a tree, and its complement
    dense."""
    n = draw(st.integers(min_n, max_n))
    tree = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    extra = [(u, v) for u in range(n) for v in range(u + 1, n)
             if extra_edges and draw(st.booleans())]
    return complement(from_edges(n, set(tree) | set(extra)))


def joins(operands) -> st.SearchStrategy[Graph]:
    def join_all(gs):
        out = gs[0]
        for g in gs[1:]:
            out = join(out, g)
        return out

    return (st.lists(operands, min_size=2, max_size=3)
            .filter(lambda gs: sum(g.n for g in gs) <= MAX_N).map(join_all))


def _agrees_with_the_oracle(g: Graph, raw) -> None:
    sig = normalize(raw)
    result = find_free_coloring(g, sig)
    assert result.verdict == (ARROWS if naive_find_free(g, sig.parts) is None else FREE)
    if result.verdict == FREE:
        assert coloring_is_free(g, sig.parts, result.coloring)


@PROPERTY
@given(joins(graphs()), raw_signatures)
@example(complete(0), [1])
@example(complete(0), [2, 3])
@example(join(complete(2), complete(0)), [1, 1])
def test_joins_of_random_graphs(g, raw):
    _agrees_with_the_oracle(g, raw)


@PROPERTY
@given(joins(co_connected_graphs()), raw_signatures)
def test_joins_of_several_co_connected_parts(g, raw):
    _agrees_with_the_oracle(g, raw)


@PROPERTY
@given(joins(st.one_of(co_connected_graphs(), st.integers(1, 3).map(complete))),
       raw_signatures)
def test_joins_with_singleton_parts(g, raw):
    _agrees_with_the_oracle(g, raw)


@PROPERTY
@given(joins(st.one_of(graphs(), co_connected_graphs(), st.integers(1, 3).map(complete))))
def test_clique_checks_of_joins(g):
    # Singletons, one larger block or several: every branch of the check.
    for k in range(g.n + 2):
        assert has_clique(g, range(g.n), k) == brute_subset_has_clique(g, range(g.n), k)


@PROPERTY
@given(st.integers(0, MAX_N), raw_signatures)
def test_complete_graphs(k, raw):
    # K_k is k singleton co-components, settled by the closed form.
    _agrees_with_the_oracle(complete(k), raw)
    sig = normalize(raw)
    expected = FREE if sum(a - 1 for a in sig.parts) >= k else ARROWS
    result = find_free_coloring(complete(k), sig)
    assert (result.verdict, result.nodes) == (expected, 0)


@PROPERTY
@given(joins(st.one_of(co_connected_graphs(3, 5), st.integers(1, 2).map(complete))),
       st.lists(st.integers(2, 3), min_size=2, max_size=3))
def test_a_budget_stops_the_search_at_exactly_its_nodes(g, raw):
    # Small caps over larger parts: over half the examples search, and
    # nearly half of those reuse a part decision from the memo.  The budget
    # may run out in any part's search or after any memo hit; the result
    # must not depend on where.
    sig = normalize(raw)
    full = find_free_coloring(g, sig, budget=None)
    for budget in range(1, full.nodes):
        assert find_free_coloring(g, sig, budget=budget) == SearchResult(UNDECIDED, None, budget)
    for budget in (max(full.nodes, 1), full.nodes + 1):
        assert find_free_coloring(g, sig, budget=budget) == full


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(co_connected_graphs(6, 9), co_connected_graphs(6, 9, extra_edges=False)),
       st.lists(st.integers(2, 3), min_size=2, max_size=3))
def test_larger_co_connected_parts(g, raw):
    # Parts large enough for the smallest-last order to differ from index
    # and degree order, sparse and dense; small caps keep the naive r^n scan
    # to seconds.
    _agrees_with_the_oracle(g, raw)


GROTZSCH = mycielskian(cycle(5))
C13 = circulant(13, (1, 2, 3, 5))


def _co_walk_part(n: int, closed: bool) -> Graph:
    """co-C_n if `closed`, else co-P_n, numbered along the walk."""
    return complement(cycle(n) if closed else from_edges(n, [(i, i + 1) for i in range(n - 1)]))


walk_parts = st.one_of(st.integers(2, 7).map(lambda n: _co_walk_part(n, False)),
                       st.integers(3, 9).map(lambda n: _co_walk_part(n, True)))


@st.composite
def walk_joins(draw):
    """A join of 1-3 co-paths and co-cycles with K_0..K_3 and at most one
    searched part, its operands in any order; and whether every part other
    than a singleton is a walk."""
    operands = draw(st.lists(walk_parts, min_size=1, max_size=3))
    operands.append(complete(draw(st.integers(0, 3))))
    searched = draw(st.sampled_from([None, GROTZSCH, C13]))
    if searched is not None:
        operands.append(searched)
    out = complete(0)
    for g in draw(st.permutations(operands)):
        out = join(out, g)
    return out, searched is None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(walk_joins(), st.lists(st.integers(2, 7), min_size=1, max_size=3))
@example((parse_graph6("Puz~vz}~v~^]~~~~~~n~x~~c"), True), [2, 2, 6])
@example((parse_graph6("Puz~vz}~v~^]~~~~~~n~x~~c"), True), [2, 2, 7])
def test_joins_of_several_walk_parts(case, raw):
    # Walk parts counted as room against the search that `_co_walk`
    # returning no walk forces on them; every join has a walk part to hook.
    g, walks_only = case
    sig = normalize(raw)
    result = find_free_coloring(g, sig)
    hooked = []

    def no_walk(adj, mask):
        hooked.append(mask)
        return graphs_._co_component(adj, mask), None, False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrowing, "_co_walk", no_walk)
        general = find_free_coloring(g, sig)
    assert hooked
    assert result.verdict == general.verdict
    if walks_only:
        assert result.nodes == 0
    if result.verdict == FREE:
        assert graphs_._is_free_coloring(g, sig.parts, result.coloring)
    if g.n <= MAX_N:
        assert (result.verdict == ARROWS) == naive_arrows(g, sig.parts)


def test_two_odd_co_cycles_fit_only_whole_in_one_class():
    # K1 + co-P4 + co-C7 + co-C5 holds 1 + 2 + 4 + 3 = 10 units.  Against
    # (2,2,6) the room is 7, and putting both co-cycles whole saves only 2
    # of the 3 units short: it arrows.  Against (2,2,7) the room of 8 is 2
    # short, so both co-cycles must go whole, and only the third class, of
    # room 6 >= 3 + 2, can take them.
    g = parse_graph6("Puz~vz}~v~^]~~~~~~n~x~~c")
    assert [arrowing._co_walk(g.adj, block)[1] is not None
            for block in graphs_._co_components(g.adj, (1 << g.n) - 1)] == [True] * 4
    assert find_free_coloring(g, [2, 2, 6]) == SearchResult(ARROWS, None, 0)
    result = find_free_coloring(g, [2, 2, 7])
    assert (result.verdict, result.nodes) == (FREE, 0)
    assert graphs_._is_free_coloring(g, (2, 2, 7), result.coloring)
    assert set(result.coloring[5:]) == {2}  # co-C7 is 5..11, co-C5 12..16
