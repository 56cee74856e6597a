"""Property tests: the part-by-part decision of joins against the naive
oracle, and the node budget, on joins of small random graphs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from folkman.arrowing import ARROWS, FREE, UNDECIDED, SearchResult, find_free_coloring
from folkman.graphs import Graph, complement, complete, from_edges, has_clique, join
from folkman.signatures import normalize

from conftest import brute_subset_has_clique, coloring_is_free, naive_find_free

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
