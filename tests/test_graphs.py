import random
from itertools import combinations, product

import pytest

from folkman import graphs
from folkman.arrowing import ARROWS, find_free_coloring
from folkman.graphs import (MAX_VERTICES, Graph, clique_number, complement,
                            complete, cycle, from_edges, has_clique, join,
                            max_clique)

from conftest import (all_graphs, brute_clique_number, brute_subset_has_clique,
                      coloring_is_free, random_graph)


def test_complete():
    k5 = complete(5)
    assert k5.edge_count == 10
    assert clique_number(k5) == 5
    assert complete(1).edge_count == 0
    assert complete(0).n == 0
    assert clique_number(complete(0)) == 0
    assert clique_number(complete(7)) == 7


def test_cycle():
    c5 = cycle(5)
    assert c5.edge_count == 5
    assert clique_number(c5) == 2
    assert cycle(3) == complete(3)
    assert cycle(7).edge_count == 7
    assert clique_number(cycle(7)) == 2
    with pytest.raises(ValueError):
        cycle(2)


def test_join_basic():
    g = join(cycle(5), cycle(5))
    assert g.n == 10
    assert clique_number(g) == 4
    # every cross pair is an edge
    assert all(g.has_edge(u, v) for u in range(5) for v in range(5, 10))


def test_join_identity_keeps_indices():
    c5 = cycle(5)
    assert join(complete(0), c5) == c5
    assert join(c5, complete(0)) == c5


def test_join_wheel():
    wheel = join(complete(1), cycle(5))
    assert wheel.n == 6
    assert clique_number(wheel) == 3 == brute_clique_number(wheel)


def test_join_index_shift():
    g = join(complete(2), cycle(3))
    # first operand keeps 0..1, second shifted by 2
    assert g.has_edge(0, 1)
    assert g.has_edge(2, 3) and g.has_edge(3, 4) and g.has_edge(2, 4)


def test_join_width_cap():
    with pytest.raises(ValueError):
        join(complete(40), complete(30))
    with pytest.raises(ValueError):
        complete(MAX_VERTICES + 1)


def test_clique_number_examples():
    assert clique_number(join(cycle(5), complete(2))) == 4
    assert brute_clique_number(join(cycle(5), complete(2))) == 4


def test_clique_number_matches_brute_force():
    rng = random.Random(20240)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 7), rng.random())
        assert clique_number(g) == brute_clique_number(g)


def _random_join(rng: random.Random) -> Graph:
    """A join of 2 or 3 parts of up to 4 vertices, about a third of them K1 or K2."""
    g = complete(0)
    for _ in range(rng.randint(2, 3)):
        if rng.random() < 1 / 3:
            g = join(g, complete(rng.randint(1, 2)))
        else:
            g = join(g, random_graph(rng, rng.randint(1, 4), rng.random()))
    return g


def test_max_clique_is_a_clique_of_max_size():
    rng = random.Random(515)
    graphs = [random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(100)]
    for g in graphs + [_random_join(rng) for _ in range(100)]:
        witness = max_clique(g)
        assert all(g.has_edge(u, v) for u, v in combinations(witness, 2))
        assert len(witness) == brute_clique_number(g)


def test_join_clique_additivity():
    rng = random.Random(7)
    for _ in range(200):
        g1 = random_graph(rng, rng.randint(0, 7), rng.random())
        g2 = random_graph(rng, rng.randint(0, 7), rng.random())
        joined = join(g1, g2)
        expected = clique_number(g1) + clique_number(g2)
        assert clique_number(joined) == expected == brute_clique_number(joined)


def test_join_associativity_counts():
    rng = random.Random(99)
    for _ in range(40):
        a, b, c = (random_graph(rng, rng.randint(0, 5), rng.random()) for _ in range(3))
        left = join(join(a, b), c)
        right = join(a, join(b, c))
        assert left.n == right.n
        assert left.edge_count == right.edge_count
        assert clique_number(left) == clique_number(right)


def test_has_clique_examples():
    c5 = cycle(5)
    assert has_clique(c5, [0, 1, 2, 3, 4], 2)
    assert not has_clique(c5, [0, 2], 2)
    assert has_clique(complete(5), [1, 3, 4], 3)
    assert has_clique(c5, [], 0)
    assert has_clique(c5, [2], 1)
    assert not has_clique(c5, [], 1)
    with pytest.raises(ValueError):
        has_clique(c5, [9], 1)
    with pytest.raises(ValueError):
        has_clique(c5, [0], -1)


def test_a_clique_size_must_be_an_integer():
    # C5 has an edge, but no clique has 2.5 vertices: unchecked, the answer was False.
    with pytest.raises(ValueError, match=r"^clique size k must be an integer, got 2\.5$"):
        has_clique(cycle(5), range(5), 2.5)
    assert has_clique(cycle(5), range(5), True)  # a bool is its int


def test_has_clique_matches_brute_force():
    rng = random.Random(31337)
    for i in range(400):  # then subsets of joins
        g = random_graph(rng, rng.randint(1, 7), rng.random()) if i < 200 else _random_join(rng)
        verts = [v for v in range(g.n) if rng.random() < 0.6]
        k = rng.randint(0, 4 if i < 200 else 8)
        assert has_clique(g, verts, k) == brute_subset_has_clique(g, verts, k)


def test_mask_has_clique_matches_brute_force():
    # Dense graphs, subsets of co-C_{2p+1}, and graphs whose lowest vertex
    # is universal, where the pivot leaves a single branch.
    rng = random.Random(1973)
    cases = [random_graph(rng, rng.randint(0, 14), rng.uniform(0.5, 0.95)) for _ in range(150)]
    cases += [complement(cycle(2 * p + 1)) for p in range(1, 7) for _ in range(10)]
    cases += [join(complete(1), random_graph(rng, rng.randint(0, 12), rng.random()))
              for _ in range(60)]
    for g in cases:
        verts = [v for v in range(g.n) if rng.random() < 0.8]
        mask = sum(1 << v for v in verts)
        for k in range(9):
            assert (graphs._mask_has_clique(g.adj, mask, k)
                    == brute_subset_has_clique(g, verts, k)), (g, verts, k)


def test_the_pivot_rules_out_a_clique_of_co_c33_in_few_calls(monkeypatch):
    # co-C33 has clique number 16.  Branching on every vertex takes 98,304
    # calls to rule out a 17-clique; branching only on the lowest vertex and
    # its non-neighbours takes 4,179.
    real = graphs._mask_has_clique
    calls = 0

    def counted(adj, mask, k):
        nonlocal calls
        calls += 1
        return real(adj, mask, k)

    monkeypatch.setattr(graphs, "_mask_has_clique", counted)
    assert not has_clique(complement(cycle(33)), range(33), 17)
    assert calls <= 5000


def test_complement():
    c7 = cycle(7)
    assert complement(complement(c7)) == c7
    assert clique_number(complement(c7)) == 3
    assert complement(complete(5)).edge_count == 0
    # complement of an odd cycle has clique number (n-1)/2
    for p in range(2, 6):
        assert clique_number(complement(cycle(2 * p + 1))) == p


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10,))  # wrong adjacency length
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(1, (0b10,))  # stray bit
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])


def test_a_graph_keeps_its_own_rows():
    # Kept as given, a list left the graph unhashable, and a later write to
    # it turned the checked rows into asymmetric ones.
    rows = [0b10, 0b01]
    g = Graph(2, rows)
    assert g == Graph(2, (0b10, 0b01)) and hash(g) == hash(Graph(2, (0b10, 0b01)))
    assert type(g.adj) is tuple
    rows[0] = 0
    assert g.adj == (0b10, 0b01)
    assert find_free_coloring(g, [2]).verdict == ARROWS  # K2 holds an edge
    adj = (0b10, 0b01)
    assert Graph(2, adj).adj is adj  # a tuple is kept as it is


@pytest.mark.parametrize("bad", [2.0, 2.5, "2", None])
def test_a_graph_vertex_count_and_rows_must_be_integers(bad):
    # Unchecked, these ended in a bare TypeError from `1 << n` or `row & mask`.
    with pytest.raises(ValueError, match=f"^vertex count n must be an integer, got {bad!r}$"):
        Graph(bad, (0b10, 0b01))
    with pytest.raises(ValueError, match=f"^adjacency row 0 must be an integer, got {bad!r}$"):
        Graph(2, (bad, 0b01))
    with pytest.raises(ValueError, match=f"^adjacency row 1 must be an integer, got {bad!r}$"):
        Graph(2, (0b10, bad))


def test_graph_faults_other_than_a_non_integer_keep_their_errors():
    assert Graph(True, (0,)) == Graph(1, (0,)) and Graph(2, (2, True)) == Graph(2, (2, 1))
    faults = {(3, (0, 0)): "^adjacency length does not match vertex count$",
              (65, (0,) * 65): "^vertex count 65 outside supported range 0..64$",
              (2, (0b10, -1)): "^adjacency row 1 has bits beyond vertex range$",
              (2, (0b100, 0)): "^adjacency row 0 has bits beyond vertex range$",
              (2, (0b11, 0b01)): "^vertex 0 is self-adjacent$",
              (2, (0b10, 0)): r"^adjacency not symmetric at \(0, 1\)$"}
    for (n, adj), message in faults.items():
        with pytest.raises(ValueError, match=message):
            Graph(n, adj)


def test_a_row_read_by_index_is_checked_as_its_int():
    class Row:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    assert Graph(2, (Row(0b10), Row(0b01))) == Graph(2, (0b10, 0b01))
    assert type(Graph(2, (Row(0b10), 0b01)).adj[0]) is int
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(0, 1\)$"):
        Graph(2, (Row(0b10), Row(0)))


@pytest.mark.parametrize("n", [MAX_VERTICES + 1, -1])
def test_from_edges_rejects_a_vertex_count_out_of_range(n):
    with pytest.raises(ValueError, match=f"^vertex count {n} outside supported range 0..64$"):
        from_edges(n, [])


@pytest.mark.parametrize("build", [complete, cycle, lambda n: from_edges(n, [])])
def test_a_vertex_count_must_be_an_integer(build):
    # Unchecked, complete(3.0) failed on `1 << n` and cycle(5.0) on `[0] * n`,
    # each with a bare TypeError.
    for bad in (3.0, 5.0, 2.5, "4"):
        with pytest.raises(ValueError, match=f"^vertex count n must be an integer, got {bad!r}$"):
            build(bad)
    with pytest.raises(ValueError, match="^cycle needs at least 3 vertices, got 1$"):
        cycle(True)
    assert complete(True) == from_edges(True, []) == Graph(1, (0,))  # a bool is its int


@pytest.mark.parametrize("edges, bad", [([(0.0, 1)], 0.0), ([("1", 2)], "1"), ([(1, 2.5)], 2.5),
                                        ([(0, 1), (2, 1.0)], 1.0), ([(0.5, "2")], 0.5)])
def test_an_edge_endpoint_must_be_an_integer(edges, bad):
    # Unchecked, these ended in a bare TypeError from indexing, shifting or
    # comparing the endpoint.
    with pytest.raises(ValueError, match=f"^edge endpoints must be integers, got {bad!r}$"):
        from_edges(3, edges)
    with pytest.raises(ValueError, match=f"^edge endpoints must be integers, got {bad!r}$"):
        from_edges(3, iter(edges))


def test_edge_faults_other_than_a_non_integer_endpoint_keep_their_errors():
    assert from_edges(3, [(True, 2)]) == from_edges(3, [(1, 2)])  # a bool is its int
    for edges in ([5], [(0, 1), 5]):
        with pytest.raises(TypeError, match="^cannot unpack non-iterable int object$"):
            from_edges(3, edges)
    with pytest.raises(ValueError, match=r"^edge \(3.0, 1\) out of range for 3 vertices$"):
        from_edges(3, [(3.0, 1)])


def test_edges_iteration():
    g = from_edges(4, [(0, 1), (2, 3), (0, 3)])
    assert sorted(g.edges()) == [(0, 1), (0, 3), (2, 3)]
    assert g.edge_count == 3
    assert g.degree(0) == 2


def test_the_free_coloring_check_matches_the_oracle():
    # Every coloring of every graph on at most 5 vertices, with r <= 3
    # colors up to 4 vertices and r = 2 at 5, under every caps in {2, 3}^r.
    for n in range(6):
        for r in (2,) if n == 5 else (1, 2, 3):
            cases = [(parts, coloring) for parts in product((2, 3), repeat=r)
                     for coloring in product(range(r), repeat=n)]
            for g in all_graphs(n):
                for parts, coloring in cases:
                    assert (graphs._is_free_coloring(g, parts, coloring)
                            == coloring_is_free(g, parts, coloring)), (g, parts, coloring)
