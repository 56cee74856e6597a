import hashlib
import multiprocessing
import random
from itertools import combinations_with_replacement

import pytest

from folkman import arrowing, graphs
from folkman.arrowing import (ARROWS, FREE, UNDECIDED, BudgetExceededError, SearchResult,
                              arrows, color_classes, find_free_coloring,
                              in_class_H, verify_composition_instance)
from folkman.formats import parse_graph6
from folkman.graphs import Graph, complement, complete, cycle, from_edges, join
from folkman.signatures import normalize
from folkman.witnesses import VERIFIED, base_witness

from conftest import (all_graphs, brute_subset_has_clique, circulant, co_walk_oracle,
                      coloring_is_free, mycielskian, naive_arrows, properly_colorable,
                      random_graph, signatures_up_to, walk_clique_number)

P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
# omega = 4 and co-connected, with no co-path or co-cycle part: a general part
# that takes a search.  It arrows (3,4) in 632 nodes.
C13 = circulant(13, (1, 2, 3, 5))


def test_k5_arrows_33():
    result = find_free_coloring(complete(5), [3, 3])
    assert result.verdict == ARROWS


def test_k4_has_free_coloring_33():
    result = find_free_coloring(complete(4), [3, 3])
    assert result.verdict == FREE
    assert coloring_is_free(complete(4), (3, 3), result.coloring)


def test_c5_arrows_22():
    assert find_free_coloring(cycle(5), [2, 2]).verdict == ARROWS


def test_path_free_22():
    result = find_free_coloring(P4, [2, 2])
    assert result.verdict == FREE
    assert coloring_is_free(P4, (2, 2), result.coloring)


def test_arrows_examples():
    assert arrows(join(cycle(5), cycle(5)), [2, 4])
    assert arrows(complete(6), [2, 2, 3])
    assert not arrows(cycle(5), [3, 3])


def test_in_class_h():
    assert in_class_H(cycle(5), [2, 2], 3)
    assert not in_class_H(complete(5), [3, 3], 5)
    assert in_class_H(join(complete(1), cycle(5)), [2, 2, 2], 4)
    with pytest.raises(ValueError):
        in_class_H(cycle(5), [2, 2], 0)


def test_empty_signature_cases():
    # The search settles these itself, at no node: with no color to give,
    # any vertex arrows; the empty graph has the empty free coloring.
    sig = normalize([1, 1])
    for jobs in (1, 2):
        for g in (complete(1), complete(2), cycle(5)):
            assert find_free_coloring(g, sig, jobs=jobs) == SearchResult(ARROWS, None, 0)
        assert find_free_coloring(complete(0), sig, jobs=jobs) == SearchResult(FREE, (), 0)


def test_empty_graph_with_real_signature():
    for jobs in (1, 2):
        for parts in ([2], [2, 2], [3, 4, 4]):
            result = find_free_coloring(complete(0), parts, jobs=jobs)
            assert result == SearchResult(FREE, (), 0)


def test_clique_caps_are_decided_without_a_clique_number(monkeypatch):
    def no_max_clique(g):
        raise AssertionError("the engine must decide clique caps, not compute them")

    monkeypatch.setattr(graphs, "max_clique", no_max_clique)
    witness = join(complete(3), complement(cycle(9)))  # stock (3,3,4) witness, q = 8
    assert find_free_coloring(witness, [3, 3, 4]).verdict == ARROWS
    assert in_class_H(witness, [3, 3, 4], 8)
    assert not in_class_H(witness, [3, 3, 4], 7)
    raised = find_free_coloring(witness, [3, 4, 4])  # the free neighbour
    assert raised.verdict == FREE
    assert coloring_is_free(witness, (3, 4, 4), raised.coloring)
    assert not in_class_H(witness, [3, 4, 4], 8)
    m4 = mycielskian(mycielskian(cycle(5)))
    assert m4.n == 23
    # omega(M4) = 2 < p = 3: the widest class takes every vertex, no search.
    assert find_free_coloring(m4, [2, 2, 2, 3]) == SearchResult(FREE, (3,) * 23, 0)
    assert not in_class_H(m4, [2, 2, 2, 3], 3)
    assert not in_class_H(m4, [2, 2, 2, 3], 2)


def test_clique_routines_answer_a_join_block_by_block(monkeypatch):
    # Three self-joins of the stock (2,2,2;4) witness join(K1, co-C5): 8
    # singletons and 8 copies of co-C5.  Searched whole, has_clique(g,
    # range(48), 25) runs for tens of seconds; block by block the checks
    # below make 16 calls.
    g = join(complete(1), complement(cycle(5)))
    for _ in range(3):
        g = join(g, g)
    real = graphs._mask_has_clique
    calls = 0

    def capped(adj, mask, k):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise AssertionError("a join's clique check searched it whole")
        return real(adj, mask, k)

    monkeypatch.setattr(graphs, "_mask_has_clique", capped)
    assert not graphs.has_clique(g, range(48), 25)
    assert in_class_H(g, [2, 2, 16], 25)
    assert graphs.clique_number(g) == 24
    clique = graphs.max_clique(g)
    assert len(clique) == 24 and brute_subset_has_clique(g, clique, 24)


def test_the_no_p_clique_shortcut_answers_a_join_block_by_block(monkeypatch):
    # The 48-vertex join of the previous test has clique number 24, so
    # against (2,25) the widest class takes every vertex.  Searched whole,
    # deciding that there is no 25-clique takes tens of seconds.
    g = join(complete(1), complement(cycle(5)))
    for _ in range(3):
        g = join(g, g)
    real = graphs._mask_has_clique
    calls = 0

    def capped(adj, mask, k):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise AssertionError("the no-p-clique shortcut searched the join whole")
        return real(adj, mask, k)

    monkeypatch.setattr(graphs, "_mask_has_clique", capped)
    monkeypatch.setattr(arrowing, "_mask_has_clique", capped)
    assert find_free_coloring(g, [2, 25]) == SearchResult(FREE, (1,) * 48, 0)
    blocks = graphs._co_components(g.adj, (1 << g.n) - 1)
    assert graphs._join_has_clique(g.adj, blocks, 24)
    assert not graphs._join_has_clique(g.adj, blocks, 25)


def test_budget_rejected_when_nonpositive():
    with pytest.raises(ValueError):
        find_free_coloring(cycle(5), [2, 2], budget=0)
    with pytest.raises(ValueError):
        find_free_coloring(cycle(5), [2, 2], jobs=0)


def test_a_budget_must_be_an_integer():
    # The search stops when its node count equals the budget, so a budget
    # it never equals, such as 10.5 for C13 against (3,4) at 632 nodes,
    # would not stop it: only an integer (or None) is taken.
    calls = (lambda budget: find_free_coloring(C13, [3, 4], budget=budget),
             lambda budget: arrows(C13, [3, 4], budget=budget),
             lambda budget: verify_composition_instance(cycle(5), [2, 2], cycle(5), [2, 2], 1,
                                                        budget=budget))
    for call in calls:
        for bad in (10.5, 1.5, "10", 1e8):
            with pytest.raises(ValueError, match=f"^budget must be an integer or None, got {bad!r}$"):
                call(bad)
        with pytest.raises(ValueError, match=r"^budget must be positive \(or None for unlimited\)$"):
            call(False)  # a bool is read as its int
    assert find_free_coloring(C13, [3, 4], budget=10) == SearchResult(UNDECIDED, None, 10)
    assert find_free_coloring(C13, [3, 4], budget=True) == SearchResult(UNDECIDED, None, 1)
    with pytest.raises(BudgetExceededError):
        verify_composition_instance(cycle(5), [2, 2], cycle(5), [2, 2], 1, budget=True)


def test_jobs_must_not_be_a_fraction():
    # Compared only with 1, a jobs of 1.5 was taken.
    with pytest.raises(ValueError, match=r"^jobs must be an integer, got 1\.5$"):
        find_free_coloring(cycle(5), [2, 2], jobs=1.5)
    assert find_free_coloring(cycle(5), [2, 2], jobs=True).verdict == ARROWS  # a bool is its int


def test_jobs_must_not_be_a_string():
    # Compared only with 1, a jobs of "2" ended in a bare TypeError.
    with pytest.raises(ValueError, match="^jobs must be an integer, got '2'$"):
        find_free_coloring(cycle(5), [2, 2], jobs="2")


def test_a_clique_cap_q_must_be_an_integer():
    # K3 arrows (2,2) and has no 4-clique, but no Folkman number has a clique
    # cap of 3.5: unchecked, in_class_H answered True.
    with pytest.raises(ValueError, match=r"^clique cap q must be an integer, got 3\.5$"):
        in_class_H(complete(3), [2, 2], 3.5)
    assert in_class_H(complete(3), [2, 2], 4)


def test_budget_exhaustion_is_undecided():
    g = C13
    full = find_free_coloring(g, [3, 4], budget=None)
    assert full.verdict == ARROWS and full.nodes > 5
    # An undecided search expands exactly its budget; the full count decides.
    for budget in (5, full.nodes - 1):
        assert find_free_coloring(g, [3, 4], budget=budget) == SearchResult(UNDECIDED, None, budget)
    assert find_free_coloring(g, [3, 4], budget=full.nodes) == full
    with pytest.raises(BudgetExceededError):
        arrows(g, [3, 4], budget=5)


def test_unlimited_budget():
    assert arrows(cycle(5), [2, 2], budget=None)


def test_verify_composition_instance_examples():
    assert verify_composition_instance(cycle(5), [2, 2], cycle(5), [2, 2], 1)
    assert verify_composition_instance(complete(3), [3], complete(2), [2], 0)
    with pytest.raises(ValueError):
        verify_composition_instance(complete(3), [2, 3], complete(3), [3, 4], 1)
    with pytest.raises(ValueError):
        verify_composition_instance(complete(3), [2, 3], complete(3), [2, 3], 5)
    with pytest.raises(ValueError):
        verify_composition_instance(complete(3), [2, 3], complete(3), [2, 3, 3], 0)


def test_the_law_check_searches_the_join_whole(monkeypatch):
    # find_free_coloring decides a join part by part; the law check must not
    # lean on that law, so it searches all ten vertices as one part.
    searched = []
    real = arrowing._extend

    def spy(rows, caps, pos, *rest):
        if pos == 0:
            searched.append(len(rows))
        return real(rows, caps, pos, *rest)

    monkeypatch.setattr(arrowing, "_extend", spy)
    assert verify_composition_instance(cycle(5), [2, 2], cycle(5), [2, 2], 1)
    assert searched == [10]
    # Part by part, each C5 (a co-C5) is decided by the walk rule instead:
    # counted as room, and colored whole or in arcs by the rule's builders.
    walks, dealt = [], []
    real_walk, real_deal = arrowing._co_walk, arrowing._deal_arcs

    def walk_spy(adj, mask):
        found = real_walk(adj, mask)
        walks.append(found[1] and (len(found[1]), found[2]))
        return found

    def deal_spy(arcs, room, coloring):
        dealt.extend(len(walk) for walk in arcs)
        return real_deal(arcs, room, coloring)

    monkeypatch.setattr(arrowing, "_co_walk", walk_spy)
    monkeypatch.setattr(arrowing, "_deal_arcs", deal_spy)
    searched.clear()
    assert arrows(join(cycle(5), cycle(5)), [2, 4])
    assert searched == [] and walks == [(5, True)] * 2 and dealt == []
    # Rooms (2, 3) against six units: one C5 goes whole into the first
    # class, and the other is dealt in arcs.
    walks.clear()
    result = find_free_coloring(join(cycle(5), cycle(5)), [3, 4])
    assert result.verdict == FREE and searched == [] and walks == [(5, True)] * 2
    assert dealt == [5] and result.coloring[:5] == (0,) * 5
    assert coloring_is_free(join(cycle(5), cycle(5)), (3, 4), result.coloring)


def _smallest_last(adj, block):
    """Reference order: peel the least (degree left, index), then reverse."""
    left = [v for v in range(len(adj)) if block >> v & 1]
    removed = []
    while left:
        left_mask = sum(1 << u for u in left)
        v = min(left, key=lambda u: ((adj[u] & left_mask).bit_count(), u))
        removed.append(v)
        left.remove(v)
    return removed[::-1]


def test_vertex_order_is_smallest_last():
    rng = random.Random(5005)
    for _ in range(200):
        n = rng.randint(0, 40)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        block = (1 << n) - 1 if rng.random() < 0.5 else rng.getrandbits(n)
        assert arrowing._vertex_order(g.adj, block) == _smallest_last(g.adj, block)


def test_vertex_order_puts_a_maximum_clique_of_co_c19_first():
    g = complement(cycle(19))
    order = arrowing._vertex_order(g.adj, (1 << 19) - 1)
    assert order == [18, *range(15, 0, -2), 17, *range(16, -1, -2)]
    assert graphs.has_clique(g, order[:9], 9)  # omega(co-C19) = 9


def test_the_hard_stock_witness_8_11_stays_cheap():
    # join(K_6, co-C23), q = m = 18: the walk rule decides its co-C23 part at
    # no node, so a budget of one is never touched.
    witness = join(complete(6), complement(cycle(23)))
    assert find_free_coloring(witness, [8, 11], budget=1) == SearchResult(ARROWS, None, 0)


# The arrowing instances of the benchmark's search corpus, the q = m stock
# witnesses and M4, with their node counts and those of the free instances
# made by raising one part.  Only a change of tree shape may move these: a
# faster clique check must leave every count as it is.  The stock witnesses'
# co-C_{2p+1} parts are decided by the walk rule, at no node.
SEARCH_CORPUS_NODES = {
    (3, 3, 4): (0, {(3, 4, 4): 0, (3, 3, 5): 0}),
    (4, 4, 4): (0, {(4, 4, 5): 0}),
    (3, 3, 5): (0, {(3, 4, 5): 0, (3, 3, 6): 0}),
    (4, 4, 5): (0, {(4, 5, 5): 0, (4, 4, 6): 0}),
    (5, 8): (0, {(6, 8): 0, (5, 9): 0}),
    (6, 9): (0, {(7, 9): 0, (6, 10): 0}),
    (2, 2, 2, 2): (840, {(2, 2, 2, 3): 0}),
}


def test_the_search_corpus_keeps_its_tree_shape():
    for parts, (nodes, raised) in SEARCH_CORPUS_NODES.items():
        if parts == (2, 2, 2, 2):
            g = mycielskian(mycielskian(cycle(5)))
        else:
            sig = normalize(parts)
            g = join(complete(sig.m - sig.p - 1), complement(cycle(2 * sig.p + 1)))
        assert find_free_coloring(g, parts) == SearchResult(ARROWS, None, nodes), parts
        for free_parts, free_nodes in raised.items():
            result = find_free_coloring(g, free_parts)
            assert (result.verdict, result.nodes) == (FREE, free_nodes), free_parts
            assert coloring_is_free(g, free_parts, result.coloring)


def _search_corpus():
    """(graph, parts) of the benchmark's `search` instances, in its order:
    each arrowing instance of SEARCH_CORPUS_NODES, then the same graph with
    each distinct part raised by one at its last place."""
    cases = []
    for parts in SEARCH_CORPUS_NODES:
        if parts == (2, 2, 2, 2):
            g = mycielskian(mycielskian(cycle(5)))
        else:
            sig = normalize(parts)
            g = join(complete(sig.m - sig.p - 1), complement(cycle(2 * sig.p + 1)))
        cases.append((g, parts))
        for a in sorted(set(parts)):
            raised = list(parts)
            raised[len(parts) - 1 - raised[::-1].index(a)] += 1
            cases.append((g, normalize(raised).parts))
    return cases


# SHA-256 of repr([(verdict, nodes, coloring), ...]) over `_search_corpus()`.
# A change that moves any verdict, node count or free coloring of the
# benchmark's search instances moves this, and must say so.
SEARCH_CORPUS_SHA256 = "b8429c847771bcda38b4e7cba349563c500db1e4f5ce4e4b74addd288dbbf568"


def test_the_search_corpus_results_are_pinned():
    rows = [(r.verdict, r.nodes, r.coloring)
            for r in (find_free_coloring(g, parts) for g, parts in _search_corpus())]
    assert len(rows) == 19
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SEARCH_CORPUS_SHA256


def _searched_joins():
    """600 seeded joins of two to four parts, relabelled, each with at least
    one part that no rule decides, against 2 or 3 caps drawn from 2..6.  A
    part is K_1 or K_2, co-C_3..9, co-P_2..6, C13 or G(4..7, 0.5)."""
    rng = random.Random(3030)
    cases = []
    while len(cases) < 600:
        g = complete(0)
        for _ in range(rng.randint(2, 4)):
            pick = rng.random()
            if pick < 0.1:
                part = complete(rng.randint(1, 2))
            elif pick < 0.35:
                part = complement(cycle(rng.randint(3, 9)))
            elif pick < 0.5:
                n = rng.randint(2, 6)
                part = complement(from_edges(n, [(i, i + 1) for i in range(n - 1)]))
            elif pick < 0.6:
                part = C13
            else:
                part = random_graph(rng, rng.randint(4, 7))
            g = join(g, part)
        g = _relabelled(g, rng.randrange(10**6))
        if all(arrowing._co_walk(g.adj, block)[1]
               for block in graphs._co_components(g.adj, (1 << g.n) - 1)):
            continue
        cases.append((g, tuple(sorted(rng.randint(2, 6) for _ in range(rng.randint(2, 3))))))
    return cases


# SHA-256 of repr([(verdict, nodes, coloring), ...]) over `_searched_joins()`
# at a budget of 20,000 nodes: the placements of searched parts, several at
# once and beside odd co-cycles put whole, are fixed output.
SEARCHED_JOINS_SHA256 = "f73190979ed0ea9ebc6e7ae4848ebc601803815043d887297c9aedc1e15cf66f"


def test_the_searched_join_results_are_pinned(monkeypatch):
    # Of the calls, `reached` lists the searched blocks of each that reaches
    # `_search_blocks`, and `whole` the calls that put an odd co-cycle whole.
    rows, reached, whole = [], [], set()
    search_blocks, place_whole = arrowing._search_blocks, arrowing._place_whole

    def searching(adj, big, *args):
        reached.append(len(big))
        return search_blocks(adj, big, *args)

    def placing(odd, *args):
        left = place_whole(odd, *args)
        if odd and left is not None:
            whole.add(len(rows))
        return left

    monkeypatch.setattr(arrowing, "_search_blocks", searching)
    monkeypatch.setattr(arrowing, "_place_whole", placing)
    for g, parts in _searched_joins():
        result = find_free_coloring(g, parts, budget=20_000)
        assert result.verdict != FREE or graphs._is_free_coloring(g, parts, result.coloring)
        rows.append((result.verdict, result.nodes, result.coloring))
    assert (len(reached), sum(n >= 2 for n in reached), len(whole)) == (567, 279, 21)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SEARCHED_JOINS_SHA256


def _walk_only_cases():
    """The stock calls of the search corpus and every stock witness with
    r <= 3 and m <= 12, against its own signature and each part raised."""
    cases = _search_corpus()[:-2]  # all but M4's two, which come last
    for r in (2, 3):
        for parts in combinations_with_replacement(range(2, 12), r):
            sig = normalize(parts)
            if sig.m <= 12:
                g = join(complete(sig.m - sig.p - 1), complement(cycle(2 * sig.p + 1)))
                cases += [(g, parts)] + [(g, (*parts[:i], a + 1, *parts[i + 1:]))
                                         for i, a in enumerate(parts)
                                         if i == r - 1 or parts[i + 1] != a]
    return cases


def test_walk_only_joins_build_no_search_state(monkeypatch):
    # The walk rule places every walk-only case, and no searched-block state
    # is built.
    def no_search(*args):
        raise AssertionError("a join of walks built search state")

    for name in ("_search_blocks", "_vertex_order", "_extend", "_color"):
        monkeypatch.setattr(arrowing, name, no_search)
    cases = _walk_only_cases()
    assert len(cases) == 17 + 221
    for g, parts in cases:
        result = find_free_coloring(g, parts)
        sig = normalize(parts)
        expected = ARROWS if g.n == sig.m + sig.p else FREE
        assert (result.verdict, result.nodes) == (expected, 0), parts
        assert expected == ARROWS or graphs._is_free_coloring(g, parts, result.coloring), parts


def _mixed_walk_joins():
    """400 seeded joins of K_0..K_3 with one to four co-paths, even co-cycles
    and odd co-cycles, relabelled, each against caps whose room falls short
    of the walks' units by up to one more than the odd co-cycles: some fit
    in arcs, some only with odd co-cycles put whole, and some arrow."""
    rng = random.Random(3535)
    cases = []
    for _ in range(400):
        g = complete(rng.randint(0, 3))
        units, odd = g.n, 0
        for _ in range(rng.randint(1, 4)):
            pick = rng.random()
            if pick < 0.3:
                n, closed = rng.randint(2, 9), False
            elif pick < 0.5:
                n, closed = 2 * rng.randint(2, 5), True
            else:
                n, closed = 2 * rng.randint(1, 6) + 1, True
            units += (n + 1) // 2
            odd += closed and n % 2
            g = join(g, _co_walk_graph(n, closed, rng.randrange(10**6)))
        r = rng.randint(1, 4)
        room = max(r, units - rng.randint(0, odd + 1))
        cuts = sorted(rng.sample(range(1, room), r - 1))
        caps = [b - a + 1 for a, b in zip([0, *cuts], [*cuts, room])]
        cases.append((_relabelled(g, rng.randrange(10**6)), tuple(sorted(caps))))
    return cases


# SHA-256 of repr([(verdict, nodes, coloring), ...]) over `_walk_only_cases()`,
# each as it is and under `_relabelled` seeds 1 and 2, then `_mixed_walk_joins()`:
# the walk rule's verdicts and colorings, arcs and whole odd co-cycles alike,
# are fixed output.
WALK_ONLY_SHA256 = "25deb8c12fca43dc8d6cd32bacae45e319442860a42d42203523f5f193ee34a5"


def test_the_walk_only_join_results_are_pinned(monkeypatch):
    # `whole` lists the calls that put an odd co-cycle whole.
    rows, whole = [], set()
    place_whole = arrowing._place_whole

    def placing(odd, *args):
        left = place_whole(odd, *args)
        if odd and left is not None:
            whole.add(len(rows))
        return left

    monkeypatch.setattr(arrowing, "_place_whole", placing)
    cases = [(h, parts) for g, parts in _walk_only_cases()
             for h in (g, _relabelled(g, 1), _relabelled(g, 2))] + _mixed_walk_joins()
    for g, parts in cases:
        result = find_free_coloring(g, parts)
        assert result.nodes == 0
        assert result.verdict != FREE or graphs._is_free_coloring(g, parts, result.coloring)
        rows.append((result.verdict, result.nodes, result.coloring))
    mixed = [verdict for verdict, _, _ in rows[3 * 238:]]
    assert (len(rows), mixed.count(FREE), len(whole)) == (3 * 238 + 400, 260, 90)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == WALK_ONLY_SHA256


# General parts, which no rule decides: each signature's verdict, "arrows"
# with its node count or a free coloring with its count.  Caps of 3 and more
# run `_extend`, all-2 caps `_color`; the join of four copies of C13 is
# placed block by block, so its free coloring is mapped back from several
# blocks.
C12 = circulant(12, (1, 4, 5, 6))
C17 = circulant(17, (1, 2, 3, 4, 5, 7))
GENERAL_PART_NODES = {
    "C13": (C13, {(3, 4): 632, (2, 2, 4): 1_007, (2, 3, 3): 1_480},
            {(4, 4): 36, (2, 4, 4): 27}),
    "C12": (C12, {(2, 2, 2, 3): 1_816}, {(2, 2, 2, 4): 72, (2, 2, 3, 3): 41}),
    "C17": (C17, {(2, 4, 4): 14_839}, {(2, 4, 5): 55, (3, 4, 4): 105}),
    "4 x C13": (join(join(C13, C13), join(C13, C13)), {(3, 16): 2_984}, {(4, 16): 492}),
}


def test_general_parts_keep_their_tree_shape():
    for name, (g, arrowing_sigs, free_sigs) in GENERAL_PART_NODES.items():
        for parts, nodes in arrowing_sigs.items():
            assert find_free_coloring(g, parts) == SearchResult(ARROWS, None, nodes), (name, parts)
        for parts, nodes in free_sigs.items():
            result = find_free_coloring(g, parts)
            assert (result.verdict, result.nodes) == (FREE, nodes), (name, parts)
            assert graphs._is_free_coloring(g, parts, result.coloring), (name, parts)


def _relabelled(g, seed):
    """g with its vertex labels shuffled by random.Random(seed)."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _co_walk_graph(n, closed, seed):
    """co-C_n if `closed`, else co-P_n, relabelled by `_relabelled`."""
    base = cycle(n) if closed else from_edges(n, [(i, i + 1) for i in range(n - 1)])
    return _relabelled(complement(base), seed)


def test_the_walk_clique_check_matches_the_oracle():
    # conftest.walk_clique_number, the closed form asked on the positions
    # along the walk, against the brute-force oracle on every subset of a
    # relabelled co-P_n or co-C_n and every k.
    for closed, sizes in ((False, range(2, 11)), (True, range(3, 11))):
        for n in sizes:
            g = _co_walk_graph(n, closed, n)
            _, walk, walk_closed = arrowing._co_walk(g.adj, (1 << n) - 1)
            assert walk_closed == closed and sorted(walk) == list(range(n))
            for i in range(n):  # the walk steps along the complement
                assert not g.has_edge(walk[i], walk[(i + 1) % n]) or (i == n - 1 and not closed)
            for s in range(1 << n):
                positions = [i for i in range(n) if s >> i & 1]
                omega = walk_clique_number(n, closed, positions)
                verts = [walk[i] for i in positions]
                assert brute_subset_has_clique(g, verts, omega), (n, s)
                assert not brute_subset_has_clique(g, verts, omega + 1), (n, s)


def test_the_walk_rule_matches_the_general_search(monkeypatch):
    # Relabelled co-P_n and co-C_n, alone and joined with K_k, decided by
    # the rule and by the general search that `_co_walk` returning no walk
    # forces on them.  Only the rule takes no node.  The hook must be asked
    # once per case, for the walk part, and the general side must search:
    # a pass that found walks without it would compare the rule with itself.
    rng = random.Random(1616)
    sigs = [s for s in signatures_up_to(3, 16) if s[-1] <= 6]
    cases = []
    for n in range(2, 15):
        for closed in (False, True) if n >= 3 else (False,):
            g = _co_walk_graph(n, closed, rng.randrange(10**6))
            for k in (0, 1, 2):
                h = join(complete(k), g)
                cases += [(h, parts) for parts in rng.sample(sigs, 6)]
    rule = [find_free_coloring(h, parts) for h, parts in cases]
    hooked = []

    def no_walk(adj, mask):
        hooked.append(mask)
        return graphs._co_component(adj, mask), None, False

    monkeypatch.setattr(arrowing, "_co_walk", no_walk)
    verdicts = set()
    searched = 0
    for (h, parts), result in zip(cases, rule):
        hooked.clear()
        general = find_free_coloring(h, parts)
        assert len(hooked) == 1, (h.n, parts)
        assert result.verdict == general.verdict, (h.n, parts)
        assert result.nodes == 0
        searched += general.nodes > 0
        verdicts.add(result.verdict)
        if result.verdict == FREE:
            assert graphs._is_free_coloring(h, parts, result.coloring)
    assert verdicts == {ARROWS, FREE}
    assert searched > len(cases) // 2


def test_the_walk_rule_matches_the_naive_oracle():
    for n in range(2, 9):
        for closed in (False, True) if n >= 3 else (False,):
            g = _co_walk_graph(n, closed, n)
            for parts in signatures_up_to(3 if n <= 6 else 2, 8):
                result = find_free_coloring(g, parts)
                assert result.nodes == 0
                assert (result.verdict == ARROWS) == naive_arrows(g, parts), (n, closed, parts)
                if result.verdict == FREE:
                    assert coloring_is_free(g, parts, result.coloring)


def _rule_coloring(n, closed, rooms):
    """The rule's coloring of a lone co-P_n or co-C_n numbered 0..n-1 along
    its walk, or None: dealt in arcs when its ceil(n/2) units fit the rooms,
    else, for an odd co-cycle, put whole in a class with room floor(n/2).
    It starts from -1s, so a vertex the rule leaves out stays -1."""
    coloring = [-1] * n
    if 2 * sum(rooms) >= n:
        arrowing._deal_arcs([list(range(n))], list(rooms), coloring)
        return coloring
    if closed and n % 2 and arrowing._place_whole([(n // 2, (1 << n) - 1, list(range(n)))],
                                                   tuple(rooms), coloring, set()) is not None:
        return coloring
    return None


def test_every_rule_coloring_is_free():
    # The rule's colorings, on the walk 0..n-1, against the closed-form
    # oracle: every vertex in one class, and class i's clique number below
    # cap i.  Caps ascend, as `_join_coloring` passes them.
    rng = random.Random(6464)
    sigs = [s for s in signatures_up_to(4, 49) if s[-1] <= 13]
    free = 0
    for n in range(2, 65):
        for closed in (False, True) if n >= 3 else (False,):
            cases = rng.sample(sigs, 40)
            if closed and n % 2:
                cases.append((n // 2 + 1,))  # too little room for arcs: it goes whole
            for caps in cases:
                rooms = [cap - 1 for cap in caps]
                coloring = _rule_coloring(n, closed, rooms)
                expected = 2 * sum(rooms) >= n or closed and 2 * max(rooms) >= n - 1
                assert (coloring is not None) == expected, (n, closed, caps)
                if coloring is None:
                    continue
                free += 1
                assert len(coloring) == n and all(0 <= c < len(caps) for c in coloring)
                for c, room in enumerate(rooms):
                    positions = [i for i in range(n) if coloring[i] == c]
                    assert walk_clique_number(n, closed, positions) <= room, (n, closed, caps)
    assert free > 2000


def test_walks_dealt_from_one_room_stay_within_it():
    # Several counted parts share the room: 1-3 walks dealt in one call,
    # each numbered along its walk in its own bit range.  Each class's
    # clique numbers over the walks sum to at most its room.
    rng = random.Random(2323)
    sigs = [s for s in signatures_up_to(4, 40) if s[-1] <= 13]
    for _ in range(2000):
        walks = [(rng.randint(1, 20), rng.random() < 0.5) for _ in range(rng.randint(1, 3))]
        rooms = [cap - 1 for cap in rng.choice(sigs)]
        if sum((n + 1) // 2 for n, _ in walks) > sum(rooms):
            continue
        starts = [sum(n for n, _ in walks[:i]) for i in range(len(walks))]
        coloring = [-1] * sum(n for n, _ in walks)
        arrowing._deal_arcs([list(range(s, s + n)) for s, (n, _) in zip(starts, walks)],
                            list(rooms), coloring)
        assert all(0 <= c < len(rooms) for c in coloring)
        for c, room in enumerate(rooms):
            omega = 0
            for s, (n, closed) in zip(starts, walks):
                positions = [i for i in range(n) if coloring[s + i] == c]
                omega += walk_clique_number(n, closed and n >= 3, positions) if positions else 0
            assert omega <= room, (walks, rooms)


def test_a_join_of_twelve_walks_on_64_vertices_is_decided_at_no_node():
    # Ten co-C3 (three vertices with no edge) and two co-C17, joined: 64
    # vertices and 10 * 2 + 2 * 9 = 38 units, one less for each odd
    # co-cycle put whole in a class.  Against (3,4,5,6,7,8) the room is 27,
    # no class has the room of 8 a whole co-C17 needs, and the join arrows;
    # against (3,4,5,6,7,9) the room is 28, and the ten co-C3 go whole.
    g = complete(0)
    for part in [complement(cycle(3))] * 10 + [complement(cycle(17))] * 2:
        g = join(g, part)
    assert g.n == 64
    assert find_free_coloring(g, [3, 4, 5, 6, 7, 8]) == SearchResult(ARROWS, None, 0)
    result = find_free_coloring(g, [3, 4, 5, 6, 7, 9])
    assert (result.verdict, result.nodes) == (FREE, 0)
    assert graphs._is_free_coloring(g, (3, 4, 5, 6, 7, 9), result.coloring)
    assert all(len(set(result.coloring[i:i + 3])) == 1 for i in range(0, 30, 3))


def test_whole_co_cycles_remember_the_rooms_that_failed(monkeypatch):
    # The join of 11 co-C5 on 55 vertices.  Dealt in arcs, each co-C5 costs
    # 3 units; put whole, 2, but a class of room 3 takes at most one whole.
    # So w parts whole need 33 - w units: 8 classes (24 units) would need
    # w >= 9 > 8, and the join arrows [4] * 8; 9 classes (27 units) fit with
    # w = 6.  The 8! placements of equal rooms are interchangeable, so
    # without `failed` the arrowing answer takes about 10^5 calls.
    co_c5 = complement(cycle(5))
    g = co_c5
    for _ in range(10):
        g = join(g, co_c5)
    calls = []
    real = arrowing._place_whole

    def counting(odd, room, coloring, failed):
        calls.append(room)
        return real(odd, room, coloring, failed)

    monkeypatch.setattr(arrowing, "_place_whole", counting)
    assert find_free_coloring(g, [4] * 8) == SearchResult(ARROWS, None, 0)
    assert len(calls) <= 64
    result = find_free_coloring(g, [4] * 9)
    assert (result.verdict, result.nodes) == (FREE, 0)
    assert coloring_is_free(g, (4,) * 9, result.coloring)


def test_the_walk_takes_only_one_path_or_one_cycle():
    star = complement(from_edges(4, [(0, 1), (0, 2), (0, 3)]))  # a vertex of co-degree 3
    m4 = mycielskian(mycielskian(cycle(5)))
    for g in (star, m4):
        assert arrowing._co_walk(g.adj, (1 << g.n) - 1) == ((1 << g.n) - 1, None, False)
    assert arrowing._co_walk(P4.adj, 15) == (15, [1, 3, 0, 2], False)  # P4 is co-P4
    assert arrowing._co_walk(cycle(5).adj, 31) == (31, [0, 2, 4, 1, 3], True)
    # The walk takes only the co-component of the mask's lowest vertex, and
    # only the non-neighbours in the mask: the law check's whole join is two
    # co-cycles, and the star's centre has co-degree 2 without vertex 3.
    c5c5 = join(cycle(5), cycle(5))
    assert arrowing._co_walk(c5c5.adj, 1023) == (31, [0, 2, 4, 1, 3], True)
    assert arrowing._co_walk(c5c5.adj, 1023 ^ 1) == (30, [2, 4, 1, 3], False)
    assert arrowing._co_walk(c5c5.adj, 1023 ^ 31) == (992, [5, 7, 9, 6, 8], True)
    assert arrowing._co_walk(star.adj, 7) == (7, [1, 0, 2], False)


def test_the_walk_matches_the_oracle_on_every_small_block():
    found = set()
    for n in range(1, 6):
        for g in all_graphs(n):
            for mask in range(1, 1 << n):
                block, walk, closed = arrowing._co_walk(g.adj, mask)
                assert (block, walk, closed) == co_walk_oracle(g.adj, mask), (g.edges(), mask)
                found.add(walk and closed)
    assert found == {None, False, True}


def _one_pass(monkeypatch):
    """A function of (g, mask) that runs `_join_coloring`'s pass over the
    vertices of `mask`, the others put in `big` as one block searched whole,
    and returns the blocks it found in order, each as (block, walk, closed),
    a singleton as (bit, [v], False).  It asserts that only blocks of two
    or more vertices are walked, and that the units, the odd co-cycles and
    the searched blocks handed on are those of the blocks found."""
    walked, handed = [], []
    real = arrowing._co_walk

    def walk(adj, mask):
        walked.append((mask, real(adj, mask)))
        return walked[-1][1]

    monkeypatch.setattr(arrowing, "_co_walk", walk)
    monkeypatch.setattr(arrowing, "_place_walks",
                        lambda units, odd, *rest: handed.append((units, odd, [])))
    monkeypatch.setattr(arrowing, "_search_blocks",
                        lambda adj, big, units, odd, *rest: handed.append((units, odd, big)))

    def run(g, mask):
        walked.clear()
        handed.clear()
        outside = (1 << g.n) - 1 ^ mask
        arrowing._join_coloring(g.adj, (), [outside] if outside else [], arrowing._Budget(None))
        blocks, left = [], mask
        for seen, found in walked + [(0, None)]:
            while left != seen:  # the singletons met before this walk
                assert left, (g.edges(), mask)
                bit = left & -left
                blocks.append((bit, [bit.bit_length() - 1], False))
                left ^= bit
            if found:
                assert found[1] is None or len(found[1]) > 1, (g.edges(), mask)
                blocks.append(found)
                left ^= found[0]
        [(units, odd, big)] = handed
        walks = [(block, walk, closed) for block, walk, closed in blocks if walk]
        assert units == sum((len(walk) + 1) // 2 for _, walk, _ in walks)
        assert odd == sorted((len(walk) // 2, block, walk) for block, walk, closed in walks
                             if closed and len(walk) % 2)
        assert sorted(big) == sorted([outside] * bool(outside) +
                                     [block for block, walk, _ in blocks if walk is None])
        return blocks

    return run


def _assert_the_pass_splits_and_walks(one_pass, g, mask):
    """`one_pass` on `mask`: the blocks of `graphs._co_components`, in its
    order, each walked as `conftest.co_walk_oracle` walks it."""
    blocks = one_pass(g, mask)
    assert [block for block, _, _ in blocks] == graphs._co_components(g.adj, mask)
    for block, walk, closed in blocks:
        assert (block, walk, closed) == co_walk_oracle(g.adj, block), (g.edges(), mask)
    return blocks


def test_the_one_pass_matches_the_bfs_and_the_oracle_on_every_small_mask(monkeypatch):
    one_pass = _one_pass(monkeypatch)
    for n in range(0, 6):
        for g in all_graphs(n):
            for mask in range(1 << n):
                _assert_the_pass_splits_and_walks(one_pass, g, mask)


def test_the_one_pass_matches_the_bfs_and_the_oracle_on_relabelled_joins(monkeypatch):
    # Seeded joins of K_0..K_3 with co-paths, co-cycles and general parts,
    # their labels shuffled so that no block is a run of labels.
    one_pass = _one_pass(monkeypatch)
    rng = random.Random(2626)
    general = [C13, mycielskian(cycle(5)), complement(from_edges(4, [(0, 1), (0, 2), (0, 3)]))]
    kinds = set()
    for _ in range(150):
        g = complete(rng.randint(0, 3))
        for _ in range(rng.randint(1, 4)):
            pick = rng.random()
            if pick < 0.35:
                part = _co_walk_graph(rng.randint(2, 9), False, rng.randrange(10**6))
            elif pick < 0.7:
                part = _co_walk_graph(rng.randint(3, 9), True, rng.randrange(10**6))
            else:
                part = rng.choice(general)
            g = join(g, part)
        g = _relabelled(g, rng.randrange(10**6))
        blocks = _assert_the_pass_splits_and_walks(one_pass, g, (1 << g.n) - 1)
        kinds.update(walk and (len(walk) > 1, closed) for _, walk, closed in blocks)
    assert kinds == {None, (False, False), (True, False), (True, True)}


def test_the_walk_matches_the_oracle_near_a_path_or_cycle():
    # Relabelled co-P_n and co-C_n, as they are and with one co-edge added
    # or removed: a path may close into a cycle, a cycle open into a path,
    # and either may branch or split.
    rng = random.Random(2424)
    found = set()
    for n in range(2, 25):
        for closed in (False, True) if n >= 3 else (False,):
            g = _co_walk_graph(n, closed, rng.randrange(10**6))
            variants = [g]
            for _ in range(12):
                u, v = rng.sample(range(n), 2)
                edges = set(g.edges()) ^ {(min(u, v), max(u, v))}
                variants.append(from_edges(n, sorted(edges)))
            for h in variants:
                found_walk = arrowing._co_walk(h.adj, (1 << n) - 1)
                assert found_walk == co_walk_oracle(h.adj, (1 << n) - 1), (n, closed)
                found.add(found_walk[1] and found_walk[2])
    assert found == {None, False, True}


def test_two_rule_colorings_are_pinned():
    # The rule's coloring is fixed output: a change to it must be listed.
    g = parse_graph6("Iuzvvz}no")  # join(K1, co-C9)
    result = find_free_coloring(g, (4, 4))
    assert result.nodes == 0
    assert color_classes(result.coloring, 2) == [[1, 2, 3, 4, 5, 6], [0, 7, 8, 9]]
    g = base_witness((6, 9), 14).graph  # join(K4, co-C19)
    assert find_free_coloring(g, (7, 9)) == SearchResult(
        FREE, (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1), 0)


# Stock witnesses join(K_{m-p-1}, co-C_{2p+1}) at q = m.
STOCK_SIGNATURES = [(3, 3, 4), (5, 8), (6, 9), (3, 16)]


def test_relabelled_stock_witnesses_take_the_stock_tree(monkeypatch):
    # Their co-C_{2p+1} part is decided by the walk rule, at no node and
    # never with the general clique check, under every labelling.
    def no_general_check(*args):
        raise AssertionError("a co-cycle part ran the general clique check")

    monkeypatch.setattr(arrowing, "_mask_has_clique", no_general_check)
    for parts in STOCK_SIGNATURES:
        sig = normalize(parts)
        g = join(complete(sig.m - sig.p - 1), complement(cycle(2 * sig.p + 1)))
        raised = (*parts[:-1], parts[-1] + 1)
        for h in [g] + [_relabelled(g, seed) for seed in range(4)]:
            assert find_free_coloring(h, parts) == SearchResult(ARROWS, None, 0), parts
            result = find_free_coloring(h, raised)
            assert (result.verdict, result.nodes) == (FREE, 0), raised
            assert graphs._is_free_coloring(h, raised, result.coloring)


def test_the_oracle_checks_the_largest_stock_free_coloring():
    # The 34-vertex (3,16) witness and the free colouring the engine gives
    # it against (3,17), checked by the conftest oracle alone.
    g = base_witness([3, 16], 18).graph
    assert g == join(complete(1), complement(cycle(33)))
    result = find_free_coloring(g, (3, 17))
    assert result.verdict == FREE
    assert coloring_is_free(g, (3, 17), result.coloring)
    assert not coloring_is_free(g, (3, 17), (1,) * g.n)  # K_1 + a 16-clique of co-C33


def _stock_sweep():
    """The stock signatures with a prefix in {2, 3, 4, 5, (2,2), (2,3),
    (3,3), (2,2,2)}, a last part at least the prefix's last, and a q = m
    witness of m + p <= 64 vertices."""
    out = []
    for prefix in [(2,), (3,), (4,), (5,), (2, 2), (2, 3), (3, 3), (2, 2, 2)]:
        p = prefix[-1]
        while True:
            sig = normalize((*prefix, p))
            if sig.m + sig.p > 64:
                break
            out.append(sig)
            p += 1
    return out


def test_the_stock_sweep_is_decided_by_the_rule(monkeypatch):
    def no_search(*args):
        raise AssertionError("a stock witness reached a search")

    for name in ("_extend", "_color", "_mask_has_clique", "_splits", "_vertex_order"):
        monkeypatch.setattr(arrowing, name, no_search)
    sweep = _stock_sweep()
    assert len(sweep) == 227
    for sig in sweep:
        cert = base_witness(sig, sig.m)
        assert (cert.status, cert.nodes) == (VERIFIED, 0), sig
        raised = (*sig.parts[:-1], sig.p + 1)
        result = find_free_coloring(cert.graph, raised)
        assert (result.verdict, result.nodes) == (FREE, 0), sig
        assert graphs._is_free_coloring(cert.graph, raised, result.coloring), sig


def _no_all_2_extend(monkeypatch):
    """Make `_extend` fail on any decision whose caps are all 2."""
    real = arrowing._extend

    def spy(adj, parts, *rest):
        assert not parts or parts[-1] > 2, f"caps {parts} reached _extend"
        return real(adj, parts, *rest)

    monkeypatch.setattr(arrowing, "_extend", spy)


def test_mycielski_m4_arrows_2222_cheaply(monkeypatch):
    # M4 is 5-chromatic.  Vertex by vertex it takes 106,352 nodes; with
    # forward checking it takes 2,528, and with DSATUR's degree tie among
    # the vertices with two colors left, 840.
    _no_all_2_extend(monkeypatch)
    m4 = mycielskian(mycielskian(cycle(5)))
    assert find_free_coloring(m4, [2, 2, 2, 2], budget=1_000).verdict == ARROWS


def test_the_coloring_budget_stops_at_exactly_its_nodes():
    grotzsch = mycielskian(cycle(5))  # 4-chromatic
    for parts, verdict in (([2, 2, 2], ARROWS), ([2, 2, 2, 2], FREE)):
        full = find_free_coloring(grotzsch, parts, budget=None)
        assert full.verdict == verdict and full.nodes > 1
        assert (find_free_coloring(grotzsch, parts, budget=full.nodes - 1)
                == SearchResult(UNDECIDED, None, full.nodes - 1))
        assert find_free_coloring(grotzsch, parts, budget=full.nodes) == full


def test_a_zero_share_is_no_coloring_at_no_node(monkeypatch):
    # The K_k of join(K_k, G) takes all of (2,)*k's room, so the block G gets
    # no cap at all: no coloring, and no node searched.  G is the Grötzsch
    # graph, no co-path or co-cycle, so the walk rule leaves it to a search,
    # and the empty caps go to `_extend`, never to `_color`.
    grotzsch = mycielskian(cycle(5))
    assert arrowing._co_walk(grotzsch.adj, (1 << grotzsch.n) - 1)[1] is None
    extend, calls = arrowing._extend, []

    def spy(rows, caps, pos, masks, budget):
        calls.append((len(rows), caps, pos))
        return extend(rows, caps, pos, masks, budget)

    def no_coloring_search(*args):
        raise AssertionError("a zero share searched for a coloring")

    monkeypatch.setattr(arrowing, "_extend", spy)
    monkeypatch.setattr(arrowing, "_color", no_coloring_search)
    for k in (2, 3):
        calls.clear()
        g = join(complete(k), grotzsch)
        assert find_free_coloring(g, [2] * k) == SearchResult(ARROWS, None, 0)
        assert calls == [(grotzsch.n, (), 0)]


def test_oracle_equivalence_small():
    rng = random.Random(1001)
    sigs = signatures_up_to(3, 6)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 6), rng.random())
        parts = rng.choice(sigs)
        result = find_free_coloring(g, parts)
        assert result.verdict in (ARROWS, FREE)
        assert result.verdict == (ARROWS if naive_arrows(g, parts) else FREE)
        if result.verdict == FREE:
            assert coloring_is_free(g, parts, result.coloring)


def test_edge_monotonicity():
    rng = random.Random(2002)
    sigs = [s for s in signatures_up_to(3, 5) if len(s) >= 2]
    checked = 0
    while checked < 100:
        n = rng.randint(2, 6)
        g = random_graph(rng, n, 0.8)
        parts = rng.choice(sigs)
        if not arrows(g, parts):
            continue
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
        extra = [rng.choice(non_edges)] if non_edges else []
        bigger = from_edges(n, list(g.edges()) + extra)
        assert arrows(bigger, parts)
        checked += 1


def test_color_permutation_invariance():
    rng = random.Random(3003)
    sigs = [s for s in signatures_up_to(3, 6) if len(s) >= 2]
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        parts = list(rng.choice(sigs))
        shuffled = parts[:]
        rng.shuffle(shuffled)
        assert arrows(g, parts) == arrows(g, shuffled)


def test_chromatic_correspondence(monkeypatch):
    # G arrows (2,)*r iff chi(G) > r, decided by the coloring path alone.
    _no_all_2_extend(monkeypatch)
    rng = random.Random(4004)
    graphs_ = [random_graph(rng, rng.randint(0, 11), rng.random()) for _ in range(120)]
    for _ in range(40):
        n1 = rng.randint(1, 6)
        graphs_.append(join(random_graph(rng, n1, rng.random()),
                            random_graph(rng, rng.randint(1, 11 - n1), rng.random())))
    for g in graphs_:
        for r in range(2, 6):
            parts = (2,) * r
            result = find_free_coloring(g, parts)
            assert result.verdict == (FREE if properly_colorable(g, r) else ARROWS)
            if r ** g.n <= 4096:
                assert (result.verdict == ARROWS) == naive_arrows(g, parts)
            if result.verdict == FREE:
                assert coloring_is_free(g, parts, result.coloring)
    c5c5 = join(cycle(5), cycle(5))  # chi = 6; each C5 block gets all-2 caps
    assert find_free_coloring(c5c5, [2] * 5).verdict == ARROWS
    result = find_free_coloring(c5c5, [2] * 6)
    assert result.verdict == FREE and coloring_is_free(c5c5, (2,) * 6, result.coloring)


def test_a_join_starts_no_process(monkeypatch):
    def no_start(self):
        raise AssertionError("every search runs in this process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
    witness = join(complete(3), complement(cycle(9)))  # stock (3,3,4) witness
    # Joins, then co-connected graphs whose clique number reaches p.
    cases = [(witness, [3, 3, 4]), (witness, [3, 4, 4]),
             (join(cycle(5), cycle(5)), [2, 4]), (join(cycle(5), cycle(5)), [3, 4]),
             (complete(6), [3, 3]), (join(complete(1), cycle(5)), [2, 2, 2]),
             (cycle(5), [2, 2]), (cycle(7), [2, 2]), (P4, [2, 2]),
             (complement(cycle(7)), [3, 3]), (complement(cycle(9)), [3, 3, 3]),
             (mycielskian(cycle(5)), [2, 2, 2])]
    for g, sig in cases:
        result = find_free_coloring(g, sig, jobs=1)
        assert find_free_coloring(g, sig, jobs=2) == result
        if result.verdict == FREE:
            assert coloring_is_free(g, tuple(sorted(sig)), result.coloring)
    assert multiprocessing.active_children() == []


def test_nodes_are_counted():
    # C5 is co-C5, which the walk rule decides at no node; the Groetzsch
    # graph is a general part and takes a search.
    assert find_free_coloring(cycle(5), [2, 2]) == SearchResult(ARROWS, None, 0)
    assert find_free_coloring(mycielskian(cycle(5)), [2, 2, 2]).nodes > 0
    # K5 is five singleton co-components: the K_k closed form settles it.
    assert find_free_coloring(complete(5), [3, 3]) == SearchResult(ARROWS, None, 0)


def test_color_classes_helper():
    assert color_classes((0, 1, 0, 1), 2) == [[0, 2], [1, 3]]
    assert color_classes((), 2) == [[], []]


def test_color_classes_refuses_colors_outside_the_classes():
    # A negative color indexed the classes from the end, so [0, -1, 1] gave
    # [[0], [1, 2]]; a color of r or more was a bare IndexError, and 1.0 a
    # bare TypeError.
    with pytest.raises(ValueError, match=r"^vertex 1 has color -1, outside 0\.\.1$"):
        color_classes([0, -1, 1], 2)
    with pytest.raises(ValueError, match=r"^vertex 2 has color 2, outside 0\.\.1$"):
        color_classes([0, 1, 2], 2)
    for bad in (1.0, "1", None):
        with pytest.raises(ValueError, match=f"^vertex 1 has a color that is not an integer, got {bad!r}$"):
            color_classes([0, bad], 2)
    assert color_classes([True, False, 1], 2) == [[1], [0, 2]]  # a bool is its int
