import multiprocessing
import random

import pytest

from folkman import arrowing
from folkman.arrowing import (ARROWS, FREE, UNDECIDED, BudgetExceededError,
                              arrows, color_classes, find_free_coloring,
                              in_class_H, verify_composition_instance)
from folkman.graphs import complement, complete, cycle, from_edges, join
from folkman.signatures import normalize

from conftest import (coloring_is_free, naive_arrows, properly_colorable,
                      random_graph, signatures_up_to)

P4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])


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
    sig = normalize([1, 1])
    assert find_free_coloring(complete(1), sig).verdict == ARROWS
    assert find_free_coloring(cycle(5), sig).verdict == ARROWS
    assert find_free_coloring(complete(0), sig).verdict == FREE


def test_empty_graph_with_real_signature():
    assert find_free_coloring(complete(0), [2, 2]).verdict == FREE


def test_budget_rejected_when_nonpositive():
    with pytest.raises(ValueError):
        find_free_coloring(cycle(5), [2, 2], budget=0)
    with pytest.raises(ValueError):
        find_free_coloring(cycle(5), [2, 2], jobs=0)


def test_budget_exhaustion_is_undecided():
    g = join(complete(2), complement(cycle(11)))
    result = find_free_coloring(g, [3, 4], budget=5)
    assert result.verdict == UNDECIDED
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


def test_chromatic_correspondence():
    rng = random.Random(4004)
    for _ in range(80):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.random())
        r = rng.randint(2, 4)
        assert arrows(g, [2] * r) == (not properly_colorable(g, r))


def test_jobs_do_not_change_verdicts():
    cases = [
        (join(cycle(5), cycle(5)), [2, 4]),
        (complete(6), [3, 3]),
        (join(complete(1), cycle(5)), [2, 2, 2]),
        (cycle(7), [2, 2]),
        (P4, [2, 2]),
    ]
    for g, sig in cases:
        seq = find_free_coloring(g, sig, jobs=1)
        par = find_free_coloring(g, sig, jobs=2)
        assert seq.verdict == par.verdict
        if par.verdict == FREE:
            assert coloring_is_free(g, tuple(sorted(sig)), par.coloring)


def test_no_worker_outlives_a_parallel_free_search():
    # The (3,3,4) stock witness on 12 vertices is (3,4,4)-free.
    g = join(complete(3), complement(cycle(9)))
    result = find_free_coloring(g, [3, 4, 4], jobs=2)
    assert result.verdict == FREE
    assert coloring_is_free(g, (3, 4, 4), result.coloring)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the stand-in worker must reach the child by fork")
def test_a_worker_that_dies_is_not_read_as_arrows(monkeypatch):
    # A worker that exits without reporting its subtrees must not leave the
    # search to claim that the unsearched part of the tree arrows.
    monkeypatch.setattr(arrowing, "_search_worker", lambda *args: None)
    with pytest.raises(RuntimeError):
        find_free_coloring(join(cycle(5), cycle(5)), [2, 4], jobs=2)
    assert multiprocessing.active_children() == []


def test_nodes_are_counted():
    result = find_free_coloring(complete(5), [3, 3])
    assert result.nodes > 0


def test_color_classes_helper():
    assert color_classes((0, 1, 0, 1), 2) == [[0, 2], [1, 3]]
    assert color_classes((), 2) == [[], []]
