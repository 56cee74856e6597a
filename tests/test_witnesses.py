import random

import pytest

from folkman import graphs, witnesses
from folkman.arrowing import (ARROWS, FREE, UNDECIDED, SearchResult, arrows, find_free_coloring,
                              in_class_H, verify_composition_instance)
from folkman.bounds import (RULE_KNOWN_TABLE, RULE_THEOREM, KnownTable, KnownValue,
                            best_bounds, bundled_known_values, composition_bound,
                            default_table)
from folkman.formats import serialize_edge_list, serialize_graph6
from folkman.graphs import clique_number, complement, complete, cycle, from_edges, join
from folkman.signatures import normalize
from folkman.witnesses import (REFUTED, UNVERIFIED, VERIFIED, WitnessCertificate,
                               base_witness, compose_witness,
                               format_certificate, load_external_witness,
                               parse_certificate)

from conftest import circulant, coloring_is_free, mycielskian, naive_arrows, signatures_up_to


def _c13_file(tmp_path):
    """C13(1,2,3,5), omega = 4, as a graph6 file: a general part that arrows
    (3,4) in 632 nodes, so a budget of 5 leaves a (3,4;5) claim undecided."""
    path = tmp_path / "c13.g6"
    path.write_text(serialize_graph6(circulant(13, (1, 2, 3, 5))) + "\n")
    return str(path)


def test_base_witness_22_is_five_cycle():
    cert = base_witness([2, 2], 3)
    assert cert.status == VERIFIED
    assert cert.vertices == 5
    assert cert.graph == complement(cycle(5))  # identical to C5 at p = 2
    assert cert.proves_upper == 5


def test_a_witness_refuses_a_clique_cap_that_is_not_an_integer():
    # Unchecked, base_witness([3, 3], 5.0) was "verified", and its text record
    # read "q: 5.0", which parse_certificate refuses.
    with pytest.raises(ValueError, match=r"^clique cap q must be an integer, got 5\.0$"):
        base_witness([3, 3], 5.0)
    assert format_certificate(base_witness([3, 3], 5)).count("\nq: 5\n") == 1


def test_base_witness_33():
    cert = base_witness([3, 3], 5)
    assert cert.status == VERIFIED
    assert cert.vertices == 8
    assert "complement(cycle(7))" in cert.construction


def test_base_witness_above_m_is_complete_graph():
    cert = base_witness([3, 4], 7)
    assert cert.status == VERIFIED
    assert cert.graph == complete(6)
    assert cert.vertices == 6


def test_the_complete_graph_witness_is_checked_by_the_engine(monkeypatch):
    # K_m is verified like every other stock witness: the engine decides it,
    # by the walk rule at no node, and the record carries no evidence.
    calls = []
    real = witnesses.find_free_coloring

    def spy(graph, parts, budget=None):
        result = real(graph, parts, budget=budget)
        calls.append((graph, parts, result))
        return result

    monkeypatch.setattr(witnesses, "find_free_coloring", spy)
    for sig, q in (([2, 2], 4), ([5], 9), ([3, 4], 7)):
        cert = base_witness(sig, q)
        sig = normalize(sig)
        assert calls.pop() == (complete(sig.m), sig, SearchResult(ARROWS, None, 0))
        assert cert == WitnessCertificate(complete(sig.m), sig, q, VERIFIED, f"complete({sig.m})")
    assert calls == []


def test_base_witness_all_twos_family():
    # r color classes capped at 2: join of K_{r-2} with the 5-cycle
    for r in (2, 3, 4):
        sig = normalize([2] * r)
        cert = base_witness(sig, sig.m)
        assert cert.status == VERIFIED
        assert cert.vertices == sig.m + 2
    cert3 = base_witness([2, 2, 2], 4)
    assert cert3.vertices == 6
    assert cert3.graph == join(complete(1), complement(cycle(5)))
    # complement(C5) is again a 5-cycle, so this is the 6-vertex wheel
    assert clique_number(cert3.graph) == 3
    assert sorted(cert3.graph.degree(v) for v in range(6)) == [3, 3, 3, 3, 3, 5]


def test_base_witness_vertex_count_is_m_plus_p():
    for parts in signatures_up_to(3, 7):
        sig = normalize(list(parts))
        if sig.r < 2 or sig.m + sig.p > 12:
            continue
        cert = base_witness(sig, sig.m)
        assert cert.status == VERIFIED
        assert cert.vertices == sig.m + sig.p


def test_base_witness_errors():
    with pytest.raises(ValueError):
        base_witness([3, 4], 5)  # q = m - 1: no construction
    with pytest.raises(ValueError):
        base_witness([3, 4], 4)  # q <= p: does not exist
    with pytest.raises(ValueError):
        base_witness(normalize([1]), 3)
    with pytest.raises(TypeError, match="budget"):
        base_witness([2, 2, 9], 12, budget=1)  # decided at no node: no budget to give


def test_compose_two_pentagon_witnesses():
    c1 = base_witness([2, 2], 3)
    c2 = base_witness([2, 2], 3)
    cert = compose_witness(c1, c2, 1)
    assert cert.status == VERIFIED
    assert cert.signature == normalize([2, 4])
    assert cert.q == 5
    assert cert.vertices == 10


def test_compose_with_recheck():
    # compose_witness relies on the law; the engine rechecks it here.
    c = base_witness([2, 2], 3)
    cert = compose_witness(c, c, 0)
    assert cert.status == VERIFIED
    assert cert.signature == normalize([2, 4]) and cert.q == 5
    assert verify_composition_instance(c.graph, c.signature, c.graph, c.signature, 0)
    assert arrows(cert.graph, cert.signature)


def test_compose_rejects_a_forged_verified_operand():
    forged = parse_certificate(
        "folkman-witness v1\n"
        f"graph6: {serialize_graph6(complete(4))}\n"
        "signature: 2,2\nq: 3\nstatus: verified\nconstruction: hand-written\n")
    assert forged.status == VERIFIED
    with pytest.raises(ValueError, match="a 4-clique refutes the certificate for F\\(2,2;3\\)"):
        compose_witness(forged, forged, 1)
    good = base_witness([2, 2], 3)
    with pytest.raises(ValueError, match="4-clique refutes"):
        compose_witness(good, forged, 1)


def test_compose_rechecks_each_operand_arrows(monkeypatch):
    # C6 has no triangle, so its clique passes; being bipartite, it has a
    # (2,2)-free coloring, so the "verified" claim is false.
    forged = parse_certificate(
        "folkman-witness v1\n"
        f"graph6: {serialize_graph6(cycle(6))}\n"
        "signature: 2,2\nq: 3\nstatus: verified\nconstruction: hand-written C6\n")
    assert forged.status == VERIFIED
    good = base_witness([2, 2], 3)
    pattern = "a free coloring refutes the certificate for F\\(2,2;3\\) \\(hand-written C6\\)"
    for c1, c2 in ((forged, forged), (good, forged), (forged, good)):
        with pytest.raises(ValueError, match=pattern):
            compose_witness(c1, c2, 1)
    monkeypatch.setattr(witnesses, "find_free_coloring",
                        lambda graph, sig, budget: SearchResult(UNDECIDED, None, 7))
    with pytest.raises(ValueError, match="F\\(2,2;3\\).* is undecided after 7 nodes"):
        compose_witness(good, good, 1)
    # An engine coloring that is not free is a fault of the engine, not
    # evidence: `_check` refuses it for an operand as for every claim.
    monkeypatch.setattr(witnesses, "find_free_coloring",
                        lambda graph, sig, budget: SearchResult(FREE, (0,) * graph.n, 0))
    with pytest.raises(RuntimeError, match="monochromatic forbidden clique"):
        compose_witness(good, good, 1)


def test_compose_rechecks_a_self_join_operand_once(monkeypatch):
    c = base_witness([2, 2], 3)
    other = base_witness([2, 2], 3)
    searched = []
    real = witnesses.find_free_coloring
    monkeypatch.setattr(witnesses, "find_free_coloring",
                        lambda graph, sig, budget: searched.append(graph.n)
                        or real(graph, sig, budget=budget))
    assert compose_witness(c, c, 1) == compose_witness(c, other, 1)
    assert searched == [5, 5, 5]  # once for (c, c), twice for (c, other)


def test_compose_decides_each_operand_by_one_claim_check(monkeypatch):
    # One `_check` per distinct operand, at the default budget: one maximum
    # clique search and one engine call each, and nothing else.
    c1, c2 = base_witness([2, 3], 4), base_witness([2, 2], 3)
    checks, cliques, searches = [], [], []
    for name, calls in (("_check", checks), ("max_clique", cliques),
                        ("find_free_coloring", searches)):
        monkeypatch.setattr(witnesses, name, lambda *args, real=getattr(witnesses, name),
                            calls=calls, **kw: calls.append(args[0].n) or real(*args, **kw))
    compose_witness(c1, c1, 1)
    compose_witness(c1, c2, 1)
    assert checks == cliques == searches == [c1.vertices, c1.vertices, c2.vertices]
    assert not hasattr(witnesses, "clique_number") and not hasattr(witnesses, "has_clique")


def test_compose_reads_position_before_deciding_an_operand(monkeypatch):
    c = base_witness([2, 2], 3)
    assert compose_witness(c, c, True) == compose_witness(c, c, 1)
    checks = []
    monkeypatch.setattr(witnesses, "_check", lambda *args: checks.append(args) or None)
    for position in (1.5, 1.0, "1"):
        with pytest.raises(ValueError, match="position must be an integer"):
            compose_witness(c, c, position)
    assert not checks


def test_only_find_free_coloring_takes_jobs(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(serialize_graph6(cycle(5)) + "\n")
    for call in (lambda: arrows(cycle(5), [2, 2], jobs=1),
                 lambda: in_class_H(cycle(5), [2, 2], 3, jobs=1),
                 lambda: verify_composition_instance(cycle(5), [2, 2], cycle(5), [2, 2], 1,
                                                     jobs=1),
                 lambda: base_witness([2, 3], 4, jobs=1),
                 lambda: load_external_witness(str(path), [2, 2], 3, jobs=1)):
        with pytest.raises(TypeError, match="jobs"):
            call()
    g = base_witness([2, 3], 4).graph
    assert find_free_coloring(g, [2, 3], jobs=2) == find_free_coloring(g, [2, 3], jobs=1)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        find_free_coloring(g, [2, 3], jobs=0)


def test_compose_two_boundary_witnesses():
    # two verified (3, b; b+1)-style witnesses compose to (3, b1+b2; ...)
    w34 = base_witness([3, 4], 6)  # q = m: 10 vertices
    cert = compose_witness(w34, w34, 1)
    assert cert.signature == normalize([3, 8])
    assert cert.status == VERIFIED
    assert cert.vertices == 20


def _record_clique_searches(monkeypatch) -> list[int]:
    """Patch the clique searches `witnesses` calls to record each graph's order."""
    orders = []
    real = witnesses.max_clique
    monkeypatch.setattr(witnesses, "max_clique",
                        lambda graph: orders.append(graph.n) or real(graph))
    return orders


def test_base_witness_runs_one_max_clique_search(monkeypatch):
    calls = []
    real = graphs.max_clique

    def counted(graph):
        calls.append(graph.n)
        return real(graph)

    monkeypatch.setattr(graphs, "max_clique", counted)
    monkeypatch.setattr(witnesses, "max_clique", counted)
    cert = base_witness([4, 4, 5], 11)
    assert cert.status == VERIFIED and cert.nodes == 0
    assert calls == [16]


def test_compose_sizes_the_join_by_the_composition_law(monkeypatch):
    c = base_witness([2, 2, 2], 4)
    for _ in range(2):
        c = compose_witness(c, c, 2)
    assert c.signature == normalize([2, 2, 8]) and c.vertices == 24
    orders = _record_clique_searches(monkeypatch)
    cert = compose_witness(c, c, 2)
    assert cert.vertices == 48 and cert.q == 25
    assert orders and max(orders) <= 24


def test_compose_rejects_bad_inputs(tmp_path):
    good = base_witness([2, 2], 3)
    unverified = load_external_witness(_c13_file(tmp_path), [3, 4], 5, budget=5)
    assert unverified.status == UNVERIFIED
    with pytest.raises(ValueError, match="only compose verified"):
        compose_witness(good, unverified, 0)
    other = base_witness([2, 3], 4)
    with pytest.raises(ValueError):
        compose_witness(good, other, 0)  # differs at position 1 as well
    with pytest.raises(ValueError):
        compose_witness(good, good, 7)


def test_external_witness_verified(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(serialize_graph6(cycle(5)) + "\n")
    cert = load_external_witness(str(path), [2, 2], 3)
    assert cert.status == VERIFIED
    assert cert.vertices == 5
    assert "external file" in cert.construction
    # Every certificate it returns must parse back, and q <= p never does.
    with pytest.raises(ValueError, match="does not exist"):
        load_external_witness(str(path), [2, 2], 2)


def test_external_witness_refuted_by_clique(tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text(serialize_graph6(complete(4)) + "\n")
    cert = load_external_witness(str(path), [2, 2], 3)
    assert cert.status == REFUTED
    assert cert.clique is not None and len(cert.clique) == 4


def test_external_witness_runs_one_clique_search(tmp_path, monkeypatch):
    path = tmp_path / "k4.g6"
    path.write_text(serialize_graph6(complete(4)) + "\n")
    orders = _record_clique_searches(monkeypatch)
    cert = load_external_witness(str(path), [2, 2], 3)
    assert cert.status == REFUTED and len(cert.clique) == 4
    assert orders == [4]


def test_external_witness_refuted_by_free_coloring(tmp_path):
    path = tmp_path / "c7.el"
    path.write_text(serialize_edge_list(cycle(7)))
    cert = load_external_witness(str(path), [3, 3], 4)
    assert cert.status == REFUTED
    assert cert.free_coloring is not None
    assert coloring_is_free(cycle(7), (3, 3), cert.free_coloring)


def test_external_witness_budget_exhaustion(tmp_path):
    # clique number 4 < q = 5, so the claim survives to the search stage
    cert = load_external_witness(_c13_file(tmp_path), [3, 4], 5, budget=5)
    assert (cert.status, cert.nodes) == (UNVERIFIED, 5)
    assert load_external_witness(_c13_file(tmp_path), [3, 4], 5).status == VERIFIED


def test_external_witness_registers_in_table(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(serialize_graph6(cycle(5)) + "\n")
    cert = load_external_witness(str(path), [2, 2], 3)
    assert cert.status == VERIFIED
    table = KnownTable([KnownValue(cert.signature, cert.q, None, cert.vertices,
                                   citation=cert.construction)])
    lower, upper, citations = table.combined(normalize([2, 2]), 3)
    assert upper == 5 and lower is None
    assert any("external file" in c for c in citations)


def test_a_verified_external_witness_refreshes_the_composition_dp(tmp_path):
    # M4 is triangle-free and 5-chromatic on 23 vertices, so it lies in
    # H(2,2,2,2;3); no rule prices that number, which is q = m - 2.
    assert composition_bound([2, 2, 2, 2], 3, default_table()).upper is None
    assert best_bounds([2, 2, 2, 2], 3, default_table()).upper is None
    path = tmp_path / "m4.g6"
    path.write_text(serialize_graph6(mycielskian(mycielskian(cycle(5)))) + "\n")
    cert = load_external_witness(str(path), [2, 2, 2, 2], 3)
    assert cert.status == VERIFIED
    # A table is never changed: the certified value comes in a new table.
    table = KnownTable([*bundled_known_values(),
                        KnownValue(cert.signature, cert.q, None, cert.vertices,
                                   citation=cert.construction)])
    assert composition_bound([2, 2, 2, 2], 3, table).upper == 23
    rec = best_bounds([2, 2, 2, 2], 3, table)
    assert rec.upper == 23
    assert [r.name for r in rec.provenance] == [RULE_KNOWN_TABLE, RULE_THEOREM]


def test_certificate_round_trip():
    for cert in (base_witness([3, 3], 5), base_witness([3, 4], 7)):
        text = format_certificate(cert)
        back = parse_certificate(text)
        assert back.graph == cert.graph
        assert back.signature == cert.signature
        assert back.q == cert.q
        assert back.status == cert.status
        assert back.construction == cert.construction


def test_certificate_round_trip_with_evidence(tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text(serialize_graph6(complete(4)) + "\n")
    cert = load_external_witness(str(path), [2, 2], 3)
    back = parse_certificate(format_certificate(cert))
    assert back.status == REFUTED
    assert back.clique == cert.clique
    path = tmp_path / "c7.el"
    path.write_text(serialize_edge_list(cycle(7)))
    cert = load_external_witness(str(path), [3, 3], 4)
    back = parse_certificate(format_certificate(cert))
    assert back.status == REFUTED
    assert back.free_coloring == cert.free_coloring


def test_a_coloring_that_is_not_free_is_never_written_as_evidence(monkeypatch):
    # C5 arrows (2,2); an engine that answered with one class for all five
    # vertices must not yield a REFUTED certificate that cannot be read back.
    monkeypatch.setattr(witnesses, "find_free_coloring",
                        lambda graph, sig, budget: SearchResult(FREE, (0,) * 5, 0))
    with pytest.raises(RuntimeError, match="monochromatic forbidden clique"):
        witnesses._check(cycle(5), normalize([2, 2]), 3, "cycle(5)", None)


def test_the_empty_graph_refutation_round_trips(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("?\n")
    cert = load_external_witness(str(path), [2, 2], 3)
    assert cert.status == REFUTED and cert.free_coloring == ()
    assert parse_certificate(format_certificate(cert)) == cert


def test_large_free_coloring_evidence_round_trips(tmp_path, monkeypatch):
    # The whole co-C63 in the class capped at 32 (its clique number is 31),
    # and join(K1, co-C63), the stock (2,2,31) witness, against (2,2,32):
    # the refutations `load_external_witness` writes.  Their classes are
    # checked by clique number, never by the has-clique search
    # (`graphs._mask_has_clique`), which took seconds on them.
    co_c63 = complement(cycle(63))
    for graph, sig, q in ((co_c63, [2, 32], 33), (join(complete(1), co_c63), [2, 2, 32], 33)):
        path = tmp_path / "w.g6"
        path.write_text(serialize_graph6(graph) + "\n")
        cert = load_external_witness(str(path), sig, q)
        assert cert.status == REFUTED and cert.free_coloring is not None
        with monkeypatch.context() as patch:
            patch.setattr(graphs, "_mask_has_clique", None)
            back = parse_certificate(format_certificate(cert))
        assert (back.graph, back.signature, back.q, back.status, back.free_coloring) == (
            cert.graph, cert.signature, cert.q, REFUTED, cert.free_coloring)


def test_free_coloring_evidence_with_a_cap_sized_clique_is_rejected():
    # Every vertex in the last class: its clique number, 31 on co-C63 and 32
    # on join(K1, co-C63), reaches that class's cap.
    co_c63 = complement(cycle(63))
    for graph, sig in ((co_c63, [2, 31]), (join(complete(1), co_c63), [2, 2, 32])):
        sig = normalize(sig)
        forged = WitnessCertificate(graph, sig, sig.p + 1, REFUTED, "by hand",
                                    free_coloring=(sig.r - 1,) * graph.n)
        with pytest.raises(ValueError, match="forbidden clique"):
            parse_certificate(format_certificate(forged))


def test_certificate_parse_errors():
    with pytest.raises(ValueError):
        parse_certificate("not a certificate\n")
    with pytest.raises(ValueError):
        parse_certificate("folkman-witness v1\ngraph6: Dhc\n")  # missing fields
    good = format_certificate(base_witness([2, 2], 3))
    with pytest.raises(ValueError):
        parse_certificate(good.replace("status: verified", "status: maybe"))
    # Evidence that contradicts the certificate's own 5-vertex graph.
    with pytest.raises(ValueError, match="vertices"):
        parse_certificate(good.replace("vertices: 5", "vertices: 99"))
    refuted = good.replace("status: verified", "status: refuted")
    with pytest.raises(ValueError, match="free coloring"):
        parse_certificate(refuted + "free-coloring: 0,1,0,1\n")  # wrong length
    with pytest.raises(ValueError, match="free coloring"):
        parse_certificate(refuted + "free-coloring: 0,1,0,1,2\n")  # color out of range
    with pytest.raises(ValueError, match="forbidden clique"):
        parse_certificate(refuted + "free-coloring: 0,0,0,0,0\n")  # not free
    with pytest.raises(ValueError, match="distinct"):
        parse_certificate(refuted + "clique: 0,0\n")
    with pytest.raises(ValueError, match="distinct"):
        parse_certificate(refuted + "clique: 0,1,2,40\n")
    with pytest.raises(ValueError, match="not a clique"):
        parse_certificate(refuted + "clique: 0,1,2\n")  # C5 is triangle-free
    # A field that must hold integers names itself when it does not.
    for old, new in (("q: 3", "q: abc"), ("vertices: 5", "vertices: five"),
                     ("signature: 2,2", "signature: 2,x")):
        with pytest.raises(ValueError, match=f"'{old.split(':')[0]}'"):
            parse_certificate(good.replace(old, new))
    for field in ("free-coloring", "clique"):
        with pytest.raises(ValueError, match=f"'{field}'"):
            parse_certificate(refuted + f"{field}: 0,1,?\n")


def _c5_certificate(signature: str, q: int, status: str, evidence: str) -> str:
    return (f"folkman-witness v1\ngraph6: {serialize_graph6(cycle(5))}\nsignature: {signature}\n"
            f"q: {q}\nvertices: 5\nstatus: {status}\nconstruction: by hand\n{evidence}")


def test_certificate_evidence_needs_status_refuted():
    # C5 is triangle-free, so this coloring is free for (3,3): the record
    # refutes its own "verified" status.
    text = _c5_certificate("3,3", 4, VERIFIED, "free-coloring: 0,0,1,1,0\n")
    with pytest.raises(ValueError, match="'verified'.*free-coloring"):
        parse_certificate(text)
    assert parse_certificate(text.replace(VERIFIED, REFUTED)).status == REFUTED
    with pytest.raises(ValueError, match="'unverified'.*clique"):
        parse_certificate(_c5_certificate("2,2", 3, UNVERIFIED, "clique: 0,1\n"))


def test_certificate_clique_evidence_is_checked_by_definition(monkeypatch):
    # Each listed vertex must be adjacent to every other one; no clique
    # search runs, so a fault in one cannot pass a forged clique.
    def no_search(*args):
        raise AssertionError("a clique search ran")
    monkeypatch.setattr(graphs, "_mask_has_clique", no_search)
    monkeypatch.setattr(graphs, "_max_clique_mask", no_search)
    k5 = serialize_graph6(complete(5))
    text = (f"folkman-witness v1\ngraph6: {k5}\nsignature: 2,2\nq: 4\nstatus: refuted\n"
            "construction: by hand\nclique: 4,0,2,1\n")
    assert parse_certificate(text).clique == (4, 0, 2, 1)
    missing = text.replace(k5, serialize_graph6(from_edges(
        5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (1, 4)])))
    with pytest.raises(ValueError, match="'clique' is not a clique of at least 4 vertices"):
        parse_certificate(missing)


def test_certificate_clique_evidence_needs_q_vertices():
    with pytest.raises(ValueError, match="'clique'.*at least 5 vertices"):
        parse_certificate(_c5_certificate("2,2", 5, REFUTED, "clique: 0,1\n"))


def test_certificate_q_must_exceed_the_largest_part():
    # F(2,2;0) does not exist, so no graph can witness it.
    for q in (0, 2):
        with pytest.raises(ValueError, match="'q' must exceed 2"):
            parse_certificate(_c5_certificate("2,2", q, VERIFIED, ""))
    with pytest.raises(ValueError, match="'q' must exceed 3"):
        parse_certificate(_c5_certificate("3,3", 3, VERIFIED, "free-coloring: 0,0,1,1,0\n"))
    assert parse_certificate(_c5_certificate("2,2", 3, VERIFIED, "")).proves_upper == 5


def test_certificate_fields_must_not_repeat():
    # Kept last-wins, a second signature line would turn this verified
    # (2,2;3) record for C5 into a verified (2,2,2;3) claim, which is false:
    # C5 is 3-colorable.
    good = _c5_certificate("2,2", 3, VERIFIED, "")
    assert parse_certificate(good).status == VERIFIED
    refuted = _c5_certificate("3,3", 4, REFUTED, "free-coloring: 0,0,1,1,0\n")
    for text, field in ((good + "signature: 2,2,2\n", "signature"),
                        (good + "status: verified\n", "status"),
                        (good + "q: 4\n", "q"),
                        (refuted + "free-coloring: 0,0,1,1,0\n", "free-coloring")):
        with pytest.raises(ValueError, match=f"repeats field '{field}'"):
            parse_certificate(text)


def test_verified_small_certificates_confirmed_by_naive_oracle():
    rng = random.Random(606)
    candidates = []
    for parts in signatures_up_to(3, 6):
        sig = normalize(list(parts))
        if sig.r < 2 or sig.m + sig.p > 12:
            continue
        candidates.append(base_witness(sig, sig.m))
        candidates.append(base_witness(sig, sig.m + rng.randint(1, 2)))
    for cert in candidates:
        if cert.status == VERIFIED and cert.vertices <= 12 and cert.signature.r <= 3:
            assert naive_arrows(cert.graph, cert.signature.parts)
