import random

import pytest

from folkman.bounds import KnownTable
from folkman.formats import serialize_edge_list, serialize_graph6
from folkman.graphs import clique_number, complement, complete, cycle, join
from folkman.signatures import normalize
from folkman.witnesses import (REFUTED, UNVERIFIED, VERIFIED,
                               base_witness, compose_witness,
                               format_certificate, load_external_witness,
                               parse_certificate)

from conftest import coloring_is_free, naive_arrows, signatures_up_to


def test_base_witness_22_is_five_cycle():
    cert = base_witness([2, 2], 3)
    assert cert.status == VERIFIED
    assert cert.vertices == 5
    assert cert.graph == complement(cycle(5))  # identical to C5 at p = 2
    assert cert.proves_upper == 5


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


def test_base_witness_guard_leaves_large_cases_unverified():
    sig = normalize([2, 2, 9])  # m + p = 20 > the r = 3 verification cap
    cert = base_witness(sig, sig.m)
    assert cert.status == UNVERIFIED
    assert cert.nodes == 0
    assert cert.proves_upper is None


def test_compose_two_pentagon_witnesses():
    c1 = base_witness([2, 2], 3)
    c2 = base_witness([2, 2], 3)
    cert = compose_witness(c1, c2, 1)
    assert cert.status == VERIFIED
    assert cert.signature == normalize([2, 4])
    assert cert.q == 5
    assert cert.vertices == 10


def test_compose_with_recheck():
    c1 = base_witness([2, 2], 3)
    cert = compose_witness(c1, c1, 0, verify=True)
    assert cert.status == VERIFIED
    assert "recheck: exhaustive" in cert.construction
    assert cert.nodes > 0


def test_compose_two_boundary_witnesses():
    # two verified (3, b; b+1)-style witnesses compose to (3, b1+b2; ...)
    w34 = base_witness([3, 4], 6)  # q = m: 10 vertices
    cert = compose_witness(w34, w34, 1)
    assert cert.signature == normalize([3, 8])
    assert cert.status == VERIFIED
    assert cert.vertices == 20


def test_compose_rejects_bad_inputs():
    good = base_witness([2, 2], 3)
    unverified = base_witness(normalize([2, 2, 9]), 11)
    with pytest.raises(ValueError):
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


def test_external_witness_refuted_by_clique(tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text(serialize_graph6(complete(4)) + "\n")
    cert = load_external_witness(str(path), [2, 2], 3)
    assert cert.status == REFUTED
    assert cert.clique is not None and len(cert.clique) == 4


def test_external_witness_refuted_by_free_coloring(tmp_path):
    path = tmp_path / "c7.el"
    path.write_text(serialize_edge_list(cycle(7)))
    cert = load_external_witness(str(path), [3, 3], 4)
    assert cert.status == REFUTED
    assert cert.free_coloring is not None
    assert coloring_is_free(cycle(7), (3, 3), cert.free_coloring)


def test_external_witness_budget_exhaustion(tmp_path):
    path = tmp_path / "big.g6"
    # clique number 6 < q = 7, so the claim survives to the search stage
    path.write_text(serialize_graph6(join(complete(1), complement(cycle(11)))) + "\n")
    cert = load_external_witness(str(path), [3, 4], 7, budget=5)
    assert cert.status == UNVERIFIED


def test_external_witness_registers_in_table(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text(serialize_graph6(cycle(5)) + "\n")
    table = KnownTable()
    load_external_witness(str(path), [2, 2], 3, table=table)
    lower, upper, citations = table.combined(normalize([2, 2]), 3)
    assert upper == 5 and lower is None
    assert any("external file" in c for c in citations)


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
