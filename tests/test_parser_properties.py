"""Property tests for the two text formats a user can hand the toolkit
besides graphs: witness certificates and the known-values table.  Random
certificates, with and without refutation evidence, round-trip through
`format_certificate`, and any text makes either parser return or raise
ValueError, nothing else."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from folkman.bounds import KnownTable, parse_known_values
from folkman.graphs import Graph
from folkman.signatures import normalize
from folkman.witnesses import (REFUTED, UNVERIFIED, VERIFIED, WitnessCertificate,
                               format_certificate, parse_certificate)

from conftest import brute_subset_has_clique

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def small_graphs(draw, min_n: int = 0) -> Graph:
    n = draw(st.integers(min_n, 9))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# One line of text: no character that `str.splitlines` breaks on, and no
# outer whitespace, which the parser strips.
LINE = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
               max_size=20).map(str.strip)


@st.composite
def certificates(draw) -> WitnessCertificate:
    """A certificate the parser accepts: a claim with no evidence, or a
    refutation by a free coloring or by a clique of at least q vertices."""
    evidence = draw(st.sampled_from(["none", "free-coloring", "clique"]))
    graph = draw(small_graphs(min_n=3 if evidence == "clique" else 0))
    construction = draw(LINE)
    if evidence == "free-coloring":
        coloring = draw(st.lists(st.integers(0, 2), min_size=graph.n, max_size=graph.n))
        r = max(coloring, default=0) + 1
        # Each class's cap exceeds its clique number; colors renumbered so
        # that caps ascend, as in a normalized signature.
        caps = []
        for c in range(r):
            members = [v for v, color in enumerate(coloring) if color == c]
            omega = max(k for k in range(len(members) + 1)
                        if brute_subset_has_clique(graph, members, k))
            caps.append(max(omega + 1, 2) + draw(st.integers(0, 2)))
        rank = sorted(range(r), key=caps.__getitem__)
        sig = normalize(sorted(caps))
        coloring = tuple(rank.index(c) for c in coloring)
        q = sig.p + 1 + draw(st.integers(0, 2))
        return WitnessCertificate(graph, sig, q, REFUTED, construction, free_coloring=coloring)
    if evidence == "clique":
        size = draw(st.integers(3, graph.n))
        clique = tuple(draw(st.permutations(range(graph.n)))[:size])
        adj = list(graph.adj)
        for u in clique:
            adj[u] |= sum(1 << v for v in clique if v != u)
        q = draw(st.integers(3, size))
        sig = normalize(draw(st.lists(st.integers(2, q - 1), min_size=1, max_size=3)))
        return WitnessCertificate(Graph(graph.n, tuple(adj)), sig, q, REFUTED, construction,
                                  clique=clique)
    sig = normalize(draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
    q = sig.p + 1 + draw(st.integers(0, 3))
    status = draw(st.sampled_from([VERIFIED, UNVERIFIED, REFUTED]))
    return WitnessCertificate(graph, sig, q, status, construction)


@PROPERTY
@given(certificates())
def test_certificates_round_trip(cert):
    # `nodes` is not part of the text record, so the certificates here keep 0.
    assert parse_certificate(format_certificate(cert)) == cert


def _text(fragments: list[str]):
    """Text joined from the format's own tokens and arbitrary characters, so
    that most of it gets past the first checks."""
    return st.lists(st.sampled_from(fragments) | st.text(max_size=4), max_size=30).map("".join)


CERT_FRAGMENTS = ["folkman-witness v1\n", "graph6: ", "Dhc", "D??", "@", "signature: ",
                  "2,2", "3,4", "1", ",", "q: ", "vertices: ", "5", "-3", "status: ",
                  VERIFIED, UNVERIFIED, REFUTED, "construction: ", "free-coloring: ",
                  "0,1,0,1,2", "0,1,0,1,1", "clique: ", "0,1,2", "0,0", ":", "\n", " "]
TABLE_FRAGMENTS = ["3,4", "2,2,4", "2,2", "1", "0", "-2", ",", ";", "5", "13", "99", "-",
                   "ref", "#", "\n", " "]


def _raises_only_value_error(parse, text: str) -> None:
    try:
        parse(text)
    except ValueError:
        pass


@PROPERTY
@given(st.text() | _text(CERT_FRAGMENTS))
@example("folkman-witness v1\ngraph6: Dhc\nsignature: 1,1\nq: 3\nstatus: verified\n"
         "construction: x\n")
@example("folkman-witness v1\ngraph6: Dhc\nsignature: 2,2\nq: 3\nstatus: refuted\n"
         "construction: x\nfree-coloring: 0,1,0,1,9\n")
def test_any_text_is_a_certificate_or_a_value_error(text):
    _raises_only_value_error(parse_certificate, text)


@PROPERTY
@given(st.text() | _text(TABLE_FRAGMENTS))
@example("1,1;3;-;-;x\n")
@example("3,4;5;-;-;no side\n")
@example("3,4;5;99;13;inverted\n")
@example("3,4;5;-;11;below the rule\n3,4;4;-;13;q at the max part\n")
def test_any_text_is_a_table_or_a_value_error(text):
    _raises_only_value_error(parse_known_values, text)
    _raises_only_value_error(lambda t: KnownTable(parse_known_values(t)), text)
