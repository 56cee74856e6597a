"""Property tests on graphs of up to 64 vertices: adjacency validation
against the per-bit scan in conftest, and the graph6 and edge-list codecs,
also against the bit-list and edge-list oracles there."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from folkman.formats import (GraphFormatError, parse_edge_list, parse_graph6,
                             serialize_edge_list, serialize_graph6)
from folkman.graphs import MAX_VERTICES, Graph

from conftest import (edge_list_decode_oracle, graph6_decode_oracle, graph6_encode_oracle,
                      scan_adjacency)

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def rows(draw, min_n: int = 0) -> tuple[int, list[int]]:
    """A vertex count and the symmetric, loop-free rows of a random graph."""
    n = draw(st.integers(min_n, MAX_VERTICES))
    adj = [0] * n
    for v in range(n):
        later = draw(st.integers(0, (1 << n) - 1)) >> (v + 1) << (v + 1)
        adj[v] |= later
        for u in range(v + 1, n):
            if later >> u & 1:
                adj[u] |= 1 << v
    return n, adj


@st.composite
def graphs(draw) -> Graph:
    n, adj = draw(rows())
    return Graph(n, tuple(adj))


@st.composite
def damaged_rows(draw) -> tuple[int, list[int]]:
    """Random rows with up to three flipped bits, loops or stray high bits."""
    n, adj = draw(rows(min_n=1))
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["flip", "loop", "stray"]))
        if kind == "flip":
            adj[v] ^= 1 << draw(st.integers(0, n - 1))
        elif kind == "loop":
            adj[v] |= 1 << v
        else:
            adj[v] |= 1 << draw(st.integers(n, 2 * MAX_VERTICES))
    return n, adj


def _outcome(build, *args):
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY
@given(damaged_rows())
@example((2, [0b10, 0b00]))
@example((64, [0] * 63 + [1 << 64]))
@example((64, [0] * 63 + [1 << 63]))
@example((3, [0b110, 0b001, 0b101]))
def test_graph_accepts_and_rejects_as_the_per_bit_scan(case):
    n, adj = case
    assert _outcome(Graph, n, tuple(adj)) == _outcome(scan_adjacency, n, adj)


def test_negative_rows_are_stray_bits():
    with pytest.raises(ValueError, match="row 1 has bits beyond"):
        Graph(2, (0, -1))


@PROPERTY
@given(graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(serialize_graph6(g)) == g


@PROPERTY
@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


GRAPH6_TEXT = st.text(alphabet=st.sampled_from([chr(b) for b in range(60, 128)] + list(" :>\n")))
EDGE_LIST_TEXT = st.text(alphabet=st.sampled_from(list("n 0123456789-#\n\tx")))


@PROPERTY
@given(st.one_of(st.text(), GRAPH6_TEXT, EDGE_LIST_TEXT))
@example("~??~")
@example("~~")
@example(">>graph6<<")
@example("n 3\n0 1\n1 0\n")
def test_arbitrary_text_raises_only_format_errors(text):
    for parse in (parse_graph6, parse_edge_list):
        try:
            g = parse(text)
        except ValueError as exc:  # GraphFormatError is a ValueError
            assert isinstance(exc, GraphFormatError) or type(exc) is ValueError
        else:
            assert isinstance(g, Graph)


@PROPERTY
@given(graphs())
def test_graph6_encoding_matches_the_bit_list_oracle(g):
    assert serialize_graph6(g) == graph6_encode_oracle(g)


@st.composite
def damaged_graph6(draw) -> str:
    """The graph6 text of a random graph with up to three bytes replaced,
    inserted or deleted; "last" replaces the last byte, which holds any
    padding bits."""
    text = list(serialize_graph6(draw(graphs())))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(text)))
        ch = chr(draw(st.one_of(st.integers(63, 126), st.integers(0, 300))))
        kind = draw(st.sampled_from(["replace", "last", "insert", "delete"]))
        if kind == "last" and text:
            text[-1] = ch
        elif kind == "insert" or k == len(text):
            text.insert(k, ch)
        elif kind == "replace":
            text[k] = ch
        else:
            del text[k]
    return "".join(text)


EDGE_LIST_TOKENS = st.one_of(st.integers(-2, MAX_VERTICES + 2).map(str),
                             st.sampled_from(["n", "x", "#", "1.0", "+3", "", "0 1", "1 1", "n 3"]))


@st.composite
def damaged_edge_lists(draw) -> str:
    """The edge list of a random graph with up to three lines added, changed
    or dropped."""
    lines = serialize_edge_list(draw(graphs())).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["add", "change", "drop"]))
        if kind == "add" or k == len(lines):
            lines.insert(k, " ".join(draw(st.lists(EDGE_LIST_TOKENS, min_size=0, max_size=3))))
        elif kind == "change":
            tokens = lines[k].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(EDGE_LIST_TOKENS)
            lines[k] = " ".join(tokens)
        else:
            del lines[k]
    return "\n".join(lines)


def _decoded(parse, text):
    """The graph, or the error's type, message, line and offset."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "offset", None)


@PROPERTY
@given(st.one_of(damaged_graph6(), st.text(), GRAPH6_TEXT))
@example("~??~")
@example("~~")
@example(">>graph6<<")
@example(" >>graph6<<Dhc\n")
@example("A" + chr(63 + 0b100001))
@example("A" + chr(63 + 0b010000))
@example("D" + chr(20) + chr(300))
def test_graph6_decodes_as_the_bit_list_oracle(text):
    assert _decoded(parse_graph6, text) == _decoded(graph6_decode_oracle, text)


@PROPERTY
@given(st.one_of(damaged_edge_lists(), st.text(), EDGE_LIST_TEXT))
@example("n 3\n0 1\n1 0\n")
@example("n 3\n0 3\n1 1\n")
@example("n 3\n1 1\n0 3\n")
@example("# none\n")
def test_edge_list_decodes_as_the_from_edges_oracle(text):
    assert _decoded(parse_edge_list, text) == _decoded(edge_list_decode_oracle, text)
