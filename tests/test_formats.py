import random

import pytest

from folkman.formats import (GraphFormatError, format_for_path,
                             parse_edge_list, parse_graph, parse_graph6,
                             read_graph_file, serialize_edge_list,
                             serialize_graph, serialize_graph6)
from folkman.graphs import complete, cycle, from_edges, join

from conftest import random_graph


def corpus():
    rng = random.Random(424242)
    graphs = [complete(0), complete(1), complete(5), cycle(5), cycle(7),
              join(complete(1), cycle(5)), from_edges(3, [(0, 1), (1, 2)])]
    graphs += [random_graph(rng, rng.randint(0, 12), rng.random()) for _ in range(60)]
    graphs.append(random_graph(rng, 63, 0.3))  # long-form graph6 vertex count
    graphs.append(random_graph(rng, 64, 0.2))
    return graphs


def test_known_graph6_string_is_c5():
    assert parse_graph6("Dhc") == cycle(5)
    assert serialize_graph6(cycle(5)) == "Dhc"


def test_graph6_round_trip_corpus():
    for g in corpus():
        assert parse_graph6(serialize_graph6(g)) == g


def test_edge_list_round_trip_corpus():
    for g in corpus():
        assert parse_edge_list(serialize_edge_list(g)) == g


def test_generic_round_trip_dispatch():
    g = cycle(6)
    for fmt in ("graph6", "edge-list"):
        assert parse_graph(serialize_graph(g, fmt), fmt) == g
    with pytest.raises(ValueError):
        serialize_graph(g, "dot")


def test_edge_list_parse_example():
    g = parse_edge_list("n 3\n0 1\n1 2\n")
    assert g == from_edges(3, [(0, 1), (1, 2)])


def test_edge_list_tolerates_comments_and_blanks():
    g = parse_edge_list("# a path\nn 3\n\n0 1  # first\n1 2\n")
    assert g == from_edges(3, [(0, 1), (1, 2)])


def test_edge_list_vertex_out_of_range_reports_line():
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list("n 3\n0 5\n")
    assert err.value.line == 2
    assert "out of range" in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("n x\n", "vertex count 'x' is not an integer (line 1)"),
    ("n -1\n", "negative vertex count -1 (line 1)")])
def test_edge_list_bad_vertex_count(text, message):
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


def test_edge_list_malformed():
    with pytest.raises(GraphFormatError):
        parse_edge_list("3\n0 1\n")  # missing header keyword
    with pytest.raises(GraphFormatError):
        parse_edge_list("n 3\n0 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("n 3\na b\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("n 3\n1 1\n")
    with pytest.raises(GraphFormatError):
        parse_edge_list("")
    with pytest.raises(GraphFormatError):
        parse_edge_list("n 200\n")


def test_graph6_trailing_junk_rejected():
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("Dhcx")
    assert "trailing junk" in str(err.value)


def test_graph6_malformed():
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError):
        parse_graph6(":Dhc")  # sparse6
    with pytest.raises(GraphFormatError):
        parse_graph6("D" + chr(20))  # byte below 63
    with pytest.raises(GraphFormatError):
        parse_graph6("D")  # truncated body
    with pytest.raises(GraphFormatError):
        parse_graph6("~~~~~~~")  # long-long counts unsupported


def test_graph6_nonzero_padding_rejected():
    # K2 is "A_"; "A" + chr(63 + 0b100001) sets a padding bit
    with pytest.raises(GraphFormatError):
        parse_graph6("A" + chr(63 + 0b100001))


def test_graph6_header_prefix_tolerated():
    assert parse_graph6(">>graph6<<Dhc") == cycle(5)


def test_format_for_path():
    assert format_for_path("x.g6") == "graph6"
    assert format_for_path("x.el") == "edge-list"
    assert format_for_path("x.bin") is None


def test_read_graph_file(tmp_path):
    path = tmp_path / "c5.g6"
    path.write_text("Dhc\n")
    assert read_graph_file(str(path)) == cycle(5)
    other = tmp_path / "p3.el"
    other.write_text("n 3\n0 1\n1 2\n")
    assert read_graph_file(str(other)) == from_edges(3, [(0, 1), (1, 2)])
    renamed = tmp_path / "c5.data"
    renamed.write_text("Dhc\n")
    with pytest.raises(ValueError):
        read_graph_file(str(renamed))
    assert read_graph_file(str(renamed), fmt="graph6") == cycle(5)
    with pytest.raises(ValueError):
        read_graph_file("-")  # stdin needs a format
