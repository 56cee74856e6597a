import importlib
import sys

import pytest

import folkman

# The package's public names, by the submodule that defines each.
PUBLIC = {
    "arrowing": ["ARROWS", "FREE", "UNDECIDED", "BudgetExceededError", "SearchResult",
                 "arrows", "color_classes", "find_free_coloring", "in_class_H",
                 "verify_composition_instance"],
    "bounds": ["BoundRecord", "KnownTable", "KnownValue", "RecurrenceReport", "Rule",
               "base_bounds", "best_bounds", "check_recurrences", "closed_form_upper_3p",
               "closed_form_upper_22p", "default_table", "load_known_values",
               "composition_bound"],
    "formats": ["GraphFormatError", "parse_edge_list", "parse_graph", "parse_graph6",
                "read_graph_file", "serialize_edge_list", "serialize_graph",
                "serialize_graph6"],
    "graphs": ["MAX_VERTICES", "Graph", "clique_number", "complement", "complete", "cycle",
               "from_edges", "has_clique", "join", "max_clique"],
    "signatures": ["Signature", "as_signature", "folkman_exists", "normalize"],
    "witnesses": ["REFUTED", "UNVERIFIED", "VERIFIED", "WitnessCertificate", "base_witness",
                  "compose_witness", "format_certificate", "load_external_witness",
                  "parse_certificate"],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_all_lists_every_public_name_once():
    assert len(NAMES) == 54
    assert len(folkman.__all__) == len(set(folkman.__all__))
    assert set(folkman.__all__) == {*NAMES, "__version__"}


def test_each_name_is_its_defining_module_object():
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"folkman.{module}")
        for name in names:
            assert getattr(folkman, name) is getattr(owner, name), name
    assert folkman.folkman_exists is importlib.import_module("folkman.bounds").folkman_exists


def test_star_import_and_dir_cover_every_name():
    namespace = {}
    exec("from folkman import *", namespace)
    assert {*NAMES, "__version__"} <= set(namespace)
    for name in NAMES:
        assert namespace[name] is getattr(folkman, name)
    assert {*NAMES, "__version__"} <= set(dir(folkman))


def test_an_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        folkman.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from folkman import no_such_name", {})


def test_a_submodule_not_yet_imported_is_imported_on_first_access(monkeypatch):
    # This process has loaded every submodule, so one is unloaded here; in a
    # fresh interpreter `import folkman` loads none (test_cli checks that).
    monkeypatch.delitem(sys.modules, "folkman.graphs")
    monkeypatch.delattr(folkman, "graphs")
    module = folkman.graphs
    assert module.__name__ == "folkman.graphs"
    assert sys.modules["folkman.graphs"] is module
