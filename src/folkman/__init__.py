"""Vertex Folkman number toolkit.

Computes, composes, and verifies bounds on the vertex Folkman numbers
F(a1,...,ar;q): an exhaustive arrowing decision engine for small graphs,
join-composition of witnesses and bounds, closed-form bound tables, and
certificate handling for externally supplied witness graphs.

Importing the package loads no submodule: each public name is imported from
the submodule that owns it on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "arrowing": ("ARROWS", "FREE", "UNDECIDED", "BudgetExceededError", "SearchResult", "arrows",
                 "color_classes", "find_free_coloring", "in_class_H", "verify_composition_instance"),
    "bounds": ("BoundRecord", "KnownTable", "KnownValue", "RecurrenceReport", "Rule", "base_bounds",
               "best_bounds", "check_recurrences", "closed_form_upper_3p", "closed_form_upper_22p",
               "default_table", "load_known_values", "composition_bound"),
    "formats": ("GraphFormatError", "parse_edge_list", "parse_graph", "parse_graph6",
                "read_graph_file", "serialize_edge_list", "serialize_graph", "serialize_graph6"),
    "graphs": ("MAX_VERTICES", "Graph", "clique_number", "complement", "complete", "cycle",
               "from_edges", "has_clique", "join", "max_clique"),
    "signatures": ("Signature", "as_signature", "folkman_exists", "normalize"),
    "witnesses": ("REFUTED", "UNVERIFIED", "VERIFIED", "WitnessCertificate", "base_witness",
                  "compose_witness", "format_certificate", "load_external_witness",
                  "parse_certificate"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet, as `folkman.graphs`
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
