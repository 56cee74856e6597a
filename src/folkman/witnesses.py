"""Witness certificates: concrete graphs whose verified membership in
H(a1,...,ar;q) proves an upper bound on F(a1,...,ar;q).

Construction families are treated as hypotheses: a certificate, K_m
included, is only marked verified after the arrowing engine has
exhaustively confirmed it (or, for joins of witnesses the engine rechecks,
by the composition law, which is sound without searching the join).
Refutations carry concrete evidence.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable

from .arrowing import ARROWS, DEFAULT_BUDGET, FREE, find_free_coloring
from .formats import parse_graph6, read_graph_file, serialize_graph6
from .graphs import Graph, _is_free_coloring, complement, complete, cycle, join, max_clique
from .signatures import (Signature, _Record, _field_integer, as_signature, folkman_exists,
                         merge_at)

VERIFIED = "verified"
UNVERIFIED = "unverified"
REFUTED = "refuted"


class WitnessCertificate(_Record):
    """A graph, the claim it witnesses, and how the claim was checked.

    A verified certificate on n vertices proves F(signature; q) <= n.
    """

    __slots__ = ("graph", "signature", "q", "status", "construction", "free_coloring",
                 "clique", "nodes")

    def __init__(self, graph: Graph, signature: Signature, q: int, status: str,
                 construction: str, free_coloring: tuple[int, ...] | None = None,
                 clique: tuple[int, ...] | None = None, nodes: int = 0):
        (set_graph, set_signature, set_q, set_status, set_construction, set_free_coloring,
         set_clique, set_nodes) = self._set
        set_graph(self, graph)
        set_signature(self, signature)
        set_q(self, q)
        set_status(self, status)
        set_construction(self, construction)
        set_free_coloring(self, free_coloring)
        set_clique(self, clique)
        set_nodes(self, nodes)

    @property
    def vertices(self) -> int:
        return self.graph.n

    @property
    def proves_upper(self) -> int | None:
        return self.graph.n if self.status == VERIFIED else None


def _check(graph: Graph, sig: Signature, q: int, construction: str,
           budget: int | None) -> tuple[WitnessCertificate, int]:
    """Decide the claim graph in H(sig; q), with the clique number it measures:
    a q-clique refutes it outright, else the engine decides arrowing within
    budget.  A free coloring is checked before it becomes evidence, so every
    REFUTED certificate written here passes `parse_certificate`'s check."""
    clique = max_clique(graph)
    if len(clique) >= q:
        return WitnessCertificate(graph, sig, q, REFUTED, construction,
                                  clique=tuple(clique)), len(clique)
    result = find_free_coloring(graph, sig, budget=budget)
    if result.verdict == FREE and not _is_free_coloring(graph, sig.parts, result.coloring):
        raise RuntimeError(f"the engine's free coloring of {construction} against ({sig}) "
                           "has a monochromatic forbidden clique")
    status = {ARROWS: VERIFIED, FREE: REFUTED}.get(result.verdict, UNVERIFIED)
    return WitnessCertificate(graph, sig, q, status, construction, free_coloring=result.coloring,
                              nodes=result.nodes), len(clique)


def base_witness(sig: Signature | Iterable[int], q: int) -> WitnessCertificate:
    """Construct and check the stock witness for (sig, q).

    For q > m the candidate is the complete graph K_m: coloring its m
    vertices with caps summing to m-1 must overload some class, and its
    clique number m stays below q; the engine's walk rule decides it at no
    node.  For q = m the candidate is
    join(K_{m-p-1}, complement(C_{2p+1})) on m+p vertices with clique number
    m-1; it is never trusted, only certified after the engine confirms it.
    The engine decides its co-C_{2p+1} part by the rule in `arrowing`, at no
    node, so no budget is needed.  No construction is known for q < m.
    """
    sig = as_signature(sig)
    if not folkman_exists(sig, q):
        raise ValueError(f"F({sig};{q}) does not exist: q must exceed {sig.p}")
    m, p = sig.m, sig.p
    if q > m:
        return _check(complete(m), sig, q, f"complete({m})", None)[0]
    if q < m:
        raise ValueError(f"no base construction known for q={q} < m={m}")
    graph = join(complete(m - p - 1), complement(cycle(2 * p + 1)))
    construction = f"join(complete({m - p - 1}), complement(cycle({2 * p + 1})))"
    return _check(graph, sig, q, construction, None)[0]


def _recheck_operand(c: WitnessCertificate) -> int:
    """Decide a "verified" operand's claim again by `_check`; return its clique number."""
    checked, omega = _check(c.graph, c.signature, c.q, c.construction, DEFAULT_BUDGET)
    claim = f"the certificate for F({c.signature};{c.q}) ({c.construction})"
    if checked.clique is not None:
        raise ValueError(f"a {omega}-clique refutes {claim}")
    if checked.free_coloring is not None:
        raise ValueError(f"a free coloring refutes {claim}")
    if checked.status != VERIFIED:
        raise ValueError(f"{claim} is undecided after {checked.nodes} nodes")
    return omega


def compose_witness(c1: WitnessCertificate, c2: WitnessCertificate,
                    position: int) -> WitnessCertificate:
    """Join two verified witnesses into one for the merged signature.

    The signatures must agree everywhere except (possibly) at `position`;
    the join witnesses the signature carrying the sum of the two caps
    there, at clique cap cl(g1) + cl(g2) + 1.  A "verified" status may come
    from a file, so each operand's claim is decided again first by `_check`,
    as `witness` and `verify` decide theirs (once for a self-join): a clique at
    its own cap q, or no arrowing verdict within DEFAULT_BUDGET, rejects it.
    The join itself rests on the composition law
    (`verify_composition_instance` is its engine check).  Both statuses and
    `merge_at` (the signatures and `position`) are checked before either
    operand is decided.
    """
    for c in (c1, c2):
        if c.status != VERIFIED:
            raise ValueError(f"can only compose verified certificates, got {c.status}")
    merged = merge_at(c1.signature, c2.signature, position)
    omega1 = _recheck_operand(c1)
    q = omega1 + (omega1 if c2 is c1 else _recheck_operand(c2)) + 1
    if not folkman_exists(merged, q):
        raise ValueError(f"composed clique cap {q} does not exceed max part {merged.p}")
    construction = f"compose[{c1.construction} | {c2.construction}]"
    return WitnessCertificate(join(c1.graph, c2.graph), merged, q, VERIFIED, construction)


def load_external_witness(path: str, sig: Signature | Iterable[int], q: int,
                          budget: int | None = DEFAULT_BUDGET,
                          fmt: str | None = None) -> WitnessCertificate:
    """Check an externally supplied witness graph against its claim.

    The clique number is checked exactly (a too-large clique refutes the
    claim with the clique as evidence), then arrowing is decided within
    budget.
    """
    sig = as_signature(sig)
    if not folkman_exists(sig, q):
        raise ValueError(f"F({sig};{q}) does not exist: q must exceed {sig.p}")
    return _check(read_graph_file(path, fmt), sig, q, f"external file {path}", budget)[0]


_CERT_HEADER = "folkman-witness v1"
_CERT_FIELDS = ("graph6", "signature", "q", "vertices", "status", "construction",
                "free-coloring", "clique")  # every key `format_certificate` can write


def certificate_fields(cert: WitnessCertificate) -> dict:
    """A certificate's fields in text-record order; the evidence fields
    appear only when present."""
    fields = {
        "graph6": serialize_graph6(cert.graph),
        "signature": list(cert.signature.parts),
        "q": cert.q,
        "vertices": cert.vertices,
        "status": cert.status,
        "construction": cert.construction,
    }
    if cert.free_coloring is not None:
        fields["free_coloring"] = list(cert.free_coloring)
    if cert.clique is not None:
        fields["clique"] = list(cert.clique)
    return fields


def format_certificate(cert: WitnessCertificate) -> str:
    """Render a certificate as a machine-parseable text record."""
    lines = [_CERT_HEADER]
    for key, value in certificate_fields(cert).items():
        if isinstance(value, list):
            value = ",".join(str(x) for x in value)
        lines.append(f"{key.replace('_', '-')}: {value}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> WitnessCertificate:
    number = partial(_field_integer, "certificate")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _CERT_HEADER:
        raise ValueError(f"certificate must start with {_CERT_HEADER!r}")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        key, sep, value = ln.partition(":")
        if not sep:
            raise ValueError(f"malformed certificate line {ln!r}")
        key = key.strip()
        if key not in _CERT_FIELDS:  # a misspelt evidence field would go unchecked
            raise ValueError(f"unknown certificate field {key!r}")
        if key in fields:  # a later copy must not overwrite a field
            raise ValueError(f"certificate repeats field {key!r}")
        fields[key] = value.strip()
    for required in ("graph6", "signature", "q", "status", "construction"):
        if required not in fields:
            raise ValueError(f"certificate missing field {required!r}")
    graph = parse_graph6(fields["graph6"])
    sig = as_signature(number("signature", t) for t in fields["signature"].split(","))
    q = number("q", fields["q"])
    if not folkman_exists(sig, q):
        raise ValueError(f"certificate field 'q' must exceed {sig.p}, got {q}")
    status = fields["status"]
    if status not in (VERIFIED, UNVERIFIED, REFUTED):
        raise ValueError(f"unknown certificate status {status!r}")
    if "vertices" in fields and number("vertices", fields["vertices"]) != graph.n:
        raise ValueError(f"certificate says {fields['vertices']} vertices, graph has {graph.n}")
    # An empty list is the 0-vertex graph's free coloring.
    evidence = {key: tuple(number(key, t) for t in fields[key].split(",")) if fields[key] else ()
                for key in ("free-coloring", "clique") if key in fields}
    if evidence and status != REFUTED:
        raise ValueError(f"status {status!r} cannot carry {' and '.join(evidence)} evidence")
    free_coloring, clique = evidence.get("free-coloring"), evidence.get("clique")
    if free_coloring is not None:
        if len(free_coloring) != graph.n or not all(0 <= c < sig.r for c in free_coloring):
            raise ValueError(f"free coloring must give each of {graph.n} vertices "
                             f"one of {sig.r} colors")
        if not _is_free_coloring(graph, sig.parts, free_coloring):
            raise ValueError("free coloring has a monochromatic forbidden clique")
    if clique is not None:
        if len(set(clique)) != len(clique) or not all(0 <= v < graph.n for v in clique):
            raise ValueError(f"clique vertices must be distinct and below {graph.n}")
        # A clique by definition: each listed vertex is adjacent to every other one.
        members = sum(1 << v for v in clique)
        if len(clique) < q or any(members & ~graph.adj[v] != 1 << v for v in clique):
            raise ValueError(f"certificate field 'clique' is not a clique of at least {q} vertices")
    return WitnessCertificate(graph, sig, q, status, fields["construction"], free_coloring, clique)
