"""Witness certificates: concrete graphs whose verified membership in
H(a1,...,ar;q) proves an upper bound on F(a1,...,ar;q).

Construction families are treated as hypotheses: a certificate is only
marked verified after the arrowing engine has exhaustively confirmed it (or,
for joins of witnesses the engine rechecks, by the composition law, which
is sound without searching the join).  Refutations carry concrete evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .arrowing import ARROWS, DEFAULT_BUDGET, FREE, color_classes, find_free_coloring
from .formats import parse_graph6, read_graph_file, serialize_graph6
from .graphs import (Graph, _co_components, _max_clique_mask, clique_number, complement,
                     complete, cycle, has_clique, join, max_clique)
from .signatures import Signature, as_signature, folkman_exists, merge_at

if TYPE_CHECKING:
    from .bounds import KnownTable

VERIFIED = "verified"
UNVERIFIED = "unverified"
REFUTED = "refuted"


@dataclass(frozen=True)
class WitnessCertificate:
    """A graph, the claim it witnesses, and how the claim was checked.

    A verified certificate on n vertices proves F(signature; q) <= n.
    """

    graph: Graph
    signature: Signature
    q: int
    status: str
    construction: str
    free_coloring: tuple[int, ...] | None = None
    clique: tuple[int, ...] | None = None
    nodes: int = 0

    @property
    def vertices(self) -> int:
        return self.graph.n

    @property
    def proves_upper(self) -> int | None:
        return self.graph.n if self.status == VERIFIED else None


def _check(graph: Graph, sig: Signature, q: int, construction: str,
           budget: int | None) -> WitnessCertificate:
    """Decide the claim graph in H(sig; q): a clique of q vertices refutes it
    outright, else the engine decides arrowing within budget."""
    clique = max_clique(graph)
    if len(clique) >= q:
        return WitnessCertificate(graph, sig, q, REFUTED, construction, clique=tuple(clique))
    result = find_free_coloring(graph, sig, budget=budget)
    status = {ARROWS: VERIFIED, FREE: REFUTED}.get(result.verdict, UNVERIFIED)
    return WitnessCertificate(graph, sig, q, status, construction,
                              free_coloring=result.coloring, nodes=result.nodes)


def base_witness(sig: Signature | Iterable[int], q: int) -> WitnessCertificate:
    """Construct and check the stock witness for (sig, q).

    For q > m the complete graph K_m is a witness outright: coloring its m
    vertices with caps summing to m-1 must overload some class, and its
    clique number m stays below q.  For q = m the candidate is
    join(K_{m-p-1}, complement(C_{2p+1})) on m+p vertices with clique number
    m-1; it is never trusted, only certified after the engine confirms it.
    The engine decides its co-C_{2p+1} part by the rule in `arrowing`, at no
    node, so no budget is needed.  No construction is known for q < m.
    """
    sig = as_signature(sig)
    if sig.is_empty:
        raise ValueError("no witness family for the empty signature")
    if not folkman_exists(sig, q):
        raise ValueError(f"F({sig};{q}) does not exist: q must exceed {sig.p}")
    m, p = sig.m, sig.p
    if q > m:
        return WitnessCertificate(complete(m), sig, q, VERIFIED, f"complete({m})")
    if q < m:
        raise ValueError(f"no base construction known for q={q} < m={m}")
    graph = join(complete(m - p - 1), complement(cycle(2 * p + 1)))
    construction = f"join(complete({m - p - 1}), complement(cycle({2 * p + 1})))"
    return _check(graph, sig, q, construction, None)


def _recheck_operand(c: WitnessCertificate) -> int:
    """Recheck a "verified" operand's claim and return its clique number."""
    if c.status != VERIFIED:
        raise ValueError(f"can only compose verified certificates, got {c.status}")
    claim = f"the certificate for F({c.signature};{c.q}) ({c.construction})"
    omega = clique_number(c.graph)
    if omega >= c.q:
        raise ValueError(f"a {omega}-clique refutes {claim}")
    result = find_free_coloring(c.graph, c.signature)
    if result.verdict == FREE:
        raise ValueError(f"a free coloring refutes {claim}")
    if result.verdict != ARROWS:
        raise ValueError(f"{claim} is undecided after {result.nodes} nodes")
    return omega


def compose_witness(c1: WitnessCertificate, c2: WitnessCertificate,
                    position: int) -> WitnessCertificate:
    """Join two verified witnesses into one for the merged signature.

    The signatures must agree everywhere except (possibly) at `position`;
    the join witnesses the signature carrying the sum of the two caps
    there, at clique cap cl(g1) + cl(g2) + 1.  A "verified" status may come
    from a file, so each operand's claim is rechecked first, once for a
    self-join: an operand with a clique at its own cap q, or one the engine
    does not find arrowing its signature within DEFAULT_BUDGET, is rejected.
    The join itself rests on the composition law
    (`verify_composition_instance` is its engine check).
    """
    omega1 = _recheck_operand(c1)
    q = omega1 + (omega1 if c2 is c1 else _recheck_operand(c2)) + 1
    merged = merge_at(c1.signature, c2.signature, position)
    if not folkman_exists(merged, q):
        raise ValueError(f"composed clique cap {q} does not exceed max part {merged.p}")
    construction = f"compose[{c1.construction} | {c2.construction}]"
    return WitnessCertificate(join(c1.graph, c2.graph), merged, q, VERIFIED, construction)


def load_external_witness(path: str, sig: Signature | Iterable[int], q: int,
                          budget: int | None = DEFAULT_BUDGET, fmt: str | None = None,
                          table: KnownTable | None = None) -> WitnessCertificate:
    """Check an externally supplied witness graph against its claim.

    The clique number is checked exactly (a too-large clique refutes the
    claim with the clique as evidence), then arrowing is decided within
    budget.  A verified witness is registered in `table` when one is given,
    cited as coming from the file.
    """
    sig = as_signature(sig)
    if sig.is_empty:
        raise ValueError("external witnesses need a nonempty signature")
    if not folkman_exists(sig, q):
        raise ValueError(f"F({sig};{q}) does not exist: q must exceed {sig.p}")
    graph = read_graph_file(path, fmt)
    cert = _check(graph, sig, q, f"external file {path}", budget)
    if cert.status == VERIFIED and table is not None:
        from .bounds import KnownValue
        table.add(KnownValue(sig, q, None, graph.n, citation=cert.construction))
    return cert


_CERT_HEADER = "folkman-witness v1"


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
    def number(key: str, value: str) -> int:
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"certificate field {key!r} expects integers, got {value!r}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _CERT_HEADER:
        raise ValueError(f"certificate must start with {_CERT_HEADER!r}")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        key, sep, value = ln.partition(":")
        if not sep:
            raise ValueError(f"malformed certificate line {ln!r}")
        key = key.strip()
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
    evidence = {key: tuple(number(key, t) for t in fields[key].split(","))
                for key in ("free-coloring", "clique") if key in fields}
    if evidence and status != REFUTED:
        raise ValueError(f"status {status!r} cannot carry {' and '.join(evidence)} evidence")
    free_coloring, clique = evidence.get("free-coloring"), evidence.get("clique")
    if free_coloring is not None:
        if len(free_coloring) != graph.n or not all(0 <= c < sig.r for c in free_coloring):
            raise ValueError(f"free coloring must give each of {graph.n} vertices "
                             f"one of {sig.r} colors")
        # A clique number by the greedy-coloring branch and bound: it shares no
        # code with the engine's clique check and is fast on large free classes.
        for members, cap in zip(color_classes(free_coloring, sig.r), sig.parts):
            mask = sum(1 << v for v in members)
            if _max_clique_mask(graph.adj, _co_components(graph.adj, mask)).bit_count() >= cap:
                raise ValueError("free coloring has a monochromatic forbidden clique")
    if clique is not None:
        if len(set(clique)) != len(clique) or not all(0 <= v < graph.n for v in clique):
            raise ValueError(f"clique vertices must be distinct and below {graph.n}")
        if len(clique) < q or not has_clique(graph, clique, len(clique)):
            raise ValueError(f"certificate field 'clique' is not a clique of at least {q} vertices")
    return WitnessCertificate(graph, sig, q, status, fields["construction"], free_coloring, clique)
