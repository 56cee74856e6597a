"""Witness certificates: concrete graphs whose verified membership in
H(a1,...,ar;q) proves an upper bound on F(a1,...,ar;q).

Construction families are treated as hypotheses: a certificate is only
marked verified after the arrowing engine has exhaustively confirmed it (or,
for joins of verified witnesses, by the composition law, which is sound
without a re-search).  Refutations carry concrete evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .arrowing import (ARROWS, DEFAULT_BUDGET, FREE, SearchResult, color_classes,
                       find_free_coloring)
from .bounds import KnownTable, KnownValue, folkman_exists
from .formats import parse_graph6, read_graph_file, serialize_graph6
from .graphs import (Graph, clique_number, complement, complete, cycle, has_clique, join,
                     max_clique)
from .signatures import Signature, as_signature, merge_at

VERIFIED = "verified"
UNVERIFIED = "unverified"
REFUTED = "refuted"

# Exhaustive q = m verification is attempted only when the pruned search is
# plausible at desk scale; larger instances stay unverified.
_VERIFY_VERTEX_CAP = {1: 24, 2: 24, 3: 15}
_VERIFY_VERTEX_CAP_DEFAULT = 12


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


def _certify(graph: Graph, sig: Signature, q: int, construction: str,
             result: SearchResult) -> WitnessCertificate:
    if result.verdict == ARROWS:
        return WitnessCertificate(graph, sig, q, VERIFIED, construction, nodes=result.nodes)
    if result.verdict == FREE:
        return WitnessCertificate(graph, sig, q, REFUTED, construction,
                                  free_coloring=result.coloring, nodes=result.nodes)
    return WitnessCertificate(graph, sig, q, UNVERIFIED, construction, nodes=result.nodes)


def base_witness(sig: Signature | Iterable[int], q: int,
                 budget: int | None = DEFAULT_BUDGET, jobs: int = 1) -> WitnessCertificate:
    """Construct and check the stock witness for (sig, q).

    For q > m the complete graph K_m is a witness outright: coloring its m
    vertices with caps summing to m-1 must overload some class, and its
    clique number m stays below q.  For q = m the candidate is
    join(K_{m-p-1}, complement(C_{2p+1})) on m+p vertices with clique number
    m-1; it is never trusted, only certified after the engine confirms it
    exhaustively (unverified when that search is implausible or runs out of
    budget).  No construction is known for q < m.
    """
    sig = as_signature(sig)
    if sig.is_empty:
        raise ValueError("no witness family for the empty signature")
    if not folkman_exists(sig, q):
        raise ValueError(f"F({sig};{q}) does not exist: q must exceed {sig.p}")
    m, p = sig.m, sig.p
    if q > m:
        graph = complete(m)
        return WitnessCertificate(graph, sig, q, VERIFIED, f"complete({m})")
    if q == m:
        graph = join(complete(m - p - 1), complement(cycle(2 * p + 1)))
        construction = f"join(complete({m - p - 1}), complement(cycle({2 * p + 1})))"
        cl = clique_number(graph)
        if cl >= q:
            return WitnessCertificate(graph, sig, q, REFUTED, construction,
                                      clique=tuple(max_clique(graph)))
        cap = _VERIFY_VERTEX_CAP.get(sig.r, _VERIFY_VERTEX_CAP_DEFAULT)
        if graph.n > cap:
            return WitnessCertificate(graph, sig, q, UNVERIFIED, construction)
        result = find_free_coloring(graph, sig, budget=budget, jobs=jobs)
        return _certify(graph, sig, q, construction, result)
    raise ValueError(f"no base construction known for q={q} < m={m}")


def compose_witness(c1: WitnessCertificate, c2: WitnessCertificate, position: int,
                    verify: bool = False, budget: int | None = DEFAULT_BUDGET,
                    jobs: int = 1) -> WitnessCertificate:
    """Join two verified witnesses into one for the merged signature.

    The signatures must agree everywhere except (possibly) at `position`;
    the join witnesses the signature carrying the sum of the two caps
    there, at clique cap cl(g1) + cl(g2) + 1.  Soundness comes from the
    composition law, so no re-search is needed; with verify=True the engine
    re-checks exhaustively and a refutation is raised as an engine bug.
    """
    for c in (c1, c2):
        if c.status != VERIFIED:
            raise ValueError(f"can only compose verified certificates, got {c.status}")
    merged = merge_at(c1.signature, c2.signature, position)
    graph = join(c1.graph, c2.graph)
    q = clique_number(graph) + 1
    if not folkman_exists(merged, q):
        raise ValueError(f"composed clique cap {q} does not exceed max part {merged.p}")
    construction = f"compose[{c1.construction} | {c2.construction}]"
    if not verify:
        return WitnessCertificate(graph, merged, q, VERIFIED, construction)
    result = find_free_coloring(graph, merged, budget=budget, jobs=jobs)
    if result.verdict == FREE:
        raise RuntimeError(
            f"composition of verified witnesses was refuted for {merged}: "
            "this indicates a bug in the arrowing engine")
    suffix = "; recheck: exhaustive" if result.verdict == ARROWS else "; recheck: budget exhausted"
    return WitnessCertificate(graph, merged, q, VERIFIED, construction + suffix,
                              nodes=result.nodes)


def load_external_witness(path: str, sig: Signature | Iterable[int], q: int,
                          budget: int | None = DEFAULT_BUDGET, fmt: str | None = None,
                          jobs: int = 1, table: KnownTable | None = None) -> WitnessCertificate:
    """Check an externally supplied witness graph against its claim.

    The clique number is checked exactly (a too-large clique refutes the
    claim with the clique as evidence), then arrowing is decided within
    budget.  A verified witness is registered in `table` when one is given,
    cited as coming from the file.
    """
    sig = as_signature(sig)
    if sig.is_empty:
        raise ValueError("external witnesses need a nonempty signature")
    if q < 1:
        raise ValueError("clique cap q must be >= 1")
    graph = read_graph_file(path, fmt)
    construction = f"external file {path}"
    if clique_number(graph) >= q:
        return WitnessCertificate(graph, sig, q, REFUTED, construction,
                                  clique=tuple(max_clique(graph)))
    result = find_free_coloring(graph, sig, budget=budget, jobs=jobs)
    cert = _certify(graph, sig, q, construction, result)
    if cert.status == VERIFIED and table is not None:
        table.add(KnownValue(sig, q, None, graph.n, citation=construction))
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
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != _CERT_HEADER:
        raise ValueError(f"certificate must start with {_CERT_HEADER!r}")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        key, sep, value = ln.partition(":")
        if not sep:
            raise ValueError(f"malformed certificate line {ln!r}")
        fields[key.strip()] = value.strip()
    for required in ("graph6", "signature", "q", "status", "construction"):
        if required not in fields:
            raise ValueError(f"certificate missing field {required!r}")
    graph = parse_graph6(fields["graph6"])
    sig = as_signature(int(t) for t in fields["signature"].split(","))
    status = fields["status"]
    if status not in (VERIFIED, UNVERIFIED, REFUTED):
        raise ValueError(f"unknown certificate status {status!r}")
    if "vertices" in fields and int(fields["vertices"]) != graph.n:
        raise ValueError(f"certificate says {fields['vertices']} vertices, graph has {graph.n}")
    free_coloring = None
    if "free-coloring" in fields:
        free_coloring = tuple(int(t) for t in fields["free-coloring"].split(","))
        if len(free_coloring) != graph.n or not all(0 <= c < sig.r for c in free_coloring):
            raise ValueError(f"free coloring must give each of {graph.n} vertices "
                             f"one of {sig.r} colors")
        if any(has_clique(graph, members, cap)
               for members, cap in zip(color_classes(free_coloring, sig.r), sig.parts)):
            raise ValueError("free coloring has a monochromatic forbidden clique")
    clique = None
    if "clique" in fields:
        clique = tuple(int(t) for t in fields["clique"].split(","))
        if len(set(clique)) != len(clique) or not all(0 <= v < graph.n for v in clique):
            raise ValueError(f"clique vertices must be distinct and below {graph.n}")
        if not has_clique(graph, clique, len(clique)):
            raise ValueError("clique evidence is not a clique")
    return WitnessCertificate(graph, sig, int(fields["q"]), status,
                              fields["construction"], free_coloring, clique)
