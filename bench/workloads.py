"""The four benchmark workloads: their inputs, one pass over them, and the
checks of every output a pass returns.

Constructing a workload is its set-up: it builds the inputs from the seed
and writes any input files into `workdir`.  `run_pass`
makes every call into the program through the recorder, which times it;
`check` runs afterwards, outside the timed region, and returns the number of
outputs checked and a description of each one that was wrong.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path

from folkman import (ARROWS, FREE, REFUTED, VERIFIED, base_witness, best_bounds,
                     check_recurrences, closed_form_upper_3p, closed_form_upper_22p,
                     complement, complete, compose_witness, cycle, default_table,
                     find_free_coloring, format_certificate, from_edges,
                     load_external_witness, normalize, parse_certificate, parse_edge_list,
                     parse_graph6, serialize_edge_list, serialize_graph6)
from folkman import join as graph_join

import oracle

# q = m witnesses join(K_{m-p-1}, co-C_{2p+1}) of the paper's stock family.
WITNESS_SIGNATURES = [(3, 3, 4), (4, 4, 4), (3, 3, 5), (4, 4, 5), (5, 8), (6, 9)]
# The Mycielskian of the Groetzsch graph: 23 vertices, triangle-free, 5-chromatic.
MYCIELSKI_SIGNATURE = (2, 2, 2, 2)

BOUNDS_MAX_M = 30
RECURRENCE_P_MAX = 60
CODEC_GRAPHS = 24
SCREEN_FILES = 24
SCREEN_CLAIMS = [((3, 4), 5), ((2, 2, 4), 5), ((2, 2, 3), 4), ((4, 5), 6)]
# (signature, q) of the verified base certificates the certify pass composes.
COMPOSE_BASES = [((3, 3), 5), ((2, 2, 2), 4), ((4, 4), 7)]
# Larger self-joins stall in max_clique (see README.md), so composites stop here.
COMPOSE_MAX_VERTICES = 44


def _sig_label(parts) -> str:
    return "_".join(str(a) for a in parts)


@dataclass(frozen=True)
class CaseSpec:
    """One search instance: `parts` tested on the graph built for `graph_of`."""

    name: str
    graph_of: tuple[int, ...]
    parts: tuple[int, ...]
    expected: str


def search_case_specs() -> list[CaseSpec]:
    """Each arrowing instance, then the same graph with each distinct part
    raised by one.  Raising a part puts n below the Folkman number, so the
    raised instances are free."""
    out = []
    for parts in WITNESS_SIGNATURES + [MYCIELSKI_SIGNATURE]:
        label = "m4" if parts == MYCIELSKI_SIGNATURE else "w" + _sig_label(parts)
        out.append(CaseSpec(label, parts, parts, ARROWS))
        for a in sorted(set(parts)):
            raised = list(parts)
            raised[len(parts) - 1 - raised[::-1].index(a)] += 1
            raised = normalize(raised).parts
            out.append(CaseSpec(f"{label}-{_sig_label(raised)}", parts, raised, FREE))
    return out


def stock_witness(parts):
    sig = normalize(parts)
    return graph_join(complete(sig.m - sig.p - 1), complement(cycle(2 * sig.p + 1)))


def mycielskian(g):
    n = g.n
    edges = []
    for u, v in g.edges():
        edges += [(u, v), (u, n + v), (v, n + u)]
    edges += [(n + i, 2 * n) for i in range(n)]
    return from_edges(2 * n + 1, edges)


def random_graph(rng: random.Random, n: int, density: float):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < density])


class Search:
    """find_free_coloring at jobs=1 over the witnesses and their free neighbours."""

    name = "search"
    jobs = 1
    spawns_children = False

    def __init__(self, seed: int, workdir: Path):
        graphs = {}
        for parts in WITNESS_SIGNATURES:
            graphs[parts] = stock_witness(parts)
        graphs[MYCIELSKI_SIGNATURE] = mycielskian(mycielskian(cycle(5)))
        self.cases = [(spec, graphs[spec.graph_of]) for spec in search_case_specs()]
        self.live_children: list[int] = []

    def run_pass(self, rec) -> list:
        out = []
        for spec, graph in self.cases:
            res = rec.call("find_free_coloring", spec.name, find_free_coloring,
                           graph, spec.parts, jobs=self.jobs)
            if rec.traced and self.jobs > 1:
                self.live_children.append(len(multiprocessing.active_children()))
            out.append((spec, graph, res))
        return out

    def check(self, outputs) -> tuple[int, list[str]]:
        fails = []
        for spec, graph, res in outputs:
            if res.verdict != spec.expected:
                fails.append(f"{spec.name}: verdict {res.verdict}, expected {spec.expected}")
            elif res.verdict == FREE and not oracle.is_free_coloring(graph, spec.parts, res.coloring):
                fails.append(f"{spec.name}: returned colouring is not free")
        return len(outputs), fails

    def counts(self, outputs) -> dict[str, float]:
        out = {f"arrowing.nodes.{spec.name}": res.nodes for spec, _g, res in outputs}
        out["arrowing.nodes"] = sum(res.nodes for _s, _g, res in outputs)
        return out


class Parallel(Search):
    """The search inputs at jobs=2: the only workload that runs the process pool."""

    name = "parallel"
    jobs = 2
    spawns_children = True


def bound_sweep() -> list[tuple[tuple[int, ...], int]]:
    """Every signature with r <= 3 and m <= 30, at every q from p+1 to m+1."""
    calls = []
    for r in (1, 2, 3):
        for parts in combinations_with_replacement(range(2, BOUNDS_MAX_M + 1), r):
            m = 1 + sum(a - 1 for a in parts)
            if m <= BOUNDS_MAX_M:
                calls.extend((parts, q) for q in range(parts[-1] + 1, m + 2))
    return calls


def bound_error(parts, q, rec) -> str | None:
    """Compare a bound record with the rules and closed forms it must obey."""
    m, p = 1 + sum(a - 1 for a in parts), parts[-1]
    if rec.signature.parts != parts or rec.q != q:
        return "record is for another instance"
    if q > m and (rec.lower, rec.upper) != (m, m):
        return f"q > m must give exactly m={m}"
    if q == m and (rec.lower, rec.upper) != (m + p, m + p):
        return f"q = m must give exactly m+p={m + p}"
    if q == m - 1 and not (rec.lower >= m + p + 2 and rec.upper <= m + 3 * p):
        return f"q = m-1 must lie within [{m + p + 2}, {m + 3 * p}]"
    if p >= 4 and q == p + 1 and parts[:-1] in ((3,), (2, 2)):
        closed = closed_form_upper_3p(p) if parts[:-1] == (3,) else closed_form_upper_22p(p)
        if rec.upper != closed:
            return f"upper {rec.upper} differs from the closed form {closed}"
    return None


def _same_certificate(a, b) -> bool:
    # The text format carries no node count, so `nodes` is not compared.
    return (a.graph == b.graph and a.signature == b.signature and a.q == b.q
            and a.status == b.status and a.construction == b.construction
            and a.free_coloring == b.free_coloring and a.clique == b.clique)


class Certify:
    """Every layer but the search: bounds, recurrences, codecs, certificates, screening."""

    name = "certify"
    spawns_children = False

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.table = default_table()
        self.bound_calls = bound_sweep()
        # One density from each of CODEC_GRAPHS equal slices of [0.05, 0.95], so
        # that the amount of work, unlike the graphs, is nearly the same for every seed.
        self.corpus = [random_graph(rng, 64, 0.05 + 0.9 * (i + rng.random()) / CODEC_GRAPHS)
                       for i in range(CODEC_GRAPHS)]
        self.bases = [base_witness(sig, q) for sig, q in COMPOSE_BASES]
        # A refuted certificate that carries a free colouring, for the round trips.
        workdir.mkdir(parents=True, exist_ok=True)
        free_path = workdir / "w3_3_4.g6"
        free_path.write_text(serialize_graph6(stock_witness((3, 3, 4))), encoding="utf-8")
        self.free_cert = load_external_witness(str(free_path), (3, 3, 5), 8)
        self.screens = []
        for i in range(SCREEN_FILES):
            graph = random_graph(rng, 64, 0.70)
            if i % 2:
                path, text = workdir / f"screen{i}.el", serialize_edge_list(graph)
            else:
                path, text = workdir / f"screen{i}.g6", serialize_graph6(graph)
            path.write_text(text, encoding="utf-8")
            sig, q = SCREEN_CLAIMS[i % len(SCREEN_CLAIMS)]
            self.screens.append((str(path), graph, sig, q))

    def run_pass(self, rec) -> list:
        out = []
        with rec.group("bounds"):
            for parts, q in self.bound_calls:
                out.append(("bound", parts, q,
                            rec.call("best_bounds", "", best_bounds, parts, q, self.table)))
            out.append(("recurrences", rec.call("check_recurrences", "", check_recurrences,
                                                RECURRENCE_P_MAX, self.table)))
        with rec.group("formats"):
            for g in self.corpus:
                g6 = rec.call("serialize_graph6", "", serialize_graph6, g)
                el = rec.call("serialize_edge_list", "", serialize_edge_list, g)
                out.append(("codec", g, g6, el, rec.call("parse_graph6", "", parse_graph6, g6),
                            rec.call("parse_edge_list", "", parse_edge_list, el)))
        certs = list(self.bases) + [self.free_cert]
        with rec.group("witnesses"):
            for base in self.bases:
                c = base
                position = base.signature.r - 1
                while 2 * c.vertices <= COMPOSE_MAX_VERTICES:
                    composed = rec.call("compose_witness", "", compose_witness, c, c, position)
                    out.append(("compose", c, composed))
                    certs.append(composed)
                    c = composed
            for path, graph, sig, q in self.screens:
                cert = rec.call("load_external_witness", "", load_external_witness, path, sig, q)
                out.append(("screen", graph, q, cert))
                certs.append(cert)
            for cert in certs:
                text = rec.call("format_certificate", "", format_certificate, cert)
                back = rec.call("parse_certificate", "", parse_certificate, text)
                out.append(("roundtrip", cert, text, back))
        return out

    def check(self, outputs) -> tuple[int, list[str]]:
        fails = []
        for kind, *rest in outputs:
            try:
                err = self._error(kind, rest)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                err = f"malformed output: {exc!r}"
            if err:
                fails.append(f"{kind}: {err}")
        return len(outputs), fails

    @staticmethod
    def _error(kind: str, rest: list) -> str | None:
        if kind == "bound":
            parts, q, rec = rest
            return bound_error(parts, q, rec)
        if kind == "recurrences":
            report = rest[0]
            expected = 2 * (RECURRENCE_P_MAX - 3) + 2 * (RECURRENCE_P_MAX - 7)
            if not report.ok or report.checks != expected:
                return f"{report.checks} checks, violations {report.violations[:3]}"
        elif kind == "codec":
            g, g6, el, from_g6, from_el = rest
            edges = sum(len(s) for s in oracle.neighbour_sets(g)) // 2
            if from_g6 != g or from_el != g:
                return "codec round trip changed the graph"
            if len(g6) != 4 + (64 * 63 // 2 + 5) // 6 or el.count("\n") != edges + 1:
                return "serialized size does not match the graph"
        elif kind == "compose":
            c, composed = rest
            parts = list(c.signature.parts)
            parts[-1] *= 2
            if (composed.status != VERIFIED or composed.graph.n != 2 * c.graph.n
                    or composed.signature.parts != tuple(sorted(parts))
                    or composed.q != 2 * c.q - 1):
                return f"composite of {c.signature} is wrong"
        elif kind == "screen":
            graph, q, cert = rest
            if (cert.status != REFUTED or cert.graph != graph or cert.clique is None
                    or len(cert.clique) < q or not oracle.is_clique(graph, cert.clique)):
                return "dense graph not refuted by a clique"
        elif kind == "roundtrip":
            cert, text, back = rest
            if not _same_certificate(cert, back) or format_certificate(back) != text:
                return f"certificate round trip differs for {cert.construction}"
        return None

    def counts(self, outputs) -> dict[str, float]:
        return {"formats.bytes": sum(len(o[2]) + len(o[3]) for o in outputs if o[0] == "codec")}


class Cli:
    """The README commands as subprocesses of `python -m folkman.cli --json`."""

    name = "cli"
    spawns_children = True

    def __init__(self, seed: int, workdir: Path, src: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        (workdir / "c5.g6").write_text(serialize_graph6(cycle(5)), encoding="utf-8")
        (workdir / "p4.el").write_text(serialize_edge_list(self.p4), encoding="utf-8")
        (workdir / "w3_3_4.g6").write_text(serialize_graph6(stock_witness((3, 3, 4))),
                                           encoding="utf-8")
        self.env = child_env(src)
        self.commands = [
            ("arrow-c5", ["arrow", "--graph", "c5.g6", "--sig", "2,2"], self._arrows),
            ("arrow-p4", ["arrow", "--graph", "p4.el", "--sig", "2,2"], self._free_p4),
            ("bound-3_9", ["bound", "--sig", "3,9", "--q", "10"], self._bound_3_9),
            ("bound-2_2_4", ["bound", "--sig", "2,2,4", "--q", "5"], self._bound_2_2_4),
            ("table", ["table", "--kind", "both", "--p", "4..40"], self._table),
            ("witness-3_3", ["witness", "--sig", "3,3", "--q", "5"], self._witness_3_3),
            ("verify-3_3_4", ["verify", "--graph", "w3_3_4.g6", "--sig", "3,3,4", "--q", "8"],
             self._verify_3_3_4),
        ]

    def _spawn(self, argv):
        try:
            return subprocess.run([sys.executable, "-m", "folkman.cli", *argv, "--json"],
                                  cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=60)
        except subprocess.TimeoutExpired:
            return None

    def run_pass(self, rec) -> list:
        return [(label, argv[0], check, rec.call("cli", label, self._spawn, argv))
                for label, argv, check in self.commands]

    @staticmethod
    def envelope(proc):
        if proc is None or proc.returncode != 0:
            return None
        try:
            env = json.loads(proc.stdout)
        except ValueError:
            return None
        if not isinstance(env, dict) or set(env) != {"command", "result", "seconds", "nodes"}:
            return None
        return env

    def check(self, outputs) -> tuple[int, list[str]]:
        fails = []
        for label, command, check, proc in outputs:
            env = self.envelope(proc)
            try:
                ok = env is not None and env["command"] == command and check(env["result"])
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                rc = None if proc is None else proc.returncode
                fails.append(f"{label}: exit {rc}, output {None if proc is None else proc.stdout[:200]!r}")
        return len(outputs), fails

    @staticmethod
    def _arrows(res) -> bool:
        return res["verdict"] == ARROWS and res["arrows"] is True

    def _free_p4(self, res) -> bool:
        coloring = [0] * 4
        for c, members in enumerate(res.get("free_coloring_classes", [])):
            for v in members:
                coloring[v] = c
        return (res["verdict"] == FREE and sum(map(len, res["free_coloring_classes"])) == 4
                and oracle.is_free_coloring(self.p4, (2, 2), coloring))

    @staticmethod
    def _bound_3_9(res) -> bool:
        # m = 11, p = 9, q = m - 1: the rule lower m+p+2 and the closed-form upper.
        return res["lower"] == 22 and res["upper"] == closed_form_upper_3p(9)

    @staticmethod
    def _bound_2_2_4(res) -> bool:
        return res["lower"] == res["upper"] == 13 and res["exact"] is True

    @staticmethod
    def _table(res) -> bool:
        rows = res["rows"]
        return [r["p"] for r in rows] == list(range(4, 41)) and all(
            r["cor1"] == closed_form_upper_3p(r["p"]) and r["cor2"] == closed_form_upper_22p(r["p"])
            and r["cor2_le_cor1"] == (r["cor2"] <= r["cor1"]) for r in rows)

    @staticmethod
    def _witness_3_3(res) -> bool:
        return res["status"] == VERIFIED and res["vertices"] == 8 and res["q"] == 5

    @staticmethod
    def _verify_3_3_4(res) -> bool:
        return res["status"] == VERIFIED and res["vertices"] == 12 and res["q"] == 8

    def counts(self, outputs) -> dict[str, float]:
        seconds = [env["seconds"] for env in (self.envelope(o[3]) for o in outputs) if env]
        return {"cli.handler_ms": statistics.median(seconds) * 1000} if seconds else {}


def child_env(src: Path) -> dict[str, str]:
    """Environment for a child interpreter: this checkout's sources first,
    and no user table override."""
    env = {k: v for k, v in os.environ.items() if k != "FOLKMAN_TABLE"}
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def build(name: str, seed: int, workdir: Path, src: Path):
    if name == "cli":
        return Cli(seed, workdir, src)
    return {"search": Search, "parallel": Parallel, "certify": Certify}[name](seed, workdir)
