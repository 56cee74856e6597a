"""Command-line surface: decide arrowing, compute bounds, print the
closed-form tables, build and verify witness certificates.

Every command supports --json with a schema-stable envelope
{command, result, seconds, nodes}.  Exit codes: 0 decided, 2 undecided
(budget exhausted), 1 usage or data error; a command line argparse rejects,
such as an unknown flag, is a usage error like any other.  On an error,
--json still prints the envelope, with result {"error": <message>}.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Sequence

# Only the parser's needs load here: each command imports the modules it runs.
from .signatures import Signature, normalize

if TYPE_CHECKING:
    from .bounds import BoundRecord, Rule
    from .witnesses import WitnessCertificate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2

# sorted(formats._CODECS), written out: `bound` and `table` load no `formats`.
_FORMATS = ("edge-list", "edges", "el", "g6", "graph6")

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code for undecided here, so
    its errors are raised for `main` to report like any other bad input.
    Flags are accepted only in full: `main` finds --json in argv by name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _parse_sig(text: str) -> Signature:
    try:
        raw = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"signature must be comma-separated integers, got {text!r}") from None
    sig = normalize(raw)
    if tuple(raw) != sig.parts:
        print(f"note: signature {text} normalized to {sig}", file=sys.stderr)
    return sig


def _parse_budget(value: int | None) -> int | None:
    """--budget for the engine: `arrowing.DEFAULT_BUDGET` if not given, None for 0."""
    if value is None:
        from .arrowing import DEFAULT_BUDGET
        return DEFAULT_BUDGET
    if value < 0:
        raise ValueError("budget must be >= 0 (0 means unlimited)")
    return None if value == 0 else value


def _parse_p_range(text: str) -> range:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise ValueError(f"--p expects N or LO..HI, got {text!r}") from None
    if lo < 4:
        raise ValueError("closed-form tables start at p = 4")
    if hi < lo:
        raise ValueError(f"empty p range {text!r}")
    return range(lo, hi + 1)


def _emit(args, command: str, result: dict, text_lines: list[str],
          seconds: float, nodes: int | None) -> None:
    if args.json:
        record = {"command": command, "result": result,
                  "seconds": round(seconds, 6), "nodes": nodes}
        print(json.dumps(record, indent=2))
    else:
        for line in text_lines:
            print(line)


def _provenance_json(rules: Sequence[Rule]) -> list[dict]:
    return [{"rule": r.name, "detail": r.detail, "children": _provenance_json(r.children)}
            for r in rules]


def _provenance_text(rules: Sequence[Rule], indent: str = "  ") -> list[str]:
    lines = []
    for r in rules:
        lines.append(f"{indent}{r.name}: {r.detail}")
        lines.extend(_provenance_text(r.children, indent + "  "))
    return lines


def _record_json(rec: BoundRecord) -> dict:
    return {
        "signature": list(rec.signature.parts),
        "q": rec.q,
        "lower": rec.lower,
        "upper": rec.upper,
        "exact": rec.exact,
        "note": rec.note,
        "provenance": _provenance_json(rec.provenance),
    }


def _cmd_arrow(args) -> int:
    from .arrowing import ARROWS, FREE, UNDECIDED, color_classes, find_free_coloring
    from .formats import read_graph_file
    graph = read_graph_file(args.graph, args.format)
    sig = _parse_sig(args.sig)
    started = time.perf_counter()
    result = find_free_coloring(graph, sig, budget=_parse_budget(args.budget))
    seconds = time.perf_counter() - started
    payload: dict = {"verdict": result.verdict,
                     "arrows": None if result.verdict == UNDECIDED else result.verdict == ARROWS,
                     "signature": list(sig.parts)}
    lines = []
    if result.verdict == ARROWS:
        lines.append("arrows: true")
    elif result.verdict == FREE:
        lines.append("arrows: false")
        classes = color_classes(result.coloring, max(sig.r, 1))
        payload["free_coloring_classes"] = classes
        for c, members in enumerate(classes, start=1):
            lines.append(f"class {c}: " + " ".join(str(v) for v in members))
    else:
        lines.append(f"undecided: budget exhausted after {result.nodes} nodes")
    _emit(args, "arrow", payload, lines, seconds, result.nodes)
    return EXIT_UNDECIDED if result.verdict == UNDECIDED else EXIT_OK


def _cmd_bound(args) -> int:
    from .bounds import best_bounds, default_table
    sig = _parse_sig(args.sig)
    table = default_table(extra_path=args.table)
    started = time.perf_counter()
    rec = best_bounds(sig, args.q, table)
    seconds = time.perf_counter() - started
    lines = []
    label = f"F({sig};{args.q})"
    if rec.exact:
        lines.append(f"{label} = {rec.lower} (exact)")
    elif rec.lower is None and rec.upper is None:
        lines.append(f"{label}: no bounds ({rec.note})")
    else:
        lines.append(f"{label}: lower {rec.lower if rec.lower is not None else '-'}"
                     f", upper {rec.upper if rec.upper is not None else '-'}")
    if rec.provenance:
        lines.append("provenance:")
        lines.extend(_provenance_text(rec.provenance))
    _emit(args, "bound", _record_json(rec), lines, seconds, None)
    return EXIT_OK


def _cmd_table(args) -> int:
    from .bounds import closed_form_upper_3p, closed_form_upper_22p
    ps = _parse_p_range(args.p)
    columns = ["cor1", "cor2", "cor2_le_cor1"] if args.kind == "both" else [args.kind]
    started = time.perf_counter()
    rows, lines = [], ["p " + " ".join(columns).replace("_le_", "<=")]
    for p in ps:
        cor1, cor2 = closed_form_upper_3p(p), closed_form_upper_22p(p)
        cells = {"cor1": cor1, "cor2": cor2, "cor2_le_cor1": cor2 <= cor1}
        row = {"p": p} | {c: cells[c] for c in columns}
        rows.append(row)
        lines.append(" ".join(json.dumps(v) for v in row.values()))  # true, not True
    seconds = time.perf_counter() - started
    _emit(args, "table", {"kind": args.kind, "rows": rows}, lines, seconds, None)
    return EXIT_OK


def _emit_certificate(args, command: str, cert: WitnessCertificate, seconds: float) -> int:
    from .witnesses import UNVERIFIED, certificate_fields, format_certificate
    lines = format_certificate(cert).rstrip("\n").splitlines()
    _emit(args, command, certificate_fields(cert), lines, seconds, cert.nodes)
    return EXIT_UNDECIDED if cert.status == UNVERIFIED else EXIT_OK


def _cmd_witness(args) -> int:
    from .witnesses import base_witness, format_certificate
    sig = _parse_sig(args.sig)
    started = time.perf_counter()
    cert = base_witness(sig, args.q)
    seconds = time.perf_counter() - started
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_certificate(cert))
        print(f"note: certificate written to {args.out}", file=sys.stderr)
    return _emit_certificate(args, "witness", cert, seconds)


def _cmd_verify(args) -> int:
    from .witnesses import load_external_witness
    sig = _parse_sig(args.sig)
    started = time.perf_counter()
    cert = load_external_witness(args.graph, sig, args.q, budget=_parse_budget(args.budget),
                                 fmt=args.format)
    return _emit_certificate(args, "verify", cert, time.perf_counter() - started)


# Every flag once, and one row per command: name, handler, help, flags in --help order.
_FLAGS = {
    "--graph": dict(required=True, help="graph file (.g6 or .el), or - for stdin"),
    "--sig": dict(required=True, help="comma-separated signature, e.g. 2,2"),
    "--q": dict(required=True, type=int),
    "--budget": dict(type=int, help="search-node budget (0 = unlimited; default 1e8)"),
    "--format": dict(choices=_FORMATS, help="override the format inferred from the extension"),
    "--table": dict(help="extra known-values file, added to the bundled table"),
    "--kind": dict(required=True, choices=["cor1", "cor2", "both"]),
    "--p": dict(required=True, help="p value or range, e.g. 8 or 4..12"),
    "--out": dict(help="write the certificate record to this file"),
    "--json": dict(action="store_true", help="emit a JSON record on stdout"),
}
_COMMANDS = (
    ("arrow", _cmd_arrow, "decide whether a graph arrows a signature",
     ("--graph", "--sig", "--budget", "--format")),
    ("bound", _cmd_bound, "best known bounds for F(sig; q)", ("--sig", "--q", "--table")),
    ("table", _cmd_table, "closed-form upper-bound tables", ("--kind", "--p")),
    ("witness", _cmd_witness, "construct and check a stock witness", ("--sig", "--q", "--out")),
    ("verify", _cmd_verify, "check an externally supplied witness graph",
     ("--graph", "--sig", "--q", "--budget", "--format")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="folkman", description=(
        "Vertex Folkman numbers: arrowing decisions, bounds, witness certificates."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, text, flags in _COMMANDS:
        command = sub.add_parser(name, help=text)
        for flag in (*flags, "--json"):
            command.add_argument(flag, **_FLAGS[flag])
        command.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A usage error leaves `args` as parsed so far: the command once argparse
    # accepts it, and --json as read from argv.
    args = argparse.Namespace(json="--json" in argv, command=None)
    started = time.perf_counter()
    try:
        build_parser().parse_args(argv, namespace=args)
        return args.handler(args)
    except BrokenPipeError:
        # The reader of stdout left early, as `| head` does: stop quietly.
        # stdout still holds what it could not write, so its descriptor is
        # pointed at the null device, where the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:  # a GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        _emit(args, args.command, {"error": str(exc)}, [], time.perf_counter() - started, None)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
