"""Graph serialization: graph6 strings and a plain edge-list format.

graph6 is the standard dense ASCII encoding (printable bytes 63..126, no
header line).  The edge-list format is a header line ``n <count>`` followed
by one ``u v`` pair per line; blank lines and ``#`` comments are tolerated
on input.

Each decoder reads its text once, straight into adjacency rows, and checks
only the text, naming line and offset; `Graph` alone checks the rows.
`_CODECS` maps every format name to its codec.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .graphs import MAX_VERTICES, Graph

FORMAT_GRAPH6 = "graph6"
FORMAT_EDGE_LIST = "edge-list"


class GraphFormatError(ValueError):
    """Malformed graph text; `line` and `offset` locate the problem when known."""

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        loc = ""
        if line is not None:
            loc += f" (line {line}"
            if offset is not None:
                loc += f", offset {offset}"
            loc += ")"
        super().__init__(message + loc)
        self.line = line
        self.offset = offset


def _g6_val(ch: str, offset: int) -> int:
    b = ord(ch)
    if not 63 <= b <= 126:
        raise GraphFormatError(f"byte {b!r} outside graph6 range 63..126", line=1, offset=offset)
    return b - 63


# The graph6 body lists the pairs (i, j), i < j, column by column, lowest i
# first, six to a byte, most significant bit first: column j is the low j bits
# of row j, lowest vertex first.  Both codecs hold the body as one integer whose
# bit t is its t-th bit, which is its string of binary digits reversed.
_G6_DIGITS = {b: format(b - 63, "06b") for b in range(63, 127)}
_G6_BYTES = {digits: chr(b) for b, digits in _G6_DIGITS.items()}


def serialize_graph6(g: Graph) -> str:
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0))
    body = start = 0
    for j, row in enumerate(g.adj):
        body |= (row & ((1 << j) - 1)) << start
        start += j
    width = (start + 5) // 6 * 6
    digits = format(body, f"0{width}b")[::-1]
    return head + "".join([_G6_BYTES[digits[k : k + 6]] for k in range(0, width, 6)])


def parse_graph6(text: str) -> Graph:
    s = text.strip().removeprefix(">>graph6<<")
    if not s:
        raise GraphFormatError("empty graph6 string", line=1)
    if s.startswith(":"):
        raise GraphFormatError("sparse6 strings are not supported, expected dense graph6", line=1)
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise GraphFormatError("graph6 long-long vertex counts exceed the width cap", line=1)
        if len(s) < 4:
            raise GraphFormatError("truncated graph6 vertex count", line=1)
        n, pos = _g6_val(s[1], 1) << 12 | _g6_val(s[2], 2) << 6 | _g6_val(s[3], 3), 4
    else:
        n, pos = _g6_val(s[0], 0), 1
    if n > MAX_VERTICES:
        raise GraphFormatError(f"graph on {n} vertices exceeds the width cap {MAX_VERTICES}", line=1)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = s[pos:]
    if len(body) < nchars:
        raise GraphFormatError(
            f"graph6 body too short: need {nchars} bytes for {n} vertices, got {len(body)}", line=1
        )
    if len(body) > nchars:
        raise GraphFormatError(
            f"trailing junk after graph6 body ({len(body) - nchars} extra bytes)",
            line=1,
            offset=pos + nchars,
        )
    digits = body.translate(_G6_DIGITS)
    if len(digits) != 6 * nchars:  # a byte outside the range is left as one character
        for k, ch in enumerate(body):
            _g6_val(ch, pos + k)
    bits = int(digits[::-1] or "0", 2)
    if bits >> nbits:
        raise GraphFormatError("nonzero padding bits in graph6 body", line=1)
    rows = [0] * n
    for j in range(1, n):
        column = rows[j] = bits & ((1 << j) - 1)
        bits >>= j
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= 1 << j
            column ^= low
    return Graph(n, tuple(rows))


def serialize_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    n = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "n" or len(tokens) != 2:
                raise GraphFormatError(f"expected header 'n <count>', got {raw!r}", line=lineno)
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"vertex count {tokens[1]!r} is not an integer", line=lineno)
            if n < 0:
                raise GraphFormatError(f"negative vertex count {n}", line=lineno)
            if n > MAX_VERTICES:
                raise GraphFormatError(f"vertex count {n} exceeds the width cap {MAX_VERTICES}", line=lineno)
            rows = [0] * n
            continue
        if len(tokens) != 2:
            raise GraphFormatError(f"expected 'u v' edge pair, got {raw!r}", line=lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex in {raw!r}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex out of range 0..{n - 1} in edge ({u}, {v})", line=lineno)
        if u == v:
            raise GraphFormatError(f"loop at vertex {u} not allowed", line=lineno)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    if n is None:
        raise GraphFormatError("missing 'n <count>' header line")
    return Graph(n, tuple(rows))


class _Codec(NamedTuple):
    name: str
    parse: Callable[[str], Graph]
    serialize: Callable[[Graph], str]


_GRAPH6 = _Codec(FORMAT_GRAPH6, parse_graph6, serialize_graph6)
_EDGE_LIST = _Codec(FORMAT_EDGE_LIST, parse_edge_list, serialize_edge_list)

# Every name a format goes by; each but "edge-list" is also a file extension.
_CODECS = {"g6": _GRAPH6, "graph6": _GRAPH6, "el": _EDGE_LIST, "edges": _EDGE_LIST,
           "edge-list": _EDGE_LIST}


def _codec(fmt: str) -> _Codec:
    try:
        return _CODECS[fmt]
    except KeyError:
        raise ValueError(f"unknown graph format {fmt!r}") from None


def serialize_graph(g: Graph, fmt: str) -> str:
    return _codec(fmt).serialize(g)


def parse_graph(text: str, fmt: str) -> Graph:
    return _codec(fmt).parse(text)


def format_for_path(path: str) -> str | None:
    """Guess the format from a file extension, or None if unknown."""
    ext = Path(path).suffix.lower()[1:]
    return _CODECS[ext].name if ext in _CODECS and ext != "edge-list" else None


def read_graph_file(path: str, fmt: str | None = None) -> Graph:
    """Read a graph from a file, or from standard input when path is '-'.
    `fmt` is any name in `_CODECS`; by default the file's extension names it."""
    if path == "-":
        if fmt is None:
            raise ValueError("reading from stdin requires an explicit format")
        text = sys.stdin.read()
    else:
        if fmt is None:
            fmt = format_for_path(path)
            if fmt is None:
                raise ValueError(f"cannot infer graph format from {path!r}; pass one explicitly")
        text = Path(path).read_text(encoding="utf-8")
    return parse_graph(text, fmt)
