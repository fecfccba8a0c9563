"""Parsers and serializers: graph6, plain edge lists, DIMACS .col."""

from __future__ import annotations

import os

from .graph import Graph


class GraphParseError(ValueError):
    """Malformed graph input. Carries a byte offset or 1-based line number."""

    def __init__(self, message: str, *, offset: int | None = None, line: int | None = None):
        loc = ""
        if offset is not None:
            loc = f" (byte offset {offset})"
        elif line is not None:
            loc = f" (line {line})"
        super().__init__(message + loc)
        self.offset = offset
        self.line = line


_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6-encoded line into a Graph.

    Accepts the optional '>>graph6<<' prefix. Supports the 1-byte and
    3-byte order encodings (order up to 258047); larger orders are out
    of scope for this tool.
    """
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 input", offset=0)
    data = []
    for i, ch in enumerate(s):
        b = ord(ch)
        if not 63 <= b <= 126:
            raise GraphParseError(f"graph6 character {ch!r} out of range 63..126", offset=i)
        data.append(b - 63)
    pos = 0
    if data[0] <= 62:
        n = data[0]
        pos = 1
    else:
        if len(data) >= 2 and data[1] == 63:
            raise GraphParseError("graph6 orders above 258047 are not supported", offset=1)
        if len(data) < 4:
            raise GraphParseError("truncated graph6 order field", offset=len(s))
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphParseError(
            f"truncated graph6 bit vector: need {nbytes} bytes, found {len(data) - pos}",
            offset=len(s),
        )
    if len(data) - pos > nbytes:
        raise GraphParseError("trailing bytes after graph6 bit vector", offset=pos + nbytes)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[pos + k // 6]
            if byte >> (5 - k % 6) & 1:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a graph6 line (no header, no trailing newline)."""
    n = g.order
    if n > 258047:
        raise ValueError("graph6 orders above 258047 are not supported")
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    bits = 0
    acc = 0
    body = []
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (1 if g.has_edge(i, j) else 0)
            bits += 1
            if bits == 6:
                body.append(acc + 63)
                acc = 0
                bits = 0
    if bits:
        body.append((acc << (6 - bits)) + 63)
    return "".join(chr(b) for b in out + body)


def parse_edge_list(text: str) -> Graph:
    """Parse a plain edge list: one 'u v' pair per line, optional 'n=<k>' first line.

    Vertex ids are non-negative integers. Without the header the order is
    inferred as max id + 1, so trailing isolated vertices survive a round
    trip only when the header is present.
    """
    declared: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_vertex = -1
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if first_content and line.startswith("n="):
            try:
                declared = int(line[2:])
            except ValueError:
                raise GraphParseError(f"bad order header {line!r}", line=lineno) from None
            if declared < 0:
                raise GraphParseError(f"negative order {declared}", line=lineno)
            first_content = False
            continue
        first_content = False
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer vertex id in {line!r}", line=lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"negative vertex id in {line!r}", line=lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", line=lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphParseError(f"duplicate edge {key}", line=lineno)
        seen.add(key)
        if declared is not None and max(u, v) >= declared:
            raise GraphParseError(
                f"vertex {max(u, v)} out of range for declared order {declared}", line=lineno
            )
        edges.append(key)
        max_vertex = max(max_vertex, u, v)
    order = declared if declared is not None else max_vertex + 1
    return Graph(order, edges)


def to_edge_list(g: Graph) -> str:
    """Serialize as an edge list with an explicit 'n=' header."""
    lines = [f"n={g.order}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS .col format: 'p edge n m' then 'e u v' lines, 1-based vertices."""
    order: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if order is not None:
                raise GraphParseError("duplicate problem line", line=lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(f"expected 'p edge n m', got {line!r}", line=lineno)
            try:
                order = int(parts[2])
            except ValueError:
                raise GraphParseError(f"non-integer order in {line!r}", line=lineno) from None
            if order < 0:
                raise GraphParseError(f"negative order {order}", line=lineno)
        elif parts[0] == "e":
            if order is None:
                raise GraphParseError("edge line before problem line", line=lineno)
            if len(parts) != 3:
                raise GraphParseError(f"expected 'e u v', got {line!r}", line=lineno)
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise GraphParseError(f"non-integer vertex id in {line!r}", line=lineno) from None
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u + 1}", line=lineno)
            if not (0 <= u < order and 0 <= v < order):
                raise GraphParseError(
                    f"vertex out of range 1..{order} in {line!r}", line=lineno
                )
            edges.append((min(u, v), max(u, v)))
        else:
            raise GraphParseError(f"unknown line type {parts[0]!r}", line=lineno)
    if order is None:
        raise GraphParseError("missing problem line", line=1)
    # .col files in the wild list both directions; collapse duplicates
    return Graph(order, sorted(set(edges)))


def load_graph(path: str) -> Graph:
    """Read a graph file, dispatching on extension: .g6, .col, .txt."""
    ext = os.path.splitext(path)[1].lower()
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if ext == ".g6":
        return parse_graph6(text)
    if ext == ".col":
        return parse_dimacs(text)
    if ext == ".txt":
        return parse_edge_list(text)
    raise GraphParseError(f"unrecognized graph file extension {ext!r} (use .g6, .col or .txt)")
