"""graph6 encoding and multigraph JSON interchange.

graph6 is the interchange format for simple graphs: the vertex count is one
byte (chr(n+63)) for n <= 62 or '~' plus three bytes for larger n, followed
by the upper-triangle adjacency bits in column-major order, packed in 6-bit
groups offset by 63.  Parse errors are reported with distinct exception
types so callers can tell a bad header from a truncated payload.

Multigraphs travel as JSON {"n": int, "adj": [[int]]} with a symmetric,
zero-diagonal multiplicity matrix.
"""
from __future__ import annotations

import json

from .graphs import MAX_VERTICES, GraphError, Multigraph, SimpleGraph


class Graph6Error(ValueError):
    """Base for graph6 parse failures."""


class Graph6HeaderError(Graph6Error):
    """Malformed or unsupported size header."""


class Graph6RangeError(Graph6Error):
    """A payload character is outside the printable range 63..126."""


class Graph6LengthError(Graph6Error):
    """Bit vector truncated or carrying trailing garbage."""


_PREFIX = ">>graph6<<"


def _sextets(chunk: str) -> list:
    vals = []
    for ch in chunk:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6RangeError(f"character {ch!r} outside graph6 range 63..126")
        vals.append(c - 63)
    return vals


def parse_graph6(line: str) -> SimpleGraph:
    """Decode one graph6 line into a SimpleGraph."""
    s = line.strip()
    if s.startswith(">>"):
        if not s.startswith(_PREFIX):
            raise Graph6HeaderError(f"unrecognized format prefix in {s[:12]!r}")
        s = s[len(_PREFIX):]
    if not s:
        raise Graph6HeaderError("empty graph6 string")

    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6HeaderError("8-byte graph6 sizes are not supported")
        if len(s) < 4:
            raise Graph6HeaderError("truncated multi-byte size header")
        a, b, c = _sextets(s[1:4])
        n = (a << 12) | (b << 6) | c
        body = s[4:]
    else:
        (n,) = _sextets(s[0])
        body = s[1:]
    if n > MAX_VERTICES:
        raise GraphError(f"graph6 declares {n} vertices, cap is {MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6LengthError(f"bit vector truncated: need {need} chars, got {len(body)}")
    if len(body) > need:
        raise Graph6LengthError(f"trailing characters after bit vector: {body[need:]!r}")

    vals = _sextets(body)
    pairs = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if vals[idx // 6] >> (5 - idx % 6) & 1:
                pairs.append((u, v))
            idx += 1
    # padding bits must be zero
    while idx < 6 * need:
        if vals[idx // 6] >> (5 - idx % 6) & 1:
            raise Graph6LengthError("nonzero padding bits in final group")
        idx += 1
    return SimpleGraph(n, pairs)


def write_graph6(g: Multigraph) -> str:
    """Encode a simple graph as one graph6 line."""
    if not g.is_simple:
        raise GraphError("graph6 cannot carry parallel edges; use multigraph JSON")
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    rows = g.rows
    out = []
    acc = 0
    fill = 0
    for v in range(1, n):
        for u in range(v):
            acc = acc << 1 | (rows[u] >> v & 1)
            fill += 1
            if fill == 6:
                out.append(chr(acc + 63))
                acc = fill = 0
    if fill:
        out.append(chr((acc << (6 - fill)) + 63))
    return head + "".join(out)


def load_multigraph_json(source) -> Multigraph:
    """Load a multigraph from a JSON string or already-parsed dict."""
    data = json.loads(source) if isinstance(source, str) else source
    try:
        n = data["n"]
        adj = data["adj"]
    except (TypeError, KeyError) as exc:
        raise GraphError("multigraph JSON needs keys 'n' and 'adj'") from exc
    if type(n) is not int:
        raise GraphError(f"'n' must be an integer, not {n!r}")
    if not (
        isinstance(adj, list)
        and all(isinstance(row, list) and all(type(x) is int for x in row) for row in adj)
    ):
        raise GraphError("'adj' must be a list of lists of integers")
    if len(adj) != n or any(len(row) != n for row in adj):
        raise GraphError(f"adjacency matrix must be {n}x{n}")
    pairs = []
    for u in range(n):
        if adj[u][u]:
            raise GraphError(f"nonzero diagonal at vertex {u}")
        for v in range(u + 1, n):
            if adj[u][v] != adj[v][u]:
                raise GraphError(f"asymmetric multiplicities at ({u},{v})")
            if adj[u][v] < 0:
                raise GraphError(f"negative multiplicity at ({u},{v})")
            pairs.extend([(u, v)] * adj[u][v])
    return Multigraph(n, pairs)


def dump_multigraph_json(g: Multigraph) -> str:
    adj = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        adj[u][v] += 1
        adj[v][u] += 1
    return json.dumps({"n": g.n, "adj": adj}, separators=(",", ":"))
