"""Line graphs and their inversion through the Krausz partition.

A connected graph is the line graph of a triangle-free graph exactly when
it is claw-free and closed under the neighborhood closure (Ryjacek, JCTB
1997).  Its edges then split uniquely into cliques, one per root vertex of
degree two or more: the part through an edge uv is {u, v} with the common
neighbours of u and v.  Inversion reads those parts off the edges in one
pass, parts become root vertices, and each vertex of g lying in one part
grows a pendant root vertex.  The partition is validated and the root is
checked edge by edge against g.
"""
from __future__ import annotations

from dataclasses import dataclass

# unused here, but clawbench/tracing.py wraps linegraph.canonical_form
from .canon import canonical_form  # noqa: F401
from .clawfree import closure, first_claw
from .graphs import (
    GraphError,
    Multigraph,
    SimpleGraph,
    bits,
    is_connected,
    is_triangle_free,
)


class NotALineGraphError(GraphError):
    """The input admits no triangle-free root; carries a certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotClosedError(GraphError):
    """The input is claw-free but not closure-stable."""


@dataclass(frozen=True)
class KrauszPartition:
    cliques: tuple  # vertex masks, each inducing a clique, edges covered once
    membership: tuple  # membership[v] = tuple of clique indices containing v


@dataclass(frozen=True)
class RootResult:
    root: SimpleGraph
    vertex_to_edge: tuple  # vertex_to_edge[v] = edge id of the root
    partition: KrauszPartition


def line_graph(h: Multigraph):
    """Line graph of a simple graph; returns (graph, edge list of h)."""
    if not h.is_simple:
        raise GraphError("line graph of a multigraph is not supported")
    m = h.edge_count
    rows = [0] * m
    for inc in h.incidence:
        for i, (a, _) in enumerate(inc):
            for b, _ in inc[i + 1 :]:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return SimpleGraph.from_rows(tuple(rows)), h.edges


def validate_krausz(g: SimpleGraph, cliques) -> KrauszPartition:
    """Check the partition axioms and build the membership table."""
    cover = {}
    member = [[] for _ in range(g.n)]
    for idx, mask in enumerate(cliques):
        vs = tuple(bits(mask))
        for i, u in enumerate(vs):
            member[u].append(idx)
            for v in vs[i + 1 :]:
                if not g.has_edge(u, v):
                    raise GraphError(f"part {idx} is not a clique")
                if (u, v) in cover:
                    raise GraphError(f"edge ({u},{v}) covered twice")
                cover[(u, v)] = idx
    if len(cover) != g.edge_count:
        raise GraphError("partition does not cover every edge")
    for v in range(g.n):
        if len(member[v]) > 2:
            raise GraphError(f"vertex {v} lies in more than two parts")
    for i in range(len(cliques)):
        for j in range(i + 1, len(cliques)):
            if cliques[i] & cliques[j]:
                for k in range(j + 1, len(cliques)):
                    if cliques[j] & cliques[k] and cliques[i] & cliques[k]:
                        raise GraphError("three parts pairwise intersect")
    return KrauszPartition(tuple(cliques), tuple(tuple(ms) for ms in member))


def _root_from_partition(part: KrauszPartition):
    """Build the root whose edges are the partitioned graph's vertices: each
    part is a root vertex, and each end a vertex still lacks is a new one."""
    nxt = len(part.cliques)
    pairs = []
    for ms in part.membership:
        ends = list(ms)
        while len(ends) < 2:
            ends.append(nxt)
            nxt += 1
        pairs.append(tuple(ends))  # ascending: pendants come after the parts
    root = SimpleGraph(nxt, pairs)
    edge_id = {e: i for i, e in enumerate(root.edges)}
    return root, tuple(edge_id[p] for p in pairs)


def _check_line_correspondence(g: SimpleGraph, root: SimpleGraph, v2e) -> None:
    for u in range(g.n):
        au, bu = root.endpoints(v2e[u])
        for v in range(u + 1, g.n):
            av, bv = root.endpoints(v2e[v])
            share = len({au, bu} & {av, bv}) > 0
            if share != g.has_edge(u, v):
                raise GraphError("reconstructed root fails the line correspondence")


def _krausz_cliques(g: SimpleGraph) -> list:
    """The Krausz parts of g, read off its edges with no search.

    In L(H) with H triangle-free, the common neighbours of adjacent u, v are
    the other edges at the end that u and v share in H, so the part through
    uv is {u, v} with N(u) & N(v).  Edges are walked in order and each
    uncovered one opens its part.
    """
    rows = g.rows
    covered = set()
    cliques = []
    for u, v in g.edges:
        if (u, v) in covered:
            continue
        mask = (1 << u) | (1 << v) | (rows[u] & rows[v])
        vs = tuple(bits(mask))
        for i, a in enumerate(vs):
            for b in vs[i + 1 :]:
                if not rows[a] >> b & 1:
                    raise NotALineGraphError(f"part through ({u},{v}) is not a clique")
                if (a, b) in covered:
                    raise NotALineGraphError(f"edge ({a},{b}) lies in two parts")
                covered.add((a, b))
        cliques.append(mask)
    return cliques


def root_graph(g: SimpleGraph) -> RootResult:
    """Invert a connected closed claw-free graph to its triangle-free root.

    The Krausz partition is read off the edges (`_krausz_cliques`); for such
    a graph it is unique, and so is the root up to isomorphism.  The
    partition is validated and the root checked edge by edge against g.
    Raises NotALineGraphError with a claw certificate when no root exists,
    NotClosedError when the closure would add edges.
    """
    if not is_connected(g):
        raise GraphError("root reconstruction expects a connected graph")
    claw = first_claw(g)
    if claw is not None:
        raise NotALineGraphError("input contains an induced claw", certificate=claw)
    if closure(g) != g:
        raise NotClosedError("input is not closure-stable")
    part = validate_krausz(g, _krausz_cliques(g))
    root, v2e = _root_from_partition(part)
    if not is_triangle_free(root):
        raise GraphError("partition produced a root triangle")
    _check_line_correspondence(g, root, v2e)
    return RootResult(root, v2e, part)
