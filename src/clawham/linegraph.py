"""Line graphs and their inversion through edge-clique partitions.

A connected graph is the line graph of a triangle-free graph exactly when
it is claw-free and closed under the neighborhood closure.  Inversion runs
a backtracking search for a partition of the edge set into cliques such
that every vertex lies in at most two parts and no three parts pairwise
intersect; parts become root vertices, single-part vertices grow pendant
root vertices, and the root is triangle-free by the non-crossing
constraint.  Every partition found is verified edge by edge; the root
comes from the first one, and canonical forms are computed only to count
distinct roots.
"""
from __future__ import annotations

from dataclasses import dataclass

from .canon import canonical_form
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
    root_count: int | None  # distinct roots up to isomorphism, when counted


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


def _root_from_partition(g: SimpleGraph, cliques):
    """Build the triangle-free root whose edges are the vertices of g."""
    t = len(cliques)
    member = [[] for _ in range(g.n)]
    for idx, mask in enumerate(cliques):
        for v in bits(mask):
            member[v].append(idx)
    pairs = []
    next_pendant = t
    for v in range(g.n):
        ms = member[v]
        if len(ms) == 2:
            pairs.append((v, (ms[0], ms[1])))
        elif len(ms) == 1:
            pairs.append((v, (ms[0], next_pendant)))
            next_pendant += 1
        else:
            raise GraphError("vertex outside every part")
    root = SimpleGraph(next_pendant, [p for _, p in pairs])
    edge_id = {e: i for i, e in enumerate(root.edges)}
    v2e = [0] * g.n
    for v, p in pairs:
        v2e[v] = edge_id[tuple(sorted(p))]
    return root, tuple(v2e)


def _check_line_correspondence(g: SimpleGraph, root: SimpleGraph, v2e) -> None:
    for u in range(g.n):
        au, bu = root.endpoints(v2e[u])
        for v in range(u + 1, g.n):
            av, bv = root.endpoints(v2e[v])
            share = len({au, bu} & {av, bv}) > 0
            if share != g.has_edge(u, v):
                raise GraphError("reconstructed root fails the line correspondence")


def _partition_search(g: SimpleGraph, collect_all: bool):
    """Backtracking over edge-clique partitions; yields clique lists.

    State: chosen cliques, per-vertex part count, covered-edge set.  The
    branch vertex is the lowest endpoint of the first uncovered edge; the
    candidates are the cliques through that edge whose remaining vertices
    still have a free part slot and whose internal edges are uncovered.
    Crossing parts (three pairwise intersecting) are rejected as they
    appear, which is exactly the triangle-free condition on the root.
    """
    n = g.n
    rows = g.rows
    edges = g.edges
    m = len(edges)
    eid_of = {e: i for i, e in enumerate(edges)}
    covered = 0
    slots = [0] * n
    cliques = []
    inter = []  # inter[i] = mask of clique indices meeting clique i
    results = []

    def candidate_cliques(u, v):
        """All cliques containing edge uv made of slot-free common neighbors
        joined by uncovered edges, largest first."""
        if slots[u] > 1 or slots[v] > 1:
            return []
        base = (1 << u) | (1 << v)
        pool = [
            w
            for w in bits(rows[u] & rows[v])
            if slots[w] <= 1
            and not covered >> eid_of[tuple(sorted((u, w)))] & 1
            and not covered >> eid_of[tuple(sorted((v, w)))] & 1
        ]
        outs = []

        def grow(mask, cand):
            outs.append(mask)
            for i, w in enumerate(cand):
                ok = True
                for x in bits(mask & ~base):
                    e = (w, x) if w < x else (x, w)
                    if not rows[w] >> x & 1 or covered >> eid_of[e] & 1:
                        ok = False
                        break
                if ok:
                    grow(mask | (1 << w), cand[i + 1 :])

        grow(base, pool)
        outs.sort(key=lambda mk: (-mk.bit_count(), mk))
        return outs

    def place(mask):
        new_edges = 0
        vs = tuple(bits(mask))
        for i, a in enumerate(vs):
            for b in vs[i + 1 :]:
                new_edges |= 1 << eid_of[(a, b)]
        meet = 0
        for i, old in enumerate(cliques):
            if old & mask:
                meet |= 1 << i
        # no three parts pairwise intersecting
        for i in bits(meet):
            if inter[i] & meet:
                return None
        return new_edges, meet

    def search():
        nonlocal covered
        if covered == (1 << m) - 1:
            results.append(list(cliques))
            return not collect_all
        low = (~covered) & ((1 << m) - 1)
        eid = (low & -low).bit_length() - 1
        u, v = edges[eid]
        for mask in candidate_cliques(u, v):
            placed = place(mask)
            if placed is None:
                continue
            new_edges, meet = placed
            idx = len(cliques)
            cliques.append(mask)
            inter.append(meet)
            for i in bits(meet):
                inter[i] |= 1 << idx
            for w in bits(mask):
                slots[w] += 1
            covered |= new_edges
            if search():
                return True
            covered &= ~new_edges
            for w in bits(mask):
                slots[w] -= 1
            for i in bits(meet):
                inter[i] &= ~(1 << idx)
            inter.pop()
            cliques.pop()
        return False

    search()
    return results


def root_graph(g: SimpleGraph, count_roots: bool = False) -> RootResult:
    """Invert a connected closed claw-free graph to its triangle-free root.

    The root is built from the first partition the search finds; it is
    unique up to isomorphism for every such graph on three or more
    vertices, and `count_roots` verifies that by exhausting the partition
    search and counting distinct canonical forms.  Raises
    NotALineGraphError with a claw certificate when no root exists,
    NotClosedError when the closure would add edges.
    """
    if not is_connected(g):
        raise GraphError("root reconstruction expects a connected graph")
    claw = first_claw(g)
    if claw is not None:
        raise NotALineGraphError("input contains an induced claw", certificate=claw)
    if closure(g) != g:
        raise NotClosedError("input is not closure-stable")
    if g.n == 1:
        root = SimpleGraph(2, [(0, 1)])
        part = KrauszPartition((), ((),))
        return RootResult(root, (0,), part, 1 if count_roots else None)

    found = _partition_search(g, collect_all=count_roots)
    if not found:
        raise NotALineGraphError("edge-clique partition search exhausted")

    roots = []
    for cliques in found:
        root, v2e = _root_from_partition(g, cliques)
        if not is_triangle_free(root):
            raise GraphError("partition produced a root triangle")
        _check_line_correspondence(g, root, v2e)
        roots.append((root, v2e))
    root, v2e = roots[0]
    count = len({canonical_form(r) for r, _ in roots}) if count_roots else None
    return RootResult(root, v2e, validate_krausz(g, found[0]), count)
