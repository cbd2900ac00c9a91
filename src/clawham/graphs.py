"""Core graph types and structural queries.

Vertices are integers 0..n-1 with n <= 64.  Vertex sets are plain ints used
as bitmasks (bit v set <=> vertex v in the set).  Edge sets are bitmasks over
edge ids, where an edge id is an index into the sorted edge-list view of a
graph; parallel edges occupy consecutive ids.

Multigraph is the universal carrier (loop-free, multiplicities allowed).
SimpleGraph restricts multiplicities to at most 1.  Both are immutable.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

MAX_VERTICES = 64


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


class LimitExceeded(GraphError):
    """An exact-search cap was exceeded; raise rather than approximate."""


def mask_of(vertices) -> int:
    """Bitmask of an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int):
    """Iterate set bit positions of a mask in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Multigraph:
    """Immutable undirected multigraph without loops.

    Constructed from a vertex count and an iterable of (u, v) pairs; a pair
    repeated k times denotes an edge of multiplicity k.  Equality and hashing
    are *labeled* (same n, same edge multiset); use canon.are_isomorphic for
    unlabeled comparison.
    """

    __slots__ = ("n", "_pairs", "_rows", "_deg", "_hash", "_inc")

    def __init__(self, n: int, edges=()):
        if not 0 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        pairs = []
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) outside vertex range 0..{n-1}")
            pairs.append((u, v) if u < v else (v, u))
        pairs.sort()
        self._pairs = tuple(pairs)
        self.n = n
        rows = [0] * n
        deg = [0] * n
        for u, v in pairs:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
        self._rows = tuple(rows)
        self._deg = tuple(deg)
        self._hash = None
        self._inc = None

    @classmethod
    def from_pairs_unchecked(cls, n: int, sorted_pairs: tuple) -> "Multigraph":
        # fast path for internal construction; pairs must be sorted with u < v
        g = object.__new__(cls)
        g.n = n
        g._pairs = sorted_pairs
        rows = [0] * n
        deg = [0] * n
        for u, v in sorted_pairs:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
        g._rows = tuple(rows)
        g._deg = tuple(deg)
        g._hash = None
        g._inc = None
        return g

    @property
    def edges(self) -> tuple:
        """Sorted edge-list view; the index of a pair is its edge id."""
        return self._pairs

    @property
    def rows(self) -> tuple:
        """Adjacency bitmask per vertex (support, ignoring multiplicity)."""
        return self._rows

    @property
    def incidence(self) -> tuple:
        """Per vertex, its (edge id, other end) pairs in ascending edge id;
        built on first use."""
        if self._inc is None:
            inc = [[] for _ in range(self.n)]
            for eid, (u, v) in enumerate(self._pairs):
                inc[u].append((eid, v))
                inc[v].append((eid, u))
            self._inc = tuple(map(tuple, inc))
        return self._inc

    @property
    def edge_count(self) -> int:
        return len(self._pairs)

    @property
    def support_pairs(self) -> tuple:
        """Distinct adjacent pairs, multiplicity collapsed."""
        seen = []
        last = None
        for p in self._pairs:
            if p != last:
                seen.append(p)
                last = p
        return tuple(seen)

    def degree(self, v: int) -> int:
        """Degree counting multiplicity."""
        return self._deg[v]

    @property
    def degrees(self) -> tuple:
        return self._deg

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        # edge lists stay short at our scale; count directly
        return self._pairs.count((u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def endpoints(self, eid: int) -> tuple:
        return self._pairs[eid]

    @property
    def is_simple(self) -> bool:
        return all(a != b for a, b in itertools.pairwise(self._pairs))

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self.n == other.n
            and self._pairs == other._pairs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self._pairs))
        return self._hash

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(n={self.n}, m={len(self._pairs)})"


class SimpleGraph(Multigraph):
    """Multigraph with every multiplicity at most 1."""

    __slots__ = ()

    def __init__(self, n: int, edges=()):
        super().__init__(n, edges)
        for a, b in itertools.pairwise(self._pairs):
            if a == b:
                raise GraphError(f"parallel edge {a} in a simple graph")

    @classmethod
    def from_rows(cls, rows: tuple) -> "SimpleGraph":
        # fast path: rows must be a symmetric loop-free adjacency bitmask tuple
        n = len(rows)
        pairs = []
        for u in range(n):
            m = rows[u] >> (u + 1) << (u + 1)
            while m:
                b = m & -m
                pairs.append((u, b.bit_length() - 1))
                m ^= b
        g = object.__new__(cls)
        g.n = n
        g._pairs = tuple(sorted(pairs))
        g._rows = tuple(rows)
        g._deg = tuple(r.bit_count() for r in rows)
        g._hash = None
        g._inc = None
        return g


@dataclass(frozen=True)
class ContractionResult:
    """Quotient of contracting a connected vertex set F to one vertex.

    vmap[v] gives the quotient vertex of original vertex v; v_new is the
    image of F.  edge_origin[j] is the original edge id of quotient edge j
    (edges inside F are deleted, parallel edges are preserved).
    """

    quotient: Multigraph
    vmap: tuple
    v_new: int
    edge_origin: tuple


# ---------------------------------------------------------------------------
# connectivity


def _component_mask(rows, start: int, allowed: int) -> int:
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v] & allowed
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_connected(g: Multigraph) -> bool:
    if g.n <= 1:
        return True
    full = (1 << g.n) - 1
    return _component_mask(g.rows, 0, full) == full


def is_2_connected(g: Multigraph) -> bool:
    """No cutvertex and n >= 3 (multiplicities are irrelevant here)."""
    if g.n < 3 or not is_connected(g):
        return False
    full = (1 << g.n) - 1
    for v in range(g.n):
        rest = full & ~(1 << v)
        start = (rest & -rest).bit_length() - 1
        if _component_mask(g.rows, start, rest) != rest:
            return False
    return True


def bridges(g: Multigraph) -> list:
    """Edge ids of bridges.  A parallel pair is never a bridge."""
    # iterative DFS with lowlink over the support graph
    n = g.n
    if n == 0:
        return []
    rows = g.rows
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    out = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack = [(root, iter(bits(rows[root])))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, iter(bits(rows[w]))))
                    advanced = True
                    break
                elif w != parent[v]:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > disc[p] and g.multiplicity(p, v) == 1:
                        u, w = (p, v) if p < v else (v, p)
                        out.append(g.edges.index((u, w)))
    return sorted(out)


def is_2_edge_connected(g: Multigraph) -> bool:
    return is_connected(g) and not bridges(g)


def is_essentially_2_edge_connected(g: Multigraph) -> bool:
    """Connected and every bridge has a single-vertex side.

    The sides of a bridge are the two components it separates; a side is a
    single vertex exactly when that endpoint has degree 1.
    """
    if not is_connected(g):
        raise GraphError("essential 2-edge-connectivity requires a connected graph")
    for eid in bridges(g):
        u, v = g.endpoints(eid)
        if g.degree(u) != 1 and g.degree(v) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# local structure


def is_triangle_free(g: Multigraph) -> bool:
    rows = g.rows
    seen = set()
    for u, v in g.edges:
        if (u, v) in seen:
            continue
        seen.add((u, v))
        if rows[u] & rows[v]:
            return False
    return True


def triangle_count(g: Multigraph) -> int:
    """Number of vertex triangles in the support graph."""
    rows = g.rows
    total = 0
    for u, v in set(g.edges):
        total += (rows[u] & rows[v] & ~((1 << (v + 1)) - 1)).bit_count()
    return total


def edge_degree(g: Multigraph, eid: int) -> int:
    """Number of edges other than eid sharing an endpoint with it.

    Parallel edges count with multiplicity; for a simple graph this is
    d(u) + d(v) - 2.
    """
    u, v = g.endpoints(eid)
    return g.degree(u) + g.degree(v) - 1 - g.multiplicity(u, v)


# ---------------------------------------------------------------------------
# derived graphs


def contract(g: Multigraph, F) -> ContractionResult:
    """Contract the vertex set F (mask or iterable) to a single vertex.

    F must be non-empty and induce a connected subgraph.  Edges inside F are
    deleted; all other edges survive individually, so parallel edges in the
    quotient are preserved.  Non-F vertices keep their relative order and
    occupy 0..k-1; the new vertex is k.
    """
    fmask = F if isinstance(F, int) else mask_of(F)
    if fmask == 0:
        raise GraphError("cannot contract an empty vertex set")
    if fmask >> g.n:
        raise GraphError("contraction set outside vertex range")
    start = (fmask & -fmask).bit_length() - 1
    if _component_mask(g.rows, start, fmask) != fmask:
        raise GraphError("contraction set must induce a connected subgraph")

    vmap = [0] * g.n
    nxt = 0
    for v in range(g.n):
        if fmask >> v & 1:
            continue
        vmap[v] = nxt
        nxt += 1
    for v in bits(fmask):
        vmap[v] = nxt
    v_new = nxt

    mapped = []
    for eid, (u, v) in enumerate(g.edges):
        if fmask >> u & 1 and fmask >> v & 1:
            continue
        a, b = vmap[u], vmap[v]
        if a > b:
            a, b = b, a
        mapped.append(((a, b), eid))
    mapped.sort()
    quotient = Multigraph.from_pairs_unchecked(nxt + 1, tuple(p for p, _ in mapped))
    return ContractionResult(
        quotient=quotient,
        vmap=tuple(vmap),
        v_new=v_new,
        edge_origin=tuple(e for _, e in mapped),
    )


def induced_subgraph(g: Multigraph, mask: int):
    """Subgraph induced by a vertex mask, plus the vertex list it keeps.

    Returns (subgraph, vertices) where vertices[i] is the original index of
    subgraph vertex i.  The subgraph has the same class as g.
    """
    verts = tuple(bits(mask))
    index = {v: i for i, v in enumerate(verts)}
    pairs = tuple(
        (index[u], index[v]) for u, v in g.edges if mask >> u & 1 and mask >> v & 1
    )
    return type(g).from_pairs_unchecked(len(verts), pairs), verts


def relabel(g: Multigraph, perm) -> Multigraph:
    """Apply a permutation (new index = perm[old index])."""
    pairs = [(perm[u], perm[v]) for u, v in g.edges]
    return type(g)(g.n, pairs)


def edge_mask_of(g: Multigraph, pairs) -> int:
    """Edge mask covering one edge id per requested (u, v) pair."""
    mask = 0
    for u, v in pairs:
        if u > v:
            u, v = v, u
        try:
            eid = g.edges.index((u, v))
        except ValueError:
            raise GraphError(f"({u},{v}) is not an edge") from None
        mask |= 1 << eid
    return mask


# ---------------------------------------------------------------------------
# small named graphs


def path_graph(k: int) -> SimpleGraph:
    return SimpleGraph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> SimpleGraph:
    if k < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return SimpleGraph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k: int) -> SimpleGraph:
    return SimpleGraph(k, itertools.combinations(range(k), 2))


def complete_bipartite(a: int, b: int) -> SimpleGraph:
    return SimpleGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> SimpleGraph:
    return SimpleGraph(leaves + 1, [(0, i + 1) for i in range(leaves)])
