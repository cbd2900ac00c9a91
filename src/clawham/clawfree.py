"""Induced-pattern detection (claws, nets, subdivided claws), the
neighborhood closure, and edge-weight machinery on triangle-free graphs.

Occurrence lists are exhaustive over induced copies and deduplicated by a
canonical leg ordering, so tests can compare them against brute-force
subset scans verbatim.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (
    GraphError,
    Multigraph,
    SimpleGraph,
    _component_mask,
    bits,
    edge_degree,
    is_triangle_free,
)


@dataclass(frozen=True)
class ClawOccurrence:
    center: int
    leaves: tuple  # three pairwise non-adjacent neighbors, ascending


@dataclass(frozen=True)
class NetOccurrence:
    triangle: tuple  # ascending
    endvertices: tuple  # endvertices[i] is the pendant at triangle[i]


@dataclass(frozen=True)
class SubdividedClawOccurrence:
    hub: int
    legs: tuple  # ((branch vertex, tip), ...) sorted by branch vertex


def find_claws(g: SimpleGraph) -> list:
    """All induced claws, one occurrence per center/leaf-set pair."""
    rows = g.rows
    out = []
    for c in range(g.n):
        nb = rows[c]
        for u in bits(nb):
            rest_u = nb & ~rows[u] & ~((1 << (u + 1)) - 1)
            for v in bits(rest_u):
                rest_v = rest_u & ~rows[v] & ~((1 << (v + 1)) - 1)
                for w in bits(rest_v):
                    out.append(ClawOccurrence(c, (u, v, w)))
    return out


def first_claw(g: SimpleGraph):
    rows = g.rows
    for c in range(g.n):
        nb = rows[c]
        for u in bits(nb):
            rest_u = nb & ~rows[u] & ~((1 << (u + 1)) - 1)
            for v in bits(rest_u):
                rest_v = rest_u & ~rows[v] & ~((1 << (v + 1)) - 1)
                if rest_v:
                    w = (rest_v & -rest_v).bit_length() - 1
                    return ClawOccurrence(c, (u, v, w))
    return None


def is_claw_free(g: SimpleGraph) -> bool:
    return first_claw(g) is None


def find_nets(g: SimpleGraph) -> list:
    """All induced nets, keyed by ascending triangle with matched pendants."""
    rows = g.rows
    n = g.n
    out = []
    for x1 in range(n):
        for x2 in bits(rows[x1] & ~((1 << (x1 + 1)) - 1)):
            common = rows[x1] & rows[x2] & ~((1 << (x2 + 1)) - 1)
            for x3 in bits(common):
                tri = (1 << x1) | (1 << x2) | (1 << x3)
                p1 = rows[x1] & ~rows[x2] & ~rows[x3] & ~tri
                p2 = rows[x2] & ~rows[x1] & ~rows[x3] & ~tri
                p3 = rows[x3] & ~rows[x1] & ~rows[x2] & ~tri
                for y1 in bits(p1):
                    q2 = p2 & ~rows[y1] & ~(1 << y1)
                    for y2 in bits(q2):
                        q3 = p3 & ~rows[y1] & ~rows[y2] & ~(1 << y1) & ~(1 << y2)
                        for y3 in bits(q3):
                            out.append(NetOccurrence((x1, x2, x3), (y1, y2, y3)))
    return out


def _is_net_endvertex(g: SimpleGraph, y: int) -> bool:
    # is y the pendant of some induced net?
    rows = g.rows
    ybit = 1 << y
    for x1 in bits(rows[y]):
        others = rows[x1] & ~rows[y] & ~ybit & ~(1 << x1)
        for x2 in bits(others):
            for x3 in bits(others & rows[x2] & ~((1 << (x2 + 1)) - 1)):
                tri = (1 << x1) | (1 << x2) | (1 << x3)
                p2 = rows[x2] & ~rows[x1] & ~rows[x3] & ~tri & ~rows[y] & ~ybit
                p3 = rows[x3] & ~rows[x1] & ~rows[x2] & ~tri & ~rows[y] & ~ybit
                for y2 in bits(p2):
                    if p3 & ~rows[y2] & ~(1 << y2):
                        return True
    return False


def net_condition_holds(g: SimpleGraph) -> bool:
    """True iff every endvertex of every induced net has 3*deg >= n - 2.

    Vacuously true without nets.  Only vertices below the degree bound can
    witness a failure, so the scan starts from those.
    """
    n = g.n
    low = [v for v in range(n) if 3 * g.degree(v) < n - 2]
    return not any(_is_net_endvertex(g, y) for y in low)


def find_subdivided_claws(h: SimpleGraph) -> list:
    """All induced spiders S(2,2,2): hub, three branch vertices, three tips.

    Requires a triangle-free simple host, where any three hub neighbors are
    automatically independent.
    """
    if not is_triangle_free(h):
        raise GraphError("subdivided-claw scan expects a triangle-free host")
    rows = h.rows
    out = []
    for hub in range(h.n):
        nb = rows[hub]
        if nb.bit_count() < 3:
            continue
        for r1, r2, r3 in itertools.combinations(tuple(bits(nb)), 3):
            rmask = (1 << r1) | (1 << r2) | (1 << r3)
            base = ~nb & ~rmask & ~(1 << hub)
            t1s = rows[r1] & base & ~rows[r2] & ~rows[r3]
            t2s = rows[r2] & base & ~rows[r1] & ~rows[r3]
            t3s = rows[r3] & base & ~rows[r1] & ~rows[r2]
            for t1 in bits(t1s):
                u2 = t2s & ~rows[t1] & ~(1 << t1)
                for t2 in bits(u2):
                    u3 = t3s & ~rows[t1] & ~rows[t2] & ~(1 << t1) & ~(1 << t2)
                    for t3 in bits(u3):
                        out.append(
                            SubdividedClawOccurrence(hub, ((r1, t1), (r2, t2), (r3, t3)))
                        )
    return out


# ---------------------------------------------------------------------------
# closure


def closure(g: SimpleGraph, rng=None) -> SimpleGraph:
    """Neighborhood closure: repeatedly complete N(x) whenever it induces a
    connected non-complete graph, until no vertex is eligible.

    The input must be claw-free; the result is then independent of the
    completion order (rng, when given, picks random eligible vertices so
    tests can exercise that invariance).
    """
    claw = first_claw(g)
    if claw is not None:
        raise GraphError(f"closure requires a claw-free graph; found {claw}")
    n = g.n
    rows = list(g.rows)

    def eligible(v):
        nb = rows[v]
        if nb.bit_count() < 2:
            return False
        if _component_mask(rows, (nb & -nb).bit_length() - 1, nb) != nb:
            return False  # N(v) is not connected
        # non-complete?
        return any(nb & ~rows[u] & ~(1 << u) for u in bits(nb))

    while True:
        cands = [v for v in range(n) if eligible(v)]
        if not cands:
            break
        v = cands[0] if rng is None else rng.choice(cands)
        nb = rows[v]
        for u in bits(nb):
            add = nb & ~rows[u] & ~(1 << u)
            rows[u] |= add
            for w in bits(add):
                rows[w] |= 1 << u
    return SimpleGraph.from_rows(tuple(rows))


# ---------------------------------------------------------------------------
# heavy edges (triangle-free hosts)


def heavy_edges(h: Multigraph, slack: int = 0) -> int:
    """Mask of edges with 3*ed(e) >= |E| - 2 + 3*slack (integer arithmetic)."""
    if not h.is_simple or not is_triangle_free(h):
        raise GraphError("heavy edges are defined on triangle-free simple hosts")
    m = h.edge_count
    mask = 0
    for eid in range(m):
        if 3 * edge_degree(h, eid) >= m - 2 + 3 * slack:
            mask |= 1 << eid
    return mask


def find_heavy_matching(h: Multigraph, k: int, slack: int = 0):
    """k pairwise vertex-disjoint heavy edges (ids ascending), or None."""
    heavy = [eid for eid in bits(heavy_edges(h, slack))]

    def extend(start, used_mask, picked):
        if len(picked) == k:
            return tuple(picked)
        for i in range(start, len(heavy)):
            if len(heavy) - i < k - len(picked):
                return None
            u, v = h.endpoints(heavy[i])
            ebits = (1 << u) | (1 << v)
            if used_mask & ebits:
                continue
            picked.append(heavy[i])
            got = extend(i + 1, used_mask | ebits, picked)
            if got:
                return got
            picked.pop()
        return None

    return extend(0, 0, [])
