"""Slow, literal oracles that the tests hold the library's fast paths to.

Each one builds its answer the direct way (extend everything, sweep every
multiplicity vector, compare by isomorphism) so that it shares as little
logic as possible with the code it checks.
"""
import itertools

from clawham.canon import are_isomorphic, canon_simple_rows, canonical_form
from clawham.enumeration import MarkedEdgeInstance
from clawham.graphs import (
    LimitExceeded,
    Multigraph,
    SimpleGraph,
    bits,
    bridges,
    is_connected,
    is_essentially_2_edge_connected,
)
from clawham.linegraph import line_graph
from clawham.trails import parity_subgraph


def enumerate_by_dedup(n: int):
    """Grow every labeled extension level by level and dedup globally by
    canonical form.  No acceptance rule, no pruning."""
    if not 1 <= n <= 8:
        raise LimitExceeded("the dedup oracle is meant for n <= 8")
    level = {canon_simple_rows(1, (0,))[0]: (0,)}
    for k in range(2, n + 1):
        nxt = {}
        for rows in level.values():
            for smask in range(1 << (k - 1)):
                crows = tuple(
                    (rows[i] | (1 << (k - 1))) if smask >> i & 1 else rows[i]
                    for i in range(k - 1)
                ) + (smask,)
                form, _ = canon_simple_rows(k, crows)
                if form not in nxt:
                    nxt[form] = crows
        level = nxt
    return [SimpleGraph.from_rows(rows) for _, rows in sorted(level.items())]


def marked_edge_instances_brute(n: int, max_multiplicity: int = 2) -> list:
    """Marked-edge instances on exactly n vertices, from every
    multiplicity vector directly."""
    if n > 5:
        raise LimitExceeded("the brute marked-edge oracle is meant for n <= 5")
    vpairs = list(itertools.combinations(range(n), 2))
    out = []
    seen = set()
    for mvec in itertools.product(range(max_multiplicity + 1), repeat=len(vpairs)):
        pairs = []
        for (u, v), mu in zip(vpairs, mvec):
            pairs += [(u, v)] * mu
        g = Multigraph(n, pairs)
        for x in range(n):
            for y in range(x + 1, n):
                if not g.has_edge(x, y):
                    continue
                if g.degree(x) < 2 or g.degree(y) < 2:
                    continue
                others = [v for v in range(n) if v not in (x, y)]
                inside = sum(g.multiplicity(u, v) for u, v in itertools.combinations(others, 2))
                if inside > 2:
                    continue
                if not is_connected(g):
                    continue
                if not is_essentially_2_edge_connected(g):
                    continue
                xym = (1 << x) | (1 << y)
                key = canonical_form(g, colors=[xym, ((1 << n) - 1) & ~xym])
                if key in seen:
                    continue
                seen.add(key)
                out.append(MarkedEdgeInstance(g, x, y))
    return out


def collapsible_unreduced(h: Multigraph) -> bool:
    """Collapsibility of a connected h with no reduction and no memo: a
    bridge answers False, else every even vertex set must be the odd set
    of some spanning connected subgraph."""
    n = h.n
    if n == 1:
        return True
    if bridges(h):
        return False
    for r in range(1 << (n - 1)):
        rmask = r << 1
        if rmask.bit_count() & 1:
            rmask |= 1
        if parity_subgraph(h, rmask) is None:
            return False
    return True


def verify_line_iso(h: Multigraph, g: SimpleGraph) -> bool:
    """Does L(h) realize g up to isomorphism?"""
    lg, _ = line_graph(h)
    return are_isomorphic(lg, g)


def krausz_partitions_brute(g: SimpleGraph) -> list:
    """Every edge-clique partition of g with each vertex in at most two
    parts and no three parts pairwise intersecting, by backtracking.

    The branch edge is the first uncovered one; the candidates are the
    cliques through it made of vertices with a free part slot and joined by
    uncovered edges, largest first.  Crossing parts (three pairwise
    intersecting) are rejected as they appear, which is the triangle-free
    condition on the root.
    """
    rows = g.rows
    edges = g.edges
    full = (1 << len(edges)) - 1
    eid_of = {e: i for i, e in enumerate(edges)}
    covered = 0
    slots = [0] * g.n
    cliques = []
    inter = []  # inter[i] = mask of clique indices meeting clique i
    results = []

    def free(a, b):
        return not covered >> eid_of[(a, b) if a < b else (b, a)] & 1

    def candidate_cliques(u, v):
        if slots[u] > 1 or slots[v] > 1:
            return []
        base = (1 << u) | (1 << v)
        pool = [
            w
            for w in bits(rows[u] & rows[v])
            if slots[w] <= 1 and free(u, w) and free(v, w)
        ]
        outs = []

        def grow(mask, cand):
            outs.append(mask)
            for i, w in enumerate(cand):
                if all(rows[w] >> x & 1 and free(w, x) for x in bits(mask & ~base)):
                    grow(mask | (1 << w), cand[i + 1 :])

        grow(base, pool)
        outs.sort(key=lambda mk: (-mk.bit_count(), mk))
        return outs

    def search():
        nonlocal covered
        if covered == full:
            results.append(list(cliques))
            return
        low = ~covered & full
        u, v = edges[(low & -low).bit_length() - 1]
        for mask in candidate_cliques(u, v):
            meet = 0
            for i, old in enumerate(cliques):
                if old & mask:
                    meet |= 1 << i
            if any(inter[i] & meet for i in bits(meet)):
                continue  # three parts would pairwise intersect
            vs = tuple(bits(mask))
            new_edges = 0
            for i, a in enumerate(vs):
                for b in vs[i + 1 :]:
                    new_edges |= 1 << eid_of[(a, b)]
            idx = len(cliques)
            cliques.append(mask)
            inter.append(meet)
            for i in bits(meet):
                inter[i] |= 1 << idx
            for w in vs:
                slots[w] += 1
            covered |= new_edges
            search()
            covered &= ~new_edges
            for w in vs:
                slots[w] -= 1
            for i in bits(meet):
                inter[i] &= ~(1 << idx)
            inter.pop()
            cliques.pop()

    search()
    return results
