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
    is_connected,
    is_essentially_2_edge_connected,
)
from clawham.linegraph import line_graph


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
                form, _, _ = canon_simple_rows(k, crows)
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


def verify_line_iso(h: Multigraph, g: SimpleGraph) -> bool:
    """Does L(h) realize g up to isomorphism?"""
    lg, _ = line_graph(h)
    return are_isomorphic(lg, g)
