"""Independent oracles for the benchmark: graph families from networkx's
graph atlas and brute-force answers, written without importing clawham.

Simple graphs are networkx graphs on vertices 0..n-1.  Multigraphs are
(n, pairs) with pairs a sorted tuple of (u, v), u < v, a pair repeated once
per unit of multiplicity.  Every search here is exhaustive and deliberately
plain: it must be easy to believe, not fast.
"""
from __future__ import annotations

import itertools
import warnings
from collections import defaultdict

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

NET = nx.Graph([(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
SPIDER = nx.Graph([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])  # S(2,2,2)


def _wl(g: nx.Graph, **attrs) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return nx.weisfeiler_lehman_graph_hash(g, **attrs)


def _dedup(candidates, key, same):
    """Keep one graph per class: bucket by an invariant, compare inside."""
    buckets = defaultdict(list)
    out = []
    for g in candidates:
        bucket = buckets[key(g)]
        if not any(same(g, h) for h in bucket):
            bucket.append(g)
            out.append(g)
    return out


def graphs_by_order(max_n: int) -> dict:
    """One graph per isomorphism class on n = 1..max_n vertices.  The atlas
    covers n <= 7; each further order adds a vertex to every graph of the
    order below in every possible way and dedups by networkx isomorphism."""
    levels = defaultdict(list)
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= min(max_n, 7):
            levels[n].append(nx.convert_node_labels_to_integers(g))
    for n in range(8, max_n + 1):
        def extensions():
            for g in levels[n - 1]:
                for k in range(n):
                    for nbrs in itertools.combinations(range(n - 1), k):
                        h = g.copy()
                        h.add_node(n - 1)
                        h.add_edges_from((v, n - 1) for v in nbrs)
                        yield h
        levels[n] = _dedup(extensions(), _wl, nx.is_isomorphic)
    return dict(levels)


# ---------------------------------------------------------------------------
# structural predicates on simple graphs


def is_claw_free(g: nx.Graph) -> bool:
    for v in g:
        for a, b, c in itertools.combinations(g[v], 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return False
    return True


def is_two_connected(g: nx.Graph) -> bool:
    return g.number_of_nodes() >= 3 and nx.is_biconnected(g)


def is_triangle_free(g: nx.Graph) -> bool:
    return not any(nx.triangles(g).values())


def is_ess_2ec(g: nx.Graph) -> bool:
    """Connected, and every bridge has an end of degree one."""
    if not nx.is_connected(g):
        return False
    return all(g.degree(u) == 1 or g.degree(v) == 1 for u, v in nx.bridges(g))


def net_endvertices(g: nx.Graph) -> set:
    """Vertices that are a pendant of some induced net."""
    ends = set()
    for m in GraphMatcher(g, NET).subgraph_isomorphisms_iter():
        inv = {b: a for a, b in m.items()}
        ends.update(inv[i] for i in (3, 4, 5))
    return ends


def net_condition(g: nx.Graph) -> bool:
    n = g.number_of_nodes()
    return all(3 * g.degree(y) >= n - 2 for y in net_endvertices(g))


def has_spider(h: nx.Graph) -> bool:
    """Induced subdivided claw S(2,2,2)."""
    return GraphMatcher(h, SPIDER).subgraph_is_isomorphic()


def short_cycle_hypothesis(g: nx.Graph) -> bool:
    """2-connected, minimum degree 3, every edge on a 3- or 4-cycle."""
    if not is_two_connected(g) or min(d for _, d in g.degree()) < 3:
        return False
    for u, v in g.edges():
        on_short = any(
            w != z and g.has_edge(w, z) or w == z
            for w in g[u] if w != v
            for z in g[v] if z != u
        )
        if not on_short:
            return False
    return True


def closure(g: nx.Graph) -> nx.Graph:
    """Ryjacek's closure: complete every connected, non-complete
    neighborhood until none is left."""
    c = g.copy()
    changed = True
    while changed:
        changed = False
        for x in c:
            nb = list(c[x])
            if len(nb) < 2:
                continue
            sub = c.subgraph(nb)
            if nx.is_connected(sub) and sub.number_of_edges() < len(nb) * (len(nb) - 1) // 2:
                c.add_edges_from(itertools.combinations(nb, 2))
                changed = True
    return c


def root(c: nx.Graph) -> nx.Graph:
    """The triangle-free root H with L(H) = c (networkx's inverse)."""
    return nx.convert_node_labels_to_integers(nx.inverse_line_graph(c))


# ---------------------------------------------------------------------------
# brute-force answers


def hamiltonian(g: nx.Graph) -> bool:
    """Held-Karp over (vertex set, end vertex) from vertex 0."""
    n = g.number_of_nodes()
    if n < 3:
        return False
    adj = [0] * n
    for u, v in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    ends = [0] * (1 << n)
    ends[1] = 1
    for s in range(1, 1 << n, 2):
        for v in range(n):
            if ends[s] >> v & 1:
                for u in range(n):
                    if adj[v] >> u & 1 and not s >> u & 1:
                        ends[s | 1 << u] |= 1 << u
    return bool(ends[(1 << n) - 1] & adj[0])


def is_hamilton_cycle(g: nx.Graph, cycle) -> bool:
    n = g.number_of_nodes()
    return (
        len(cycle) == n
        and set(cycle) == set(range(n))
        and all(g.has_edge(cycle[i], cycle[(i + 1) % n]) for i in range(n))
    )


def edges_connected(pairs, emask) -> bool:
    """Do the edges in emask form one connected piece?"""
    verts = 0
    for i, (u, v) in enumerate(pairs):
        if emask >> i & 1:
            verts |= 1 << u | 1 << v
    seen = verts & -verts
    while True:
        grow = seen
        for i, (u, v) in enumerate(pairs):
            if emask >> i & 1 and (seen >> u | seen >> v) & 1:
                grow |= 1 << u | 1 << v
        if grow == seen:
            return seen == verts
        seen = grow


def closed_trail_sets(n, pairs):
    """Yield (edge mask, vertex mask) of every closed trail's edge set: each
    nonempty connected edge subset with all degrees even, found by a
    Gray-code walk over all 2^m subsets.  Trivial one-vertex trails are
    left to the caller."""
    m = len(pairs)
    flip = [1 << u | 1 << v for u, v in pairs]
    emask = 0
    odd = 0
    for i in range(1, 1 << m):
        b = (i & -i).bit_length() - 1
        emask ^= 1 << b
        odd ^= flip[b]
        if odd == 0 and edges_connected(pairs, emask):
            vmask = 0
            for j in range(m):
                if emask >> j & 1:
                    vmask |= flip[j]
            yield emask, vmask


def has_dct(n, pairs, required=0) -> bool:
    """A closed trail through every required vertex that touches every
    edge, counting the one-vertex trail."""
    for v in range(n):
        if not required & ~(1 << v) and all(v in p for p in pairs):
            return True
    for _, vmask in closed_trail_sets(n, pairs):
        if not required & ~vmask and all(vmask >> u & 1 or vmask >> v & 1 for u, v in pairs):
            return True
    return False


def is_collapsible(n, pairs) -> bool:
    """For every even vertex set R, some spanning connected subgraph has
    exactly R as its odd-degree set."""
    if n == 1:
        return True
    full = (1 << n) - 1
    flip = [1 << u | 1 << v for u, v in pairs]
    reached = set()
    for emask in range(1 << len(pairs)):
        odd = 0
        vmask = 0
        for j, f in enumerate(flip):
            if emask >> j & 1:
                odd ^= f
                vmask |= f
        if vmask == full and odd not in reached and edges_connected(pairs, emask):
            reached.add(odd)
    return len(reached) == 1 << (n - 1)


def is_closed_trail(n, pairs, vertices, edge_ids) -> bool:
    """Replay a trail witness: a closed walk using each edge id once."""
    if len(vertices) != len(edge_ids) + 1 or vertices[0] != vertices[-1]:
        return False
    if len(set(edge_ids)) != len(edge_ids):
        return False
    for i, e in enumerate(edge_ids):
        if not 0 <= e < len(pairs) or set(pairs[e]) != {vertices[i], vertices[i + 1]}:
            return False
    return all(0 <= v < n for v in vertices)


# ---------------------------------------------------------------------------
# structured multigraph families


def _multi_nx(n, pairs, colors) -> nx.Graph:
    g = nx.Graph()
    for v in range(n):
        g.add_node(v, c=colors(v))
    for u, v in pairs:
        if g.has_edge(u, v):
            g[u][v]["m"] += 1
        else:
            g.add_edge(u, v, m=1)
    return g


def _same_colored(g, h) -> bool:
    return nx.is_isomorphic(
        g, h, node_match=lambda a, b: a["c"] == b["c"], edge_match=lambda a, b: a["m"] == b["m"]
    )


def multi_degree(pairs, v) -> int:
    return sum((u == v) + (w == v) for u, w in pairs)


def multi_ess_2ec(n, pairs) -> bool:
    support = nx.Graph()
    support.add_nodes_from(range(n))
    support.add_edges_from(pairs)
    if not nx.is_connected(support):
        return False
    for u, v in nx.bridges(support):
        if pairs.count((min(u, v), max(u, v))) == 1:
            if multi_degree(pairs, u) != 1 and multi_degree(pairs, v) != 1:
                return False
    return True


def marked_edge_candidate(n, xym, types, inside):
    """The multigraph with marked edge 01 of multiplicity xym, satellite
    2+i joined to 0 and 1 with multiplicities types[i], and the inside
    satellite pairs listed in inside; None unless it is in the family."""
    pairs = [(0, 1)] * xym
    for i, (a, b) in enumerate(types):
        pairs += [(0, 2 + i)] * a + [(1, 2 + i)] * b
    pairs += list(inside)
    pairs = tuple(sorted(pairs))
    if multi_degree(pairs, 0) < 2 or multi_degree(pairs, 1) < 2:
        return None
    if not multi_ess_2ec(n, pairs):
        return None
    return pairs


def marked_edge_classes(n: int, mm: int) -> list:
    """One multigraph per class of the marked-edge family on n vertices:
    a marked edge 01, d(0), d(1) >= 2, at most two edges (with
    multiplicity) avoiding {0, 1}, multiplicities <= mm, essentially
    2-edge-connected; classes are taken under isomorphisms that keep {0, 1}
    setwise.  Satellite types run over multisets, which loses no class since
    any labeling can be permuted to sorted types; inside edges run over
    every labeled placement."""
    z = n - 2
    types = [(a, b) for a in range(mm + 1) for b in range(mm + 1)]
    spairs = list(itertools.combinations(range(2, n), 2))
    insides = [()]
    insides += [(p,) for p in spairs]
    insides += [c for c in itertools.combinations_with_replacement(spairs, 2) if mm >= 2 or c[0] != c[1]]

    def candidates():
        for xym in range(1, mm + 1):
            for ts in itertools.combinations_with_replacement(types, z):
                for inside in insides:
                    pairs = marked_edge_candidate(n, xym, ts, inside)
                    if pairs is not None:
                        yield pairs

    def colors(v):
        return v < 2

    keep = _dedup(
        (_multi_nx(n, p, colors) for p in candidates()),
        lambda g: _wl(g, node_attr="c", edge_attr="m"),
        _same_colored,
    )
    return keep


def attachment_classes() -> list:
    """Triangle-free graphs made of the 5-cycle 0..4 and two vertices 5, 6
    with two cycle neighbors each, with or without the edge 56; classes
    under isomorphisms keeping the cycle and the pair {5, 6} setwise."""
    cyc = [(i, (i + 1) % 5) for i in range(5)]
    cand = []
    for p1 in itertools.combinations(range(5), 2):
        for p2 in itertools.combinations(range(5), 2):
            for wedge in (False, True):
                g = nx.Graph(cyc + [(a, 5) for a in p1] + [(a, 6) for a in p2] + [(5, 6)] * wedge)
                if is_triangle_free(g):
                    nx.set_node_attributes(g, {v: v < 5 for v in g}, "c")
                    nx.set_edge_attributes(g, 1, "m")
                    cand.append(g)
    return _dedup(cand, lambda g: _wl(g, node_attr="c"), _same_colored)
