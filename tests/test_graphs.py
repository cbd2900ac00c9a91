"""Core graph container and predicate tests.

Structural predicates (connectivity, bridges, 2-connectivity) are checked
against small brute-force oracles that re-derive the answer from first
principles, so the fast implementations never vouch for themselves.
"""
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clawham.graphs import (
    GraphError,
    Multigraph,
    SimpleGraph,
    bits,
    bridges,
    complete_bipartite,
    complete_graph,
    contract,
    cycle_graph,
    edge_degree,
    edge_mask_of,
    induced_subgraph,
    is_2_connected,
    is_2_edge_connected,
    is_connected,
    is_essentially_2_edge_connected,
    is_triangle_free,
    mask_of,
    path_graph,
    relabel,
    star_graph,
    triangle_count,
)

# ---------------------------------------------------------------------------
# oracles


def random_simple(rng, n, p=0.5):
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return SimpleGraph(n, pairs)


def random_multi(rng, n, p=0.5, max_mult=3):
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                pairs.extend([(u, v)] * rng.randint(1, max_mult))
    return Multigraph(n, pairs)


def oracle_connected(g):
    if g.n == 0:
        return False
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in range(g.n):
            if v not in seen and g.has_edge(u, v):
                seen.add(v)
                frontier.append(v)
    return len(seen) == g.n


def oracle_bridges(g):
    """Edge ids whose removal disconnects their component, by rebuild."""
    out = []
    for eid in range(g.edge_count):
        u, v = g.endpoints(eid)
        if g.multiplicity(u, v) > 1:
            continue
        rest = [g.endpoints(e) for e in range(g.edge_count) if e != eid]
        h = Multigraph(g.n, rest)
        seen = {u}
        frontier = [u]
        while frontier:
            x = frontier.pop()
            for y in range(g.n):
                if y not in seen and h.has_edge(x, y):
                    seen.add(y)
                    frontier.append(y)
        if v not in seen:
            out.append(eid)
    return out


def oracle_2_connected(g):
    if g.n < 3 or not oracle_connected(g):
        return False
    for v in range(g.n):
        sub, _ = induced_subgraph(g, ((1 << g.n) - 1) ^ (1 << v))
        if not oracle_connected(sub):
            return False
    return True


# ---------------------------------------------------------------------------
# containers


def test_multigraph_rejects_loops_and_bad_indices():
    with pytest.raises(GraphError):
        Multigraph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Multigraph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Multigraph(-1, [])


def test_simple_graph_rejects_parallel_edges():
    with pytest.raises(GraphError):
        SimpleGraph(3, [(0, 1), (1, 0)])
    Multigraph(3, [(0, 1), (1, 0)])  # fine as a multigraph


def test_edges_are_sorted_and_immutable():
    g = Multigraph(4, [(2, 3), (0, 1), (1, 2), (0, 1)])
    assert g.edges == ((0, 1), (0, 1), (1, 2), (2, 3))
    assert g.edge_count == 4
    assert g.multiplicity(0, 1) == 2
    assert g.support_pairs == ((0, 1), (1, 2), (2, 3))


def test_degree_counts_multiplicity():
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    assert g.degrees == (2, 3, 1)
    assert g.degree(1) == 3


def test_rows_are_support_adjacency():
    g = Multigraph(3, [(0, 1), (0, 1)])
    assert g.rows[0] == 0b010
    assert g.rows[1] == 0b001
    assert g.rows[2] == 0


def test_mask_helpers_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0b101001)) == [0, 3, 5]
    with pytest.raises(ValueError):
        mask_of([-1])


def test_small_builders():
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
    assert cycle_graph(3).edges == ((0, 1), (0, 2), (1, 2))
    assert complete_graph(4).edge_count == 6
    assert complete_bipartite(3, 3).edge_count == 9
    assert star_graph(3).degrees == (3, 1, 1, 1)


# ---------------------------------------------------------------------------
# predicates vs oracles


def test_connectivity_against_oracle(rng):
    for _ in range(120):
        g = random_multi(rng, rng.randint(1, 7), p=rng.choice([0.15, 0.4, 0.7]))
        assert is_connected(g) == oracle_connected(g)


def test_bridges_against_oracle(rng):
    for _ in range(120):
        g = random_multi(rng, rng.randint(2, 7), p=rng.choice([0.2, 0.45]))
        assert sorted(bridges(g)) == oracle_bridges(g)


def test_two_connected_against_oracle(rng):
    for _ in range(120):
        g = random_simple(rng, rng.randint(1, 7), p=rng.choice([0.3, 0.5, 0.8]))
        assert is_2_connected(g) == oracle_2_connected(g)


def test_two_edge_connected_examples():
    assert is_2_edge_connected(cycle_graph(5))
    assert not is_2_edge_connected(path_graph(3))
    assert not is_2_edge_connected(star_graph(3))
    # a doubled edge is not a bridge
    assert is_2_edge_connected(Multigraph(2, [(0, 1), (0, 1)]))


def test_essentially_2_edge_connected():
    # every bridge of a star ends in a degree-1 vertex
    assert is_essentially_2_edge_connected(star_graph(4))
    assert is_essentially_2_edge_connected(cycle_graph(4))
    # interior bridge of a path has no degree-1 endpoint
    assert not is_essentially_2_edge_connected(path_graph(4))
    with pytest.raises(GraphError):
        is_essentially_2_edge_connected(Multigraph(2, []))
    # net: triangle with three pendants, all bridges are pendant edges
    net = SimpleGraph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    assert is_essentially_2_edge_connected(net)


def test_triangle_counts(rng):
    assert triangle_count(complete_graph(4)) == 4
    assert triangle_count(cycle_graph(5)) == 0
    assert is_triangle_free(complete_bipartite(3, 3))
    for _ in range(60):
        g = random_simple(rng, rng.randint(3, 7))
        brute = sum(
            1
            for a, b, c in itertools.combinations(range(g.n), 3)
            if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
        )
        assert triangle_count(g) == brute
        assert is_triangle_free(g) == (brute == 0)


def test_edge_degree_definition():
    g = Multigraph(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
    # ed(uv) = d(u) + d(v) - 1 - mult(u, v): edges sharing an endpoint
    # with uv, the edge itself excluded, parallel copies counted once each
    eid = g.edges.index((0, 1))
    assert edge_degree(g, eid) == 2 + 3 - 1 - 2
    eid = g.edges.index((1, 2))
    assert edge_degree(g, eid) == 3 + 2 - 1 - 1


@given(st.integers(0, 2**15 - 1), st.integers(2, 6))
def test_edge_degree_sum_identity(seed, n):
    """On a simple graph, summing ed over edges counts ordered pairs of
    distinct incident edges at a common vertex: sum ed(e) = sum_v d(v)(d(v)-1),
    equivalently sum_v d(v)^2 - 2|E|."""
    rng = random.Random(seed)
    g = random_simple(rng, n)
    lhs = sum(edge_degree(g, e) for e in range(g.edge_count))
    assert lhs == sum(d * (d - 1) for d in g.degrees)
    assert lhs == sum(d * d for d in g.degrees) - 2 * g.edge_count


def test_contract_single_edge():
    g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    res = contract(g, mask_of([0, 1]))
    assert res.quotient.n == 3
    assert res.quotient.edge_count == 3  # C4 / e = triangle (as multigraph C3)
    assert res.v_new == res.vmap[0] == res.vmap[1]


def test_contract_keeps_parallel_edges_drops_loops():
    g = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    res = contract(g, mask_of([0, 1]))
    # triangle / e = double edge, the inside edge vanishes
    assert res.quotient.n == 2
    assert res.quotient.edge_count == 2
    assert res.quotient.multiplicity(0, 1) == 2


def test_contract_set_must_be_connected():
    g = path_graph(4)
    with pytest.raises(GraphError):
        contract(g, mask_of([0, 3]))


def test_contract_edge_origin_maps_back():
    g = SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    res = contract(g, mask_of([0, 1, 2]))
    assert res.quotient.n == 3
    assert len(res.edge_origin) == res.quotient.edge_count == 2
    for new_eid, old_eid in enumerate(res.edge_origin):
        u, v = g.endpoints(old_eid)
        assert {res.vmap[u], res.vmap[v]} == set(res.quotient.endpoints(new_eid))


def test_induced_subgraph_and_relabel(rng):
    for _ in range(40):
        g = random_simple(rng, 6)
        mask = rng.randrange(1, 64)
        sub, verts = induced_subgraph(g, mask)
        assert sub.n == len(verts)
        for i, j in itertools.combinations(range(sub.n), 2):
            assert sub.has_edge(i, j) == g.has_edge(verts[i], verts[j])
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert sorted(h.degrees) == sorted(g.degrees)
        for u, v in g.edges:
            assert h.has_edge(perm[u], perm[v])


def test_edge_mask_of_accepts_unordered_pairs():
    g = path_graph(3)
    assert edge_mask_of(g, [(1, 0)]) == 0b01
    assert edge_mask_of(g, [(1, 2), (0, 1)]) == 0b11
    with pytest.raises(GraphError):
        edge_mask_of(g, [(0, 2)])
