"""Line graph construction and triangle-free root reconstruction.

The forward direction (line_graph) is elementary, so it anchors the tests:
root reconstruction must invert it up to isomorphism on every small host,
and the Krausz validator must reject anything that is not a genuine
edge-clique cover with the right local counts.
"""
import hashlib
import itertools

import pytest

from clawham.canon import are_isomorphic, canonical_form
from clawham.clawfree import closure, is_claw_free
from clawham.enumeration import FamilySpec, enumerate_graphs
from clawham.graphio import write_graph6
from clawham.graphs import (
    GraphError,
    Multigraph,
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_triangle_free,
    path_graph,
    star_graph,
)
from clawham.linegraph import (
    NotALineGraphError,
    NotClosedError,
    _krausz_cliques,
    line_graph,
    root_graph,
    validate_krausz,
)
from oracles import krausz_partitions_brute, verify_line_iso


def test_line_graph_small_catalog():
    lp4, edges = line_graph(path_graph(4))
    assert edges == ((0, 1), (1, 2), (2, 3))
    assert are_isomorphic(lp4, path_graph(3))
    lc5, _ = line_graph(cycle_graph(5))
    assert are_isomorphic(lc5, cycle_graph(5))
    lk13, _ = line_graph(star_graph(3))
    assert are_isomorphic(lk13, complete_graph(3))
    lk4, _ = line_graph(complete_graph(4))
    # L(K4) = K_{2,2,2}, the octahedron: 6 vertices, degree 4
    assert lk4.n == 6 and set(lk4.degrees) == {4}


def test_line_graph_rejects_multigraphs():
    with pytest.raises(GraphError):
        line_graph(Multigraph(2, [(0, 1), (0, 1)]))


def test_line_graph_adjacency_is_shared_endpoint():
    h = SimpleGraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    lg, edges = line_graph(h)
    for i, j in itertools.combinations(range(len(edges)), 2):
        shares = bool(set(edges[i]) & set(edges[j]))
        assert lg.has_edge(i, j) == shares


def test_root_of_triangle_is_the_claw():
    res = root_graph(complete_graph(3))
    assert are_isomorphic(res.root, star_graph(3))
    # K3's other root K3 has a triangle: its three parts pairwise intersect
    assert krausz_partitions_brute(complete_graph(3)) == [list(res.partition.cliques)]
    assert is_triangle_free(res.root)


def test_root_round_trip_on_enumerated_hosts():
    """root(L(H)) recovers H up to isomorphism for every connected
    triangle-free host with at least 3 edges and no K3 ambiguity."""
    spec = FamilySpec(n_min=2, n_max=6, connected=True, triangle_free=True)
    for h in enumerate_graphs(spec):
        if h.edge_count < 1:
            continue
        lg, _ = line_graph(h)
        if not is_claw_free(lg) or closure(lg).edges != lg.edges:
            # line graphs of triangle-free hosts are claw-free and closed;
            # anything else would be a bug worth failing loudly on
            raise AssertionError(f"line graph of {h.edges} not closed claw-free")
        res = root_graph(lg)
        assert are_isomorphic(res.root, h)
        assert verify_line_iso(res.root, lg)


def test_root_vertex_edge_correspondence():
    h = SimpleGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    lg, edges = line_graph(h)
    res = root_graph(lg)
    # vertex_to_edge maps each line-graph vertex to a root edge id;
    # adjacency must mirror edge intersection exactly
    for i, j in itertools.combinations(range(lg.n), 2):
        ei = set(res.root.endpoints(res.vertex_to_edge[i]))
        ej = set(res.root.endpoints(res.vertex_to_edge[j]))
        assert lg.has_edge(i, j) == bool(ei & ej)


def test_root_rejects_claws_and_unclosed_input():
    with pytest.raises(NotALineGraphError) as exc:
        root_graph(star_graph(3))
    assert exc.value.certificate is not None
    # C6 is claw-free and closed, fine; C6 plus a pendant triangle forming
    # an eligible vertex is claw-free but not closed
    diamond = SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(NotClosedError):
        root_graph(diamond)


def test_root_requires_connected_input():
    two = SimpleGraph(2, [])
    with pytest.raises(GraphError):
        root_graph(two)


def test_single_vertex_root_is_an_edge():
    res = root_graph(SimpleGraph(1, []))
    assert res.root.edge_count == 1
    assert res.root.n == 2


def test_whitney_ambiguity_resolved_by_triangle_freeness():
    """L(K3) = L(K1,3) = K3 is the classical ambiguity; triangle-free
    filtering leaves only the claw."""
    k3 = complete_graph(3)
    assert len(krausz_partitions_brute(k3)) == 1
    assert are_isomorphic(root_graph(k3).root, star_graph(3))
    # whereas C5's root is C5 itself, unique outright
    assert len(krausz_partitions_brute(cycle_graph(5))) == 1
    assert are_isomorphic(root_graph(cycle_graph(5)).root, cycle_graph(5))


def test_krausz_validator_accepts_real_partitions():
    h = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    lg, edges = line_graph(h)
    res = root_graph(lg)
    part = validate_krausz(lg, res.partition.cliques)
    assert part.cliques == res.partition.cliques


def test_krausz_validator_rejections():
    g = complete_graph(3)
    # not covering every edge
    with pytest.raises(GraphError):
        validate_krausz(g, [0b011])
    # a part that is not a clique
    p4 = path_graph(4)
    with pytest.raises(GraphError):
        validate_krausz(p4, [0b1111])
    # vertex in three parts: star of three triangles sharing vertex 0
    tri3 = SimpleGraph(
        7,
        [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)],
    )
    with pytest.raises(GraphError):
        validate_krausz(
            tri3, [0b0000111, 0b0011001, 0b1100001]
        )
    # double-counted edge: two parts sharing two vertices
    k4 = complete_graph(4)
    with pytest.raises(GraphError):
        validate_krausz(k4, [0b0111, 0b1110, 0b1001])


def test_roots_of_closed_claw_free_graphs_exist_and_are_unique():
    """Every closed 2-connected claw-free graph up to n = 7 admits exactly
    one triangle-free root class."""
    spec = FamilySpec(n_min=3, n_max=7, two_connected=True, claw_free=True)
    seen = 0
    for g in enumerate_graphs(spec):
        c = closure(g)
        if c.edges != g.edges:
            continue  # only closed representatives
        seen += 1
        res = root_graph(c)
        assert krausz_partitions_brute(c) == [list(res.partition.cliques)]
        assert is_triangle_free(res.root) and res.root.is_simple
        assert verify_line_iso(res.root, c)
    assert seen > 0


def test_krausz_parts_match_the_partition_oracle():
    """On closed claw-free graphs the partition is unique, and the parts
    read off the edges are it, in the oracle's order."""
    closures = [
        closure(g)
        for g in enumerate_graphs(
            FamilySpec(n_min=3, n_max=8, two_connected=True, claw_free=True)
        )
    ]
    hosts = list(
        enumerate_graphs(FamilySpec(n_min=2, n_max=7, connected=True, triangle_free=True))
    )
    assert (len(closures), len(hosts)) == (789, 89)
    for g in closures + [line_graph(h)[0] for h in hosts]:
        assert krausz_partitions_brute(g) == [list(root_graph(g).partition.cliques)]


def test_krausz_parts_reject_non_line_graphs():
    """root_graph turns the diamond away as not closed, so the part reader
    is called directly; each labelling breaks it a different way."""
    shared = SimpleGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(NotALineGraphError, match="lies in two parts"):
        _krausz_cliques(shared)
    gapped = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(NotALineGraphError, match="not a clique"):
        _krausz_cliques(gapped)


# sha256 over (graph6 of the closure, root order, root edges, vertex_to_edge,
# partition cliques) for the closure of every 2-connected claw-free graph
# with n <= 7, in enumeration order: the labeled roots the sweeps report
# must not move when only the way a root is chosen changes
FROZEN_ROOTS_N7 = (170, "75899c05744c5b1f4d0ad8a41080bb09361e35729d86bf1094f8fe5a283da74e")


def test_only_counting_canonizes_roots(monkeypatch):
    """The partition is read off the edges, so there is nothing to choose
    between: root_graph must not canonize.  The digest pins the labeled
    roots."""
    closed = [
        closure(g)
        for g in enumerate_graphs(
            FamilySpec(n_min=3, n_max=7, two_connected=True, claw_free=True)
        )
    ]

    def no_canon(*args, **kwargs):
        raise AssertionError("canonical_form called by root_graph")

    monkeypatch.setattr("clawham.linegraph.canonical_form", no_canon)
    digest = hashlib.sha256()
    for c in closed:
        res = root_graph(c)
        digest.update(
            repr(
                (write_graph6(c), res.root.n, res.root.edges, res.vertex_to_edge,
                 res.partition.cliques)
            ).encode()
        )
    assert (len(closed), digest.hexdigest()) == FROZEN_ROOTS_N7


def test_line_perfect_examples():
    # L(K_{3,3}) is 4-regular on 9 vertices
    lg, _ = line_graph(complete_bipartite(3, 3))
    assert lg.n == 9 and set(lg.degrees) == {4}
    res = root_graph(lg)
    assert are_isomorphic(res.root, complete_bipartite(3, 3))
