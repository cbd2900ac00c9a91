"""Canonical form, labeling, orbits, isomorphism.

Invariance is the load-bearing property: relabeling a graph must never
change its canonical form, and two graphs get equal forms exactly when
some permutation maps one onto the other (checked against a factorial
brute-force matcher on small orders).
"""
import itertools

from clawham.canon import (
    are_isomorphic,
    automorphism_orbits,
    canon_simple_rows,
    canonical_form,
    canonical_labeling,
)
import pytest

from clawham.graphs import (
    GraphError,
    Multigraph,
    SimpleGraph,
    complete_bipartite,
    cycle_graph,
    path_graph,
    relabel,
    star_graph,
)


def random_simple(rng, n, p=0.5):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return SimpleGraph(n, pairs)


def random_multi(rng, n, p=0.5):
    """Multiplicities 1 to 3 on a random support."""
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                pairs.extend([(u, v)] * rng.randint(1, 3))
    return Multigraph(n, pairs)


def random_graph(rng, n, p=0.5):
    return random_multi(rng, n, p) if rng.random() < 0.5 else random_simple(rng, n, p)


def _mapped_edges(g, perm):
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)


def brute_isomorphic(g, h):
    """Some permutation maps g's edge multiset onto h's."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    target = list(h.edges)
    return any(
        _mapped_edges(g, perm) == target for perm in itertools.permutations(range(g.n))
    )


def doubled_star(leaves):
    return Multigraph(leaves + 1, [(0, v) for v in range(1, leaves + 1)] * 2)


def test_relabel_invariance_exhaustive_small():
    """All graphs on up to 4 vertices under all permutations."""
    for n in range(5):
        pairs_all = list(itertools.combinations(range(n), 2))
        for picks in range(1 << len(pairs_all)):
            g = SimpleGraph(n, [p for i, p in enumerate(pairs_all) if picks >> i & 1])
            form = canonical_form(g)
            for perm in itertools.permutations(range(n)):
                assert canonical_form(relabel(g, perm)) == form


def test_relabel_invariance_random(rng):
    for _ in range(200):
        n = rng.randint(1, 9)
        g = random_simple(rng, n, rng.choice([0.2, 0.5, 0.8]))
        form = canonical_form(g)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == form


def test_canonical_labeling_realizes_form(rng):
    """relabel by the canonical labeling lands every isomorph on one
    label-identical representative."""
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8))
        perm, form = canonical_labeling(g)
        canon_g = relabel(g, perm)
        assert canonical_form(canon_g) == form
        shuffle = list(range(g.n))
        rng.shuffle(shuffle)
        h = relabel(g, shuffle)
        perm_h, form_h = canonical_labeling(h)
        assert form_h == form
        assert relabel(h, perm_h).edges == canon_g.edges


def test_iso_decision_against_brute(rng):
    for _ in range(150):
        n = rng.randint(1, 6)
        g = random_graph(rng, n)
        h = random_graph(rng, n)
        assert are_isomorphic(g, h) == brute_isomorphic(g, h)
    # same support and edge count, multiplicities placed differently
    for _ in range(100):
        g = random_multi(rng, rng.randint(2, 6), 0.6)
        pairs = list(g.support_pairs)
        rng.shuffle(pairs)
        extra = g.edge_count - len(pairs)
        h = Multigraph(g.n, pairs + [rng.choice(pairs) for _ in range(extra)])
        assert are_isomorphic(g, h) == brute_isomorphic(g, h)


def test_iso_positive_pairs(rng):
    for _ in range(80):
        g = random_simple(rng, rng.randint(1, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert are_isomorphic(g, relabel(g, perm))


def test_classic_distinguishers():
    # same order and size, different structure
    c6 = cycle_graph(6)
    two_k3 = SimpleGraph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert not are_isomorphic(c6, two_k3)
    assert not are_isomorphic(c6, complete_bipartite(3, 3))
    assert not are_isomorphic(path_graph(4), star_graph(3))


def test_orbits_never_coarser_than_truth(rng):
    """Vertices reported in one orbit must really be swappable by an
    automorphism (brute force); refinements are allowed, mergers are not."""
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 6), rng.choice([0.3, 0.6]))
        orbits = automorphism_orbits(g)
        assert len(orbits) == g.n
        autos = [
            perm
            for perm in itertools.permutations(range(g.n))
            if _mapped_edges(g, perm) == list(g.edges)
        ]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if orbits[u] == orbits[v]:
                    assert any(perm[u] == v for perm in autos)


def test_vertex_colors_respected():
    g = path_graph(3)
    mid_marked = canonical_form(g, colors=[0b101, 0b010])
    ends_marked = canonical_form(g, colors=[0b010, 0b101])
    assert mid_marked != ends_marked
    # moving the structure and the colors together keeps the form:
    # path 1-0-2 has its middle at vertex 0
    h = relabel(g, [1, 0, 2])
    assert canonical_form(h, colors=[0b110, 0b001]) == mid_marked


def test_colors_must_partition():
    g = path_graph(3)
    with pytest.raises(GraphError):
        canonical_form(g, colors=[0b001, 0b011])  # overlap
    with pytest.raises(GraphError):
        canonical_form(g, colors=[0b001])  # vertex 1, 2 uncovered


def test_multigraph_forms_track_multiplicity():
    single = Multigraph(2, [(0, 1)])
    double = Multigraph(2, [(0, 1), (0, 1)])
    assert canonical_form(single) != canonical_form(double)
    assert are_isomorphic(double, Multigraph(2, [(0, 1), (0, 1)]))
    path_12 = Multigraph(3, [(0, 1), (1, 2), (1, 2)])
    path_21 = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    assert are_isomorphic(path_12, path_21)
    assert not are_isomorphic(path_12, Multigraph(3, [(0, 1), (1, 2), (0, 2)]))


def test_multigraph_forms_exhaustive_small():
    """Every multigraph on 4 vertices with multiplicities up to 2: forms
    split them exactly into the brute-force isomorphism classes."""
    pairs_all = list(itertools.combinations(range(4), 2))
    classes = {}
    for mults in itertools.product(range(3), repeat=len(pairs_all)):
        g = Multigraph(4, [p for p, k in zip(pairs_all, mults) for _ in range(k)])
        brute = min(tuple(_mapped_edges(g, perm)) for perm in itertools.permutations(range(4)))
        classes.setdefault(canonical_form(g), set()).add(brute)
    assert all(len(b) == 1 for b in classes.values())
    assert len({next(iter(b)) for b in classes.values()}) == len(classes)


def test_doubled_star_past_brute_force(rng):
    """Ten leaves give 10! symmetric orderings; the form still comes back,
    uncolored and with the center in a color class of its own."""
    g = doubled_star(10)
    perm = list(range(11))
    rng.shuffle(perm)
    h = relabel(g, perm)
    assert canonical_form(h) == canonical_form(g)
    center, leaves = 1 << 0, ((1 << 11) - 1) & ~1
    moved = 1 << perm[0]
    assert canonical_form(h, colors=[moved, ((1 << 11) - 1) & ~moved]) == canonical_form(
        g, colors=[center, leaves]
    )
    assert canonical_form(g, colors=[center, leaves]) != canonical_form(
        g, colors=[leaves, center]
    )


def test_multigraph_and_simple_forms_never_collide(rng):
    """The collapsibility memo keys simple graphs and multigraphs alike by
    their forms, so no form may serve both."""
    simple, multi = set(), set()
    for _ in range(300):
        g = random_multi(rng, rng.randint(1, 6))
        (multi if not g.is_simple else simple).add(canonical_form(g))
        simple.add(canonical_form(random_simple(rng, rng.randint(1, 6))))
    for n in range(1, 6):
        simple.add(canonical_form(star_graph(n)))
        multi.add(canonical_form(doubled_star(n)))
    assert multi and not simple & multi


def test_multigraph_relabel_invariance(rng):
    for _ in range(80):
        n = rng.randint(1, 6)
        pairs = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    pairs.extend([(u, v)] * rng.randint(1, 3))
        g = Multigraph(n, pairs)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)


def test_canon_rows_contract(rng):
    for _ in range(50):
        g = random_simple(rng, rng.randint(1, 7))
        form, order, orbits = canon_simple_rows(g.n, g.rows)
        assert isinstance(form, bytes)
        assert sorted(order) == list(range(g.n))
        assert all(orbits[orbits[v]] == orbits[v] for v in range(g.n))
