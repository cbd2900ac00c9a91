"""Isomorph-free enumeration against ground truth.

Unlabeled counts for small orders are frozen from the literature-stable
values and double-checked by an independent generate-all-and-dedup oracle
in tests/oracles.py (itself exercised here against a third, test-local
filter pipeline for the structured families).
"""
import itertools
import json

import pytest

from clawham.canon import canonical_form
from clawham.clawfree import is_claw_free
from clawham.enumeration import (
    ENUMERATE_MAX_N,
    FamilySpec,
    attachment_instances,
    count_graphs,
    enumerate_graphs,
    marked_edge_instances,
)
from clawham.graphs import (
    GraphError,
    SimpleGraph,
    is_2_connected,
    is_connected,
    is_essentially_2_edge_connected,
    is_triangle_free,
)
from oracles import enumerate_by_dedup, marked_edge_instances_brute

# unlabeled simple graphs on n = 1..7 vertices
ALL_GRAPH_COUNTS = [1, 2, 4, 11, 34, 156, 1044]
# unlabeled connected simple graphs on n = 1..7
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853]
# unlabeled triangle-free simple graphs on n = 1..7
TRIANGLE_FREE_COUNTS = [1, 2, 3, 7, 14, 38, 107]


def spec_n(n, **kw):
    return FamilySpec(n=n, **kw)


def test_unrestricted_counts_match_frozen():
    for n, expect in enumerate(ALL_GRAPH_COUNTS, start=1):
        assert count_graphs(spec_n(n)) == expect


def test_connected_counts_match_frozen():
    for n, expect in enumerate(CONNECTED_COUNTS, start=1):
        assert count_graphs(spec_n(n, connected=True)) == expect


def test_triangle_free_counts_match_frozen():
    for n, expect in enumerate(TRIANGLE_FREE_COUNTS, start=1):
        assert count_graphs(spec_n(n, triangle_free=True)) == expect


def test_pools_match_dedup_oracle():
    """The augmentation stream and the all-graphs dedup oracle agree as
    canonical form multisets, for every hereditary family flag."""
    for n in range(1, 7):
        oracle = {canonical_form(g) for g in enumerate_by_dedup(n)}
        mine = {canonical_form(g) for g in enumerate_graphs(spec_n(n))}
        assert mine == oracle
        tf_oracle = {
            canonical_form(g) for g in enumerate_by_dedup(n) if is_triangle_free(g)
        }
        tf = {canonical_form(g) for g in enumerate_graphs(spec_n(n, triangle_free=True))}
        assert tf == tf_oracle
        cf_oracle = {
            canonical_form(g) for g in enumerate_by_dedup(n) if is_claw_free(g)
        }
        cf = {canonical_form(g) for g in enumerate_graphs(spec_n(n, claw_free=True))}
        assert cf == cf_oracle


def test_streams_have_no_duplicates():
    for n in range(1, 8):
        forms = [canonical_form(g) for g in enumerate_graphs(spec_n(n))]
        assert len(forms) == len(set(forms))


def test_final_filters():
    for n in range(3, 7):
        for g in enumerate_graphs(spec_n(n, two_connected=True)):
            assert is_2_connected(g)
        for g in enumerate_graphs(spec_n(n, essentially_2_edge_connected=True)):
            assert is_connected(g) and is_essentially_2_edge_connected(g)
        for g in enumerate_graphs(spec_n(n, min_degree=2)):
            assert min(g.degrees) >= 2
    # K4 and C4 are the 2-connected graphs on 4 vertices, plus the diamond
    assert count_graphs(spec_n(4, two_connected=True)) == 3


def test_spec_validation():
    with pytest.raises(GraphError):
        count_graphs(FamilySpec(n=ENUMERATE_MAX_N + 1))
    assert count_graphs(FamilySpec(n_min=3, n_max=2)) == 0  # empty range
    with pytest.raises(GraphError):
        count_graphs(FamilySpec())
    with pytest.raises(GraphError):
        FamilySpec.from_json({"n": 4, "bogus": 1})
    spec = FamilySpec.from_json(json.loads('{"n_min": 2, "n_max": 4, "connected": true}'))
    assert list(spec.orders()) == [2, 3, 4]
    assert FamilySpec.from_json(spec.to_json()) == spec


def test_deterministic_streams():
    a = [g.edges for g in enumerate_graphs(spec_n(6, claw_free=True))]
    b = [g.edges for g in enumerate_graphs(spec_n(6, claw_free=True))]
    assert a == b


def test_range_specs_concatenate_orders():
    total = sum(count_graphs(spec_n(n)) for n in (3, 4, 5))
    assert count_graphs(FamilySpec(n_min=3, n_max=5)) == total


# ---------------------------------------------------------------------------
# structured instance families


def test_attachment_instances_frozen_count():
    insts = attachment_instances()
    assert len(insts) == 4
    # exactly one carries the edge between the two attached vertices,
    # and the stream puts it last
    flags = [inst.has_attacher_edge for inst in insts]
    assert flags == [False, False, False, True]


def test_attachment_instances_shape():
    for inst in attachment_instances():
        g = inst.graph
        assert g.n == 7
        assert is_triangle_free(g)
        assert set(inst.cycle) == set(range(5))
        w1, w2 = inst.attachers
        assert {w1, w2} == {5, 6}
        for w in (w1, w2):
            on_cycle = [u for u in range(5) if g.has_edge(w, u)]
            assert len(on_cycle) == 2
        # attachment_edges marks exactly the four attacher-to-cycle edges
        marked = [g.endpoints(e) for e in range(g.edge_count) if inst.attachment_edges >> e & 1]
        assert len(marked) == 4
        assert all((u in (5, 6)) != (v in (5, 6)) for u, v in marked)


def test_attachment_instances_cover_all_labelings():
    """Independent derivation: every triangle-free way of 2-attaching two
    vertices to C5 (with or without the connecting edge) appears, up to
    the marked isomorphism."""
    cyc = [(i, (i + 1) % 5) for i in range(5)]
    seen = set()
    for pair1 in itertools.combinations(range(5), 2):
        for pair2 in itertools.combinations(range(5), 2):
            for wedge in (False, True):
                pairs = [tuple(sorted(p)) for p in cyc]
                pairs += [(min(5, u), max(5, u)) for u in pair1]
                pairs += [(min(6, u), max(6, u)) for u in pair2]
                if wedge:
                    pairs.append((5, 6))
                g = SimpleGraph(7, pairs)
                if not is_triangle_free(g):
                    continue
                seen.add(canonical_form(g, colors=[0b0011111, 0b1100000]))
    got = {
        canonical_form(inst.graph, colors=[0b0011111, 0b1100000])
        for inst in attachment_instances()
    }
    assert got == seen
    assert len(seen) == 4


def test_marked_edge_instances_match_brute():
    for n in (2, 3, 4):
        structured = list(marked_edge_instances(n))
        structured = [i for i in structured if i.graph.n == n]
        brute = marked_edge_instances_brute(n)

        def key(inst):
            rest = ((1 << inst.graph.n) - 1) ^ (1 << inst.x | 1 << inst.y)
            return canonical_form(
                inst.graph, colors=[1 << inst.x | 1 << inst.y, rest]
            )

        assert {key(i) for i in structured} == {key(i) for i in brute}
        assert len(structured) == len({key(i) for i in structured})


def test_marked_edge_instances_hypotheses():
    count = 0
    for inst in marked_edge_instances(5):
        count += 1
        g = inst.graph
        assert g.has_edge(inst.x, inst.y)
        assert g.degree(inst.x) >= 2 and g.degree(inst.y) >= 2
        assert is_essentially_2_edge_connected(g)
        off = sum(
            1
            for e in range(g.edge_count)
            if inst.x not in g.endpoints(e) and inst.y not in g.endpoints(e)
        )
        assert off <= 2
        assert max(
            g.multiplicity(u, v) for u, v in g.support_pairs
        ) <= 2
    assert count > 100


def test_marked_edge_stream_deterministic():
    a = [(i.graph.edges, i.x, i.y) for i in marked_edge_instances(4)]
    b = [(i.graph.edges, i.x, i.y) for i in marked_edge_instances(4)]
    assert a == b
