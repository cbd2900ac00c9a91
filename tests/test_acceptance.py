"""Acceptance gate: twelve criteria, one test (and one pass/fail line in
the -v output) per criterion, wall-clock budgets pinned as assertions.

Budgets are generous relative to measured times on a stock container;
they exist to catch complexity regressions, not scheduling jitter.
Sweeps run at their full advertised caps here, nowhere else in the suite,
and each pins its instance count at that cap.  The three sweeps that no
criterion names (dct-or-heavy-matching, collapsible-remainder, spider-net)
run here too, after the criteria.
"""
import itertools
import json
import random
import time

import pytest

from clawham.canon import canonical_form
from clawham import enumeration
from clawham.enumeration import FamilySpec, enumerate_graphs
from clawham.graphio import parse_graph6, write_graph6
from clawham.graphs import (
    SimpleGraph,
    bits,
    complete_bipartite,
    complete_graph,
    contract,
    cycle_graph,
    is_connected,
    relabel,
)
from clawham.trails import (
    closed_trail_exists,
    is_collapsible,
    lift_dct,
    validate_closed_trail,
)
from clawham.verify import run_check
from oracles import enumerate_by_dedup

K33_MINUS = SimpleGraph(
    6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]
)


def _report(label, elapsed, budget):
    line = f"{label}: PASS ({elapsed:.1f}s, budget {budget}s)"
    print(line, flush=True)
    assert elapsed < budget, f"{label} exceeded its {budget}s budget: {elapsed:.1f}s"


def _sweep(label, name, budget, **kwargs):
    t0 = time.perf_counter()
    res = run_check(name, **kwargs)
    elapsed = time.perf_counter() - t0
    assert res.verdict == "pass", (
        f"{label}: verdict {res.verdict}, counterexamples "
        f"{res.counterexamples[:3]}"
    )
    assert res.counterexamples == []
    _report(label, elapsed, budget)
    return res


def test_criterion_01_collapsibility_calibration():
    t0 = time.perf_counter()
    assert is_collapsible(complete_bipartite(3, 3))
    assert is_collapsible(K33_MINUS)
    assert not is_collapsible(cycle_graph(4))
    assert is_collapsible(complete_graph(3))
    _report("criterion 1 (collapsibility calibration)", time.perf_counter() - t0, 5)


def test_criterion_02_five_cycle_attachment_sweep():
    res = _sweep("criterion 2 (5-cycle attachment sweep)", "c5-attachment", 10)
    assert res.instances == 4


def test_criterion_03_marked_edge_dct_sweep():
    res = _sweep(
        "criterion 3 (marked-edge DCT sweep)",
        "marked-edge-dct",
        300,
        max_n=8,
        max_multiplicity=2,
    )
    assert res.instances == 150_468


def test_criterion_04_line_hamilton_dct_equivalence():
    res = _sweep(
        "criterion 4 (line-graph Hamiltonicity = DCT)",
        "line-hamilton-dct",
        600,
        max_n=7,
    )
    assert res.instances == 993  # connected simple graphs, |E| >= 3, n <= 7


def test_criterion_05_closure_sweep():
    res = _sweep("criterion 5 (closure preservation + roots)", "closure", 900, max_n=9)
    assert res.instances == 4_121


def test_criterion_06_min_degree_sweep():
    res = _sweep(
        "criterion 6 (minimum-degree Hamiltonicity)",
        "min-degree-hamilton",
        900,
        max_n=10,
    )
    assert res.instances == 20_457
    # the sweep built the claw-free level n = 10; all of it, not just the
    # 2-connected members the sweep walks
    assert len(enumeration._pool(10, False, True, None)) == 34_294


def test_criterion_07_net_condition_sweep():
    res = _sweep(
        "criterion 7 (net condition + pipeline agreement)",
        "net-condition-hamilton",
        1800,
        max_n=10,
    )
    assert res.instances == 25_031


def test_criterion_08_matching_degree_sum_sweep():
    res = _sweep(
        "criterion 8 (3-matching edge-degree bound)",
        "matching-degree-sum",
        600,
        max_n=8,
    )
    assert res.instances == 4


def test_criterion_09_lift_dct_random_suite():
    t0 = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    done = 0
    attempts = 0
    while done < 300:
        attempts += 1
        assert attempts < 30_000, "instance generator starved"
        n = rng.randint(3, 7)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.choice([0.45, 0.65])
        ]
        h = SimpleGraph(n, pairs)
        if h.edge_count > 14 or not is_connected(h):
            continue
        fmask = 0
        for v in range(n):
            if rng.random() < 0.5:
                fmask |= 1 << v
        if not fmask or fmask == (1 << n) - 1:
            continue
        verts = list(bits(fmask))
        pos = {v: i for i, v in enumerate(verts)}
        sub = SimpleGraph(
            len(verts),
            [
                (pos[u], pos[v])
                for u, v in h.edges
                if fmask >> u & 1 and fmask >> v & 1
            ],
        )
        if not is_connected(sub) or not is_collapsible(sub):
            continue
        cres = contract(h, fmask)
        trail = closed_trail_exists(
            cres.quotient, mode="dominating", required_vertices=1 << cres.v_new
        )
        if trail is None:
            continue
        lifted = lift_dct(h, fmask, trail)
        # independent validation: trail-ness, coverage of F, domination
        validate_closed_trail(
            h, lifted, mode="dominating", required_vertices=fmask
        )
        done += 1
    _report("criterion 9 (300 lifted trails validated)", time.perf_counter() - t0, 120)


def test_criterion_10_short_cycle_collapsibility_sweep():
    res = _sweep(
        "criterion 10 (short-cycle hypothesis implies collapsible)",
        "short-cycle-collapsible",
        600,
        max_n=8,
    )
    assert res.instances == 2_724


def test_criterion_11_gadget_fixture_replays():
    t0 = time.perf_counter()
    first = run_check("gadget")
    second = run_check("gadget")
    assert first.verdict == second.verdict == "pass"
    assert first.instances == 1
    assert first.to_json(with_elapsed=False) == second.to_json(with_elapsed=False)
    assert first.params == {"sct_expected": False, "dct_expected": True}
    _report("criterion 11 (gadget fixture frozen replay)", time.perf_counter() - t0, 60)


def test_criterion_12_infrastructure():
    t0 = time.perf_counter()
    rng = random.Random(0x12AB)
    # graph6 round-trip on 10^4 random graphs, bit-exact both directions
    for _ in range(10_000):
        n = rng.randint(0, 13)
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = SimpleGraph(n, pairs)
        line = write_graph6(g)
        back = parse_graph6(line)
        assert back.n == g.n and back.edges == g.edges
        assert write_graph6(back) == line
    # canonical form invariant under relabeling, every class with n <= 7
    for n in range(1, 8):
        for g in enumerate_graphs(FamilySpec(n=n)):
            form = canonical_form(g)
            for _ in range(6):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == form
    # enumeration counts match the generate-and-dedup oracle for n <= 7
    for n in range(1, 8):
        oracle = {canonical_form(g) for g in enumerate_by_dedup(n)}
        stream = [canonical_form(g) for g in enumerate_graphs(FamilySpec(n=n))]
        assert len(stream) == len(set(stream)) == len(oracle)
        assert set(stream) == oracle
    _report("criterion 12 (graph6 + canon + enumeration infra)", time.perf_counter() - t0, 300)


def test_dct_or_heavy_matching_sweep():
    res = _sweep(
        "dct-or-heavy-matching (DCT or heavy 4-matching in the root)",
        "dct-or-heavy-matching",
        600,
        max_n=10,
    )
    assert res.instances == 23_608


def test_collapsible_remainder_sweep():
    res = _sweep(
        "collapsible-remainder (essentially 2-edge-connected, n <= 8)",
        "collapsible-remainder",
        600,
        max_n=8,
    )
    assert res.instances == 11_493


def test_spider_net_sweep():
    res = _sweep(
        "spider-net (net condition with a subdivided claw, n <= 9)",
        "spider-net",
        300,
        max_n=9,
    )
    assert res.instances == 0  # no member of the family reaches the claim
