"""Seeded audit of clawham's answers against the independent oracles.

Runs after the timed rounds.  For a seeded sample of each workload's
family members it recomputes the answer by brute force or networkx and
replays every witness clawham returns.  Returns (checks made, problems).
"""
from __future__ import annotations

import random

import networkx as nx

import oracle

from clawham.clawfree import closure, net_condition_holds
from clawham.graphs import Multigraph, SimpleGraph
from clawham.linegraph import line_graph, root_graph
from clawham.trails import closed_trail_exists, is_collapsible, is_hamiltonian, parity_subgraph

SAMPLE = 20


class Audit:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.checks = 0
        self.problems = []
        self._atlas = None

    def expect(self, ok: bool, what: str):
        self.checks += 1
        if not ok:
            self.problems.append(what)

    def graphs(self, keep, k=SAMPLE):
        if self._atlas is None:
            self._atlas = [g for n, gs in sorted(oracle.graphs_by_order(7).items()) for g in gs]
        pool = [g for g in self._atlas if keep(g)]
        return self.rng.sample(pool, min(k, len(pool)))

    # -- witnesses ---------------------------------------------------------

    def hamilton(self, g: nx.Graph, cg, label: str):
        cyc = is_hamiltonian(cg)
        self.expect((cyc is not None) == oracle.hamiltonian(g), f"{label}: Hamiltonicity")
        if cyc is not None:
            self.expect(oracle.is_hamilton_cycle(g, cyc), f"{label}: Hamilton cycle replay")

    def trail(self, mg, trail, required, label: str):
        pairs = mg.edges
        ok = oracle.is_closed_trail(mg.n, pairs, trail.vertices, trail.edge_ids)
        vmask = sum(1 << v for v in set(trail.vertices))
        ok = ok and not required & ~vmask
        ok = ok and all(vmask >> u & 1 or vmask >> v & 1 for u, v in pairs)
        self.expect(ok, f"{label}: dominating trail replay")

    def dct(self, mg, required, label: str):
        got = closed_trail_exists(mg, mode="dominating", required_vertices=required)
        want = oracle.has_dct(mg.n, mg.edges, required)
        self.expect((got is not None) == want, f"{label}: DCT existence")
        if got is not None:
            self.trail(mg, got, required, label)

    # -- workloads ---------------------------------------------------------

    def clawfree_pipeline(self):
        def member(g):
            return oracle.is_two_connected(g) and oracle.is_claw_free(g)

        for g in self.graphs(member):
            cg = SimpleGraph(g.number_of_nodes(), g.edges())
            label = f"clawfree {sorted(g.edges())}"
            self.hamilton(g, cg, label)
            c = oracle.closure(g)
            cc = closure(cg)
            self.expect(set(cc.edges) == {tuple(sorted(e)) for e in c.edges()}, f"{label}: closure")
            self.hamilton(c, cc, label + " closure")
            root = root_graph(cc).root
            lr = nx.line_graph(nx.Graph(root.edges))
            self.expect(nx.is_isomorphic(lr, c), f"{label}: L(root) ~ closure")
            self.expect(root.edge_count == cc.n, f"{label}: |E(root)| = |V(closure)|")
            self.expect(oracle.is_triangle_free(nx.Graph(root.edges)), f"{label}: root triangle-free")
            self.dct(root, 0, label + " root")
            self.expect(net_condition_holds(cg) == oracle.net_condition(g), f"{label}: net condition")

    def multigraph_trails(self):
        made = 0
        while made < SAMPLE:
            n = self.rng.randint(3, 6)
            types = [(self.rng.randint(0, 2), self.rng.randint(0, 2)) for _ in range(n - 2)]
            spairs = [(u, v) for u in range(2, n) for v in range(u + 1, n)]
            inside = self.rng.sample(spairs, min(len(spairs), self.rng.randint(0, 2)))
            pairs = oracle.marked_edge_candidate(n, self.rng.randint(1, 2), types, inside)
            if pairs is None or len(pairs) > 16:
                continue
            made += 1
            self.dct(Multigraph(n, pairs), 0b11, f"marked-edge {n} {pairs}")

        def member(g):
            return nx.is_connected(g) and 3 <= g.number_of_edges() <= 10

        for h in self.graphs(member):
            label = f"line-hamilton {sorted(h.edges())}"
            lg, _ = line_graph(SimpleGraph(h.number_of_nodes(), h.edges()))
            lnx = nx.Graph()
            lnx.add_nodes_from(range(lg.n))
            lnx.add_edges_from(lg.edges)
            self.expect(nx.is_isomorphic(lnx, nx.line_graph(h)), f"{label}: line graph")
            self.hamilton(lnx, lg, label)
            brute = oracle.has_dct(h.number_of_nodes(), sorted(tuple(sorted(e)) for e in h.edges()))
            self.expect(oracle.hamiltonian(lnx) == brute, f"{label}: oracle L(H) vs DCT")

    def all_graphs_collapsible(self):
        def small(g, m=13):
            return nx.is_connected(g) and g.number_of_edges() <= m

        picks = self.graphs(lambda g: oracle.short_cycle_hypothesis(g) and small(g, 14), SAMPLE // 2)
        picks += self.graphs(lambda g: oracle.is_ess_2ec(g) and small(g), SAMPLE // 2)
        for g in picks:
            n = g.number_of_nodes()
            cg = SimpleGraph(n, g.edges())
            label = f"collapsible {sorted(g.edges())}"
            got = is_collapsible(cg)
            self.expect(got == oracle.is_collapsible(n, cg.edges), f"{label}: collapsibility")
            if got and n > 1:
                r = self.rng.randrange(1 << n)
                if r.bit_count() & 1:
                    r ^= 1
                wit = parity_subgraph(cg, r)
                odd = vmask = 0
                for e in range(cg.edge_count):
                    if wit >> e & 1:
                        u, v = cg.endpoints(e)
                        odd ^= 1 << u | 1 << v
                        vmask |= 1 << u | 1 << v
                ok = odd == r and vmask == (1 << n) - 1 and oracle.edges_connected(cg.edges, wit)
                self.expect(ok, f"{label}: parity witness for {r:b}")

        def member(g):
            return oracle.is_triangle_free(g) and oracle.is_ess_2ec(g) and g.number_of_nodes() >= 2

        for g in self.graphs(member):
            self.dct(SimpleGraph(g.number_of_nodes(), g.edges()), 0, f"tf-e2ec {sorted(g.edges())}")


def run(workload: str, seed: int):
    audit = Audit(seed)
    getattr(audit, workload.replace("-", "_"))()
    return audit.checks, audit.problems
