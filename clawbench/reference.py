#!/usr/bin/env python3
"""Expected instance counts of every clawham sweep, computed without
importing clawham, for the benchmark's correctness check.

Simple-graph families come from networkx's graph atlas (n <= 7) and, above
that, from vertex extension with networkx isomorphism dedup.  Per-order
class counts are checked against published totals where they exist.  The
output holds counts per order, so a sweep's expected count at cap N is the
sum over orders <= N.  Make it anew with

    python3 clawbench/reference.py --out clawbench/reference.json
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402

# Largest orders counted: simple graphs, and marked-edge multigraphs (edge
# multiplicity <= 2).  The published totals below stop at n = 8.
MAX_N = 8
MARKED_MAX_N = 7

# Unlabeled graphs on n vertices: OEIS A000088 (all), A001349 (connected),
# A022562 (claw-free) and A006785 (triangle-free).
PUBLISHED = {
    "all": {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346},
    "connected": {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117},
    "claw_free": {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 85, 7: 302, 8: 1285},
    "triangle_free": {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107, 8: 410},
}


def simple_counts(max_n: int) -> tuple:
    """(family counts, sweep counts), each a dict name -> {order: count}."""
    fam = {k: {} for k in ("all", "connected", "claw_free", "triangle_free")}
    sweeps = {k: {} for k in (
        "closure", "min-degree-hamilton", "net-condition-hamilton",
        "dct-or-heavy-matching", "spider-net", "line-hamilton-dct",
        "matching-degree-sum", "matching-degree-sum.graphs_examined",
        "collapsible-remainder", "short-cycle-collapsible",
    )}
    for n, graphs in sorted(oracle.graphs_by_order(max_n).items()):
        c = dict.fromkeys(list(fam) + list(sweeps), 0)
        for g in graphs:
            conn = oracle.nx.is_connected(g)
            cf = oracle.is_claw_free(g)
            tf = oracle.is_triangle_free(g)
            e2 = oracle.is_ess_2ec(g)
            c["all"] += 1
            c["connected"] += conn
            c["claw_free"] += cf
            c["triangle_free"] += tf
            if conn and g.number_of_edges() >= 3:
                c["line-hamilton-dct"] += 1
            if e2:
                c["collapsible-remainder"] += 1
            if e2 and tf and n >= 2:
                c["matching-degree-sum.graphs_examined"] += 1
                if not oracle.has_dct(n, sorted(tuple(sorted(e)) for e in g.edges())):
                    c["matching-degree-sum"] += 1
            if oracle.short_cycle_hypothesis(g):
                c["short-cycle-collapsible"] += 1
            if cf and oracle.is_two_connected(g):
                c["closure"] += 1
                c["net-condition-hamilton"] += 1
                if 3 * min(d for _, d in g.degree()) >= n - 2:
                    c["min-degree-hamilton"] += 1
                if oracle.net_condition(g):
                    c["dct-or-heavy-matching"] += 1
                    if oracle.has_spider(oracle.root(oracle.closure(g))):
                        c["spider-net"] += 1
        for k in fam:
            fam[k][n] = c[k]
        for k in sweeps:
            sweeps[k][n] = c[k]
        print(f"n={n}: {c}", file=sys.stderr, flush=True)
    return fam, sweeps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the JSON here (default stdout)")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()

    fam, sweeps = simple_counts(MAX_N)
    for name, want in PUBLISHED.items():
        for n, got in fam[name].items():
            if n in want and got != want[n]:
                raise SystemExit(f"{name} graphs on {n} vertices: {got}, published {want[n]}")

    sweeps["marked-edge-dct"] = {}
    for n in range(2, MARKED_MAX_N + 1):
        sweeps["marked-edge-dct"][n] = len(oracle.marked_edge_classes(n, 2))
        print(f"marked n={n}: {sweeps['marked-edge-dct'][n]}", file=sys.stderr, flush=True)
    sweeps["c5-attachment"] = {7: len(oracle.attachment_classes())}
    sweeps["gadget"] = {8: 1}

    out = {
        "command": "python3 clawbench/reference.py",
        "max_multiplicity": 2,
        "published_checked": sorted(PUBLISHED),
        "families": {k: {str(n): c for n, c in v.items()} for k, v in fam.items()},
        "sweeps": {k: {str(n): c for n, c in v.items()} for k, v in sweeps.items()},
    }
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"done in {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
