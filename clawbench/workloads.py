"""The benchmark's workloads: which registered sweeps one round runs, in
order, and with which caps.  A round is one fresh interpreter running these
sweeps through clawham.verify.run_check, as scripts/run_all_checks.py does.

The caps are below the sweeps' defaults so that a round takes 1.3 to 3.5 s
on a 2-core machine and a 30 s run holds 8 to 22 rounds, enough for the
median round to be steady; see README.md for the measured spread.
"""

WORKLOADS = {
    # The five sweeps over the 2-connected claw-free family; root
    # reconstruction dominates.
    "clawfree-pipeline": [
        ("closure", {"max_n": 7}),
        ("min-degree-hamilton", {"max_n": 7}),
        ("net-condition-hamilton", {"max_n": 7}),
        ("dct-or-heavy-matching", {"max_n": 7}),
        ("spider-net", {"max_n": 7}),
    ],
    # Multigraph families and closed trails; the weighted canonical form
    # dominates, simple-graph enumeration and roots barely run.
    "multigraph-trails": [
        ("gadget", {}),
        ("c5-attachment", {}),
        ("marked-edge-dct", {"max_n": 6, "max_multiplicity": 2}),
        ("line-hamilton-dct", {"max_n": 7}),
    ],
    # Unpruned enumeration of all graphs plus collapsibility.
    "all-graphs-collapsible": [
        ("short-cycle-collapsible", {"max_n": 7}),
        ("collapsible-remainder", {"max_n": 7}),
        ("matching-degree-sum", {"max_n": 7}),
    ],
}

# Sweeps that examine every member their family generator yields; on these
# the traced generator counts must equal the reported operations.
EXAMINES_EVERY_MEMBER = {
    "closure", "net-condition-hamilton", "marked-edge-dct", "c5-attachment",
    "collapsible-remainder", "matching-degree-sum",
}


# Per-layer figures that the workload exists to move (README.md, "Per-layer
# metrics").  A traced run that reads 0 on one of them has lost the layer,
# most likely because the code it wraps moved, and is not correct.
MOVING_LAYERS = {
    "clawfree-pipeline": (
        "verify.family_walks", "enumeration.canon_calls", "enumeration.canon_calls_per_class",
        "canon.simple_calls", "linegraph.root_calls", "linegraph.root_s",
        "clawfree.closure_calls", "clawfree.net_condition_s", "trails.hamilton_calls",
    ),
    "multigraph-trails": (
        "verify.family_walks", "enumeration.marked_canon_calls_per_instance",
        "canon.multigraph_calls", "canon.multigraph_s", "graphs.connectivity_calls",
        "trails.closed_trail_calls",
    ),
    "all-graphs-collapsible": (
        "verify.family_walks", "enumeration.canon_calls", "enumeration.canon_calls_per_class",
        "canon.simple_calls", "trails.collapsible_calls", "trails.collapsible_s",
        "trails.parity_calls", "trails.collapsible_memo_entries",
    ),
}


def operation_field(name: str) -> str:
    """The report field that counts a sweep's operations, the family
    instances it examined: `instances`, except for matching-degree-sum,
    which reports only graphs without a DCT and counts the graphs it
    examined in `graphs_examined`."""
    return "graphs_examined" if name == "matching-degree-sum" else "instances"
