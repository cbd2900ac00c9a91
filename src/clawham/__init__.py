"""Closure and line-graph machinery for Hamiltonicity of claw-free graphs.

The library pairs exact small-scale solvers (Hamiltonian cycles, dominating
and spanning closed trails, collapsibility) with isomorph-free enumeration,
and wires them into a battery of exhaustive verification sweeps exposed via
the `clawham` command line tool.
"""

from .graphs import GraphError, LimitExceeded, Multigraph, SimpleGraph

__all__ = [
    "GraphError",
    "LimitExceeded",
    "Multigraph",
    "SimpleGraph",
]
