"""Search caps shared across the exact solvers.

Every cap guards an exponential search; exceeding one raises LimitExceeded
rather than silently approximating.  Callers needing a deeper search pass a
replacement SearchLimits.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SearchLimits:
    hamilton_max_n: int = 22
    trail_max_dim: int = 24  # cycle-space dimension for closed-trail search
    trail_cycle_budget: int = 50000  # simple-cycle prepass before the full sweep
    collapsible_max_edges: int = 18
    collapsible_leaf_budget: int = 4_000_000

    def with_(self, **kw) -> "SearchLimits":
        return replace(self, **kw)


DEFAULT_LIMITS = SearchLimits()
