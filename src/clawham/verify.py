"""Named, reproducible verification sweeps.

Each check enumerates a finite family, asserts one structural claim on
every member, and reports a machine-readable result: instance count,
counterexamples (graph6 plus enough marks to replay), wall time, verdict.
Counterexample lists are order-normalized; apart from the elapsed field,
reports are deterministic for a fixed configuration.

One runner, `_sweep`, times, counts, judges and registers every check.
A check's body walks its family and states its claim on each member inside
`with run.instance(g):`, which turns a LimitExceeded into a cap note and
any other GraphError into a counterexample, so no member ends the sweep.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass, field

from .clawfree import (
    find_heavy_matching,
    find_nets,
    find_subdivided_claws,
    net_condition_holds,
    closure,
)
from .enumeration import (
    FamilySpec,
    attachment_instances,
    enumerate_graphs,
    marked_edge_instances,
)
from .graphio import dump_multigraph_json, write_graph6
from .graphs import (
    GraphError,
    LimitExceeded,
    Multigraph,
    SimpleGraph,
    edge_degree,
    induced_subgraph,
    is_connected,
    is_triangle_free,
    mask_of,
)
from .linegraph import line_graph, root_graph
from .trails import (
    closed_trail_exists,
    has_dct,
    has_sct,
    is_collapsible,
    is_hamiltonian,
    lai_hypothesis,
    validate_closed_trail,
)


@dataclass
class CheckResult:
    name: str
    family: str
    instances: int
    counterexamples: list
    elapsed: float
    verdict: str  # "pass" | "fail" | "cap-exceeded"
    params: dict = field(default_factory=dict)

    def to_json(self, with_elapsed: bool = True) -> dict:
        out = {
            "name": self.name,
            "family": self.family,
            "instances": self.instances,
            "counterexamples": self.counterexamples,
            "verdict": self.verdict,
            "params": self.params,
        }
        if with_elapsed:
            out["elapsed"] = round(self.elapsed, 3)
        return out


def _g6(g: Multigraph) -> str:
    if g.is_simple and isinstance(g, SimpleGraph):
        return write_graph6(g)
    return write_graph6(SimpleGraph(g.n, g.support_pairs))


def _multi_json(g: Multigraph) -> dict:
    return json.loads(dump_multigraph_json(g))


# ---------------------------------------------------------------------------
# the runner

# name -> (check, names of the keyword parameters it accepts)
CHECKS: dict = {}


class _Run:
    """What a check's body records while it walks its family."""

    def __init__(self, params: dict):
        self.params = params
        self.instances = 0
        self.counterexamples = []
        self.cap_notes = []
        self._g = None
        self._counted = True

    def instance(self, g: Multigraph, count: bool = True) -> "_Run":
        """Guard one member for a `with` block.  It is counted now, or with
        count=False once the body calls count(); a member that raises is
        counted either way."""
        self._g = g
        self._counted = False
        if count:
            self.count()
        return self

    def count(self) -> None:
        if not self._counted:
            self._counted = True
            self.instances += 1

    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, kind, err, tb) -> bool:
        if kind is None or not issubclass(kind, GraphError):
            return False
        self.count()
        if issubclass(kind, LimitExceeded):
            self.cap(err)
        else:
            self.fail(f"{kind.__name__}: {err}")
        return True

    def fail(self, reason: str, **extra) -> None:
        self.counterexamples.append({"graph6": _g6(self._g), **extra, "reason": reason})

    def cap(self, err: LimitExceeded, where: str = "") -> None:
        self.cap_notes.append(f"{_g6(self._g)}{where}: {err}")


def _sweep(name: str, family: str):
    """Register a check whose body takes a _Run first.  The public check
    keeps the body's other parameters; family is formatted with their
    values, and every one of them goes into the report."""

    def register(body):
        sig = inspect.signature(body)
        public = sig.replace(
            parameters=list(sig.parameters.values())[1:], return_annotation="CheckResult"
        )
        accepted = tuple(public.parameters)

        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            bound = public.bind(*args, **kwargs)
            bound.apply_defaults()
            run = _Run({p: bound.arguments[p] for p in accepted})
            body(run, *bound.args, **bound.kwargs)
            cex = sorted(run.counterexamples, key=lambda d: json.dumps(d, sort_keys=True))
            params, verdict = run.params, "fail" if cex else "pass"
            if run.cap_notes:
                params = dict(params, cap_notes=sorted(run.cap_notes))
                verdict = "cap-exceeded"
            family_text = family.format(**bound.arguments)
            elapsed = time.perf_counter() - t0
            return CheckResult(name, family_text, run.instances, cex, elapsed, verdict, params)

        check.__signature__ = public
        CHECKS[name] = (check, accepted)
        return check

    return register


def _claw_free_family(max_n: int) -> FamilySpec:
    return FamilySpec(n_min=3, n_max=max_n, two_connected=True, claw_free=True)


# ---------------------------------------------------------------------------
# fixtures

GADGET_SCT_EXPECTED = False
GADGET_DCT_EXPECTED = True


def gadget_graph() -> SimpleGraph:
    """The 8-vertex, 11-edge triangle-free gadget: a 5-cycle 0..4 plus
    w1=5 adjacent to {0,2}, w2=6 adjacent to {1} and to w1, and w3=7
    adjacent to {2,4}."""
    return SimpleGraph(
        8,
        [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
            (5, 0), (5, 2), (5, 6), (6, 1), (7, 2), (7, 4),
        ],
    )


@_sweep("gadget", "the 8-vertex five-cycle gadget")
def check_gadget_fixture(run):
    """Structural facts and the frozen trail status of the gadget."""
    run.params.update(sct_expected=GADGET_SCT_EXPECTED, dct_expected=GADGET_DCT_EXPECTED)
    g = gadget_graph()
    with run.instance(g):
        if g.edge_count != 11:
            run.fail(f"edge count {g.edge_count} != 11")
        if not is_triangle_free(g):
            run.fail("gadget is not triangle-free")
        sct = has_sct(g) is not None
        dct = has_dct(g) is not None
        if sct != GADGET_SCT_EXPECTED:
            run.fail(f"SCT status {sct} != frozen {GADGET_SCT_EXPECTED}")
        if dct != GADGET_DCT_EXPECTED:
            run.fail(f"DCT status {dct} != frozen {GADGET_DCT_EXPECTED}")


# ---------------------------------------------------------------------------
# sweeps


@_sweep("c5-attachment", "5-cycle plus two 2-attached vertices, triangle-free, up to symmetry")
def check_five_cycle_attachment(run):
    """Every triangle-free 7-vertex graph made of a 5-cycle plus two
    attachers with two cycle neighbors each has a spanning closed trail
    through all four attachment edges; with the attacher edge present the
    graph is additionally collapsible."""
    for inst in attachment_instances():
        g = inst.graph
        with run.instance(g):
            trail = closed_trail_exists(g, mode="spanning", required_edges=inst.attachment_edges)
            if trail is None:
                run.fail("no spanning trail through attachments")
                continue
            validate_closed_trail(
                g, trail, mode="spanning", required_edges=inst.attachment_edges
            )
            if inst.has_attacher_edge and not is_collapsible(g):
                run.fail("attacher-edge instance not collapsible")


@_sweep(
    "marked-edge-dct",
    "essentially 2-edge-connected multigraphs, marked edge, "
    "at most 2 edges off the mark",
)
def check_marked_edge_dct(run, max_n: int = 8, max_multiplicity: int = 2):
    """Essentially 2-edge-connected multigraphs with a marked edge xy,
    d(x), d(y) >= 2 and at most two edges avoiding {x, y} always admit a
    dominating closed trail through x and y."""
    for inst in marked_edge_instances(max_n, max_multiplicity):
        g = inst.graph
        req = mask_of((inst.x, inst.y))
        with run.instance(g):
            trail = closed_trail_exists(g, mode="dominating", required_vertices=req)
            if trail is None:
                run.fail(
                    "no dominating trail through the marked edge",
                    multigraph=_multi_json(g), x=inst.x, y=inst.y,
                )
            else:
                validate_closed_trail(g, trail, mode="dominating", required_vertices=req)


@_sweep("line-hamilton-dct", "connected simple graphs, 3 <= |E|, n <= {max_n}")
def check_line_hamilton_dct(run, max_n: int = 7):
    """The line graph of a connected H with at least three edges is
    Hamiltonian exactly when H has a dominating closed trail."""
    spec = FamilySpec(n_min=1, n_max=max_n, connected=True)
    for h in enumerate_graphs(spec):
        if h.edge_count < 3:
            continue
        with run.instance(h):
            lg, _ = line_graph(h)
            lham = is_hamiltonian(lg) is not None
            dct = has_dct(h) is not None
            if lham != dct:
                run.fail(
                    "line-graph Hamiltonicity disagrees with DCT", line_hamiltonian=lham, has_dct=dct
                )


@_sweep("closure", "2-connected claw-free graphs, n <= {max_n}")
def check_closure_invariance(run, max_n: int = 9):
    """The neighborhood closure preserves Hamiltonicity on 2-connected
    claw-free graphs, and every closed graph has a triangle-free simple
    root."""
    for g in enumerate_graphs(_claw_free_family(max_n)):
        with run.instance(g):
            ham_g = is_hamiltonian(g) is not None
            c = closure(g)
            ham_c = is_hamiltonian(c) is not None
            if ham_g != ham_c:
                run.fail(
                    "closure changed Hamiltonicity", hamiltonian=ham_g, closure_hamiltonian=ham_c
                )
                continue
            root = root_graph(c).root
            if not (root.is_simple and is_triangle_free(root)):
                run.fail("root is not triangle-free simple")


@_sweep("min-degree-hamilton", "2-connected claw-free graphs with 3*delta >= n-2, n <= {max_n}")
def check_min_degree_hamilton(run, max_n: int = 10):
    """2-connected claw-free graphs with 3*delta >= n - 2 are Hamiltonian."""
    for g in enumerate_graphs(_claw_free_family(max_n)):
        if 3 * min(g.degrees) < g.n - 2:
            continue
        with run.instance(g):
            if is_hamiltonian(g) is None:
                run.fail("min-degree bound met but not Hamiltonian")


@_sweep(
    "net-condition-hamilton",
    "2-connected claw-free graphs, n <= {max_n}; "
    "Hamiltonicity asserted under the net condition",
)
def check_net_condition_hamilton(run, max_n: int = 10):
    """2-connected claw-free graphs whose net endvertices all have
    3*deg >= n - 2 are Hamiltonian; on the way, the full pipeline
    (graph, closure, root DCT) must agree about Hamiltonicity on every
    2-connected claw-free graph in range."""
    for g in enumerate_graphs(_claw_free_family(max_n)):
        with run.instance(g):
            ham_g = is_hamiltonian(g) is not None
            c = closure(g)
            ham_c = is_hamiltonian(c) is not None
            dct = has_dct(root_graph(c).root) is not None
            if not (ham_g == ham_c == dct):
                run.fail(
                    "pipeline disagreement",
                    hamiltonian=ham_g,
                    closure_hamiltonian=ham_c,
                    root_dct=dct,
                )
            elif net_condition_holds(g) and not ham_g:
                run.fail("net condition holds but not Hamiltonian")


@_sweep(
    "dct-or-heavy-matching", "2-connected claw-free graphs under the net condition, n <= {max_n}"
)
def check_dct_or_heavy_matching(run, max_n: int = 10, heavy_slack: int = 0):
    """For qualifying graphs (2-connected, claw-free, net condition), the
    triangle-free root of the closure has a dominating closed trail or a
    heavy matching of size 4.  The heaviness threshold is part of the
    report and slides with heavy_slack."""
    run.params["heaviness"] = "edge e is heavy iff 3*ed(e) >= |E| - 2 + 3*slack"
    for g in enumerate_graphs(_claw_free_family(max_n)):
        if not net_condition_holds(g):
            continue
        with run.instance(g):
            root = root_graph(closure(g)).root
            if has_dct(root) is not None:
                continue
            if find_heavy_matching(root, 4, slack=heavy_slack) is None:
                run.fail(
                    "neither DCT nor heavy 4-matching in the root",
                    root_graph6=_g6(root),
                )


@_sweep(
    "matching-degree-sum",
    "essentially 2-edge-connected triangle-free graphs without a DCT, n <= {max_n}",
)
def check_matching_degree_sum(run, max_n: int = 8):
    """In an essentially 2-edge-connected triangle-free simple graph
    without a dominating closed trail, every 3-matching satisfies
    ed(e1) + ed(e2) + ed(e3) <= |E| + 1."""
    examined = 0
    spec = FamilySpec(
        n_min=2, n_max=max_n, triangle_free=True, essentially_2_edge_connected=True
    )
    for h in enumerate_graphs(spec):
        examined += 1
        with run.instance(h, count=False):
            if has_dct(h) is not None:
                continue
            run.count()
            m = h.edge_count
            eds = [edge_degree(h, e) for e in range(m)]
            ends = [mask_of(h.endpoints(e)) for e in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    if ends[i] & ends[j]:
                        continue
                    for k in range(j + 1, m):
                        if (ends[i] | ends[j]) & ends[k]:
                            continue
                        if eds[i] + eds[j] + eds[k] > m + 1:
                            run.fail(
                                "matching degree sum exceeds |E|+1",
                                matching=[list(h.endpoints(e)) for e in (i, j, k)],
                                sum=eds[i] + eds[j] + eds[k],
                                bound=m + 1,
                            )
    run.params["graphs_examined"] = examined


@_sweep("collapsible-remainder", "essentially 2-edge-connected graphs, n <= {max_n}")
def check_collapsible_remainder(run, max_n: int = 8):
    """If an essentially 2-edge-connected graph contains a collapsible
    induced subgraph with at most three edges entirely outside it, the
    graph has a dominating closed trail."""
    spec = FamilySpec(n_min=1, n_max=max_n, essentially_2_edge_connected=True)
    for h in enumerate_graphs(spec):
        with run.instance(h):
            if has_dct(h) is not None:
                continue
            # no DCT: any qualifying collapsible part is a counterexample
            for smask in range(1, 1 << h.n):
                sub, verts = induced_subgraph(h, smask)
                if not is_connected(sub):
                    continue
                outside = sum(
                    1
                    for (u, v) in h.edges
                    if not smask >> u & 1 and not smask >> v & 1
                )
                if outside > 3:
                    continue
                try:
                    if not is_collapsible(sub):
                        continue
                except LimitExceeded as e:
                    run.cap(e, f" subset {smask}")
                    continue
                run.fail(
                    "collapsible part with <= 3 outside edges but no DCT",
                    collapsible_part=sorted(verts),
                    outside_edges=outside,
                )
                break


@_sweep(
    "spider-net",
    "2-connected claw-free graphs under the net condition whose root "
    "contains a subdivided claw, n <= {max_n}",
)
def check_spider_net(run, max_n: int = 9):
    """For qualifying graphs whose closure root contains a subdivided
    claw, the graph contains an induced net all of whose endvertices have
    3*deg >= n - 2 (the weak endvertex-relocation consequence)."""
    for g in enumerate_graphs(_claw_free_family(max_n)):
        if not net_condition_holds(g):
            continue
        with run.instance(g, count=False):
            root = root_graph(closure(g)).root
            if not find_subdivided_claws(root):
                continue
            run.count()
            n = g.n
            if not any(
                all(3 * g.degree(y) >= n - 2 for y in net.endvertices)
                for net in find_nets(g)
            ):
                run.fail(
                    "root has a subdivided claw but no heavy-ended net in g",
                    root_graph6=_g6(root),
                )


@_sweep("short-cycle-collapsible", "graphs with the short-cycle degree hypothesis, n <= {max_n}")
def check_short_cycle_collapsible(run, max_n: int = 8):
    """2-connected graphs with minimum degree at least 3 in which every
    edge lies on a cycle of length at most 4 are collapsible."""
    for g in enumerate_graphs(FamilySpec(n_min=1, n_max=max_n)):
        if not lai_hypothesis(g):
            continue
        with run.instance(g):
            if not is_collapsible(g):
                run.fail("hypothesis holds but not collapsible")


def run_check(name: str, **kwargs) -> CheckResult:
    if name not in CHECKS:
        raise GraphError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    fn, accepted = CHECKS[name]
    passed = {k: v for k, v in kwargs.items() if v is not None}
    bad = set(passed) - set(accepted)
    if bad:
        raise GraphError(f"check {name} does not accept: {sorted(bad)}")
    return fn(**passed)


def run_all_checks(**kwargs) -> list:
    return [
        fn(**{k: v for k, v in kwargs.items() if k in accepted and v is not None})
        for fn, accepted in CHECKS.values()
    ]
