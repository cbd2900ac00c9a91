"""Per-layer tracing from outside the library.

`install` replaces public clawham functions at each importing module's
binding with wrappers that record spans: a span is one call (or, for a
family generator, one step of it), its parent is the span open around it,
and its self time is its duration minus its children's.  As spans close,
their times are summed per name and their calls counted per name and per
(parent, name), so memory stays flat.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

FAMILY_WALKS = ("enumeration.graphs", "enumeration.marked", "enumeration.attachment")


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, time of closed children]
        self.calls = Counter()  # name -> calls (a generator counts once per walk)
        self.edges = Counter()  # (parent name, name) -> calls
        self.total = defaultdict(float)  # name -> time, outermost spans only
        self.self_time = defaultdict(float)
        self.yields = Counter()  # (sweep span, generator name) -> members yielded

    def count(self, name):
        self.calls[name] += 1
        self.edges[(self.stack[-1][0] if self.stack else None, name)] += 1

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, t0, children = self.stack.pop()
        dt = time.perf_counter() - t0
        self.self_time[name] += dt - children
        if all(f[0] != name for f in self.stack):
            self.total[name] += dt
        if self.stack:
            self.stack[-1][2] += dt

    def sweep(self):
        return self.stack[0][0] if self.stack else None

    def wrap_call(self, name, fn):
        """name is a string or a function of the call's first argument."""
        pick = name if callable(name) else (lambda _arg: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = pick(args[0] if args else None)
            self.count(span)
            self.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            sweep = self.sweep()
            it = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.yields[(sweep, name)] += 1
                yield item

        return wrapper

    def wrap_list(self, name, fn):
        call = self.wrap_call(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = call(*args, **kwargs)
            self.yields[(self.sweep(), name)] += len(out)
            return out

        return wrapper


def _canon_span(g):
    return "canon.simple" if g.is_simple else "canon.multigraph"


def install(tracer: Tracer):
    """Wrap the layer entry points for the rest of the process."""
    from clawham import enumeration, linegraph, trails, verify

    conn = "graphs.connectivity"
    plan = [
        (verify, "enumerate_graphs", tracer.wrap_generator, "enumeration.graphs"),
        (verify, "marked_edge_instances", tracer.wrap_generator, "enumeration.marked"),
        (verify, "attachment_instances", tracer.wrap_list, "enumeration.attachment"),
        (verify, "root_graph", tracer.wrap_call, "linegraph.root"),
        (verify, "closure", tracer.wrap_call, "clawfree.closure"),
        (verify, "net_condition_holds", tracer.wrap_call, "clawfree.net_condition"),
        (verify, "is_hamiltonian", tracer.wrap_call, "trails.hamilton"),
        (verify, "closed_trail_exists", tracer.wrap_call, "trails.closed_trail"),
        (verify, "has_dct", tracer.wrap_call, "trails.closed_trail"),
        (verify, "has_sct", tracer.wrap_call, "trails.closed_trail"),
        (verify, "is_collapsible", tracer.wrap_call, "trails.collapsible"),
        (verify, "is_connected", tracer.wrap_call, conn),
        (enumeration, "canon_simple_rows", tracer.wrap_call, "canon.simple"),
        (enumeration, "canonical_form", tracer.wrap_call, _canon_span),
        (enumeration, "is_connected", tracer.wrap_call, conn),
        (enumeration, "is_2_connected", tracer.wrap_call, conn),
        (enumeration, "is_essentially_2_edge_connected", tracer.wrap_call, conn),
        (linegraph, "canonical_form", tracer.wrap_call, _canon_span),
        (linegraph, "closure", tracer.wrap_call, "clawfree.closure"),
        (trails, "canonical_form", tracer.wrap_call, _canon_span),
        (trails, "parity_subgraph", tracer.wrap_call, "trails.parity"),
    ]
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in plan
               if not hasattr(module, attr)]
    if missing:
        # a layer whose binding moved would read 0, which looks like a gain
        raise RuntimeError(f"cannot trace, bindings gone: {', '.join(missing)}")
    for module, attr, wrap, name in plan:
        setattr(module, attr, wrap(name, getattr(module, attr)))


def layer_metrics(tracer: Tracer, sweep_names) -> dict:
    """The per-layer figures of one traced round."""
    from clawham import enumeration, trails

    calls, total, self_time, edges = tracer.calls, tracer.total, tracer.self_time, tracer.edges
    # library internals, read after the round
    classes = sum(len(level) for level in enumeration._POOLS.values())
    enum_canon = edges[("enumeration.graphs", "canon.simple")]
    marked_canon = (edges[("enumeration.marked", "canon.simple")]
                    + edges[("enumeration.marked", "canon.multigraph")])
    marked = sum(c for (_, g), c in tracer.yields.items() if g == "enumeration.marked")
    out = {f"verify.{s}_s": total[f"verify.{s}"] for s in sweep_names}
    out.update({
        "verify.family_walks": sum(calls[g] for g in FAMILY_WALKS),
        "enumeration.self_s": sum(self_time[g] for g in FAMILY_WALKS),
        "enumeration.canon_calls": enum_canon,
        "enumeration.canon_calls_per_class": enum_canon / classes if classes else 0.0,
        "enumeration.marked_canon_calls_per_instance": marked_canon / marked if marked else 0.0,
        "canon.multigraph_calls": calls["canon.multigraph"],
        "canon.multigraph_s": total["canon.multigraph"],
        "canon.simple_calls": calls["canon.simple"],
        "canon.simple_s": total["canon.simple"],
        "graphs.connectivity_calls": calls["graphs.connectivity"],
        "graphs.connectivity_s": total["graphs.connectivity"],
        "linegraph.root_calls": calls["linegraph.root"],
        "linegraph.root_s": total["linegraph.root"],
        "linegraph.root_self_s": self_time["linegraph.root"],
        "clawfree.closure_calls": calls["clawfree.closure"],
        "clawfree.closure_s": total["clawfree.closure"],
        "clawfree.net_condition_s": total["clawfree.net_condition"],
        "trails.hamilton_calls": calls["trails.hamilton"],
        "trails.hamilton_s": total["trails.hamilton"],
        "trails.closed_trail_calls": calls["trails.closed_trail"],
        "trails.closed_trail_s": total["trails.closed_trail"],
        "trails.collapsible_calls": calls["trails.collapsible"],
        "trails.collapsible_s": total["trails.collapsible"],
        "trails.parity_calls": calls["trails.parity"],
        "trails.collapsible_memo_entries": len(trails._collapsible_memo),
    })
    return out
