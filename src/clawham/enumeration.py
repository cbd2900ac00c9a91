"""Isomorph-free exhaustive generation of small graph families, plus the
structured instance generators used by the named verification sweeps.

Simple graphs come from canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): level k extends each
canonically labeled graph on k-1 vertices by one new vertex.  A child's
canonical deletion is its last vertex of minimum degree in canonical
order, and the child is kept exactly when deleting that vertex lands in
the parent's class.  So every class appears from exactly one parent class
and a per-parent dedup suffices.  A kept child gives its new vertex the
minimum degree (deletions of different degrees leave different edge
counts), so neighborhoods that would not are skipped before any canonical
form is computed.  Hereditary constraints (triangle-free, claw-free, edge
budget) prune during generation; everything else filters afterwards.

The slow oracles that cross-check these generators (extend everything and
dedup globally by canonical form; sweep every marked-edge multiplicity
vector) live with the tests, in tests/oracles.py.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

from .canon import canon_simple_rows, canonical_form
from .graphs import (
    GraphError,
    LimitExceeded,
    Multigraph,
    SimpleGraph,
    bits,
    edge_mask_of,
    is_2_connected,
    is_connected,
    is_essentially_2_edge_connected,
    is_triangle_free,
)

ENUMERATE_MAX_N = 12


@dataclass(frozen=True)
class FamilySpec:
    """A graph family: an order range plus structural predicates."""

    n: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    connected: bool = False
    two_connected: bool = False
    triangle_free: bool = False
    claw_free: bool = False
    essentially_2_edge_connected: bool = False
    min_degree: int = 0
    max_edges: int | None = None

    def orders(self) -> range:
        if self.n is not None:
            return range(self.n, self.n + 1)
        if self.n_min is None or self.n_max is None:
            raise GraphError("family needs n or both of n_min/n_max")
        return range(self.n_min, self.n_max + 1)

    @classmethod
    def from_json(cls, data: dict) -> "FamilySpec":
        if not isinstance(data, dict):
            raise GraphError("family spec must be a JSON object")
        defaults = {f.name: f.default for f in fields(cls)}
        bad = set(data) - set(defaults)
        if bad:
            raise GraphError(f"unknown family keys: {sorted(bad)}")
        for key, value in data.items():
            if type(defaults[key]) is bool:
                ok, want = type(value) is bool, "true or false"
            else:  # an order or degree field
                ok, want = value is None or type(value) is int, "an integer or null"
            if not ok:
                raise GraphError(f"family key {key!r} must be {want}, not {value!r}")
        return cls(**data)

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v != f.default:
                out[f.name] = v
        return out


# ---------------------------------------------------------------------------
# canonical augmentation


def _new_vertex_ok(rows, k, smask, triangle_free, claw_free):
    """Hereditary pattern checks for attaching vertex k-1 with neighborhood
    smask to the first k-1 rows; only patterns through the new vertex can
    appear, so the scan is local."""
    if triangle_free:
        for u in bits(smask):
            if rows[u] & smask:
                return False
    if claw_free:
        # new vertex as claw center: three pairwise non-neighbors inside smask
        for u in bits(smask):
            rest_u = smask & ~rows[u] & ~((1 << (u + 1)) - 1)
            for v in bits(rest_u):
                if rest_u & ~rows[v] & ~((1 << (v + 1)) - 1):
                    return False
        # new vertex as a leaf: a center in smask with two spare independent
        # neighbors outside smask
        for c in bits(smask):
            t = rows[c] & ~smask
            for x in bits(t):
                if t & ~rows[x] & ~((1 << (x + 1)) - 1):
                    return False
    return True


def _delete_vertex(rows, k, v):
    keep = [u for u in range(k) if u != v]
    pos = {u: i for i, u in enumerate(keep)}
    out = []
    for u in keep:
        mask = rows[u]
        acc = 0
        rem = mask & ~(1 << v)
        for w in bits(rem):
            acc |= 1 << pos[w]
        out.append(acc)
    return tuple(out)


def _deg_multiset_after_delete(rows, k, degs, v):
    return sorted(degs[i] - (rows[i] >> v & 1) for i in range(k) if i != v)


def _extend_level(prev, k, triangle_free, claw_free, max_edges):
    """All classes on k vertices whose hereditary checks pass, from the
    level below.  prev holds (canonical rows, form) pairs."""
    out = []
    new = k - 1
    for prows, pform in prev:
        pdeg = [r.bit_count() for r in prows]
        pm = sum(pdeg) // 2
        # the new vertex must keep the minimum degree: degree at most
        # delta + 1, and at delta + 1 adjacent to every old vertex of degree delta
        delta = min(pdeg)
        lows = sum(1 << i for i in range(new) if pdeg[i] == delta)
        kids_seen = set()
        for smask in range(1 << new):
            d = smask.bit_count()
            if d > delta + 1 or (d == delta + 1 and lows & ~smask):
                continue
            if max_edges is not None and pm + d > max_edges:
                continue
            if not _new_vertex_ok(prows, k, smask, triangle_free, claw_free):
                continue
            crows = tuple(
                (prows[i] | (1 << new)) if smask >> i & 1 else prows[i]
                for i in range(new)
            ) + (smask,)
            form, order = canon_simple_rows(k, crows)
            if form in kids_seen:
                continue
            degs = [r.bit_count() for r in crows]
            w = next(v for v in reversed(order) if degs[v] == d)
            if w != new:
                if _deg_multiset_after_delete(
                    crows, k, degs, new
                ) != _deg_multiset_after_delete(crows, k, degs, w):
                    continue
                dform, _ = canon_simple_rows(new, _delete_vertex(crows, k, w))
                if dform != pform:
                    continue
            kids_seen.add(form)
            pos = {v: i for i, v in enumerate(order)}
            canon_rows = tuple(
                sum(1 << pos[u] for u in bits(crows[v])) for v in order
            )
            out.append((canon_rows, form))
    out.sort(key=lambda t: t[1])
    return out


_POOLS: dict = {}


def _pool(n, triangle_free, claw_free, max_edges):
    key = (n, triangle_free, claw_free, max_edges)
    hit = _POOLS.get(key)
    if hit is not None:
        return hit
    if n == 1:
        level = [((0,), canon_simple_rows(1, (0,))[0])]
    else:
        prev = _pool(n - 1, triangle_free, claw_free, max_edges)
        level = _extend_level(prev, n, triangle_free, claw_free, max_edges)
    _POOLS[key] = level
    return level


def enumerate_graphs(spec: FamilySpec):
    """Yield one representative per isomorphism class of the family, in a
    deterministic order (ascending n, then canonical form)."""
    for n in spec.orders():
        if not 1 <= n <= ENUMERATE_MAX_N:
            raise LimitExceeded(f"enumeration order {n} outside the supported range")
    for n in spec.orders():
        for rows, _form in _pool(n, spec.triangle_free, spec.claw_free, spec.max_edges):
            g = SimpleGraph.from_rows(rows)
            if spec.connected or spec.two_connected or spec.essentially_2_edge_connected:
                if not is_connected(g):
                    continue
            if spec.two_connected and not is_2_connected(g):
                continue
            if spec.essentially_2_edge_connected and not is_essentially_2_edge_connected(g):
                continue
            if spec.min_degree and any(
                g.degree(v) < spec.min_degree for v in range(n)
            ):
                continue
            yield g


def count_graphs(spec: FamilySpec) -> int:
    return sum(1 for _ in enumerate_graphs(spec))


# ---------------------------------------------------------------------------
# five-cycle attachment instances


@dataclass(frozen=True)
class AttachmentInstance:
    """A triangle-free graph on 7 vertices: a 5-cycle (vertices 0..4) plus
    two outside vertices 5 and 6, each joined to exactly two cycle
    vertices, optionally joined to each other."""

    graph: SimpleGraph
    cycle: tuple
    attachers: tuple
    has_attacher_edge: bool
    attachment_edges: int  # edge-id mask of the four cycle attachments


def attachment_instances() -> list:
    """All instances up to isomorphisms fixing the cycle setwise and the
    attacher pair setwise."""
    cyc = [(i, (i + 1) % 5) for i in range(5)]
    dpairs = [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]
    seen = {}
    for p1 in dpairs:
        for p2 in dpairs:
            for wedge in (False, True):
                pairs = list(cyc)
                pairs += [(a, 5) for a in p1]
                pairs += [(a, 6) for a in p2]
                if wedge:
                    pairs.append((5, 6))
                g = SimpleGraph(7, pairs)
                if not is_triangle_free(g):
                    continue
                key = canonical_form(g, colors=[0b11111, 0b1100000])
                if key in seen:
                    continue
                att = edge_mask_of(g, [(a, 5) for a in p1] + [(a, 6) for a in p2])
                seen[key] = AttachmentInstance(
                    g, (0, 1, 2, 3, 4), (5, 6), wedge, att
                )
    return [inst for _, inst in sorted(seen.items(), key=lambda kv: (kv[1].has_attacher_edge, kv[0]))]


# ---------------------------------------------------------------------------
# marked-edge instances


@dataclass(frozen=True)
class MarkedEdgeInstance:
    """A multigraph with a distinguished edge xy, d(x), d(y) >= 2, at most
    two edges avoiding both x and y, essentially 2-edge-connected."""

    graph: Multigraph
    x: int
    y: int


def _satellite_layouts(z: int, mm: int):
    """Yield (types, z_edges): per-satellite multiplicities to x and y plus
    the edges inside the satellite set (at most two, counting parallels).
    Satellites touched by inside edges get explicit types; the untouched
    rest is generated as a multiset, which trims labelings that the final
    canonical dedup would discard anyway."""
    types = [(a, b) for a in range(mm + 1) for b in range(mm + 1)]
    cwr = itertools.combinations_with_replacement
    for rest in cwr(types, z):
        yield rest, ()
    if z >= 2:
        muls = [1] if mm < 2 else [1, 2]
        for mu in muls:
            for t01 in cwr(types, 2):
                for rest in cwr(types, z - 2):
                    yield t01 + rest, ((0, 1, mu),)
    if z >= 3:
        for t_mid in types:
            for t02 in cwr(types, 2):
                for rest in cwr(types, z - 3):
                    yield (t02[0], t_mid, t02[1]) + rest, ((0, 1, 1), (1, 2, 1))
    if z >= 4:
        for p1, p2 in cwr(tuple(cwr(types, 2)), 2):
            for rest in cwr(types, z - 4):
                yield p1 + p2 + rest, ((0, 1, 1), (2, 3, 1))


def marked_edge_instances(max_n: int, max_multiplicity: int = 2):
    """Yield qualifying instances on up to max_n vertices, one per class of
    isomorphisms preserving the marked pair {x, y} setwise, in a fixed
    deterministic order.  Streams lazily; sweeps hold one instance at a
    time."""
    if max_multiplicity < 1:
        raise GraphError("the marked edge needs multiplicity at least 1")
    for n in range(2, max_n + 1):
        z = n - 2
        seen = set()
        for xym in range(1, max_multiplicity + 1):
            for types, z_edges in _satellite_layouts(z, max_multiplicity):
                pairs = [(0, 1)] * xym
                for i, (a, b) in enumerate(types):
                    v = 2 + i
                    pairs += [(0, v)] * a
                    pairs += [(1, v)] * b
                for i, j, mu in z_edges:
                    pairs += [(2 + i, 2 + j)] * mu
                g = Multigraph(n, pairs)
                if g.degree(0) < 2 or g.degree(1) < 2:
                    continue
                if not is_connected(g):
                    continue
                if not is_essentially_2_edge_connected(g):
                    continue
                key = canonical_form(g, colors=[0b11, ((1 << n) - 1) & ~0b11])
                if key in seen:
                    continue
                seen.add(key)
                yield MarkedEdgeInstance(g, 0, 1)
