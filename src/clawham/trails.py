"""Closed trails, spanning and dominating variants, Hamilton cycles,
collapsibility, and lifting trails through contractions.

Every search returns an explicit witness (a Trail or a vertex sequence)
that an independent validator can replay, and every negative answer comes
from an exhaustive sweep, never from a heuristic.  Closed-trail existence
is decided over the cycle space: each closed trail is an edge-disjoint
union of cycles, i.e. a cycle-space member, and conversely a connected
even edge set carries an Euler closed trail.  The sweep walks the whole
space in Gray-code order with incremental degree bookkeeping, after a
budgeted simple-cycle pass that settles most positive instances early.

Collapsibility uses Catlin's reduction ("A reduction method to find
spanning Eulerian subgraphs", JGT 1988): G is collapsible iff G/H is, for
any collapsible subgraph H.  2-cycles and triangles are collapsible, so
they are contracted until none is left; almost every collapsible graph the
sweeps meet reduces to one vertex.  What remains is decided exactly, by
one parity-subgraph search per even vertex set.

Every cap below guards an exponential search; exceeding one raises
LimitExceeded rather than silently approximating.  The searches read the
caps when they run, so a test can lower one with monkeypatch.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .canon import CANON_MAX_N, canonical_form
from .graphs import (
    GraphError,
    LimitExceeded,
    Multigraph,
    _component_mask,
    bits,
    bridges,
    contract,
    induced_subgraph,
    is_2_connected,
    is_connected,
)

HAMILTON_MAX_N = 22  # order cap of the subset dynamic program
TRAIL_MAX_DIM = 24  # cycle-space dimension cap of the closed-trail sweep
TRAIL_CYCLE_BUDGET = 50_000  # DFS steps of the simple-cycle pass before the sweep
PARITY_LEAF_BUDGET = 4_000_000  # nodes of one exact parity-subgraph search
COLLAPSIBLE_MAX_EDGES = 28  # edge cap of the collapsibility check


class TrailError(GraphError):
    """A claimed trail fails validation against its host graph."""


class NotCollapsibleError(GraphError):
    """Lifting was asked to absorb a subgraph that is not collapsible."""


@dataclass(frozen=True)
class Trail:
    """A closed trail: vertices[i], edge_ids[i], vertices[i+1], ... with
    vertices[0] == vertices[-1].  A single vertex with no edges is the
    trivial closed trail."""

    vertices: tuple
    edge_ids: tuple

    @property
    def is_trivial(self) -> bool:
        return not self.edge_ids

    @property
    def vertex_mask(self) -> int:
        mask = 0
        for v in self.vertices:
            mask |= 1 << v
        return mask

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "edge_ids": list(self.edge_ids)}


def validate_closed_trail(
    g: Multigraph,
    trail: Trail,
    mode: str = "none",
    required_vertices: int = 0,
    required_edges: int = 0,
) -> None:
    """Raise TrailError unless trail is a closed trail of g meeting the
    requested constraints.  mode is "none", "dominating" (every edge of g
    has an endpoint on the trail) or "spanning" (every vertex lies on it).
    """
    vs, es = trail.vertices, trail.edge_ids
    if len(vs) != len(es) + 1:
        raise TrailError("vertex/edge sequence lengths disagree")
    if not vs:
        raise TrailError("empty vertex sequence")
    if vs[0] != vs[-1]:
        raise TrailError("trail is not closed")
    for v in vs:
        if not 0 <= v < g.n:
            raise TrailError(f"vertex {v} outside the host")
    if len(set(es)) != len(es):
        raise TrailError("an edge is traversed twice")
    for i, eid in enumerate(es):
        if not 0 <= eid < g.edge_count:
            raise TrailError(f"edge id {eid} outside the host")
        if set(g.endpoints(eid)) != {vs[i], vs[i + 1]}:
            raise TrailError(f"edge {eid} does not join step {i}")
    vmask = trail.vertex_mask
    if mode == "spanning":
        if vmask != (1 << g.n) - 1:
            raise TrailError("trail is not spanning")
    elif mode == "dominating":
        for u, v in g.edges:
            if not vmask >> u & 1 and not vmask >> v & 1:
                raise TrailError(f"edge ({u},{v}) is not dominated")
    elif mode != "none":
        raise GraphError(f"unknown trail mode {mode!r}")
    if required_vertices & ~vmask:
        raise TrailError("a required vertex is missing from the trail")
    emask = 0
    for eid in es:
        emask |= 1 << eid
    if required_edges & ~emask:
        raise TrailError("a required edge is missing from the trail")


def _euler_trail(g: Multigraph, emask: int, start: int) -> Trail:
    """Closed Euler trail over the even connected edge set emask."""
    if not emask:
        return Trail((start,), ())
    inc = g.incidence
    used = [not emask >> eid & 1 for eid in range(g.edge_count)]
    ptr = [0] * g.n
    stack = [(start, None)]
    out = []
    while stack:
        v, via = stack[-1]
        advanced = False
        while ptr[v] < len(inc[v]):
            eid, w = inc[v][ptr[v]]
            ptr[v] += 1
            if not used[eid]:
                used[eid] = True
                stack.append((w, eid))
                advanced = True
                break
        if not advanced:
            out.append(stack.pop())
    out.reverse()
    vertices = tuple(v for v, _ in out)
    edge_ids = tuple(e for _, e in out[1:])
    return Trail(vertices, edge_ids)


def _dominates(g: Multigraph, vmask: int) -> bool:
    """Every edge has an end in vmask: no vertex outside it has a
    neighbour outside it."""
    rows = g.rows
    for u in bits(~vmask & ((1 << g.n) - 1)):
        if rows[u] & ~vmask:
            return False
    return True


def _mode_ok(g: Multigraph, vmask: int, mode: str, full: int) -> bool:
    if mode == "spanning":
        return vmask == full
    if mode == "dominating":
        return _dominates(g, vmask)
    return True


def closed_trail_exists(
    g: Multigraph,
    mode: str = "none",
    required_vertices: int = 0,
    required_edges: int = 0,
):
    """Find a closed trail subject to the constraints, or return None.

    The trivial single-vertex trail is a legal answer whenever it meets the
    constraints.  The decision is exact: after the budgeted cycle pass, the
    full cycle space (dimension m - n + 1) is swept, so None means no
    closed trail of g satisfies the request.
    """
    if mode not in ("none", "dominating", "spanning"):
        raise GraphError(f"unknown trail mode {mode!r}")
    if not is_connected(g):
        raise GraphError("closed-trail search expects a connected graph")
    n, m = g.n, g.edge_count
    full = (1 << n) - 1
    if required_vertices & ~full:
        raise GraphError("required vertex outside the host")
    if required_edges & ~((1 << m) - 1 if m else 0):
        raise GraphError("required edge outside the host")

    if not required_edges:
        for v in range(n):
            vmask = 1 << v
            if required_vertices & ~vmask:
                continue
            if _mode_ok(g, vmask, mode, full):
                return Trail((v,), ())
    if m == 0:
        return None

    hit = _cycle_prepass(g, mode, required_vertices, required_edges, full)
    if hit is not None:
        return hit

    dim = m - n + 1
    if dim > TRAIL_MAX_DIM:
        raise LimitExceeded(f"cycle space dimension {dim} exceeds the sweep cap {TRAIL_MAX_DIM}")
    basis = _fundamental_cycles(g)
    if not basis:
        return None

    # Gray-code sweep with incremental vertex-degree counts.
    cur = 0
    deg = [0] * n
    vcount = 0
    vmask = 0
    req_e = required_edges
    req_v = required_vertices
    for i in range(1, 1 << dim):
        b = basis[(i & -i).bit_length() - 1]
        cur ^= b
        for eid in bits(b):
            u, v = g.endpoints(eid)
            if cur >> eid & 1:
                for x in (u, v):
                    deg[x] += 1
                    if deg[x] == 1:
                        vmask |= 1 << x
            else:
                for x in (u, v):
                    deg[x] -= 1
                    if deg[x] == 0:
                        vmask &= ~(1 << x)
        if req_e & ~cur:
            continue
        if req_v & ~vmask:
            continue
        if not _mode_ok(g, vmask, mode, full):
            continue
        if not _edges_connected(g, cur, vmask):
            continue
        start = (vmask & -vmask).bit_length() - 1
        trail = _euler_trail(g, cur, start)
        return trail
    return None


def _fundamental_cycles(g: Multigraph):
    """Edge masks of the fundamental cycles of a BFS spanning tree."""
    n = g.n
    parent_edge = [-1] * n
    order = [0]
    seen = 1
    tree = 0
    inc = g.incidence
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for eid, w in inc[v]:
            if not seen >> w & 1:
                seen |= 1 << w
                parent_edge[w] = eid
                tree |= 1 << eid
                order.append(w)
    basis = []
    depth = [0] * n
    for v in order[1:]:
        eid = parent_edge[v]
        u, w = g.endpoints(eid)
        p = u if w == v else w
        depth[v] = depth[p] + 1
    for eid, (u, v) in enumerate(g.edges):
        if tree >> eid & 1:
            continue
        mask = 1 << eid
        a, b = u, v
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            pe = parent_edge[a]
            mask ^= 1 << pe
            x, y = g.endpoints(pe)
            a = x if y == a else y
        basis.append(mask)
    return basis


def _edges_connected(g: Multigraph, emask: int, vmask: int) -> bool:
    """Is the subgraph spanned by emask connected on its support vmask?"""
    if not vmask:
        return False
    rows = [0] * g.n
    for eid in bits(emask):
        u, v = g.endpoints(eid)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    start = (vmask & -vmask).bit_length() - 1
    return _component_mask(rows, start, (1 << g.n) - 1) == vmask


def _cycle_prepass(g, mode, req_v, req_e, full):
    """Budgeted DFS over simple cycles (by least vertex); returns a Trail
    on the first cycle meeting all constraints, else None."""
    n = g.n
    inc = g.incidence
    budget = TRAIL_CYCLE_BUDGET

    def dfs(s, v, vmask, emask, path_v, path_e):
        nonlocal budget
        if budget <= 0:
            return None
        budget -= 1
        for eid, w in inc[v]:
            if emask >> eid & 1:
                continue
            if w == s and path_e:
                cyc_e = emask | 1 << eid
                if req_e & ~cyc_e or req_v & ~vmask:
                    continue
                if _mode_ok(g, vmask, mode, full):
                    return Trail(tuple(path_v) + (s,), tuple(path_e) + (eid,))
            elif w > s and not vmask >> w & 1:
                path_v.append(w)
                path_e.append(eid)
                got = dfs(s, w, vmask | 1 << w, emask | 1 << eid, path_v, path_e)
                if got is not None:
                    return got
                path_v.pop()
                path_e.pop()
        return None

    for s in range(n):
        got = dfs(s, s, 1 << s, 0, [s], [])
        if got is not None:
            return got
        if budget <= 0:
            break
    return None


def has_sct(g: Multigraph):
    """Spanning closed trail, or None."""
    return closed_trail_exists(g, mode="spanning")


def has_dct(g: Multigraph):
    """Dominating closed trail, or None."""
    return closed_trail_exists(g, mode="dominating")


# ---------------------------------------------------------------------------
# Hamilton cycles


def is_hamiltonian(g: Multigraph):
    """A Hamilton cycle as a vertex tuple, or None when none exists.

    Rotation-extension attempts run first; the subset dynamic program over
    (vertex set, endpoint) states decides the negative case exactly.
    """
    n = g.n
    if n < 3:
        raise GraphError("Hamilton cycles need at least three vertices")
    if n > HAMILTON_MAX_N:
        raise LimitExceeded(f"order {n} exceeds the Hamilton cap {HAMILTON_MAX_N}")
    if not is_connected(g):
        return None
    rows = g.rows
    # a Hamilton cycle needs two distinct neighbors at every vertex
    if any(rows[v].bit_count() < 2 for v in range(n)):
        return None

    cyc = _rotation_extension(rows, n)
    if cyc is not None:
        return cyc
    return _hamilton_dp(rows, n)


def _rotation_extension(rows, n, attempts: int = 8):
    full = (1 << n) - 1
    for attempt in range(attempts):
        rng = random.Random(0xC1A0 + attempt)
        start = attempt % n
        path = [start]
        mask = 1 << start
        steps = 0
        cap = 6 * n * n
        while steps < cap:
            steps += 1
            end = path[-1]
            ext = rows[end] & ~mask
            if ext:
                choices = tuple(bits(ext))
                w = choices[rng.randrange(len(choices))]
                path.append(w)
                mask |= 1 << w
                continue
            if mask == full and rows[end] >> path[0] & 1:
                return tuple(path)
            nbrs = [i for i in range(len(path) - 2) if rows[end] >> path[i] & 1]
            if not nbrs:
                break
            i = nbrs[rng.randrange(len(nbrs))]
            path[i + 1 :] = reversed(path[i + 1 :])
    return None


def _hamilton_dp(rows, n):
    full = (1 << n) - 1
    ends = [0] * (1 << n)
    ends[1] = 1
    for s in range(1, 1 << n, 2):
        e = ends[s]
        if not e:
            continue
        while e:
            vb = e & -e
            e ^= vb
            v = vb.bit_length() - 1
            ext = rows[v] & ~s
            while ext:
                ub = ext & -ext
                ext ^= ub
                ends[s | ub] |= ub
    closing = ends[full] & rows[0]
    if not closing:
        return None
    # reconstruct backwards from any endpoint adjacent to vertex 0
    v = (closing & -closing).bit_length() - 1
    s = full
    rev = [v]
    while s != 1:
        s &= ~(1 << v)
        prev = ends[s] & rows[v]
        v = (prev & -prev).bit_length() - 1
        rev.append(v)
    rev.reverse()
    return tuple(rev)


# ---------------------------------------------------------------------------
# collapsibility


# answers for reduced graphs, keyed by canonical form (by the labeled graph
# past CANON_MAX_N)
_collapsible_memo: dict = {}


def _catlin_reduce(h: Multigraph) -> Multigraph:
    """Contract 2-cycles and triangles until none is left.

    Each step contracts the first parallel pair in edge order or, when
    there is none, the first edge uv with a common neighbour together with
    the lowest such neighbour.  Both are collapsible, so the quotient is
    collapsible exactly when h is (Catlin 1988).  Returns h itself when
    nothing contracts.
    """
    while h.n > 1:
        pairs = h.edges
        fmask = 0
        for a, b in zip(pairs, pairs[1:]):
            if a == b:
                fmask = 1 << a[0] | 1 << a[1]
                break
        else:
            rows = h.rows
            for u, v in pairs:
                common = rows[u] & rows[v]
                if common:
                    fmask = 1 << u | 1 << v | common & -common
                    break
        if not fmask:
            break
        h = contract(h, fmask).quotient
    return h


def is_collapsible(h: Multigraph) -> bool:
    """Can h absorb any parity demand?  True iff for every even vertex set
    R there is a spanning connected subgraph whose odd-degree set is R.

    COLLAPSIBLE_MAX_EDGES applies to h as given.  h is then reduced by
    _catlin_reduce; a reduction to one vertex answers True at once.
    Otherwise the reduced graph is decided exactly: a bridge answers
    False, and else one parity_subgraph per even vertex set.  The answer
    is memoized on the reduced graph's canonical form.
    """
    if h.n == 0:
        raise GraphError("collapsibility needs at least one vertex")
    if not is_connected(h):
        raise GraphError("collapsibility is defined for connected graphs")
    if h.n == 1:
        return True
    if h.edge_count > COLLAPSIBLE_MAX_EDGES:
        raise LimitExceeded(
            f"{h.edge_count} edges exceed the collapsibility cap {COLLAPSIBLE_MAX_EDGES}"
        )
    h = _catlin_reduce(h)
    n = h.n
    if n == 1:
        return True
    key = canonical_form(h) if n <= CANON_MAX_N else ("labeled", h)
    hit = _collapsible_memo.get(key)
    if hit is not None:
        return hit
    if bridges(h):
        # contracting everything else leaves a bridge whose parity demand
        # {one endpoint} cannot be met, so bridged graphs never collapse
        _collapsible_memo[key] = False
        return False
    ans = True
    for r in range(0, 1 << (n - 1)):
        rmask = r << 1
        if rmask.bit_count() & 1:
            rmask |= 1
        if parity_subgraph(h, rmask) is None:
            ans = False
            break
    _collapsible_memo[key] = ans
    return ans


def _spanning_parity_search(h: Multigraph, rmask: int, budget: int):
    """Exact search for a spanning connected subgraph with odd set rmask.

    Edges are decided in order; a branch dies when the undecided edges can
    no longer reconnect the included part, or when a fully decided vertex
    has the wrong parity.  Returns an edge mask or None.
    """
    n, m = h.n, h.edge_count
    endpoints = [h.endpoints(e) for e in range(m)]
    remaining_at = [0] * n  # count of undecided edges at each vertex
    for u, v in endpoints:
        remaining_at[u] += 1
        remaining_at[v] += 1
    deg = [0] * n
    counter = [budget]
    full = (1 << n) - 1

    def alive(included: int, idx: int) -> bool:
        # connectivity of included + undecided, spanning all vertices
        rows = [0] * n
        for eid in range(m):
            if eid >= idx or included >> eid & 1:
                u, v = endpoints[eid]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        return _component_mask(rows, 0, full) == full

    def rec(idx: int, included: int):
        counter[0] -= 1
        if counter[0] < 0:
            raise LimitExceeded("parity-subgraph search budget exhausted")
        if idx == m:
            for v in range(n):
                if (deg[v] & 1) != (rmask >> v & 1):
                    return None
            if _edges_connected(h, included, (1 << n) - 1):
                return included
            return None
        u, v = endpoints[idx]
        remaining_at[u] -= 1
        remaining_at[v] -= 1
        for take in (1, 0):
            if take:
                deg[u] += 1
                deg[v] += 1
                new_inc = included | 1 << idx
            else:
                new_inc = included
            ok = True
            for x in (u, v):
                if remaining_at[x] == 0 and (deg[x] & 1) != (rmask >> x & 1):
                    ok = False
                if deg[x] == 0 and remaining_at[x] == 0:
                    ok = False
            if ok and not take and not alive(new_inc, idx + 1):
                ok = False
            if ok:
                got = rec(idx + 1, new_inc)
                if got is not None:
                    if take:
                        deg[u] -= 1
                        deg[v] -= 1
                    remaining_at[u] += 1
                    remaining_at[v] += 1
                    return got
            if take:
                deg[u] -= 1
                deg[v] -= 1
        remaining_at[u] += 1
        remaining_at[v] += 1
        return None

    return rec(0, 0)


def _parity_heuristic(h: Multigraph, rmask: int):
    """Drop a T-join from the full edge set: paths pair up the vertices
    where the parity of the whole graph disagrees with the demand."""
    n, m = h.n, h.edge_count
    deg_odd = 0
    for v in range(n):
        if h.degree(v) & 1:
            deg_odd ^= 1 << v
    diff = deg_odd ^ rmask
    if not diff:
        full = (1 << m) - 1
        return full if _edges_connected(h, full, (1 << n) - 1) else None
    # pair the difference vertices greedily by BFS paths, xor the paths out
    pick = list(bits(diff))
    drop = 0
    for i in range(0, len(pick), 2):
        a, b = pick[i], pick[i + 1]
        path = _bfs_edge_path(h, a, b)
        if path is None:
            return None
        drop ^= path
    emask = ((1 << m) - 1) & ~drop
    vmask = 0
    deg = [0] * n
    for eid in bits(emask):
        u, v = h.endpoints(eid)
        deg[u] += 1
        deg[v] += 1
    for v in range(n):
        if deg[v]:
            vmask |= 1 << v
    if vmask != (1 << n) - 1:
        return None
    for v in range(n):
        if (deg[v] & 1) != (rmask >> v & 1):
            return None
    if not _edges_connected(h, emask, vmask):
        return None
    return emask


def _bfs_edge_path(h: Multigraph, a: int, b: int):
    inc = h.incidence
    prev = {a: None}
    queue = [a]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        if v == b:
            break
        for eid, w in inc[v]:
            if w not in prev:
                prev[w] = (eid, v)
                queue.append(w)
    if b not in prev:
        return None
    mask = 0
    v = b
    while prev[v] is not None:
        eid, p = prev[v]
        mask |= 1 << eid
        v = p
    return mask


def parity_subgraph(h: Multigraph, rmask: int):
    """Spanning connected subgraph of h whose odd-degree set is exactly
    rmask, as an edge mask, or None.  rmask must have even size."""
    n = h.n
    if rmask & ~((1 << n) - 1):
        raise GraphError("parity demand outside the host")
    if rmask.bit_count() & 1:
        raise GraphError("parity demand must have even size")
    if not is_connected(h):
        raise GraphError("parity subgraphs require a connected host")
    if n == 1:
        return 0 if rmask == 0 else None
    got = _parity_heuristic(h, rmask)
    if got is not None:
        return got
    return _spanning_parity_search(h, rmask, PARITY_LEAF_BUDGET)


# ---------------------------------------------------------------------------
# short-cycle degree condition


def lai_hypothesis(h: Multigraph) -> bool:
    """2-connected, minimum degree at least 3, every edge on a cycle of
    length at most 4 (a parallel edge lies on a 2-cycle)."""
    if h.n < 3 or not is_2_connected(h):
        return False
    if any(h.degree(v) < 3 for v in range(h.n)):
        return False
    rows = h.rows
    for u, v in h.support_pairs:
        if h.multiplicity(u, v) >= 2:
            continue
        if rows[u] & rows[v]:
            continue  # triangle
        ok = False
        for w in bits(rows[u] & ~(1 << v)):
            if rows[w] & rows[v] & ~(1 << u):
                ok = True
                break
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# lifting trails through a contraction


def lift_dct(h: Multigraph, F, trail: Trail) -> Trail:
    """Lift a closed trail of h/F through the contraction of a collapsible
    vertex set F.

    trail must be a closed trail of h/F passing through the contracted
    vertex.  The preimage edges of the trail enter F with some parity
    defect R; a parity subgraph of h[F] with odd set R exists because h[F]
    is collapsible, and its union with the preimage is even and connected,
    hence carries a closed trail.  The result covers all of F and every
    preimage edge.
    """
    cres = contract(h, F)
    q = cres.quotient
    validate_closed_trail(q, trail, required_vertices=1 << cres.v_new)
    fmask = 0
    for v, img in enumerate(cres.vmap):
        if img == cres.v_new:
            fmask |= 1 << v

    pre = [cres.edge_origin[eid] for eid in trail.edge_ids]
    pre_mask = 0
    for eid in pre:
        pre_mask |= 1 << eid

    # parity defect of the preimage inside F
    deg = {}
    for eid in pre:
        for x in h.endpoints(eid):
            if fmask >> x & 1:
                deg[x] = deg.get(x, 0) + 1
    sub, verts = induced_subgraph(h, fmask)
    pos = {v: i for i, v in enumerate(verts)}
    rmask_local = 0
    for x, d in deg.items():
        if d & 1:
            rmask_local |= 1 << pos[x]

    if not is_collapsible(sub):
        raise NotCollapsibleError("the contracted set is not collapsible")
    wit = parity_subgraph(sub, rmask_local)
    if wit is None:
        raise GraphError("parity witness missing for a collapsible subgraph")

    # induced_subgraph keeps h's edge order, so local edge i is sub_eids[i]
    sub_eids = [eid for eid, (u, v) in enumerate(h.edges) if fmask >> u & 1 and fmask >> v & 1]
    emask = pre_mask
    for leid in bits(wit):
        emask |= 1 << sub_eids[leid]
    if not emask:
        return Trail((verts[0],), ())
    # start anywhere on the union's support
    support = 0
    for eid in bits(emask):
        u, v = h.endpoints(eid)
        support |= (1 << u) | (1 << v)
    start = (support & -support).bit_length() - 1
    lifted = _euler_trail(h, emask, start)
    validate_closed_trail(
        h, lifted, required_vertices=fmask, required_edges=pre_mask
    )
    return lifted

