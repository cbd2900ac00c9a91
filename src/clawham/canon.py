"""Canonical forms, isomorphism tests, and automorphism orbits.

Exact for n <= 16, by one engine: equitable partition refinement plus
individualize-and-refine backtracking.  Nearly-rigid graphs (the bulk of
every sweep) short-cut through a brute minimum over the few orderings
consistent with the refined partition; the backtracking path handles the
symmetric stragglers with automorphism pruning.  Equal form bytes <=>
isomorphic.

Multigraphs go through the same engine.  A row gives each vertex u a
`width`-bit field at bit width*u, width being the largest multiplicity, and
stores multiplicity k there in unary as k ones, so a masked popcount counts
edges with multiplicity.  At width 1 the rows are plain adjacency masks.
Multigraph forms carry their width in the header and never equal a simple
graph's form.

An optional vertex coloring (ordered list of cell masks) restricts both
isomorphisms and forms to color-preserving maps; marked structures are
canonized this way.
"""
from __future__ import annotations

import itertools

from .graphs import GraphError, LimitExceeded, Multigraph, bits

CANON_MAX_N = 16
_BRUTE_CAP = 48
_FACT = [1]
for _i in range(1, 24):
    _FACT.append(_FACT[-1] * _i)


# ---------------------------------------------------------------------------
# engine (bitmask rows of width-bit fields; width 1 is the hot path)


def _spread(mask, width):
    """A vertex mask widened to whole width-bit fields."""
    field = (1 << width) - 1
    out = 0
    for u in bits(mask):
        out |= field << (width * u)
    return out


def _refine_simple(rows, cells, width=1):
    """Equitable refinement of an ordered partition given as a mask list.

    Splitting is driven by edge counts into splitter cells; sub-cells are
    ordered by ascending count, so the result depends only on the
    isomorphism type of the partitioned graph.
    """
    cells = list(cells)
    changed = True
    while changed:
        changed = False
        for w in tuple(cells):
            if width > 1:
                w = _spread(w, width)
            i = 0
            while i < len(cells):
                cell = cells[i]
                if cell & (cell - 1):
                    groups = {}
                    m = cell
                    while m:
                        b = m & -m
                        k = (rows[b.bit_length() - 1] & w).bit_count()
                        if k in groups:
                            groups[k] |= b
                        else:
                            groups[k] = b
                        m ^= b
                    if len(groups) > 1:
                        sub = [groups[k] for k in sorted(groups)]
                        cells[i : i + 1] = sub
                        changed = True
                        i += len(sub)
                        continue
                i += 1
    return cells


def _leafkey_simple(rows, order, pos, width=1):
    # pos maps each row bit to its bit in the relabeled row
    if width == 1:
        for i, v in enumerate(order):
            pos[v] = i
    else:
        for i, v in enumerate(order):
            pos[width * v : width * v + width] = range(width * i, width * i + width)
    key = []
    for v in order:
        m = rows[v]
        r = 0
        while m:
            b = m & -m
            r |= 1 << pos[b.bit_length() - 1]
            m ^= b
        key.append(r)
    return tuple(key)


def _brute_min_simple(rows, cells, n, width=1):
    pools = [tuple(bits(c)) for c in cells]
    pos = [0] * (n * width)
    best_key = None
    best_orders = None
    for choice in itertools.product(*(itertools.permutations(p) for p in pools)):
        order = [v for grp in choice for v in grp]
        key = _leafkey_simple(rows, order, pos, width)
        if best_key is None or key < best_key:
            best_key = key
            best_orders = [order]
        elif key == best_key:
            best_orders.append(order)
    gens = []
    o0 = best_orders[0]
    for other in best_orders[1:]:
        p = [0] * n
        for a, b in zip(o0, other):
            p[a] = b
        gens.append(tuple(p))
    return best_key, o0, gens


def _ir_search_simple(rows, cells0, n, width=1):
    pos = [0] * (n * width)
    state = {"first_key": None, "first_order": None, "best_key": None, "best_order": None}
    gens = []
    gen_seen = set()
    identity = tuple(range(n))

    def record(o1, o2):
        p = [0] * n
        for a, b in zip(o1, o2):
            p[a] = b
        t = tuple(p)
        if t != identity and t not in gen_seen:
            gen_seen.add(t)
            gens.append(t)

    def search(cells, path):
        cells = _refine_simple(rows, cells, width)
        for idx, c in enumerate(cells):
            if c & (c - 1):
                break
        else:
            order = [c.bit_length() - 1 for c in cells]
            key = _leafkey_simple(rows, order, pos, width)
            if state["first_key"] is None:
                state["first_key"] = key
                state["first_order"] = order
                state["best_key"] = key
                state["best_order"] = order
                return
            if key == state["first_key"]:
                record(state["first_order"], order)
            if key < state["best_key"]:
                state["best_key"] = key
                state["best_order"] = order
            elif key == state["best_key"]:
                record(state["best_order"], order)
            return
        target = cells[idx]
        explored = []
        for v in bits(target):
            if explored and gens:
                fix = [p for p in gens if all(p[x] == x for x in path)]
                if fix:
                    parent = list(range(n))

                    def find(a):
                        while parent[a] != a:
                            parent[a] = parent[parent[a]]
                            a = parent[a]
                        return a

                    for p in fix:
                        for a in range(n):
                            ra, rb = find(a), find(p[a])
                            if ra != rb:
                                parent[ra] = rb
                    rv = find(v)
                    if any(find(u) == rv for u in explored):
                        continue
            child = cells[:idx] + [1 << v, target ^ (1 << v)] + cells[idx + 1 :]
            search(child, path + (v,))
            explored.append(v)

    search(list(cells0), ())
    return state["best_key"], state["best_order"], gens


def _orbits_from_gens(n, gens):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in gens:
        for a in range(n):
            ra, rb = find(a), find(p[a])
            if ra != rb:
                parent[ra] = rb
    reps = [find(a) for a in range(n)]
    norm = {}
    for a in range(n):
        norm.setdefault(reps[a], min(b for b in range(n) if reps[b] == reps[a]))
    return tuple(norm[r] for r in reps)


def canon_simple_rows(n, rows, cells=None, *, width=1):
    """Canonize a graph given as adjacency rows of width-bit fields.

    Returns (form_bytes, order, orbits) where order[i] is the original
    vertex placed at canonical position i, and orbits gives a sound (may be
    refined) orbit representative per vertex.
    """
    if n == 0:
        return b"S\x00|", (), ()
    init = [(1 << n) - 1] if cells is None else list(cells)
    sizes = bytes(c.bit_count() for c in init)
    refined = _refine_simple(rows, init, width)
    prod = 1
    for c in refined:
        prod *= _FACT[c.bit_count()]
        if prod > _BRUTE_CAP:
            break
    if prod <= _BRUTE_CAP:
        key, order, gens = _brute_min_simple(rows, refined, n, width)
    else:
        key, order, gens = _ir_search_simple(rows, refined, n, width)
    field = (1 << width) - 1
    acc = 0
    for i in range(n):
        ri = key[i]
        for shift in range(width * (i + 1), width * n, width):
            acc = acc << width | (ri >> shift & field)
    nbits = width * n * (n - 1) // 2
    payload = acc.to_bytes((nbits + 7) // 8, "big") if nbits else b""
    head = b"S" if width == 1 else b"M%d," % width
    form = head + bytes([n]) + sizes + b"|" + payload
    return form, tuple(order), _orbits_from_gens(n, gens)


# ---------------------------------------------------------------------------
# public surface


def _validate_colors(n, colors):
    if colors is None:
        return None
    cover = 0
    cells = []
    for c in colors:
        m = c if isinstance(c, int) else sum(1 << v for v in c)
        if m & cover:
            raise GraphError("color classes must be disjoint")
        cover |= m
        cells.append(m)
    if cover != (1 << n) - 1 and n > 0:
        raise GraphError("color classes must cover all vertices")
    return cells


def _canon(g: Multigraph, colors):
    if g.n > CANON_MAX_N:
        raise LimitExceeded(f"canonical form is exact only up to n={CANON_MAX_N}")
    cells = _validate_colors(g.n, colors)
    if g.is_simple:
        return canon_simple_rows(g.n, g.rows, cells)
    mult = [(pair, len(tuple(run))) for pair, run in itertools.groupby(g.edges)]
    width = max(k for _, k in mult)
    rows = [0] * g.n
    for (u, v), k in mult:
        rows[u] |= ((1 << k) - 1) << (width * v)
        rows[v] |= ((1 << k) - 1) << (width * u)
    return canon_simple_rows(g.n, rows, cells, width=width)


def canonical_form(g: Multigraph, colors=None) -> bytes:
    """Canonical byte string; equal forms exactly for isomorphic graphs."""
    return _canon(g, colors)[0]


def canonical_labeling(g: Multigraph, colors=None):
    """(perm, form) with perm[old] = canonical position of old."""
    form, order, _ = _canon(g, colors)
    perm = [0] * g.n
    for i, v in enumerate(order):
        perm[v] = i
    return tuple(perm), form


def automorphism_orbits(g: Multigraph, colors=None):
    """Orbit representative per vertex under discovered automorphisms.

    Sound (vertices sharing a representative are genuinely equivalent) but
    callers needing completeness should fall back to form comparisons.
    """
    return _canon(g, colors)[2]


def are_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees) != sorted(h.degrees):
        return False
    return canonical_form(g) == canonical_form(h)
