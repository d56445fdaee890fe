"""Arc complexes of the four surfaces, as flag complexes of disjointness.

The disjointness graph is its bitset rows, built by one family rule each
instead of testing every pair of arcs: the rows are the closed
neighbourhoods over positions in `enumerate_arcs(s)`, which are the arc
ids, and they are the `Graph` itself.  Every complex here is the flag
complex of those rows or of a restriction of them.  `tests/oracles.py`
keeps the pair test as the check of every rule.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import or_

from .arcs import (
    Arc,
    B_ARC,
    CROWN,
    MOBIUS,
    POLYGON,
    STRIP,
    SurfaceSpec,
    enumerate_arcs,
    validate_arc,
    wrap_length,
)
from .simplicial import Complex, Graph, flag_complex


def _classes(n: int, keys) -> list[int]:
    """Key 0..n -> bitset of the positions whose key it is."""
    out = [0] * (n + 1)
    for k, key in enumerate(keys):
        out[key] |= 1 << k
    return out


def _at_most(classes: list[int]) -> list[int]:
    """Key -> the positions whose key is at most it."""
    return list(accumulate(classes, or_))


def _at_least(classes: list[int]) -> list[int]:
    """Key -> the positions whose key is at least it."""
    return list(accumulate(classes[::-1], or_))[::-1]


def _polygon_rows(n: int, arcs: list[Arc]) -> list[int]:
    # with E[p] the diagonals ending at p, the diagonals crossing (i, j) are
    # those with one end strictly inside (i, j) and the other strictly outside
    ends = [0] * (n + 2)
    for k, a in enumerate(arcs):
        ends[a.a] |= 1 << k
        ends[a.b] |= 1 << k
    below, above = _at_most(ends), _at_least(ends)
    everything = (1 << len(arcs)) - 1
    return [
        everything & ~(reduce(or_, ends[a.a + 1 : a.b]) & (below[a.a - 1] | above[a.b + 1]))
        for a in arcs
    ]


def _strip_rows(s: SurfaceSpec, arcs: list[Arc]) -> list[int]:
    # (k, l) misses (i, j) iff k <= i and l <= j, or k >= i and l >= j
    blue, red = _classes(s.m, [a.a for a in arcs]), _classes(s.n, [a.b for a in arcs])
    a_le, a_ge, b_le, b_ge = _at_most(blue), _at_least(blue), _at_most(red), _at_least(red)
    return [(a_le[a.a] & b_le[a.b]) | (a_ge[a.a] & b_ge[a.b]) for a in arcs]


def _mobius_c_rows(n: int, arcs: list[Arc]) -> list[int]:
    """The rows of the c-arcs (i, j), i <= j, among themselves.

    (i, j) and (k, l) are disjoint iff they weakly interleave: i <= k <= j <= l
    or k <= i <= l <= j.  The arcs (k, l) with l in a range are consecutive
    in `enumerate_arcs`, so each row is one run per first end k <= j.
    """
    first = {}  # k -> the position of (k, k)
    for pos, a in enumerate(arcs):
        first.setdefault(a.a, pos)

    def run(k: int, lo: int, hi: int) -> int:
        return ((1 << hi - lo + 1) - 1) << first[k] + lo - k

    rows = []
    for a in arcs:
        i, j = a.a, a.b
        row = run(i, i, n)
        for k in range(1, i):
            row |= run(k, i, j)
        for k in range(i + 1, j + 1):
            row |= run(k, j, n)
        rows.append(row)
    return rows


def _c_rows(s: SurfaceSpec, c_arcs: list[Arc]) -> list[int]:
    """The rows of the c-arcs of a crown or Moebius crown among themselves."""
    if s.family == CROWN:
        return [(1 << len(c_arcs)) - 1] * len(c_arcs)  # they meet only at the interior point
    return _mobius_c_rows(s.n, c_arcs)


def _crown_rows(s: SurfaceSpec, arcs: list[Arc]) -> list[int]:
    """Rows of a crown or Moebius crown: the c-arcs first, then the b-arcs.

    A b-arc (p, w) crosses the b-arcs that start strictly inside its polygon
    side and end beyond it, or end strictly inside it and start before it:
    the OR over d = 1..w-1 of (Start[p+d] & WrapGT[w-d]) | (End[p+d] &
    WrapGT[d]).  A c-arc misses a b-arc iff neither of its ends lies strictly
    inside the b-arc's polygon side.
    """
    n = s.n
    c = sum(a.kind != B_ARC for a in arcs)  # the c-arcs come first
    c_mask, everything = (1 << c) - 1, (1 << len(arcs)) - 1
    b_mask = everything ^ c_mask
    start, end, wrap = [0] * n, [0] * n, [0] * (n + 1)
    inside = [0] * n  # boundary vertex v - 1 -> the b-arcs with v strictly inside
    sides = []  # per b-arc: the boundary vertices (0-based) strictly inside it
    for k in range(c, len(arcs)):
        p, w = arcs[k].a - 1, wrap_length(arcs[k], n)
        bit = 1 << k
        start[p] |= bit
        end[(p + w) % n] |= bit
        wrap[w] |= bit
        sides.append([(p + d) % n for d in range(1, w)])
        for v in sides[-1]:
            inside[v] |= bit
    wrap_gt = _at_least(wrap)[1:] + [0]  # w -> the b-arcs with wrap length > w
    touch = [0] * n  # boundary vertex v - 1 -> the c-arcs with an end at v
    for k in range(c):
        touch[arcs[k].a - 1] |= 1 << k
        touch[arcs[k].b - 1] |= 1 << k

    rows = _c_rows(s, arcs[:c])
    for k in range(c):
        rows[k] |= b_mask & ~(inside[arcs[k].a - 1] | inside[arcs[k].b - 1])
    for k, side in zip(range(c, len(arcs)), sides):
        w = len(side) + 1
        crossing = 0
        for d, v in enumerate(side, 1):
            crossing |= (start[v] & wrap_gt[w - d]) | (end[v] & wrap_gt[d])
        touched = reduce(or_, (touch[v] for v in side), 0)
        rows.append((b_mask & ~crossing) | (c_mask & ~touched))
    return rows


def _rows(s: SurfaceSpec, arcs: list[Arc]) -> list[int]:
    """Closed neighbourhood of each of `arcs`, which is `enumerate_arcs(s)`, by position.

    Each arc is validated once here.
    """
    for a in arcs:
        validate_arc(s, a)
    if s.family == POLYGON:
        return _polygon_rows(s.n, arcs)
    if s.family == STRIP:
        return _strip_rows(s, arcs)
    return _crown_rows(s, arcs)


def disjointness_graph(s: SurfaceSpec) -> Graph:
    """Graph on canonical arc ids with edges between disjoint classes."""
    arcs = enumerate_arcs(s)
    return Graph(tuple(range(len(arcs))), tuple(_rows(s, arcs)))


def _labels(arcs: list[Arc]) -> dict[int, str]:
    return {i: a.label() for i, a in enumerate(arcs)}


def arc_complex(s: SurfaceSpec) -> Complex:
    """Full arc complex of s: faces are pairwise-disjoint arc collections."""
    return flag_complex(disjointness_graph(s), _labels(enumerate_arcs(s)), s)


def _c_arcs(s: SurfaceSpec) -> list[Arc]:
    """The c-arcs of a crown or Moebius crown, which come first in `enumerate_arcs(s)`."""
    if s.family not in (CROWN, MOBIUS):
        raise ValueError("inner complexes are defined for crowns")
    return [a for a in enumerate_arcs(s) if a.kind != B_ARC]


def inner_graph(s: SurfaceSpec) -> Graph:
    """The disjointness graph of the c-arcs of s alone, on their ids."""
    c_arcs = _c_arcs(s)
    return Graph(tuple(range(len(c_arcs))), tuple(_c_rows(s, c_arcs)))


def inner_complex(s: SurfaceSpec) -> Complex:
    """Subcomplex generated by the c-arcs (crown or non-orientable crown)."""
    return flag_complex(inner_graph(s), _labels(_c_arcs(s)), s)


def induced_arc_complex(s: SurfaceSpec, graph: Graph, removed_ids) -> Complex:
    """Arc complex of s with the given vertex ids deleted.

    `graph` is `disjointness_graph(s)`.  Vertex deletions of a flag complex
    are the flag complex of the induced graph, so this is equivalent to
    iterated `vertex_deletion` but is built from the restricted graph: the
    kept rows, renumbered to the kept positions.
    """
    removed = frozenset(removed_ids)
    kept = [i for i, v in enumerate(graph.vertices) if v not in removed]
    rows = tuple(
        sum(1 << k for k, j in enumerate(kept) if graph.closed_neighbourhoods[i] >> j & 1)
        for i in kept
    )
    induced = Graph(tuple(graph.vertices[i] for i in kept), rows)
    return flag_complex(induced, _labels(enumerate_arcs(s)), s)
