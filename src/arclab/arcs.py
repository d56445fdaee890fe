"""Combinatorial arc classes on four families of marked surfaces.

Surfaces (boundary vertices are labeled 1..n in clockwise order):

* polygon   -- convex polygon with n boundary vertices; arcs are diagonals.
* crown     -- disk with n boundary vertices and one interior marked point 0;
               c-arcs join 0 to a boundary vertex, b-arcs cut off a polygon
               not containing 0.
* mobius    -- Moebius strip with n boundary vertices ("non-orientable
               crown"); c-arcs cross the core curve (there is exactly one
               homotopy class between any two boundary vertices, loops L_i
               included), b-arcs cut off an orientable polygon.
* strip     -- integral strip P(m, n): a quadrilateral with m bottom (blue)
               x-vertices and n top (red) y-vertices, numbered left to
               right; arcs join a blue vertex to a red vertex.  The two
               corner arcs (1,1) and (m,n) are homotopic to boundary edges
               and are excluded.

Every homotopy class of nontrivial arcs is encoded by one `Arc` value, and
`disjoint` decides whether two classes admit representatives that meet at
most in shared endpoints.  A b-arc is stored as the ordered pair (p, q): its
polygon side is the clockwise boundary interval from p to q, with wrap
length W = ((q - p - 1) mod n) + 1 in {2..n}; W = n (q = p) is the loop M_p.
In the universal cover of the annular neighbourhood of the boundary the
polygon side lifts to the integer interval [p, p + W], and two b-arcs are
disjoint exactly when no pair of lifted translates strictly interleaves.
Moebius c-arcs {i,j} and {k,l} are disjoint exactly when both pairs can be
split into alternating strands around the boundary circle, which the integer
order test in `_mobc_disjoint` captures.
"""

from __future__ import annotations

from dataclasses import dataclass

POLYGON = "polygon"
CROWN = "crown"
MOBIUS = "mobius"
STRIP = "strip"

_FAMILIES = (POLYGON, CROWN, MOBIUS, STRIP)


@dataclass(frozen=True, order=True)
class SurfaceSpec:
    """One of the four marked surfaces."""

    family: str
    n: int
    m: int | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown surface family {self.family!r}")
        if self.n < 1:
            raise ValueError("vertex count n must be a positive integer")
        if self.family == STRIP:
            if self.m is None or self.m < 1:
                raise ValueError("integral strip needs a positive x-vertex count m")
        elif self.m is not None:
            raise ValueError(f"{self.family} takes a single vertex count")

    def describe(self) -> str:
        if self.family == STRIP:
            return f"strip({self.m},{self.n})"
        return f"{self.family}({self.n})"


def polygon(n: int) -> SurfaceSpec:
    return SurfaceSpec(POLYGON, n)


def crown(n: int) -> SurfaceSpec:
    return SurfaceSpec(CROWN, n)


def mobius_crown(n: int) -> SurfaceSpec:
    return SurfaceSpec(MOBIUS, n)


def integral_strip(m: int, n: int) -> SurfaceSpec:
    return SurfaceSpec(STRIP, n, m)


# Arc kinds.
DIAG = "diag"  # polygon diagonal
C_ARC = "c"  # crown c-arc, 0 to vertex i
B_ARC = "b"  # crown / mobius b-arc (p, q); q == p encodes the loop M_p
CC_ARC = "cc"  # mobius c-arc (i, j) with i <= j; i == j encodes the loop L_i
STRIP_ARC = "strip"  # blue-i to red-j chord of the integral strip


@dataclass(frozen=True, order=True)
class Arc:
    """One homotopy class of nontrivial arcs, tagged by kind."""

    kind: str
    a: int
    b: int

    def label(self) -> str:
        """Stable text label: c:i, M:p, b:p-q, L:i, cc:i-j, strip:i-j, d:i-j."""
        if self.kind == C_ARC:
            return f"c:{self.a}"
        if self.kind == B_ARC:
            if self.a == self.b:
                return f"M:{self.a}"
            return f"b:{self.a}-{self.b}"
        if self.kind == CC_ARC:
            if self.a == self.b:
                return f"L:{self.a}"
            return f"cc:{self.a}-{self.b}"
        if self.kind == STRIP_ARC:
            return f"strip:{self.a}-{self.b}"
        return f"d:{self.a}-{self.b}"


def diag(i: int, j: int) -> Arc:
    return Arc(DIAG, min(i, j), max(i, j))


def c_arc(i: int) -> Arc:
    return Arc(C_ARC, i, i)


def b_arc(p: int, q: int) -> Arc:
    return Arc(B_ARC, p, q)


def loop_b(p: int) -> Arc:
    """The maximal b-arc M_p (both endpoints at p)."""
    return Arc(B_ARC, p, p)


def cc_arc(i: int, j: int) -> Arc:
    return Arc(CC_ARC, min(i, j), max(i, j))


def loop_c(i: int) -> Arc:
    """The maximal Moebius c-arc L_i (both endpoints at i)."""
    return Arc(CC_ARC, i, i)


def strip_arc(i: int, j: int) -> Arc:
    return Arc(STRIP_ARC, i, j)


def wrap_length(arc: Arc, n: int) -> int:
    """Number of boundary edges on the polygon side of a b-arc."""
    if arc.kind != B_ARC:
        raise ValueError("wrap_length is defined for b-arcs only")
    return ((arc.b - arc.a - 1) % n) + 1


def b_arc_from_wrap(p: int, w: int, n: int) -> Arc:
    """The b-arc whose polygon side starts at p and spans w boundary edges."""
    q = ((p + w - 1) % n) + 1
    return Arc(B_ARC, p, q)


def validate_arc(s: SurfaceSpec, arc: Arc) -> None:
    """Raise ValueError unless arc is a nontrivial arc class of s."""
    n = s.n
    if s.family == POLYGON:
        if arc.kind != DIAG:
            raise ValueError(f"{arc} is not a polygon arc")
        i, j = arc.a, arc.b
        gap = j - i
        if not (1 <= i < j <= n) or gap < 2 or n - gap < 2:
            raise ValueError(f"{arc} is not a diagonal of polygon({n})")
        return
    if s.family == STRIP:
        if arc.kind != STRIP_ARC:
            raise ValueError(f"{arc} is not a strip arc")
        i, j = arc.a, arc.b
        if not (1 <= i <= s.m and 1 <= j <= n):
            raise ValueError(f"{arc} out of range for {s.describe()}")
        if (i, j) == (1, 1) or (i, j) == (s.m, n):
            raise ValueError(f"{arc} is a trivial corner arc of {s.describe()}")
        return
    if arc.kind == B_ARC:
        if not (1 <= arc.a <= n and 1 <= arc.b <= n):
            raise ValueError(f"{arc} out of range for {s.describe()}")
        w = wrap_length(arc, n)
        if w < 2:
            raise ValueError(f"{arc} is a trivial boundary-parallel arc")
        if w == n and n < 2:
            raise ValueError(f"loop {arc} is trivial on {s.describe()}")
        return
    if s.family == CROWN:
        if arc.kind != C_ARC or arc.a != arc.b or not (1 <= arc.a <= n):
            raise ValueError(f"{arc} is not an arc of {s.describe()}")
        return
    if s.family == MOBIUS:
        if arc.kind != CC_ARC or not (1 <= arc.a <= arc.b <= n):
            raise ValueError(f"{arc} is not an arc of {s.describe()}")
        return
    raise ValueError(f"{arc} is not an arc of {s.describe()}")


def enumerate_arcs(s: SurfaceSpec) -> list[Arc]:
    """Every nontrivial arc class of s exactly once, in canonical order.

    Polygon: diagonals (i, j) lexicographically.  Crown: c-arcs c_1..c_n,
    then b-arcs by (p, wrap length).  Mobius: c-arcs (i, j) with i <= j
    lexicographically, then b-arcs by (p, wrap length).  Strip: (i, j)
    lexicographically, corners excluded.
    """
    n = s.n
    out: list[Arc] = []
    if s.family == POLYGON:
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1):
                if n - (j - i) >= 2:
                    out.append(diag(i, j))
        return out
    if s.family == STRIP:
        for i in range(1, s.m + 1):
            for j in range(1, n + 1):
                if (i, j) != (1, 1) and (i, j) != (s.m, n):
                    out.append(strip_arc(i, j))
        return out
    if s.family == CROWN:
        out.extend(c_arc(i) for i in range(1, n + 1))
    else:
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                out.append(cc_arc(i, j))
    max_w = n if n >= 2 else 1
    for p in range(1, n + 1):
        for w in range(2, max_w + 1):
            out.append(b_arc_from_wrap(p, w, n))
    return out


def arc_ids(s: SurfaceSpec) -> dict[Arc, int]:
    """Canonical dense vertex id of every arc of s."""
    return {arc: i for i, arc in enumerate(enumerate_arcs(s))}


def cc_id(n: int, i: int, j: int) -> int:
    """arc_ids(mobius_crown(n))[cc_arc(i, j)], for i <= j, without building an arc.

    The c-arcs (k, l), k <= l, come first, n - k + 1 of them per k.
    """
    return (i - 1) * (2 * n + 2 - i) // 2 + j - i


def b_id(n: int, p: int, w: int) -> int:
    """arc_ids(mobius_crown(n))[b_arc_from_wrap(p, w, n)], without building an arc.

    The b-arcs follow the n(n + 1)/2 c-arcs, n - 1 wrap lengths 2..n per p.
    """
    return n * (n + 1) // 2 + (p - 1) * (n - 1) + w - 2


# --- disjointness -----------------------------------------------------------


def _chords_cross(a1: int, a2: int, b1: int, b2: int) -> bool:
    return a1 < b1 < a2 < b2 or b1 < a1 < b2 < a2


def _barc_disjoint(n: int, x: Arc, y: Arc) -> bool:
    # Lift both polygon-side intervals to the universal cover and test every
    # overlapping translate; |k| <= 2 covers all intervals of length <= n.
    px, wx = (x.a - 1) % n, wrap_length(x, n)
    py, wy = (y.a - 1) % n, wrap_length(y, n)
    for k in range(-2, 3):
        if _chords_cross(px, px + wx, py + k * n, py + wy + k * n):
            return False
    return True


def _strictly_inside(n: int, v: int, barc: Arc) -> bool:
    d = (v - barc.a) % n
    return 1 <= d <= wrap_length(barc, n) - 1


def _mobc_disjoint(x: Arc, y: Arc) -> bool:
    pairs = ((x.a, x.b), (y.a, y.b))
    for first, second in (pairs, pairs[::-1]):
        for a, b in (first, first[::-1]):
            for c, d in (second, second[::-1]):
                if b <= d <= a <= c:
                    return True
    return False


def disjoint(s: SurfaceSpec, x: Arc, y: Arc) -> bool:
    """True iff the two distinct classes have disjoint representatives.

    Representatives may share endpoints; only interior crossings count.
    """
    if x == y:
        raise ValueError("disjointness is defined on distinct arc classes only")
    validate_arc(s, x)
    validate_arc(s, y)
    if s.family == POLYGON:
        return not _chords_cross(x.a, x.b, y.a, y.b)
    if s.family == STRIP:
        return (x.a <= y.a and x.b <= y.b) or (x.a >= y.a and x.b >= y.b)
    n = s.n
    if x.kind == B_ARC and y.kind == B_ARC:
        return _barc_disjoint(n, x, y)
    if x.kind != B_ARC and y.kind != B_ARC:
        if x.kind == C_ARC:
            return True  # crown c-arcs meet only at 0
        return _mobc_disjoint(x, y)
    c, barc = (x, y) if y.kind == B_ARC else (y, x)
    if c.kind == C_ARC:
        return not _strictly_inside(n, c.a, barc)
    return not (
        _strictly_inside(n, c.a, barc) or _strictly_inside(n, c.b, barc)
    )


# --- saplings ---------------------------------------------------------------


def saplings_of_degree(s: SurfaceSpec, deg: int) -> list[tuple[Arc, ...]]:
    """All saplings of the given degree, as sorted tuples of b-arcs.

    A set of pairwise disjoint, pairwise non-nested b-arcs covering a total
    of c boundary edges with b branches has degree b + (n - c); since the
    polygon sides of non-nested disjoint arcs have disjoint interiors, the
    degree equals n + sum over arcs of (1 - wrap).  Two b-arcs are disjoint
    and non-nested iff their polygon sides share no boundary edge, so each
    side is a bitset of edges (edge k from vertex k + 1 to k + 2, mod n)
    and a sapling is a set of sides with no common bit.
    """
    n = s.n
    barcs = [a for a in enumerate_arcs(s) if a.kind == B_ARC]
    target = n - deg  # required sum of (wrap - 1); the empty face is no sapling
    if target <= 0:
        return []
    full = (1 << n) - 1
    sides = []  # per b-arc: (wrap - 1, its side's edges)
    for a in barcs:
        w = wrap_length(a, n)
        edges = ((1 << w) - 1) << a.a - 1
        sides.append((w - 1, (edges | edges >> n) & full))
    out: list[tuple[Arc, ...]] = []

    def extend(start: int, chosen: list[Arc], used: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(chosen))
            return
        for idx in range(start, len(barcs)):
            cost, edges = sides[idx]
            if cost <= remaining and not edges & used:
                chosen.append(barcs[idx])
                extend(idx + 1, chosen, used | edges, remaining - cost)
                chosen.pop()

    extend(0, [], 0, target)
    del extend  # the closure holds extend: a cycle that would keep `out` alive
    return out
