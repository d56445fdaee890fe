"""Finite simplicial complexes stored by their maximal faces.

A `Complex` is an immutable snapshot: a vertex table (dense integer ids with
text labels) plus the antichain of maximal faces.  Star queries go through
one index, `Complex.stars`, built on first use: each vertex maps to the
bitset of the facets that contain it.  The facets across each ridge, and
the facet adjacency, are read off that index and cached on the complex as
well.  A `Graph` is its closed-neighbourhood bitsets, one row per vertex;
its sorted edges are read off the rows on demand.  A flag complex keeps
its graph, and counts its faces as the graph's cliques; any other complex
counts them on `stars`.
`FacetEditor` is the one mutable form, used for face deletions and
collapse replays.  Other face queries enumerate on demand.  The complex
with no vertices is represented by the single maximal face {} so that
joins and links behave uniformly.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import and_
from typing import Iterable, Iterator, Mapping

from .arcs import SurfaceSpec

Face = frozenset[int]

EMPTY_FACE: Face = frozenset()


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on integer vertex ids, stored as its closed neighbourhoods.

    closed_neighbourhoods[i] is the bitset of the positions of vertices[i]
    and its neighbours: it holds bit i and is symmetric with the others.
    Bits index positions in `vertices`, so any integer ids work.
    """

    vertices: tuple[int, ...]  # sorted
    closed_neighbourhoods: tuple[int, ...]

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The sorted vertex pairs, read off the bits above each row's own."""
        vs, edges = self.vertices, []
        for i, u in enumerate(vs):
            above = self.closed_neighbourhoods[i] >> i + 1
            while above:
                low = above & -above
                edges.append((u, vs[i + low.bit_length()]))
                above ^= low
        return edges

    @cached_property
    def dominating_sets(self) -> dict[tuple[int, int], int]:
        """(i, N[i] & alive) -> `graph_dominating_set(self, alive, i)`, which fills it.

        Not a field, so equality and hashing ignore it.
        """
        return {}

    @cached_property
    def dominated_at(self) -> dict[int, int]:
        """alive -> the bitset of its positions dominated in the flag complex on
        `alive`, for every alive set that a `graph_core` of this graph settled.

        The dominated set is a function of `alive` alone, so a later core that
        reaches a stored alive set reads it here and asks nothing.  Every key
        (i, N[i] & alive) of a stored alive set's live i is in
        `dominating_sets`, so its witnesses and its neighbours' old answers can
        be looked up.  Not a field, so equality and hashing ignore it.
        """
        return {}


@dataclass(frozen=True)
class Complex:
    """Simplicial complex as canonical vertex ids plus maximal faces.

    Built only by `_complex`, so equal complexes have equal fields.  A flag
    complex keeps the graph it was built from in `graph`, which equality,
    hashing and JSON ignore.
    """

    vertex_labels: tuple[tuple[int, str], ...]  # sorted by id
    facets: tuple[Face, ...]  # canonical order; (frozenset(),) if no faces
    surface: SurfaceSpec | None = field(default=None, compare=False)
    graph: Graph | None = field(default=None, compare=False)

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.vertex_labels)

    @property
    def labels(self) -> dict[int, str]:
        return dict(self.vertex_labels)

    def label(self, v: int) -> str:
        return self.labels[v]

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    def __repr__(self) -> str:
        return (
            f"Complex({self.n_vertices} vertices, {len(self.facets)} facets, "
            f"dim {dimension(self)})"
        )

    @cached_property
    def stars(self) -> dict[int, int]:
        """Vertex -> bitset of the indices of the facets that contain it.

        Built in one pass over the facets: each vertex gets a little-endian
        row of t bits, facet i sets bit i of its vertices' rows, and each row
        is read as one integer.  That is O(incidences + V * t / 8) for t
        facets and V vertices, where ORing `1 << i` into the stars facet by
        facet would copy an int of up to t bits per incidence.  Not a field,
        so equality, hashing and JSON ignore it.
        """
        rows = {v: bytearray((len(self.facets) + 7) >> 3) for v, _ in self.vertex_labels}
        for i, f in enumerate(self.facets):
            byte, bit = i >> 3, 1 << (i & 7)
            for v in f:
                rows[v][byte] |= bit
        return {v: int.from_bytes(row, "little") for v, row in rows.items()}

    def star_mask(self, face: Iterable[int]) -> int:
        """Bitset of the indices of the facets that contain `face`."""
        return _star_mask(self.stars, (1 << len(self.facets)) - 1, face)

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        """Number of faces with k + 1 vertices at position k.

        A flag complex's faces are the cliques of its graph, so they are
        counted there (`clique_counts`).  Otherwise each face is counted
        once, off `stars`, at the lowest-index facet F_i containing it: a
        subset of F_i counts iff no facet below i contains it.  The subsets
        of F_i are masks over its vertices, and the facets below i through
        a subset come from those through the subset without its lowest
        vertex, so no face is built.  Not a field, so equality, hashing and
        JSON ignore it.
        """
        if self.graph is not None:
            return clique_counts(self.graph)
        counts = [0] * (max(map(len, self.facets)) + 1)
        for i, f in enumerate(self.facets):
            star_of_bit = {1 << j: self.stars[v] for j, v in enumerate(f)}
            below = [(1 << i) - 1]  # subset mask -> the facets below i through it
            for m in range(1, 1 << len(f)):
                low = m & -m
                through = below[m ^ low] & star_of_bit[low]
                below.append(through)
                if not through:
                    counts[m.bit_count()] += 1
        return tuple(counts[1:])

    @cached_property
    def _ridges(self) -> tuple[tuple[tuple[tuple[int, tuple[int, ...]], ...], ...], tuple[int, ...]]:
        """(`ridge_neighbours`, `facet_adjacency`), built in one pass over the facets.

        The other facets through F_i - v are the AND of the stars of F_i's
        other vertices: one prefix and one suffix AND per facet, and no
        ridge is built.  An entry with no other facet or one, the common
        case, is stored without walking its bits, and the adjacency row is
        the OR of the entries' bitsets.
        """
        everything = (1 << len(self.facets)) - 1
        table, adjacency = [], []
        for i, f in enumerate(self.facets):
            vs = list(f)
            # prefix[k]: the other facets through vs[:k]; suffix: those through vs[k + 1:]
            suffix, row, closed = everything ^ (1 << i), [], 1 << i
            prefix = list(accumulate((self.stars[v] for v in vs), and_, initial=suffix))
            for k in reversed(range(len(vs))):
                across = prefix[k] & suffix
                if not across & (across - 1):
                    row.append((vs[k], (across.bit_length() - 1,) if across else ()))
                else:
                    row.append((vs[k], tuple(_bits(across))))
                closed |= across
                suffix &= self.stars[vs[k]]
            table.append(tuple(row))
            adjacency.append(closed)
        return tuple(table), tuple(adjacency)

    @property
    def ridge_neighbours(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """Facet i -> (v, the indices of the other facets through F_i - v) for v in F_i.

        Cached, with `facet_adjacency`, and ignored by equality, hashing and JSON.
        """
        return self._ridges[0]

    @property
    def facet_adjacency(self) -> tuple[int, ...]:
        """Facet i -> bitset of i and the facets that share a ridge F_i - v with F_i.

        The closed neighbourhoods of the dual graph, built once per complex
        for the dual graph, the pseudomanifold check and the shelling
        search.  Cached, with `ridge_neighbours`, and ignored by equality,
        hashing and JSON.
        """
        return self._ridges[1]


def _star_mask(stars: Mapping[int, int], mask: int, face: Iterable[int]) -> int:
    """`mask` restricted to the facets through every vertex of `face`."""
    for v in face:
        mask &= stars.get(v, 0)
        if not mask:
            break
    return mask


def _complex(
    labels: Mapping[int, str],
    facets: Iterable[Face],
    surface: SurfaceSpec | None = None,
    graph: Graph | None = None,
) -> Complex:
    """The complex with maximal faces `facets`, which must be an antichain.

    Every complex is built here, in canonical order; `labels` may name
    unused vertices.  Only `make_complex` and `FacetEditor.delete` prune
    faces.  `graph` is given only by `flag_complex`.
    """
    ordered = sorted(facets, key=sorted) or [EMPTY_FACE]
    used = sorted(set().union(*ordered))
    return Complex(tuple((v, labels[v]) for v in used), tuple(ordered), surface, graph)


def _maximal_faces(faces: Iterable[Iterable[int]]) -> list[Face]:
    """The faces contained in no other face (quadratic in the face count)."""
    kept: list[Face] = []
    for f in sorted({frozenset(f) for f in faces}, key=len, reverse=True):
        if not any(f <= g for g in kept):
            kept.append(f)
    return kept


def make_complex(
    labels: Mapping[int, str] | Iterable[tuple[int, str]],
    faces: Iterable[Iterable[int]],
    surface: SurfaceSpec | None = None,
) -> Complex:
    """Build a complex from arbitrary faces, pruning non-maximal ones.

    This is the one place that prunes a whole input.  Every declared vertex
    must appear in some face; isolated vertices must be passed as singleton
    faces.
    """
    label_map = dict(labels)
    facets = _maximal_faces(faces)
    used = set().union(*facets)
    missing = used - set(label_map)
    if missing:
        raise ValueError(f"faces use undeclared vertices {sorted(missing)}")
    uncovered = set(label_map) - used
    if uncovered:
        raise ValueError(
            f"vertices {sorted(uncovered)} appear in no maximal face; "
            "declare them as singleton faces"
        )
    return _complex(label_map, facets, surface)


def empty_complex() -> Complex:
    return make_complex({}, [])


def facets_containing(c: Complex, face: Iterable[int]) -> list[Face]:
    return [c.facets[i] for i in _bits(c.star_mask(face))]


def faces(c: Complex, include_empty: bool = False) -> Iterator[Face]:
    """All faces of c, enumerated from the maximal faces (deduplicated)."""
    seen: set[Face] = set()
    if include_empty:
        seen.add(EMPTY_FACE)
        yield EMPTY_FACE
    for facet in c.facets:
        elems = sorted(facet)
        for mask in range(1, 1 << len(elems)):
            f = frozenset(
                elems[i] for i in range(len(elems)) if mask >> i & 1
            )
            if f not in seen:
                seen.add(f)
                yield f


def dimension(c: Complex) -> int:
    return max(len(f) for f in c.facets) - 1


def is_pure(c: Complex) -> bool:
    sizes = {len(f) for f in c.facets}
    return len(sizes) == 1


def f_vector(c: Complex) -> list[int]:
    return list(c.f_vector)


def euler_characteristic(c: Complex) -> int:
    return sum((-1) ** k * fk for k, fk in enumerate(c.f_vector))


def is_cone(c: Complex) -> int | None:
    """A vertex contained in every maximal face (lowest id), if any."""
    everywhere = (1 << len(c.facets)) - 1
    return next((v for v, star in c.stars.items() if star == everywhere), None)


def link(c: Complex, face: Iterable[int]) -> Complex:
    face = frozenset(face)
    stars = facets_containing(c, face)
    if not stars:
        raise ValueError(f"{sorted(face)} is not a face of the complex")
    # f - face <= g - face only if f <= g, so the link keeps an antichain
    return _complex(c.labels, [f - face for f in stars], c.surface)


class FacetEditor:
    """A mutable copy of a complex's facets and its `stars` index.

    Facets sit in slots, and `stars` maps each vertex to the bitset of the
    slots whose facet contains it.  A deleted facet frees its slot for the
    next added one, so `slots` is never longer than the largest number of
    facets live at once.
    """

    def __init__(self, c: Complex):
        self.labels = c.labels
        self.surface = c.surface
        self.slots: list[Face | None] = list(c.facets)
        self.stars = dict(c.stars)
        self.live = (1 << len(self.slots)) - 1
        self.free: list[int] = []

    def copy(self) -> "FacetEditor":
        other = copy.copy(self)
        other.slots, other.stars, other.free = list(self.slots), dict(self.stars), list(self.free)
        return other

    def star_mask(self, face: Iterable[int]) -> int:
        return _star_mask(self.stars, self.live, face)

    def containing(self, face: Iterable[int]) -> list[Face]:
        """The facets that contain `face`, in slot order."""
        return [self.slots[i] for i in _bits(self.star_mask(face))]

    def delete(self, face: Face) -> None:
        """Remove every face containing the nonempty `face`.

        The star's facets go, and each piece f - u (f in the star, u in
        `face`) that no remaining facet contains comes in.  The pieces are
        pairwise incomparable and contain no remaining facet, so the facets
        stay an antichain.  Returns the vertices of the deleted facets: no
        other vertex's star changed.
        """
        star = self.star_mask(face)
        if not star:
            raise ValueError(f"{sorted(face)} is not a face of the complex")
        pieces = []
        touched: set[int] = set()
        for i in _bits(star):
            f = self.slots[i]
            pieces.extend(f - {u} for u in face)
            touched |= f
            self.slots[i] = None
            self.free.append(i)
        for v in touched:
            self.stars[v] &= ~star
        self.live &= ~star
        for p in pieces:
            if self.star_mask(p):
                continue
            if self.free:
                i = self.free.pop()
                self.slots[i] = p
            else:
                i = len(self.slots)
                self.slots.append(p)
            for v in p:
                self.stars[v] |= 1 << i
            self.live |= 1 << i
        return touched

    def facets(self) -> list[Face]:
        return [f for f in self.slots if f is not None]

    def to_complex(self) -> Complex:
        return _complex(self.labels, self.facets(), self.surface)


def face_deletion(c: Complex, face: Iterable[int]) -> Complex:
    """All faces of c not containing the given face."""
    face = frozenset(face)
    if not face:
        raise ValueError("cannot delete the empty face")
    editor = FacetEditor(c)
    editor.delete(face)
    return editor.to_complex()


def vertex_deletion(c: Complex, v: int) -> Complex:
    return face_deletion(c, [v])


def join(c1: Complex, c2: Complex) -> Complex:
    """Join of two complexes on disjoint vertex id and label spaces."""
    ids1, ids2 = set(c1.vertex_ids), set(c2.vertex_ids)
    if ids1 & ids2:
        raise ValueError(f"vertex id collision {sorted(ids1 & ids2)}")
    lab1, lab2 = c1.labels, c2.labels
    shared = set(lab1.values()) & set(lab2.values())
    if shared:
        raise ValueError(f"vertex label collision {sorted(shared)}")
    return _complex({**lab1, **lab2}, [f | g for f in c1.facets for g in c2.facets])


def join_all(parts: Iterable[Complex]) -> Complex:
    out = empty_complex()
    for p in parts:
        out = join(out, p)
    return out


# --- isomorphism (desk scale) ------------------------------------------------

_ISO_GATE = 25


def _vertex_signature(c: Complex) -> dict[int, tuple]:
    return {v: tuple(sorted(len(c.facets[i]) for i in _bits(star))) for v, star in c.stars.items()}


def isomorphic(c1: Complex, c2: Complex) -> bool:
    """Exhaustive backtracking with signature pruning; gated to 25 vertices."""
    if max(c1.n_vertices, c2.n_vertices) > _ISO_GATE:
        raise ValueError(f"isomorphism check gated to {_ISO_GATE} vertices")
    if c1.n_vertices != c2.n_vertices:
        return False
    if sorted(map(len, c1.facets)) != sorted(map(len, c2.facets)):
        return False
    if f_vector(c1) != f_vector(c2):
        return False
    sig1, sig2 = _vertex_signature(c1), _vertex_signature(c2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    if c1.n_vertices == 0:
        return True

    facets2 = set(c2.facets)
    vs1 = sorted(
        c1.vertex_ids, key=lambda v: (sum(1 for w in sig2.values() if w == sig1[v]), v)
    )
    candidates = {
        v: [w for w in c2.vertex_ids if sig2[w] == sig1[v]] for v in vs1
    }
    incident1 = {v: facets_containing(c1, [v]) for v in c1.vertex_ids}

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def feasible(v: int, w: int) -> bool:
        # every fully-mapped facet through v must land on a facet of c2
        for f in incident1[v]:
            if all(u in mapping or u == v for u in f):
                image = frozenset(mapping.get(u, w) for u in f)
                if image not in facets2:
                    return False
        return True

    def assign(k: int) -> bool:
        if k == len(vs1):
            return {frozenset(mapping[u] for u in f) for f in c1.facets} == facets2
        v = vs1[k]
        for w in candidates[v]:
            if w in used:
                continue
            mapping[v] = w
            if feasible(v, w):
                used.add(w)
                if assign(k + 1):
                    return True
                used.discard(w)
            del mapping[v]
        return False

    return assign(0)


# --- JSON + DOT ---------------------------------------------------------------


def _is_int(x: object) -> bool:
    """True for a JSON integer; JSON true and false are not ids or counts."""
    return isinstance(x, int) and not isinstance(x, bool)


def surface_to_json(s: SurfaceSpec | None) -> dict | None:
    if s is None:
        return None
    out: dict = {"family": s.family, "n": s.n}
    if s.m is not None:
        out["m"] = s.m
    return out


def surface_from_json(d: dict | None) -> SurfaceSpec | None:
    if d is None:
        return None
    if not isinstance(d, dict) or "family" not in d or "n" not in d:
        raise ValueError("surface: expected {family, n[, m]}")
    for key in ("n", "m"):
        if key in d and not _is_int(d[key]):
            raise ValueError(f"surface: {key} must be an integer")
    # SurfaceSpec rejects a strip without m and any other family with one
    return SurfaceSpec(d["family"], d["n"], d.get("m"))


def complex_to_json(c: Complex) -> dict:
    return {
        "surface": surface_to_json(c.surface),
        "vertices": [{"id": v, "label": l} for v, l in c.vertex_labels],
        "facets": [sorted(f) for f in c.facets],
    }


def complex_from_json(d: dict) -> Complex:
    if not isinstance(d, dict):
        raise ValueError("complex: expected a JSON object")
    for key in ("vertices", "facets"):
        if key not in d:
            raise ValueError(f"complex: missing field {key!r}")
        if not isinstance(d[key], list):
            raise ValueError(f"complex: {key} must be a list")
    labels: dict[int, str] = {}
    for i, entry in enumerate(d["vertices"]):
        if (
            not isinstance(entry, dict)
            or not _is_int(entry.get("id"))
            or not isinstance(entry.get("label"), str)
        ):
            raise ValueError(f"vertices[{i}]: expected {{id: int, label: str}}")
        if entry["id"] in labels:
            raise ValueError(f"vertices[{i}]: duplicate id {entry['id']}")
        labels[entry["id"]] = entry["label"]
    for i, f in enumerate(d["facets"]):
        if not isinstance(f, list) or not all(_is_int(v) for v in f) or len(set(f)) < len(f):
            raise ValueError(f"facets[{i}]: expected a list of distinct vertex ids")
        unknown = set(f) - set(labels)
        if unknown:
            raise ValueError(f"facets[{i}]: unknown vertex ids {sorted(unknown)}")
    surface = surface_from_json(d.get("surface"))
    return make_complex(labels, d["facets"], surface)


def dumps_canonical(c: Complex) -> str:
    """Canonical JSON text; byte-identical across save/load round trips."""
    return json.dumps(complex_to_json(c), sort_keys=True, separators=(",", ":")) + "\n"


def loads_complex(text: str) -> Complex:
    return complex_from_json(json.loads(text))


def graph_to_dot(g: Graph, labels: Mapping[int, str] | None = None) -> str:
    def fmt(v: int) -> str:
        text = labels[v] if labels else str(v)
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph arcs {"]
    lines.extend(f"  {fmt(v)};" for v in g.vertices)
    lines.extend(f"  {fmt(u)} -- {fmt(v)};" for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- flag complexes -----------------------------------------------------------


def _pivot(nbr: list[int], p: int, x: int) -> int:
    """Bron-Kerbosch pivot: the first vertex of p | x with the most neighbours in p."""
    pivot, most, pool = -1, -1, p | x
    while pool:
        low = pool & -pool
        i = low.bit_length() - 1
        k = (nbr[i] & p).bit_count()
        if k > most:
            pivot, most = i, k
        pool ^= low
    return pivot


def max_cliques(g: Graph) -> list[frozenset[int]]:
    """All maximal cliques (Bron-Kerbosch with pivoting, bitmask sets).

    The candidate and excluded sets are bitsets over positions in
    `g.vertices`; a vertex's neighbours are its closed neighbourhood without
    itself.  The clique being grown is a tuple of vertex ids, so a maximal
    one is emitted without unpacking a bitset.
    """
    vs = g.vertices
    nbr = [nbhd & ~(1 << i) for i, nbhd in enumerate(g.closed_neighbourhoods)]
    out: list[frozenset[int]] = []

    def bk(r: tuple[int, ...], p: int, x: int) -> None:
        if not p:
            if not x:
                out.append(frozenset(r))
            return
        todo = p & ~nbr[_pivot(nbr, p, x)]
        while todo:
            low = todo & -todo
            i = low.bit_length() - 1
            bk(r + (vs[i],), p & nbr[i], x & nbr[i])
            p ^= low
            x |= low
            todo ^= low

    if vs:
        bk((), (1 << len(vs)) - 1, 0)
    # bk's closure holds bk: a cycle that would keep `out` and every clique
    # alive after the caller drops them, until the next full collection
    del bk
    return out


def count_max_cliques(g: Graph) -> int:
    """len(max_cliques(g)), by the same search, holding no clique.

    Each branch carries only its candidate and excluded bitsets, so memory
    is the recursion depth, not the number of maximal cliques.  The graph
    with no vertex has none, as `max_cliques` returns [], although its flag
    complex has one facet, the empty face: callers counting facets count 1.
    """
    nbr = [nbhd & ~(1 << i) for i, nbhd in enumerate(g.closed_neighbourhoods)]

    def bk(p: int, x: int) -> int:
        found = 0
        todo = p & ~nbr[_pivot(nbr, p, x)]
        while todo:
            low = todo & -todo
            i = low.bit_length() - 1
            if q := p & nbr[i]:
                found += bk(q, x & nbr[i])
            elif not x & nbr[i]:
                found += 1
            p ^= low
            x |= low
            todo ^= low
        return found

    found = bk((1 << len(nbr)) - 1, 0) if nbr else 0
    del bk  # the closure holds bk: a cycle, as in max_cliques
    return found


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def clique_counts(g: Graph) -> tuple[int, ...]:
    """Number of cliques of g with k + 1 vertices at position k.

    One depth-first search over the neighbourhood bitsets.  A clique grows
    only by common neighbours above its highest vertex, so each clique is
    reached once, and the cliques one vertex larger than a reached one are
    counted by the popcount of those neighbours, not one by one.
    """
    up = [nbhd >> i + 1 << i + 1 for i, nbhd in enumerate(g.closed_neighbourhoods)]
    counts = [0] * (len(up) + 1)

    def grow(candidates: int, k: int) -> None:
        # candidates: the vertices that extend the k-vertex clique being grown
        counts[k] += candidates.bit_count()
        k += 1
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            if more := candidates & up[low.bit_length() - 1]:
                grow(more, k)

    grow((1 << len(up)) - 1, 0)
    del grow  # the closure holds grow: a cycle, as in max_cliques
    return tuple(counts[: counts.index(0)])


def flag_complex(g: Graph, labels: Mapping[int, str] | None = None,
                 surface: SurfaceSpec | None = None) -> Complex:
    """Complex whose maximal faces are the maximal cliques of g; it keeps g."""
    cliques = max_cliques(g)
    if labels is None:
        labels = {v: str(v) for v in g.vertices}
    # Bron-Kerbosch reports each maximal clique once: already an antichain
    return _complex(labels, cliques, surface, g)
