"""Arc complexes of the four surfaces, as flag complexes of disjointness."""

from __future__ import annotations

from .arcs import (
    Arc,
    B_ARC,
    SurfaceSpec,
    arc_ids,
    disjoint,
    enumerate_arcs,
)
from .simplicial import Complex, Graph, flag_complex, make_graph


def disjointness_graph(s: SurfaceSpec) -> Graph:
    """Graph on canonical arc ids with edges between disjoint classes."""
    arcs = enumerate_arcs(s)
    edges = [
        (i, j)
        for i in range(len(arcs))
        for j in range(i + 1, len(arcs))
        if disjoint(s, arcs[i], arcs[j])
    ]
    return make_graph(range(len(arcs)), edges)


def _labels(arcs: list[Arc]) -> dict[int, str]:
    return {i: a.label() for i, a in enumerate(arcs)}


def arc_complex(s: SurfaceSpec) -> Complex:
    """Full arc complex of s: faces are pairwise-disjoint arc collections."""
    return flag_complex(disjointness_graph(s), _labels(enumerate_arcs(s)), s)


def inner_complex(s: SurfaceSpec) -> Complex:
    """Subcomplex generated by the c-arcs (crown or non-orientable crown)."""
    if s.family not in ("crown", "mobius"):
        raise ValueError("inner complexes are defined for crowns")
    ids = arc_ids(s)
    kept = [a for a in enumerate_arcs(s) if a.kind != B_ARC]
    kept_ids = [ids[a] for a in kept]
    labels = {ids[a]: a.label() for a in kept}
    # testing only the kept pairs is cheaper than restricting the full graph
    edges = [
        (kept_ids[i], kept_ids[j])
        for i in range(len(kept))
        for j in range(i + 1, len(kept))
        if disjoint(s, kept[i], kept[j])
    ]
    return flag_complex(make_graph(kept_ids, edges), labels, s)


def induced_arc_complex(s: SurfaceSpec, graph: Graph, removed_ids) -> Complex:
    """Arc complex of s with the given vertex ids deleted.

    `graph` is `disjointness_graph(s)`.  Vertex deletions of a flag complex
    are the flag complex of the induced graph, so this is equivalent to
    iterated `vertex_deletion` but is built from the restricted graph.
    """
    removed = frozenset(removed_ids)
    induced = Graph(
        tuple(v for v in graph.vertices if v not in removed),
        tuple((u, v) for u, v in graph.edges if u not in removed and v not in removed),
    )
    return flag_complex(induced, _labels(enumerate_arcs(s)), s)
