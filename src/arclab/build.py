"""Arc complexes of the four surfaces, as flag complexes of disjointness."""

from __future__ import annotations

from typing import Sequence

from .arcs import (
    Arc,
    B_ARC,
    SurfaceSpec,
    disjoint_unchecked,
    enumerate_arcs,
    validate_arc,
)
from .simplicial import Complex, Graph, flag_complex, make_graph


def _graph(s: SurfaceSpec, arcs: list[Arc], ids: Sequence[int]) -> Graph:
    """Graph on `ids` (ids[k] names arcs[k]) with edges between disjoint classes.

    Each arc is validated once here, so the pairs skip `disjoint`'s checks.
    """
    for a in arcs:
        validate_arc(s, a)
    edges = [
        (ids[i], ids[j])
        for i, x in enumerate(arcs)
        for j in range(i + 1, len(arcs))
        if disjoint_unchecked(s, x, arcs[j])
    ]
    return make_graph(ids, edges)


def disjointness_graph(s: SurfaceSpec) -> Graph:
    """Graph on canonical arc ids with edges between disjoint classes."""
    arcs = enumerate_arcs(s)
    return _graph(s, arcs, range(len(arcs)))


def _labels(arcs: list[Arc]) -> dict[int, str]:
    return {i: a.label() for i, a in enumerate(arcs)}


def arc_complex(s: SurfaceSpec) -> Complex:
    """Full arc complex of s: faces are pairwise-disjoint arc collections."""
    arcs = enumerate_arcs(s)
    return flag_complex(_graph(s, arcs, range(len(arcs))), _labels(arcs), s)


def inner_complex(s: SurfaceSpec) -> Complex:
    """Subcomplex generated by the c-arcs (crown or non-orientable crown)."""
    if s.family not in ("crown", "mobius"):
        raise ValueError("inner complexes are defined for crowns")
    kept = [(i, a) for i, a in enumerate(enumerate_arcs(s)) if a.kind != B_ARC]
    labels = {i: a.label() for i, a in kept}
    # testing only the kept pairs is cheaper than restricting the full graph
    graph = _graph(s, [a for _, a in kept], [i for i, _ in kept])
    return flag_complex(graph, labels, s)


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
