"""Strong collapses: dominated vertices, cores, and the elementary conversion.

A vertex v is dominated by w when every maximal face containing v contains
w, i.e. the intersection of those facets has a vertex other than v.  Cores
are fixpoints of dominated-vertex removal; they are unique up to
isomorphism, which makes the greedy decision procedure complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .collapse import CollapseTrace, face_order, trace
from .simplicial import (
    Complex,
    faces,
    vertex_deletion,
)


@dataclass(frozen=True)
class StrongTrace:
    """Ordered (removed vertex, witness) pairs of a strong collapse."""

    steps: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> list[dict]:
        return [{"removed": v, "witness": w} for v, w in self.steps]

    @staticmethod
    def from_json(data: list[dict]) -> "StrongTrace":
        steps = []
        for i, entry in enumerate(data):
            if "removed" not in entry or "witness" not in entry:
                raise ValueError(f"strong trace[{i}]: expected {{removed, witness}}")
            steps.append((entry["removed"], entry["witness"]))
        return StrongTrace(tuple(steps))


def dominating_set(c: Complex, v: int) -> set[int]:
    """Vertices other than v contained in every maximal face containing v.

    w dominates v iff the star of v lies in the star of w, and any such w
    lies in the first facet through v.
    """
    star = c.stars.get(v, 0)
    if not star:
        raise ValueError(f"vertex {v} is not in the complex")
    first = c.facets[(star & -star).bit_length() - 1]
    return {w for w in first if w != v and not star & ~c.stars[w]}


def dominated_vertices(c: Complex) -> list[tuple[int, int]]:
    """All dominated vertices with their lowest-id witness, sorted by id."""
    out = []
    for v in c.vertex_ids:
        dom = dominating_set(c, v)
        if dom:
            out.append((v, min(dom)))
    return out


def remove_dominated(c: Complex, v: int) -> Complex:
    if not dominating_set(c, v):
        raise ValueError(f"vertex {v} is not dominated")
    return vertex_deletion(c, v)


def core(
    c: Complex, order: str = "canonical", seed: int = 0
) -> tuple[Complex, StrongTrace]:
    """Iterate dominated-vertex removals to a fixpoint.

    order="canonical" removes the lowest-id dominated vertex each round;
    order="random" picks uniformly using the given seed.
    """
    if order not in ("canonical", "random"):
        raise ValueError("order must be 'canonical' or 'random'")
    rng = random.Random(seed)
    current = c
    steps: list[tuple[int, int]] = []
    while True:
        dom = dominated_vertices(current)
        if not dom:
            return current, StrongTrace(tuple(steps))
        v, w = dom[0] if order == "canonical" else rng.choice(dom)
        steps.append((v, w))
        current = vertex_deletion(current, v)


def is_strongly_collapsible(c: Complex) -> tuple[bool, StrongTrace]:
    """True iff the core is a single vertex; also returns the trace found."""
    terminal, t = core(c)
    return terminal.n_vertices == 1, t


def _replay(c: Complex, t: StrongTrace) -> Iterator[tuple[Complex, int, int, Complex]]:
    """(complex, v, w, complex without v) for each step (v, w) of t from c.

    Raises ValueError at the first step whose witness does not dominate v.
    """
    for i, (v, w) in enumerate(t.steps):
        dom = dominating_set(c, v)
        if w not in dom:
            raise ValueError(
                f"step {i}: vertex {v} is not dominated by {w} "
                f"(dominating set {sorted(dom)})"
            )
        after = vertex_deletion(c, v)
        yield c, v, w, after
        c = after


def verify_strong_trace(c: Complex, t: StrongTrace) -> Complex:
    """Replay t, checking each witness; returns the terminal complex."""
    for _, _, _, c in _replay(c, t):
        pass
    return c


def strong_to_elementary(c: Complex, t: StrongTrace) -> CollapseTrace:
    """Convert a strong collapse into an elementary collapse trace.

    For each removal (v, w) every face containing v but not w is paired with
    that face plus w, in decreasing dimension; the result realizes the same
    vertex deletions and passes `verify_trace`.
    """
    steps = []
    for current, v, w, _ in _replay(c, t):
        with_v = [f for f in faces(current) if v in f and w not in f]
        with_v.sort(key=face_order)
        steps.extend((f, f | {w}) for f in with_v)
    return trace(steps)
