"""Elementary simplicial collapses and certified collapse traces.

A collapse step is a pair (free, coface) where `coface` is the unique
maximal face containing `free`; applying it removes every face containing
`free`.  Traces are replayed step by step, so any operation that emits one
can be checked independently of how it was constructed.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

from .simplicial import (
    Complex,
    Face,
    _complex,
    faces,
    is_cone,
    link,
)

PROVEN = "proven"
DISPROVEN = "disproven"
INCONCLUSIVE = "inconclusive"

DEFAULT_BUDGET = 1_000_000

Pair = tuple[Face, Face]


@dataclass(frozen=True)
class CollapseTrace:
    """Ordered collapse steps; valid only relative to a starting complex."""

    steps: tuple[Pair, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> list[dict]:
        return [
            {"free": sorted(a), "coface": sorted(b)} for a, b in self.steps
        ]

    @staticmethod
    def from_json(data: list[dict]) -> "CollapseTrace":
        steps = []
        for i, entry in enumerate(data):
            if "free" not in entry or "coface" not in entry:
                raise ValueError(f"trace[{i}]: expected {{free, coface}}")
            steps.append((frozenset(entry["free"]), frozenset(entry["coface"])))
        return CollapseTrace(tuple(steps))


def trace(steps: Iterable[Pair]) -> CollapseTrace:
    return CollapseTrace(tuple((frozenset(a), frozenset(b)) for a, b in steps))


@dataclass(frozen=True)
class TraceVerdict:
    valid: bool
    terminal: Complex | None
    failed_step: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class SearchResult:
    status: str  # proven | disproven | inconclusive
    trace: CollapseTrace | None = None


class _Replayer:
    """Mutable facet set supporting fast star removal."""

    def __init__(self, c: Complex):
        self.labels = c.labels
        self.surface = c.surface
        self.facets: set[Face] = set(c.facets)
        self.by_vertex: dict[int, set[Face]] = defaultdict(set)
        for f in self.facets:
            for v in f:
                self.by_vertex[v].add(f)

    def copy(self) -> "_Replayer":
        other = copy.copy(self)
        other.facets = set(self.facets)
        other.by_vertex = defaultdict(set, {v: set(fs) for v, fs in self.by_vertex.items()})
        return other

    def facets_containing(self, face: Face) -> set[Face]:
        if not face:
            return set(self.facets)
        it = iter(face)
        acc = set(self.by_vertex.get(next(it), ()))
        for v in it:
            acc &= self.by_vertex.get(v, set())
            if not acc:
                break
        return acc

    def _remove(self, f: Face) -> None:
        self.facets.discard(f)
        for v in f:
            self.by_vertex[v].discard(f)

    def _add(self, f: Face) -> None:
        self.facets.add(f)
        for v in f:
            self.by_vertex[v].add(f)

    def collapse(self, free: Face, coface: Face) -> str | None:
        """Apply one step; returns an error message or None."""
        if not free or not free < coface:
            return "free face must be a nonempty proper subset of its coface"
        stars = self.facets_containing(free)
        if stars != {coface}:
            return (
                f"{sorted(free)} is not free with coface {sorted(coface)}; "
                f"containing facets: {sorted(map(sorted, stars))}"
            )
        self._remove(coface)
        for v in free:
            cand = coface - {v}
            if not self.facets_containing(cand):
                self._add(cand)
        return None

    def to_complex(self) -> Complex:
        # a collapse swaps a facet for pieces of it that no facet contains,
        # so the facets stay an antichain
        return _complex(self.labels, self.facets, self.surface)


def apply_collapse(c: Complex, free: Iterable[int], coface: Iterable[int]) -> Complex:
    rep = _Replayer(c)
    err = rep.collapse(frozenset(free), frozenset(coface))
    if err:
        raise ValueError(err)
    return rep.to_complex()


def verify_trace(c: Complex, t: CollapseTrace) -> TraceVerdict:
    """Replay t on c, confirming freeness at every step."""
    rep = _Replayer(c)
    for i, (free, coface) in enumerate(t.steps):
        err = rep.collapse(free, coface)
        if err:
            return TraceVerdict(False, None, i, err)
    return TraceVerdict(True, rep.to_complex())


def free_pairs(c: Complex) -> list[Pair]:
    """All (face, facet) pairs where the face lies in exactly that one facet."""
    rep = _Replayer(c)
    out: list[Pair] = []
    for facet in c.facets:
        elems = sorted(facet)
        for mask in range(1, (1 << len(elems)) - 1):
            face = frozenset(elems[i] for i in range(len(elems)) if mask >> i & 1)
            if rep.facets_containing(face) == {facet}:
                out.append((face, facet))
    out.sort(key=lambda p: (-len(p[0]), tuple(sorted(p[0])), tuple(sorted(p[1]))))
    return out


def _sorted_faces(fs: Iterable[Face]) -> list[Face]:
    return sorted(fs, key=lambda f: (-len(f), tuple(sorted(f))))


def cone_collapse_trace(c: Complex, apex: int | None = None) -> CollapseTrace:
    """Full collapse of a cone onto its apex.

    Pairs every face without the apex with that face plus the apex, in
    decreasing dimension.
    """
    found = is_cone(c)
    if found is None:
        raise ValueError("complex is not a cone")
    if apex is None:
        apex = found
    elif not all(apex in f for f in c.facets):
        raise ValueError(f"vertex {apex} is not an apex")
    base = [f for f in faces(c) if apex not in f]
    return trace((f, f | {apex}) for f in _sorted_faces(base))


def join_lift_trace(x: Complex, t: CollapseTrace) -> CollapseTrace:
    """Lift a collapse of y to one of x * y, ending at x * (terminal of t).

    Each step (s, c) of t becomes the steps (f | s, f | c) over all faces f
    of x, the empty face included, in decreasing dimension of f.
    """
    xfaces = _sorted_faces(faces(x, include_empty=True))
    steps: list[Pair] = []
    for free, coface in t.steps:
        steps.extend((f | free, f | coface) for f in xfaces)
    return trace(steps)


def welker_expand(c: Complex, face: Iterable[int], link_trace: CollapseTrace) -> CollapseTrace:
    """Trace realizing the collapse of c onto the face-deletion of `face`.

    Requires link_trace to collapse the link of `face` to a single vertex w;
    the expansion joins `face` onto every link step and finishes with the
    pair (face, face + {w}).
    """
    face = frozenset(face)
    lk = link(c, face)
    verdict = verify_trace(lk, link_trace)
    if not verdict.valid:
        raise ValueError(f"link trace invalid: {verdict.reason}")
    terminal = verdict.terminal
    if terminal.n_vertices != 1:
        raise ValueError("link trace must end at a single vertex")
    (w,) = terminal.vertex_ids
    steps = [(face | a, face | b) for a, b in link_trace.steps]
    steps.append((face, face | {w}))
    return trace(steps)


def _canonical_state(facets: set[Face]) -> tuple:
    return tuple(sorted(tuple(sorted(f)) for f in facets))


def _codim1_moves(rep: _Replayer) -> list[Pair]:
    moves: list[Pair] = []
    for facet in rep.facets:
        if len(facet) < 2:
            continue
        for v in sorted(facet):
            face = facet - {v}
            if rep.facets_containing(face) == {facet}:
                moves.append((face, facet))
    moves.sort(key=lambda p: (-len(p[0]), tuple(sorted(p[0])), tuple(sorted(p[1]))))
    return moves


def _is_point(facets: set[Face]) -> bool:
    return len(facets) == 1 and len(next(iter(facets))) == 1


def _children(rep: _Replayer) -> Iterator[tuple[Pair, _Replayer]]:
    """Each codimension-one collapse of rep, with the state it leads to."""
    for free, coface in _codim1_moves(rep):
        child = rep.copy()
        if not child.collapse(free, coface):  # cannot fail for a just-computed move
            yield (free, coface), child


def is_collapsible(c: Complex, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Decide collapsibility by exhaustive backtracking within a node budget.

    Cones are recognized directly.  The search is depth first over
    codimension-one collapses on an explicit stack; every state reached for
    the first time spends one node.  `disproven` is returned only when the
    full search space was exhausted; running out of budget yields
    `inconclusive`.
    """
    if c.n_vertices == 0:
        return SearchResult(DISPROVEN)
    if c.n_vertices == 1:
        return SearchResult(PROVEN, trace([]))
    if is_cone(c) is not None:
        return SearchResult(PROVEN, cone_collapse_trace(c))

    root = _Replayer(c)
    seen = {_canonical_state(root.facets)}
    nodes = 1
    if nodes >= budget:
        return SearchResult(INCONCLUSIVE)
    path: list[Pair] = []  # path[k] leads from stack[k]'s state to stack[k + 1]'s
    stack = [_children(root)]
    while stack:
        for move, child in stack[-1]:
            if _is_point(child.facets):
                return SearchResult(PROVEN, trace(path + [move]))
            key = _canonical_state(child.facets)
            if key in seen:
                continue
            seen.add(key)
            nodes += 1
            if nodes >= budget:
                return SearchResult(INCONCLUSIVE)
            path.append(move)
            stack.append(_children(child))
            break
        else:
            stack.pop()
            if path:
                path.pop()
    return SearchResult(DISPROVEN)
