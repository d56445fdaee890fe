"""Elementary simplicial collapses and certified collapse traces.

A collapse step is a pair (free, coface) where `coface` is the unique
maximal face containing `free`; applying it removes every face containing
`free`.  Traces are replayed step by step, so any operation that emits one
can be checked independently of how it was constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .simplicial import (
    Complex,
    Face,
    FacetEditor,
    euler_characteristic,
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
    nodes: int = 0  # search nodes spent; equals the budget when inconclusive


def _collapse(editor: FacetEditor, free: Face, coface: Face) -> str | None:
    """Apply one step to editor; returns an error message or None."""
    if not free or not free < coface:
        return "free face must be a nonempty proper subset of its coface"
    stars = editor.containing(free)
    if stars != [coface]:
        return (
            f"{sorted(free)} is not free with coface {sorted(coface)}; "
            f"containing facets: {sorted(map(sorted, stars))}"
        )
    editor.delete(free)
    return None


def replay(editor: FacetEditor, t: CollapseTrace) -> tuple[int, str] | None:
    """Apply t to editor in place, confirming freeness at every step.

    Returns the index and reason of the first step that is not a collapse,
    with editor left in the state before it, or None if every step is.
    """
    for i, (free, coface) in enumerate(t.steps):
        err = _collapse(editor, free, coface)
        if err:
            return i, err
    return None


def verify_trace(c: Complex, t: CollapseTrace) -> TraceVerdict:
    """Replay t on c, confirming freeness at every step."""
    editor = FacetEditor(c)
    failed = replay(editor, t)
    if failed:
        return TraceVerdict(False, None, *failed)
    return TraceVerdict(True, editor.to_complex())


def face_order(f: Face) -> tuple:
    """Sort key of every emitted trace: larger faces first, then by sorted ids."""
    return (-len(f), tuple(sorted(f)))


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
    elif c.star_mask([apex]) != c.star_mask([]):
        raise ValueError(f"vertex {apex} is not an apex")
    base = [f for f in faces(c) if apex not in f]
    return trace((f, f | {apex}) for f in sorted(base, key=face_order))


def welker_expand(c: Complex, face: Iterable[int], link_trace: CollapseTrace) -> CollapseTrace:
    """Trace realizing the collapse of c onto the face-deletion of `face`.

    Requires link_trace to collapse the link of `face` to a single vertex w;
    the expansion joins `face` onto every link step and finishes with the
    pair (face, face + {w}).  Only the link replay is checked, and that is
    enough: tau -> tau - face maps the faces of c through `face` one-to-one
    onto the faces of the link, keeping containment, and every facet
    through a face that contains `face` lies in its star.  So (face + a,
    face + b) is a collapse of c iff (a, b) is one of the link, and after
    the whole expansion c is its face-deletion of `face`.
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


def _codim1_moves(editor: FacetEditor) -> list[Pair]:
    moves: list[Pair] = []
    for i, facet in enumerate(editor.slots):
        if facet is None or len(facet) < 2:
            continue
        for v in facet:
            face = facet - {v}
            if editor.star_mask(face) == 1 << i:
                moves.append((face, facet))
    return sorted(moves, key=lambda p: face_order(p[0]))


def _is_point(facets: list[Face]) -> bool:
    return len(facets) == 1 and len(facets[0]) == 1


def _children(editor: FacetEditor) -> Iterator[tuple[Pair, FacetEditor]]:
    """Each codimension-one collapse of editor's state, with the state it leads to."""
    for free, coface in _codim1_moves(editor):
        child = editor.copy()
        child.delete(free)  # free lies in coface alone, so this is the collapse
        yield (free, coface), child


def is_collapsible(c: Complex, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Decide collapsibility by exhaustive backtracking within a node budget.

    Cones are recognized directly.  Collapses keep the Euler characteristic
    and a point's is 1, so any other is `disproven` at no node.  Else the
    search is depth first over codimension-one collapses on an explicit
    stack; each state first reached spends one node.  Only an exhausted
    search is `disproven`; running out of budget yields `inconclusive`.
    """
    if c.n_vertices == 0:
        return SearchResult(DISPROVEN)
    if c.n_vertices == 1:
        return SearchResult(PROVEN, trace([]))
    if is_cone(c) is not None:
        return SearchResult(PROVEN, cone_collapse_trace(c))
    if euler_characteristic(c) != 1:
        return SearchResult(DISPROVEN)

    root = FacetEditor(c)
    seen = {frozenset(root.facets())}  # states, keyed by their facet sets
    nodes = 1
    if nodes >= budget:
        return SearchResult(INCONCLUSIVE, nodes=nodes)
    path: list[Pair] = []  # path[k] leads from stack[k]'s state to stack[k + 1]'s
    stack = [_children(root)]
    while stack:
        for move, child in stack[-1]:
            facets = child.facets()
            if _is_point(facets):
                return SearchResult(PROVEN, trace(path + [move]), nodes)
            key = frozenset(facets)
            if key in seen:
                continue
            seen.add(key)
            nodes += 1
            if nodes >= budget:
                return SearchResult(INCONCLUSIVE, nodes=nodes)
            path.append(move)
            stack.append(_children(child))
            break
        else:
            stack.pop()
            if path:
                path.pop()
    return SearchResult(DISPROVEN, nodes=nodes)
