"""Strong collapses: dominated vertices, cores, and the elementary conversion.

A vertex v is dominated by w when every maximal face containing v contains
w, i.e. the intersection of those facets has a vertex other than v.  Cores
are fixpoints of dominated-vertex removal; they are unique up to
isomorphism, which makes the greedy decision procedure complete.

On facets, `core`, `verify_strong_trace` and `strong_to_elementary` run on
one `FacetEditor`: each reads dominating sets off the editor's star index,
removes a vertex by one `FacetEditor.delete`, and builds a `Complex` only
for the terminal.  `core` serves the command line, which takes any complex.
`strong_to_elementary` is the construction behind the Moebius collapse's
trace lengths: each of its collapses removes two faces and it ends at a
vertex, so the suite reads a model's trace length off its face count, and
the tests replay it on the link models.

In a flag complex w dominates v iff the closed neighbourhood N[v] lies in
N[w] (Barmak-Minian 2012; Boissonnat-Pritam 2020), and deleting vertices
leaves the flag complex of the induced subgraph.  So `graph_dominating_set`
and `graph_core` read domination off the graph's neighbourhood bitsets and
an `alive` mask, with no facets built: each distinct (v, N[v] & alive) is
answered once per graph, by witnesses against candidate dominators
(`_dominators`).  Every suite computes its cores with them, the trunk of
each Moebius-collapse link model included.

A core asks again only about what a removal can change.  Removing x leaves
the answer of every w in N[x] for a neighbour j of x as it was, since x is
in N[w]; every other w had x as a witness against it.  So j keeps its old
dominators that are still alive and asks about the candidates outside N[x]
alone.  The dominated set of an alive set depends on nothing else, so
`Graph.dominated_at` keeps it for every alive set a core of the graph
settled, and the cores of one graph in other orders read it there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Mapping, Sequence

from .collapse import CollapseTrace, face_order, trace
from .simplicial import Complex, Face, FacetEditor, Graph, _bits


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


def _dominating(stars: Mapping[int, int], facets: Sequence[Face | None], v: int) -> set[int]:
    """`dominating_set` on a star index and the facets (or editor slots) it indexes."""
    star = stars.get(v, 0)
    if not star:
        raise ValueError(f"vertex {v} is not in the complex")
    first = facets[(star & -star).bit_length() - 1]
    return {w for w in first if w != v and not star & ~stars[w]}


def _dominated(stars: Mapping[int, int], facets: Sequence[Face | None]) -> list[tuple[int, int]]:
    """`dominated_vertices` on a star index and the facets (or editor slots) it indexes."""
    out = []
    for v in sorted(v for v, star in stars.items() if star):
        dom = _dominating(stars, facets, v)
        if dom:
            out.append((v, min(dom)))
    return out


def dominating_set(c: Complex, v: int) -> set[int]:
    """Vertices other than v contained in every maximal face containing v.

    w dominates v iff the star of v lies in the star of w, and any such w
    lies in the first facet through v.
    """
    return _dominating(c.stars, c.facets, v)


def dominated_vertices(c: Complex) -> list[tuple[int, int]]:
    """All dominated vertices with their lowest-id witness, sorted by id."""
    return _dominated(c.stars, c.facets)


def _picker(order: str, seed: int) -> Callable[[Mapping[int, object]], int]:
    """The vertex a core removes next, from its dominated vertices by id.

    "canonical" takes the lowest id; "random" draws from the sorted ids with
    the given seed.
    """
    if order not in ("canonical", "random"):
        raise ValueError("order must be 'canonical' or 'random'")
    if order == "canonical":
        return min
    rng = random.Random(seed)
    return lambda dom: rng.choice(sorted(dom))


def core(
    c: Complex, order: str = "canonical", seed: int = 0
) -> tuple[Complex, StrongTrace]:
    """Iterate dominated-vertex removals to a fixpoint, on one editor.

    order="canonical" removes the lowest-id dominated vertex each round;
    order="random" picks uniformly using the given seed.

    Each dominated vertex's lowest witness is kept across rounds.  Deleting
    v replaces only the facets through v, so a vertex in none of them keeps
    its star, and each other vertex keeps the part of its star that meets
    it.  Only the vertices of those facets are tested again.
    """
    pick = _picker(order, seed)
    editor = FacetEditor(c)
    dom = dict(_dominated(editor.stars, editor.slots))
    steps: list[tuple[int, int]] = []
    while dom:
        v = pick(dom)
        steps.append((v, dom.pop(v)))
        for u in editor.delete(frozenset((v,))) - {v}:
            if witnesses := _dominating(editor.stars, editor.slots, u):
                dom[u] = min(witnesses)
            else:
                dom.pop(u, None)
    return editor.to_complex(), StrongTrace(tuple(steps))


def _dominators(nbhds: Sequence[int], test: int, candidates: int) -> int:
    """Bitset of the w in `candidates` whose closed neighbourhood holds `test`.

    Each round tries the lowest candidate w.  A witness u in test - N[w]
    (the highest) settles every candidate at once: the graph is symmetric,
    so u is missing from N[w'] iff w' is missing from N[u], and ANDing the
    candidates with N[u] drops w and every other w' that u rules out.
    With no witness, w dominates.  So each round settles at least one
    candidate with two ANDs.
    """
    found = 0
    while candidates:
        w = candidates & -candidates
        if miss := test & ~nbhds[w.bit_length() - 1]:
            candidates &= nbhds[miss.bit_length() - 1]
        else:
            found |= w
            candidates ^= w
    return found


def graph_dominating_set(g: Graph, alive: int, i: int) -> int:
    """Bitset of the vertices dominating vertex i in the flag complex of g on `alive`.

    Vertices, `alive` and the result index positions in `g.vertices`.  w
    dominates i iff N[i] & alive lies in N[w], and any such w lies in
    N[i] & alive, so the result is a function of i and N[i] & alive alone,
    not of the rest of `alive`.  So each result is kept in
    `g.dominating_sets` under that key, and every later check or core of g
    that asks the same question reads it back instead of asking again.
    """
    if not alive >> i & 1:
        raise ValueError(f"vertex position {i} is not alive")
    nbhds = g.closed_neighbourhoods
    mine = nbhds[i] & alive
    memo = g.dominating_sets
    dom = memo.get((i, mine))
    if dom is None:
        dom = memo[i, mine] = _dominators(nbhds, mine, mine & ~(1 << i))
    return dom


def graph_core(g: Graph, order: str = "canonical", seed: int = 0,
               alive: int | None = None) -> tuple[int, StrongTrace]:
    """`core` of the flag complex of g on the positions in `alive` (default: all).

    Returns the bitset of the positions left and, by vertex id, the same
    trace step for step as `core` of the induced subgraph's flag complex:
    positions follow the sorted ids, so both pick from the same sorted list.
    "random" draws k below the number of dominated positions and takes the
    k-th lowest, the index `rng.choice` of their sorted list draws.  An
    `alive` with a position outside g raises ValueError.

    The dominated positions are kept up to date, not rescanned each round.
    At a fixed `alive` the dominating set D(j) of j depends only on
    S = N[j] & alive, so removing x changes it only for the neighbours j of
    x, and only outside N[x]: a w in N[x] has x in N[w], so S lies in N[w]
    iff S' = S - x does, while x witnessed against every other w.  So j
    keeps D(j) & S' and asks `_dominators` only about the candidates in
    S' - N[x].  Every answer goes into `g.dominating_sets`, where the old one
    is found under (j, S), and every alive set settled goes with its
    dominated positions into `g.dominated_at`: a later core of g in any
    order that reaches it reads them and asks nothing.
    """
    if order not in ("canonical", "random"):
        raise ValueError("order must be 'canonical' or 'random'")
    full = (1 << len(g.vertices)) - 1
    if alive is None:
        alive = full
    elif alive & ~full:  # a negative mask has every high bit set
        raise ValueError(f"alive mask {alive:#b} has positions outside the graph's "
                         f"{len(g.vertices)} vertices")
    rng = random.Random(seed)
    nbhds = g.closed_neighbourhoods
    memo, states = g.dominating_sets, g.dominated_at
    dominated = states.get(alive)
    if dominated is None:
        dominated = states[alive] = sum(1 << j for j in _bits(alive) if graph_dominating_set(g, alive, j))
    steps: list[tuple[int, int]] = []
    while dominated:
        pick = dominated
        if order == "random":
            for _ in range(rng.randrange(dominated.bit_count())):
                pick &= pick - 1
        x = pick & -pick
        i = x.bit_length() - 1
        d = memo[i, nbhds[i] & alive]
        steps.append((g.vertices[i], g.vertices[(d & -d).bit_length() - 1]))
        alive ^= x
        known = states.get(alive)
        if known is not None:
            dominated = known
            continue
        dominated ^= x
        ask = nbhds[i] & alive
        outside = ~nbhds[i]
        while ask:
            low = ask & -ask
            ask ^= low
            j = low.bit_length() - 1
            mine = nbhds[j] & alive
            d = memo.get((j, mine))
            if d is None:
                d = memo[j, mine] = memo[j, mine | x] & mine | _dominators(nbhds, mine, mine & outside)
            dominated = dominated | low if d else dominated & ~low
        states[alive] = dominated
    return alive, StrongTrace(tuple(steps))


def _replay(editor: FacetEditor, t: StrongTrace) -> Iterator[tuple[int, int]]:
    """Apply t to editor in place, yielding each step (v, w) before removing v.

    Raises ValueError at the first step whose witness does not dominate v.
    """
    for i, (v, w) in enumerate(t.steps):
        dom = _dominating(editor.stars, editor.slots, v)
        if w not in dom:
            raise ValueError(
                f"step {i}: vertex {v} is not dominated by {w} "
                f"(dominating set {sorted(dom)})"
            )
        yield v, w
        editor.delete(frozenset((v,)))


def verify_strong_trace(c: Complex, t: StrongTrace) -> Complex:
    """Replay t, checking each witness; returns the terminal complex."""
    editor = FacetEditor(c)
    for _ in _replay(editor, t):
        pass
    return editor.to_complex()


def strong_to_elementary(c: Complex, t: StrongTrace) -> CollapseTrace:
    """Convert a strong collapse into an elementary collapse trace.

    For each removal (v, w) every face containing v but not w is paired with
    that face plus w, in decreasing dimension; the result realizes the same
    vertex deletions and passes `verify_trace`.  Every facet through v
    contains w, so those faces are v + S for S a subset of f - {v, w}, f a
    facet through v, and are read off the star of v.
    """
    editor = FacetEditor(c)
    steps = []
    for v, w in _replay(editor, t):
        with_v = set()
        for f in editor.containing([v]):
            rest = f - {v, w}
            for k in range(len(rest) + 1):
                with_v.update(frozenset((v, *s)) for s in combinations(rest, k))
        steps.extend((f, f | {w}) for f in sorted(with_v, key=face_order))
    return trace(steps)
