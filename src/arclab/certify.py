"""Pseudomanifold checks, shellability search, ball/sphere certificates.

Verdicts are certificate-based and never claimed from homeomorphism
testing.  A shellable closed pseudomanifold is a sphere and a shellable
pseudomanifold with nonempty boundary is a ball (rule "danaraj-klee"); a
collapsible combinatorial manifold with boundary is a ball (rule
"whitehead", with the manifold evidence supplied by recursive vertex-link
certification).  When budgets exhaust, the verdict is "undetermined".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from operator import and_, or_
from typing import Iterable, Sequence

from .collapse import (
    DEFAULT_BUDGET,
    INCONCLUSIVE,
    PROVEN,
    DISPROVEN,
    is_collapsible,
)
from .simplicial import (
    EMPTY_FACE,
    Complex,
    Face,
    Graph,
    _bits,
    dimension,
    euler_characteristic,
    is_pure,
    link,
)

RULE_DANARAJ_KLEE = "danaraj-klee"
RULE_WHITEHEAD = "whitehead"

PM_CLOSED = "closed"
PM_BOUNDARY = "with-boundary"
PM_NO = "no"

# effort -> (shelling search budget, collapsibility search budget), in nodes
EFFORT_BUDGETS = {"fast": (20_000, 5_000), "full": (DEFAULT_BUDGET, 200_000)}


@dataclass(frozen=True)
class PseudomanifoldReport:
    status: str  # closed | with-boundary | no
    strongly_connected: bool
    boundary: tuple[Face, ...]  # codimension-one faces in exactly one facet


@dataclass(frozen=True)
class ShellingResult:
    status: str  # proven | disproven | inconclusive
    order: tuple[Face, ...] | None = None
    nodes: int = 0  # search nodes spent; equals the budget when inconclusive


@dataclass(frozen=True)
class Certificate:
    pseudomanifold: str
    strongly_connected: bool
    shelling: tuple[Face, ...] | None
    verdict: str  # sphere | ball | undetermined
    dim: int | None
    rule: str | None
    notes: tuple[str, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "pseudomanifold": self.pseudomanifold,
            "strongly_connected": self.strongly_connected,
            "shelling": None
            if self.shelling is None
            else [sorted(f) for f in self.shelling],
            "verdict": {"kind": self.verdict, "dim": self.dim},
            "rule": self.rule,
            "notes": list(self.notes),
        }


def _floods(nbhds: Sequence[int]) -> bool:
    """Whether a flood from position 0 over the neighbour bitsets reaches every position."""
    reached = frontier = 1 if nbhds else 0
    while frontier:
        frontier = reduce(or_, [nbhds[i] for i in _bits(frontier)]) & ~reached
        reached |= frontier
    return reached == (1 << len(nbhds)) - 1


def is_connected(g: Graph) -> bool:
    return _floods(g.closed_neighbourhoods)


def graph_diameter(g: Graph) -> int:
    """Largest distance between two vertices; -1 for a disconnected graph.

    One breadth-first search from every source at once, on bitsets:
    reach[i] is the set of sources within r steps of vertex i, and each
    round ORs in the neighbours' reach.  The diameter is the number of
    rounds until every reach is full.  A round that changes nothing before
    then leaves some pair unreachable.
    """
    rows = [list(_bits(nbhd)) for nbhd in g.closed_neighbourhoods]
    full = (1 << len(rows)) - 1
    reach = [1 << i for i in range(len(rows))]
    rounds = 0
    while any(r != full for r in reach):
        grown = [reduce(or_, [reach[j] for j in row]) for row in rows]
        if grown == reach:
            return -1
        reach = grown
        rounds += 1
    return rounds


def pseudomanifold_check(c: Complex) -> PseudomanifoldReport:
    """Classify a pure complex as closed / with-boundary / not a pseudomanifold."""
    if not is_pure(c):
        raise ValueError("pseudomanifold check requires a pure complex")
    table = c.ridge_neighbours
    boundary = [f - {v} for f, row in zip(c.facets, table) for v, others in row if not others]
    if c.n_vertices == 0:
        boundary = [EMPTY_FACE]  # the one ridge of the empty facet
    overfull = any(len(others) > 1 for row in table for _, others in row)
    connected = _floods(c.facet_adjacency)
    if overfull or not connected:
        status = PM_NO
    elif boundary:
        status = PM_BOUNDARY
    else:
        status = PM_CLOSED
    return PseudomanifoldReport(status, connected, tuple(sorted(boundary, key=sorted)))


def flip_graph(c: Complex) -> Graph:
    """Dual graph of a pure complex: vertices are facets, edges are flips,
    the shared codimension-one faces."""
    if not is_pure(c):
        raise ValueError("dual graph requires a pure complex")
    return Graph(tuple(range(len(c.facets))), c.facet_adjacency)


# --- shellability -------------------------------------------------------------


def validate_shelling(c: Complex, order: Iterable[Face]) -> bool:
    """Independent step-by-step check of the shelling condition.

    `order` must list the facets of c, and for each k >= 1 the intersection
    of F_k with the union of F_0..F_{k-1} must be a nonempty pure complex of
    codimension one, that is of dimension d - 1 for d = dimension(c) (for
    one-point facets the empty intersection is allowed).  Its faces are the
    nonempty subsets of the pieces F_k & F_j, j < k.  So it is pure of
    dimension d - 1 iff every nonempty piece lies in a piece of size d, and
    for d >= 1 it must also have a piece.  The check reads this off the
    facet bitsets of `Complex.stars`, with no piece built:

    - A piece is a proper subset of F_k, so a piece of size d needs
      |F_k| = d + 1.  Then the pieces of size d are the ridges F_k - v for
      v in R = {v in F_k : star_mask(F_k - v) meets the earlier facets}.
    - A piece p lies in some F_k - v with v in R iff R is not inside p.
    - The pieces containing R are F_k & F_j for the earlier F_j through R,
      so no piece contains R iff star_mask(R) meets no earlier facet.  For
      d >= 1 that also rules out R = {} (no ridge shared, so no piece of
      size d), since star_mask({}) is every facet.  For d = 0, F_k - v is
      {} and R = F_k.

    The ridge masks come from one prefix and one suffix AND chain over the
    stars of F_k's vertices, started at the earlier facets, so a facet
    costs O(d) ANDs, not d + 2 star masks of d vertices each.  The order is
    checked to be a permutation of the facets through their index.
    """
    index = {f: i for i, f in enumerate(c.facets)}
    stars = c.stars
    d = dimension(c)
    earlier = 0  # bitset of the facets placed so far
    for k, facet in enumerate(map(frozenset, order)):
        i = index.get(facet)
        if i is None or earlier >> i & 1:
            return False
        if k:
            if len(facet) != d + 1:
                return False
            vs = list(facet)
            # prefix[m]: the earlier facets through vs[:m]; suffix: through vs[m + 1:]
            prefix = list(accumulate((stars[v] for v in vs), and_, initial=earlier))
            suffix, common = earlier, earlier
            for m in reversed(range(len(vs))):
                if prefix[m] & suffix:  # vs[m] is in R(F_k)
                    common &= stars[vs[m]]
                suffix &= stars[vs[m]]
            if common:
                return False
        earlier |= 1 << i
    return earlier == (1 << len(c.facets)) - 1


def shelling_search(c: Complex, budget: int = DEFAULT_BUDGET) -> ShellingResult:
    """Depth-first search over facet orders, one facet added per node.

    A facet F can follow the placed facets iff its restriction face R(F),
    the vertices v of F whose ridge F - v lies in a placed facet, is
    nonempty and lies in no placed facet (Bjoerner 1995; Ziegler,
    *Lectures on Polytopes* 8.1).  Facets and sets of facets are int
    bitsets over facet indices, and the search keeps an explicit stack, so
    its depth is bounded by the facet count rather than the interpreter.
    Candidates are tried in ascending facet index from every start in turn,
    each tested only when the search reaches it; each visited partial order
    with a facet still to place spends one node.
    """
    if not is_pure(c):
        raise ValueError("shelling search requires a pure complex")
    facets = list(c.facets)
    t = len(facets)
    if t == 1:
        return ShellingResult(PROVEN, tuple(facets))
    d = dimension(c)
    if d <= 0:
        # any order of points shells by convention
        return ShellingResult(PROVEN, tuple(facets))

    stars = c.stars
    # across[i]: (v, the indices of the other facets through F_i - v) for v in F_i
    across = c.ridge_neighbours
    neighbors = c.facet_adjacency  # each facet's own bit is masked off by `placed`

    def next_addable(pending: int, placed: int) -> int:
        """Lowest facet of pending that can follow placed, as a one-bit mask, or 0."""
        for i in _bits(pending):
            restricted = False
            common = placed  # placed facets containing every vertex of R(F_i)
            for v, others in across[i]:
                for j in others:
                    if placed >> j & 1:
                        restricted = True
                        common &= stars[v]
            if restricted and not common:
                return 1 << i
        return 0

    nodes = 0
    for start in range(t):
        # the order is the only stack.  frontier holds the unplaced facets next
        # to a placed one, and candidates those of its facets not yet tested
        # at the current node.  Candidates are tested lazily, in ascending
        # index; placed is as it was at the node whenever they are tested,
        # so this tries the same candidates as a full scan on arrival.
        order = [start]
        placed = 1 << start
        frontier = candidates = neighbors[start] ^ placed
        while True:
            if len(order) == t:
                shelling = tuple(facets[i] for i in order)
                if not validate_shelling(c, shelling):
                    raise AssertionError("search produced an invalid shelling")
                return ShellingResult(PROVEN, shelling, nodes)
            nodes += 1
            if nodes >= budget:
                return ShellingResult(INCONCLUSIVE, nodes=nodes)
            # back up past every node with nothing left to try, resuming each
            # with its candidates above the facet taken back
            while not (low := next_addable(candidates, placed)) and len(order) > 1:
                taken = order.pop()
                placed ^= 1 << taken
                frontier = reduce(or_, [neighbors[i] for i in order]) & ~placed
                candidates = frontier & -(2 << taken)
            if not low:
                break
            placed |= low
            order.append(low.bit_length() - 1)
            frontier = candidates = (frontier | neighbors[order[-1]]) & ~placed
    return ShellingResult(DISPROVEN, nodes=nodes)


# --- certificates --------------------------------------------------------------


def _chi_consistent(verdict: str, d: int, chi: int) -> bool:
    if verdict == "sphere":
        return chi == 1 + (-1) ** d
    if verdict == "ball":
        return chi == 1
    return True


def certify(c: Complex, effort: str = "full") -> Certificate:
    """Assemble a ball/sphere certificate for a pure complex.

    effort picks the search budgets ("fast" or "full").  Danaraj-Klee is
    tried first, then Whitehead.  The verdict cites the inference rule
    used; "undetermined" is an honest outcome.
    """
    if not is_pure(c):
        raise ValueError("certification requires a pure complex")
    if effort not in EFFORT_BUDGETS:
        raise ValueError("effort must be 'fast' or 'full'")
    shell_budget, collapse_budget = EFFORT_BUDGETS[effort]

    d = dimension(c)
    pm = pseudomanifold_check(c)
    notes: list[str] = []

    if c.n_vertices == 0:
        return Certificate(
            pm.status, pm.strongly_connected, None, "undetermined", None, None,
            ("empty complex",),
        )
    if d == 0:
        if c.n_vertices == 1:
            return Certificate(pm.status, pm.strongly_connected, tuple(c.facets), "ball", 0, RULE_DANARAJ_KLEE)
        if c.n_vertices == 2:
            return Certificate(pm.status, pm.strongly_connected, tuple(c.facets), "sphere", 0, RULE_DANARAJ_KLEE)
        return Certificate(pm.status, pm.strongly_connected, None, "undetermined", None, None)

    shelling: tuple[Face, ...] | None = None
    if pm.status in (PM_CLOSED, PM_BOUNDARY):
        result = shelling_search(c, shell_budget)
        if result.status == PROVEN:
            shelling = result.order
            verdict = "sphere" if pm.status == PM_CLOSED else "ball"
            if not _chi_consistent(verdict, d, euler_characteristic(c)):
                raise AssertionError("certificate contradicts Euler characteristic")
            return Certificate(
                pm.status, pm.strongly_connected, shelling, verdict, d, RULE_DANARAJ_KLEE
            )
        if result.status == INCONCLUSIVE:
            notes.append(
                f"shelling search: inconclusive after {result.nodes} of {shell_budget} nodes"
            )
        else:
            notes.append(f"shelling search: disproven after {result.nodes} nodes")

    if pm.status == PM_BOUNDARY:
        coll = is_collapsible(c, collapse_budget)
        if coll.status == PROVEN:
            links_ok = True
            saw_ball = False
            for v in c.vertex_ids:
                # each link is one dimension down, and d = 0 returns above
                sub = certify(link(c, [v]), effort)
                if sub.verdict == "ball" and sub.dim == d - 1:
                    saw_ball = True
                elif not (sub.verdict == "sphere" and sub.dim == d - 1):
                    links_ok = False
                    break
            if links_ok and saw_ball:
                if not _chi_consistent("ball", d, euler_characteristic(c)):
                    raise AssertionError("certificate contradicts Euler characteristic")
                notes.append("collapsible combinatorial manifold with boundary")
                return Certificate(
                    pm.status,
                    pm.strongly_connected,
                    shelling,
                    "ball",
                    d,
                    RULE_WHITEHEAD,
                    tuple(notes),
                )
        elif coll.status == INCONCLUSIVE:
            notes.append(
                f"collapsibility search: inconclusive after {coll.nodes} of {collapse_budget} nodes"
            )
        else:
            notes.append(f"collapsibility search: disproven after {coll.nodes} nodes")

    return Certificate(
        pm.status, pm.strongly_connected, shelling, "undetermined", None, None, tuple(notes)
    )
