"""Executable verification suites for the collapsibility results.

Each suite replays a constructive schedule (round structure, removal order
and named witnesses included) on the actual complexes and cross-checks the
outcome against order-free computations (cores, searches, certificates).
Witness identity is part of the reproduced claim: when a named witness
fails, the suite fails loudly and reports the actual dominating set.
Every arc complex is a flag complex, so the collapse suites run on the
disjointness graph and bitset masks, and every order-free core is a
`graph_core`.  In the Moebius collapse the link of a sapling sigma is the
flag complex on V_sigma, its common neighbours v with sigma + v still a
face, when every earlier sapling has a vertex outside sigma + V_sigma.
V_sigma is found once, at the start of sigma's round; two saplings of a
round span a face iff one lies in the other plus its V, and when none do,
the round leaves every link as it found it.  Each link is compared row for
row with its model, the graph join of its tiles and trunk, whose
elementary trace length is read off the factors' face counts.
The factors are pure, so each facet of the complex is the first sapling
it holds plus a facet of that sapling's link, or a facet of the inner
complex, and the facets are counted as the models' facet counts, summed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict

from . import __version__
from .arcs import (
    Arc,
    arc_ids,
    b_arc_from_wrap,
    b_id,
    c_arc,
    cc_id,
    crown,
    disjoint,
    enumerate_arcs,
    integral_strip,
    mobius_crown,
    polygon,
    saplings_of_degree,
    strip_arc,
    wrap_length,
)
from .build import arc_complex, disjointness_graph, inner_complex, inner_graph
from .certify import certify, flip_graph, graph_diameter
from .simplicial import (
    Complex,
    Graph,
    _bits,
    clique_counts,
    count_max_cliques,
    dimension,
    euler_characteristic,
)
from .strong import StrongTrace, _dominators, graph_core, graph_dominating_set


class TheoremError(AssertionError):
    """A schedule assertion failed; carries structured diagnostics."""

    def __init__(self, claim: str, message: str, **details):
        self.claim = claim
        self.details = details
        extra = f" ({details})" if details else ""
        super().__init__(f"{claim}: {message}{extra}")


@dataclass
class ClaimResult:
    claim: str
    paper_ref: str
    n: object
    status: str  # pass | fail | info
    evidence_path: str | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    claims: list[ClaimResult] = field(default_factory=list)
    seed: int = 0
    limits: dict = field(default_factory=dict)

    def add(self, claim: str, paper_ref: str, n: object, status: str = "pass", **details) -> "Report":
        """Append one claim; returns the report, so `Report().add(...)` reports a single claim."""
        self.claims.append(ClaimResult(claim, paper_ref, n, status, details=details))
        return self

    def extend(self, other: "Report") -> None:
        self.claims.extend(other.claims)

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.claims)

    def to_json(self) -> dict:
        return {
            "tool": "arclab",
            "version": __version__,
            "seed": self.seed,
            "limits": self.limits,
            "claims": [c.to_json() for c in self.claims],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def _require(cond: bool, claim: str, message: str, **details) -> None:
    if not cond:
        raise TheoremError(claim, message, **details)


def _replay(graph: Graph, alive: int, steps, claim: str, **details) -> int:
    """Apply the strong collapse `steps` to the flag complex of graph on `alive`.

    Ids are positions in graph.vertices, as in `disjointness_graph`; returns
    the positions left.  A failed step fails `claim`, naming the step and
    the actual dominating set.
    """
    for i, (v, w) in enumerate(steps):
        if not alive >> v & 1:
            raise TheoremError(claim, f"step {i}: vertex {v} is not in the complex", **details)
        dom = graph_dominating_set(graph, alive, v)
        if not dom >> w & 1:
            raise TheoremError(claim, f"step {i}: vertex {v} is not dominated by {w} "
                               f"(dominating set {list(_bits(dom))})", **details)
        alive &= ~(1 << v)
    return alive


def _simplex(graph: Graph, mask: int) -> bool:
    """Whether the flag complex of graph on the positions in mask is one simplex."""
    nbhds = graph.closed_neighbourhoods
    return mask != 0 and all(not mask & ~nbhds[u] for u in _bits(mask))


# --- crowns -------------------------------------------------------------------

CROWN_CLAIM = "crown-strong-collapse"


def thm_crown_strong(n: int) -> Report:
    """Strong collapse of the crown arc complex onto its c-arc simplex.

    Rounds remove the b-arcs whose crown-side tile has k vertices (wrap
    length n-k+1), loops first; every removed arc (p, q) must be dominated
    by both c_p and c_q at the start of its round, and the terminal complex
    is the simplex on the c-arcs.

    At every n the proof rests on the disjointness graph alone, by the flag
    criterion N[v] in N[w] (Barmak-Minian 2012; Boissonnat-Pritam 2020).
    """
    s = crown(n)
    graph = disjointness_graph(s)  # arc ids are positions in graph.vertices
    ids = arc_ids(s)
    c_ids = {i: ids[c_arc(i)] for i in range(1, n + 1)}
    alive = (1 << len(graph.vertices)) - 1
    steps: list[tuple[int, int]] = []
    rounds: list[int] = []
    for k in range(1, n):
        batch = [b_arc_from_wrap(p, n - k + 1, n) for p in range(1, n + 1)]
        for beta in batch:
            dom = graph_dominating_set(graph, alive, ids[beta])
            for witness_vertex in {beta.a, beta.b}:
                if not dom >> c_ids[witness_vertex] & 1:  # labels only on failure
                    raise TheoremError(CROWN_CLAIM, f"{beta.label()} is not dominated by c:{witness_vertex} "
                                       f"in round {k}", n=n,
                                       dominating=sorted(a.label() for a, i in ids.items() if dom >> i & 1))
        round_steps = [(ids[beta], c_ids[beta.b]) for beta in batch]
        alive = _replay(graph, alive, round_steps, CROWN_CLAIM, n=n, round=k)
        steps += round_steps
        rounds.append(len(batch))
    c_mask = sum(1 << c for c in c_ids.values())
    _require(alive == c_mask, CROWN_CLAIM, "terminal vertex set is not the c-arc set", n=n)
    _require(_simplex(graph, c_mask), CROWN_CLAIM, "terminal complex is not a simplex", n=n)
    point = graph_core(graph)[0].bit_count() == 1
    _require(point, CROWN_CLAIM, "order-free core is not a point", n=n)
    return Report().add(
        CROWN_CLAIM,
        "crown-strong-collapsibility",
        n,
        vertices=len(graph.vertices),
        rounds=rounds,
        schedule=StrongTrace(tuple(steps)).to_json(),
    )


# --- inner mobius ---------------------------------------------------------------

INNER_CLAIM = "inner-mobius-strong-collapse"


def thm_inner_mobius(n: int) -> Report:
    """Strong collapse of the c-arc complex of the non-orientable crown.

    Strips vertex n' from n down to 2: the loop L_{n'} lies in a unique
    maximal face (the full fan at n') and is removed first, then (i, n') is
    removed for i = n'-1..1 with witness (1, i) asserted at every step.

    At every n the proof rests on the disjointness graph on the c-arcs alone,
    by the flag criterion N[v] in N[w] (Barmak-Minian 2012; Boissonnat-Pritam
    2020); L_{n'} lies only in the fan iff N[L_{n'}] is the fan, a clique.
    """
    graph = disjointness_graph(mobius_crown(n))  # arc ids are positions in graph.vertices
    alive = inner = (1 << n * (n + 1) // 2) - 1  # the c-arcs come first
    steps: list[tuple[int, int]] = []
    for np_ in range(n, 1, -1):
        v = cc_id(n, np_, np_)  # the loop L_{n'}
        fan = sum(1 << cc_id(n, i, np_) for i in range(1, np_ + 1))
        star = graph.closed_neighbourhoods[v] & alive
        _require(star == fan and _simplex(graph, fan), INNER_CLAIM,
                 f"L:{np_} is not contained solely in the fan at {np_}",
                 n=n, neighbourhood=list(_bits(star)))
        round_steps = [(v, cc_id(n, 1, np_))]
        round_steps += [(cc_id(n, i, np_), cc_id(n, 1, i)) for i in range(np_ - 1, 0, -1)]
        alive = _replay(graph, alive, round_steps, INNER_CLAIM, n=n, fan=np_)
        steps += round_steps
    _require(alive == 1 << cc_id(n, 1, 1), INNER_CLAIM,
             "terminal complex is not the single arc at vertex 1", n=n)
    point = graph_core(graph, alive=inner)[0].bit_count() == 1
    _require(point, INNER_CLAIM, "order-free core disagrees with schedule", n=n)
    return Report().add(
        INNER_CLAIM,
        "inner-mobius-strong-collapsibility",
        n,
        vertices=inner.bit_count(),
        schedule=StrongTrace(tuple(steps)).to_json(),
    )


# --- mobius collapse --------------------------------------------------------------

MOBIUS_COLLAPSE_CLAIM = "mobius-collapse"


def _pure_facets(graph: Graph, size: int) -> tuple[int, int]:
    """The faces of graph's flag complex, the empty one included, and its
    number of facets if every facet has `size` vertices, else 0.

    That holds iff the largest cliques have `size` vertices and they are
    all the maximal ones: iff `clique_counts` stops at `size` vertices and
    its last count equals `count_max_cliques`.  With no vertex the one facet
    is the empty face, which `count_max_cliques` does not count."""
    counts = clique_counts(graph)
    top = counts[-1] if counts else 1
    pure = len(counts) == size and (not counts or count_max_cliques(graph) == top)
    return sum(counts) + 1, top if pure else 0


def _tile(W: int, models: dict) -> tuple[Graph, list[tuple[int, int]], int, int]:
    """polygon(W+1)'s disjointness graph, its diagonals d:i-j as (i - 1, j - i),
    its number of faces, the empty one included, and its number of facets,
    0 unless each has W - 2 vertices; built once per `models` dict."""
    if ("tile", W) not in models:
        tile = polygon(W + 1)
        graph = disjointness_graph(tile)
        diagonals = [(d.a - 1, d.b - d.a) for d in enumerate_arcs(tile)]
        models["tile", W] = graph, diagonals, *_pure_facets(graph, W - 2)
    return models["tile", W]


def _trunk(deg: int, models: dict) -> tuple[Graph, list[tuple[int, int]], tuple[int, StrongTrace], int, int]:
    """The graph of the inner complex of mobius_crown(deg), its c-arcs cc:i-j
    as (i, j) by id, its `graph_core`, its number of faces, the empty one
    included, and its number of facets, 0 unless each has deg vertices;
    built once per `models` dict."""
    if ("trunk", deg) not in models:
        trunk = mobius_crown(deg)
        graph = inner_graph(trunk)
        c_arcs = [(c.a, c.b) for c in enumerate_arcs(trunk)[:len(graph.vertices)]]
        models["trunk", deg] = graph, c_arcs, graph_core(graph), *_pure_facets(graph, deg)
    return models["trunk", deg]


def _sapling_arc_map(
    n: int, sap: tuple[Arc, ...], models: dict,
) -> tuple[tuple[tuple[int, ...], int], list[int]]:
    """The model key of a sapling's link and the arc map, model vertex -> arc id.

    The link is the join of the sapling's polygon tiles with the c-arc
    complex of its trunk.  The tile under a sapling arc b spans
    W = wrap_length(b) boundary edges from p = b.a, and its diagonal d:i-j of
    polygon(W+1) is the b-arc from p+i-1 spanning j-i edges.  The trunk's
    boundary vertices o_1 < ... < o_deg are those strictly inside no sapling
    arc, and cc:i-j of its inner complex is cc(o_i, o_j).  So the key is
    (the sorted wrap lengths, deg), and the model's vertices are offset ids:
    the tiles in sorted-width order, diagonal v of a tile at the tile's
    offset plus v, then c-arc v of the trunk at the tiles' total plus v.
    Tiles of one width go in the order of their start p.  The map is a
    list, and its ids are read off the `enumerate_arcs` layout (`b_id`,
    `cc_id`).
    """
    tiles = sorted((wrap_length(b, n), b.a) for b in sap)
    image: list[int] = []
    inside = 0  # bit v - 1 (or v - 1 + n): boundary vertex v strictly inside a sapling arc
    for W, p in tiles:
        image += [b_id(n, (p + i - 1) % n + 1, w) for i, w in _tile(W, models)[1]]
        inside |= (1 << W - 1) - 1 << p
    inside |= inside >> n
    o = [v for v in range(1, n + 1) if not inside >> v - 1 & 1]
    image += [cc_id(n, o[i - 1], o[j - 1]) for i, j in _trunk(len(o), models)[1]]
    return (tuple(W for W, _ in tiles), len(o)), image


def _link_model(key: tuple[tuple[int, ...], int], models: dict) -> tuple[Graph, StrongTrace, int, int]:
    """The graph of the model join J of `key` (as `_sapling_arc_map` numbers
    it), its strong collapse to a vertex, checked on that graph, the length
    of the elementary collapse it stands for, and J's number of facets.

    J = X * T, X the join of the tiles and T the trunk, all flag, is the
    flag complex of the graph join: each factor's rows at its offset, ORed
    with every other factor's vertices.  A vertex that u dominates in T is
    dominated by u in X * T.  T's `graph_core` leaves the cone X * w, and
    each tile vertex then goes with witness w; `_replay` checks each step.
    A deletion (v, w) is the elementary collapses v + S -> v + S + w, for S
    a clique of N(v) - {v, w} among the vertices left, the empty one
    included (Barmak-Minian 2012; `strong_to_elementary`).  Each removes
    two faces, and the collapse ends at one vertex, so its length is
    (F(J) - 1) / 2, F counting the nonempty faces.  The faces of a join are
    the unions of one face per factor, the empty one included, so F(J) + 1
    is the product of the factors' face counts, each with its empty face,
    and no face of J is built or counted.  Its facets are the unions of one
    facet per factor, so they number the product of the factors' facet
    counts; each factor must be pure, its facets of W - 2 vertices for a
    tile (a triangulation of the (W+1)-gon) and deg for the trunk.
    """
    widths, deg = key
    model = [list(widths), deg]
    trunk, _, (left, strong), faces, trunk_facets = _trunk(deg, models)
    _require(left.bit_count() == 1, MOBIUS_COLLAPSE_CLAIM,
             "trunk inner complex is not strongly collapsible", model=model)
    tiles = [_tile(W, models) for W in widths]
    facets = [tile_facets for *_, tile_facets in tiles] + [trunk_facets]
    _require(all(facets), MOBIUS_COLLAPSE_CLAIM, "model factor is not pure", model=model)
    factors = [tile.closed_neighbourhoods for tile, *_ in tiles] + [trunk.closed_neighbourhoods]
    faces *= math.prod(tile_faces for _, _, tile_faces, _ in tiles)
    everything = (1 << sum(map(len, factors))) - 1
    rows: list[int] = []
    for factor in factors:
        offset = len(rows)  # ends at the trunk's
        own = (1 << len(factor)) - 1 << offset
        rows += [row << offset | everything & ~own for row in factor]
    J = Graph(tuple(range(len(rows))), tuple(rows))
    w = offset + left.bit_length() - 1
    steps = [(offset + v, offset + u) for v, u in strong.steps] + [(x, w) for x in range(offset)]
    _replay(J, everything, steps, MOBIUS_COLLAPSE_CLAIM, model=model)
    return J, StrongTrace(tuple(steps)), (faces - 2) // 2, math.prod(facets)


def _sapling_mask(n: int, sap: tuple[Arc, ...]) -> int:
    """The bitset of a sapling's arc ids."""
    return sum(1 << b_id(n, b.a, wrap_length(b, n)) for b in sap)


def _link_vertices(
    rows: tuple[int, ...], earlier: list[list[int]], sigma: int, sap: tuple[Arc, ...], **where,
) -> int:
    """V_sigma, the vertex set of lk_Y(sigma), once sigma is checked to be a
    face of Y and lk_Y(sigma) to be the flag complex on V_sigma.

    Y is the full complex minus every face that holds one of the `earlier`
    saplings (masks of arc ids, listed at their lowest vertex), and sigma is
    the mask of the sapling `sap`.  sigma is a face of Y iff it is a clique
    holding no earlier sapling; a sapling of a round, named by `where` (n
    and degree), must also be nonempty, and the empty sapling, checked after
    the rounds, has no `where`.  Every face of lk_Y(sigma) lies in V, the
    common neighbours v of sigma with no earlier s' where s' - sigma = {v}.
    A clique tau in V is missing from the link iff sigma + tau holds an
    earlier s', so then s' - sigma lies in tau: lk_Y(sigma) is the flag
    complex on V iff every earlier sapling has a vertex outside sigma + V.
    Then a clique sigma + tau is a face of Y iff tau lies in V.
    """
    sapling = [b.label() for b in sap]
    common = (1 << len(rows)) - 1  # sigma's common closed neighbourhood: a clique iff sigma lies in it
    for u in _bits(sigma):
        common &= rows[u]
    V = common & ~sigma
    # the earlier saplings inside sigma + V, listed at their lowest vertex, are
    # among these; an s' - sigma = {v} with v outside V changes nothing
    near = [p for v in _bits(sigma | V) for p in earlier[v]]
    _require((sigma or not where) and not sigma & ~common and all(p & ~sigma for p in near),
             MOBIUS_COLLAPSE_CLAIM, "predicted sapling is not a face", **where, sapling=sapling)
    for p in near:
        if (d := p & ~sigma) & d - 1 == 0:  # s' - sigma is one vertex
            V &= ~d
    _require(all(p & ~(sigma | V) for p in near), MOBIUS_COLLAPSE_CLAIM,
             "an earlier sapling lies in the link's vertex set", sapling=sapling)
    return V


def _sapling_link_length(
    n: int, rows: tuple[int, ...], V: int, sap: tuple[Arc, ...], models: dict,
) -> tuple[int, int]:
    """Check a sapling's link, the flag complex of the graph on V (from
    `_link_vertices`), against its model join; returns the length of the
    model's collapse trace and its number of facets.

    The arc map must be a bijection onto V carrying J's rows onto the rows
    restricted to V; flag complexes are equal iff their graphs are, so it is
    an isomorphism from the model onto the link, and carries the model's
    collapse to one of it.  The empty sapling () is checked after the
    rounds: its link is Y, its key ((), n), and its arc map the identity
    onto the c-arcs, which V must be; its model is the inner complex of s
    and nothing else.
    """
    sapling = [b.label() for b in sap]
    key, image = _sapling_arc_map(n, sap, models)
    if key not in models:
        models[key] = _link_model(key, models)
    J, _, length, facets = models[key]
    bits = [1 << a for a in image]
    onto = sum(bits)
    _require(onto == V and onto.bit_count() == len(image),
             MOBIUS_COLLAPSE_CLAIM, "the arc map is not a bijection onto the link's vertices",
             sapling=sapling)
    # a bijection carries a row onto one iff it carries the non-neighbours
    # onto the non-neighbours, and in a join those lie in one factor
    everyone = (1 << len(image)) - 1
    _require(all(sum(bits[y] for y in _bits(everyone & ~row)) == V & ~rows[a]
                 for a, row in zip(image, J.closed_neighbourhoods)),
             MOBIUS_COLLAPSE_CLAIM, "link is not the join of its tile complexes under the arc maps",
             sapling=sapling)
    return length, facets


def _same_round_pair(masks: list[int], links: list[int]) -> tuple[int, int] | None:
    """The first pair i < j, lowest i first and then lowest j, of saplings
    whose union is a face of Y, or None.  Each mask has passed
    `_link_vertices`, which gave links[i] = V_i; masks[j] is a clique, so
    the union is a face iff masks[j] - masks[i] lies in V_i."""
    for i, (mask, V) in enumerate(zip(masks, links)):
        span = mask | V
        for j in range(i + 1, len(masks)):
            if not masks[j] & ~span:
                return i, j
    return None


def thm_mobius_collapse(n: int) -> Report:
    """Elementary collapse of the full Moebius-crown complex to a point.

    Round d face-deletes every sapling of degree d via its link collapse;
    no face may contain two saplings of the same round.  Y starts at the
    full complex.  tau -> tau - sigma maps the faces of Y through a sapling
    sigma one-to-one onto those of lk(sigma), keeping containment, and
    every facet through a face that contains sigma lies in its star; so
    (sigma + a, sigma + b) is a collapse of Y iff (a, b) is one of the link,
    and a collapse of the link to a vertex w followed by (sigma, sigma + w)
    leaves the face-deletion of sigma (Welker's link lemma).

    The complex is flag, so Y is the disjointness graph G and the masks of
    the saplings deleted so far: a face of Y is a clique holding none of
    them, and a b-arc survives iff it is no one-arc sapling among them.  An
    earlier sapling inside a clique is found by its lowest vertex.  At the
    start of a round each sapling sigma is checked to be a face of Y, and
    its link to be the flag complex of G on V_sigma (`_link_vertices`).
    Then sigma_i + sigma_j is a face iff sigma_j lies in sigma_i + V_i
    (`_same_round_pair`).  When no two span a face, deleting the star of
    sigma_i removes no face through sigma_j, as that face would hold both;
    so each link, and its V, stays as it was at the round's start for the
    whole round.  Each link is the image of its model join
    (`_sapling_link_length`), whose collapse is checked once per call on
    the join's rows, and whose trace length is (F - 1) / 2 for F its
    nonempty faces (`_link_model`).  So `trace_length` counts the model
    traces plus one step per sapling, and then the trace of the empty
    sapling, whose link is what the rounds leave and whose model is the
    inner complex.

    No face is built, and `facets` is read off the schedule.  A facet tau
    of the complex outside the final Y holds a first sapling sigma, and
    tau - sigma is a facet of lk(sigma), the image of the model join.  Each
    model factor is checked pure, so sigma + rho has n vertices for every
    facet rho of the link: one per sapling arc, W - 2 per tile and deg for
    the trunk, and the W - 1 boundary vertices inside each arc and the
    trunk's deg make up the n (the arcs of a face do not cross, and nested
    ones fail the arc map's bijection).  No face has more, as each lies in a
    sigma + rho or in the inner complex, so every sigma + rho is a facet.
    So `facets` is the sum over the saplings of their models' facet counts,
    plus the inner complex's, and no clique search runs on G.
    """
    s = mobius_crown(n)
    graph = disjointness_graph(s)
    rows = graph.closed_neighbourhoods
    models: dict = {}  # tiles by wrap length, trunks by degree, model joins by key
    earlier: list[list[int]] = [[] for _ in rows]  # the saplings deleted so far, at their lowest vertex
    deleted = 0  # the b-arcs deleted as one-arc saplings
    replayed = facets = 0
    round_sizes: list[int] = []
    for deg in range(1, n):
        saps = saplings_of_degree(s, deg)
        round_sizes.append(len(saps))
        masks = [_sapling_mask(n, sap) for sap in saps]
        links = [_link_vertices(rows, earlier, mask, sap, n=n, degree=deg) for sap, mask in zip(saps, masks)]
        if pair := _same_round_pair(masks, links):  # labels only on failure
            raise TheoremError(MOBIUS_COLLAPSE_CLAIM, "two same-round saplings span a common face",
                               n=n, degree=deg, pair=[[a.label() for a in saps[k]] for k in pair])
        for sap, mask, V in zip(saps, masks, links):
            length, count = _sapling_link_length(n, rows, V, sap, models)
            replayed += length + 1
            facets += count
            earlier[(mask & -mask).bit_length() - 1].append(mask)
            if not mask & mask - 1:
                deleted |= mask
        wide = sum(1 << b_id(n, p, w) for p in range(1, n + 1) for w in range(n - deg + 1, n + 1))
        _require(not wide & ~deleted, MOBIUS_COLLAPSE_CLAIM,
                 "a b-arc scheduled for this round survived it", n=n, degree=deg)
    length, count = _sapling_link_length(n, rows, _link_vertices(rows, earlier, 0, ()), (), models)
    return Report().add(MOBIUS_COLLAPSE_CLAIM, "mobius-collapse-to-point", n,
                        vertices=len(graph.vertices), facets=facets + count,
                        rounds=round_sizes, trace_length=replayed + length)


# --- mobius non-strong-collapsibility ----------------------------------------------

MOBIUS_CORE_CLAIM = "mobius-not-strongly-collapsible"


def _mobius_prediction(n: int) -> tuple[dict, dict, dict, dict]:
    """The arc ids the Moebius core argument names, by boundary vertex or cyclic pair.

    The loops M_j with their witnesses L_j, and the ridge b-arcs with their
    c-arc witnesses.  The ridge b-arc at (i, j) is the one b-arc joining i
    and j = i + 1: its polygon side runs from j back around to i, n - 1 edges.
    """
    jn = [(i, i % n + 1) for i in range(1, n + 1)]  # the cyclic pairs
    return (
        {j: b_id(n, j, n) for j in range(1, n + 1)},
        {j: cc_id(n, j, j) for j in range(1, n + 1)},
        {(i, j): b_id(n, j, n - 1) for i, j in jn},
        {(i, j): cc_id(n, min(i, j), max(i, j)) for i, j in jn},
    )


def thm_mobius_not_strong(n: int) -> Report:
    """Dominated-vertex accounting showing the full complex has a big core.

    A stage (I, J) deletes the loops M_j (j in I) and the ridge b-arcs r_p at
    the cyclic pairs p in J, each with both ends in I; I = {} is the full
    complex.  At every stage the dominated vertices are exactly the loops M_j
    left, each dominated by L_j, and the ridge b-arcs r_p left with both end
    loops gone, each dominated by the c-arc w_p joining p.  Greedy removal
    therefore always terminates at the core with vertex set A minus D, where
    D holds the loops and the ridge b-arcs, |D| = 2n, which is not a point.

    Every stage is a flag complex, so w dominates v there iff N[v] & S lies
    in N[w], with N the closed neighbourhoods of the disjointness graph and
    S the stage's vertices (Barmak-Minian 2012; Boissonnat-Pritam 2020).  A
    stage deletes only vertices of D.  Deleting vertices other than v and w
    keeps N[v] & S in N[w], and a witness x in N[v] - N[w] that is never
    deleted keeps w from dominating v.  So four checks on the full graph
    settle every stage at once, with K the vertices outside D:

    (a) L_j lies in K and N[M_j] lies in N[L_j];
    (b) w_p lies in K and N[r_p] - N[w_p] is {M_i, M_j}, for p = (i, j);
    (c) for v in K, each neighbour w has N[v] - N[w] meeting K;
    (d) for each end e of p, each neighbour w of r_p has N[r_p] - N[w]
        meeting K or M_e, and M_e is left wherever p is not inside I.

    (a) and (b) give the predicted dominations with their witnesses, and (c)
    and (d) rule out every other one.

    The stages are counted round the n-cycle: each vertex is out of I, or in
    I with the pair it closes in J or not, so there are trace(T^n) of them,
    T = [[1, 1], [1, 2]].  The canonical core and 20 random-order cores of
    the graph must end at K.
    """
    _require(n >= 4, MOBIUS_CORE_CLAIM, "statement needs n >= 4", n=n)
    graph = disjointness_graph(mobius_crown(n))  # arc ids are positions in graph.vertices
    loops, lcs, ridge, witnesses = _mobius_prediction(n)
    nbhds = graph.closed_neighbourhoods
    D = sum(1 << v for v in (*loops.values(), *ridge.values()))
    _require(D.bit_count() == 2 * n, MOBIUS_CORE_CLAIM, "removable set D has wrong size", n=n)
    K = (1 << len(graph.vertices)) - 1 & ~D

    def dominators(v: int, kept: int) -> list[int]:
        """The neighbours w of v with no witness in `kept` against dominating v."""
        return list(_bits(_dominators(nbhds, nbhds[v] & kept, nbhds[v] & ~(1 << v))))

    for j, m in loops.items():
        _require(
            K >> lcs[j] & 1 and not nbhds[m] & ~nbhds[lcs[j]],
            MOBIUS_CORE_CLAIM,
            f"M:{j} is not dominated by L:{j} at every stage",
            n=n,
        )
    for (i, j), r in ridge.items():
        _require(
            K >> witnesses[i, j] & 1
            and nbhds[r] & ~nbhds[witnesses[i, j]] == 1 << loops[i] | 1 << loops[j],
            MOBIUS_CORE_CLAIM,
            f"b-arc at {(i, j)} is not dominated by its c-arc witness once M:{i} and M:{j} are gone",
            n=n,
        )
    for v in _bits(K):
        _require(
            not (by := dominators(v, K)),
            MOBIUS_CORE_CLAIM,
            "a vertex outside D is dominated at some stage",
            n=n,
            arc=v,
            by=by,
        )
    for pair, r in ridge.items():
        for e in pair:
            _require(
                not (by := dominators(r, K | 1 << loops[e])),
                MOBIUS_CORE_CLAIM,
                f"b-arc at {pair} is dominated at some stage that keeps M:{e}",
                n=n,
                by=by,
            )
    # trace(T^k) obeys t_k = 3 t_(k-1) - t_(k-2), as T has trace 3 and determinant 1
    stages, following = 2, 3
    for _ in range(n):
        stages, following = following, 3 * following - stages

    left, _ = graph_core(graph)
    _require(
        left == K,
        MOBIUS_CORE_CLAIM,
        "canonical core has the wrong vertex set",
        n=n,
        symmetric_difference=sorted(_bits(left ^ K)),
    )
    for seed in range(20):
        left, _ = graph_core(graph, order="random", seed=seed)
        _require(
            left == K,
            MOBIUS_CORE_CLAIM,
            f"random removal order (seed {seed}) reached a different terminal",
            n=n,
        )
    _require(K.bit_count() > 1, MOBIUS_CORE_CLAIM, "core degenerated to a point", n=n)
    return Report().add(
        MOBIUS_CORE_CLAIM,
        "mobius-core-obstruction",
        n,
        stages_checked=stages,
        core_vertices=K.bit_count(),
        removed=2 * n,
    )


# --- integral strips ------------------------------------------------------------

STRIP_CLAIM = "strip-strong-collapse"


def _maximal_chains(graph: Graph) -> int:
    """The number of maximal cliques of a strip graph, counted as maximal chains.

    The strip graph is the comparability graph of the product order on the
    arcs (i, j), and positions are lexicographic, a linear extension of that
    order: a neighbour above a vertex's position lies above it in the order.
    So the cliques are the chains, and a maximal chain is a path of covers
    from a minimal to a maximal arc.  u < v is a cover iff nothing lies above
    u and below v.  The graph with no vertex has one facet, the empty face.
    """
    nbhds = graph.closed_neighbourhoods
    up = [nbhd >> v + 1 << v + 1 for v, nbhd in enumerate(nbhds)]
    paths = []  # v -> the saturated chains from a minimal arc up to v
    for v, nbhd in enumerate(nbhds):
        down = nbhd & (1 << v) - 1
        paths.append(sum(paths[u] for u in _bits(down) if not up[u] & down) if down else 1)
    return sum(p for p, above in zip(paths, up) if not above) if nbhds else 1


def thm_strip_strong(m: int, n: int) -> Report:
    """Strong collapse schedule for the integral strip complex.

    Strips the top red row j = n..2: the first arc (1, j) lies over a cone
    link (the join of two fans), each later (i, j) is dominated by the
    witness (i, j-1); the remainder is a simplex.  Under the trivial-corner
    convention the row/column complexes are simplices of dimension m-3 and
    n-3 (not m-1 / n-1), which is reported, and the (2,2) strip is a
    0-sphere, outside the hypothesis m+n >= 5.

    At every size the proof rests on the disjointness graph alone, by the
    flag criterion N[v] in N[w] (Barmak-Minian 2012; Boissonnat-Pritam
    2020); lk(v) is the flag complex on N(v).  No facet is built.
    """
    s = integral_strip(m, n)
    graph = disjointness_graph(s)  # arc ids are positions in graph.vertices
    ids = arc_ids(s)
    vertices = len(graph.vertices)
    base_details = {"vertices": vertices, "facets": _maximal_chains(graph)}

    if m == 1 or n == 1:
        everything = (1 << vertices) - 1
        _require(
            all(nbhd == everything for nbhd in graph.closed_neighbourhoods),
            STRIP_CLAIM,
            "row/column complex is not a simplex",
            m=m,
            n=n,
        )
        dim = vertices - 1
        expected = max((m if n == 1 else n) - 2, 0) - 1
        _require(dim == expected, STRIP_CLAIM, "unexpected simplex dimension", m=m, n=n)
        return Report().add(
            STRIP_CLAIM,
            "strip-simplex-case",
            [m, n],
            "pass" if vertices >= 1 else "info",
            **base_details,
            dimension=dim,
            note="corner-arc convention gives dimension m-3 / n-3",
        )

    if m + n < 5:
        point = graph_core(graph)[0].bit_count() == 1
        _require(not point, STRIP_CLAIM, "the (2,2) strip should be a 0-sphere", m=m, n=n)
        _require(
            graph.closed_neighbourhoods == (1, 2),
            STRIP_CLAIM,
            "the (2,2) strip is not two isolated points",
            m=m,
            n=n,
        )
        return Report().add(
            STRIP_CLAIM,
            "strip-22-outside-hypothesis",
            [m, n],
            "info",
            **base_details,
            note="0-sphere; the strong-collapsibility claim needs m+n >= 5",
        )

    alive = (1 << len(graph.vertices)) - 1
    steps: list[tuple[int, int]] = []
    for j in range(n, 1, -1):
        v = ids[strip_arc(1, j)]
        lk = graph.closed_neighbourhoods[v] & alive & ~(1 << v)
        _require(_simplex(graph, lk), STRIP_CLAIM,
                 f"link of (1,{j}) is not a nonempty simplex", m=m, n=n)
        round_steps = [(v, (lk & -lk).bit_length() - 1)]  # the link's lowest vertex
        round_steps += [(ids[strip_arc(i, j)], ids[strip_arc(i, j - 1)]) for i in range(2, m)]
        alive = _replay(graph, alive, round_steps, STRIP_CLAIM, m=m, n=n, row=j)
        steps += round_steps
    remainder = [strip_arc(i, 1) for i in range(2, m)] + [strip_arc(m, j) for j in range(1, n)]
    _require(alive == sum(1 << ids[a] for a in remainder) and _simplex(graph, alive), STRIP_CLAIM,
             "remainder after stripping rows is not the expected simplex", m=m, n=n)
    simplex = list(_bits(alive))
    tail = list(zip(simplex, simplex[1:]))
    _replay(graph, alive, tail, STRIP_CLAIM, m=m, n=n)
    steps += tail
    point = graph_core(graph)[0].bit_count() == 1
    _require(point, STRIP_CLAIM, "order-free core is not a point", m=m, n=n)
    return Report().add(
        STRIP_CLAIM,
        "strip-strong-collapsibility",
        [m, n],
        **base_details,
        schedule=StrongTrace(tuple(steps)).to_json(),
    )


# --- certificates, flips, structural propositions -------------------------------


def polygon_certificates(n_max: int) -> Report:
    report = Report()
    for n in range(4, n_max + 1):
        c = arc_complex(polygon(n))
        cert = certify(c)
        catalan = math.comb(2 * n - 4, n - 2) // (n - 1)
        ok = (
            cert.verdict == "sphere"
            and cert.dim == n - 4
            and len(c.facets) == catalan
            and euler_characteristic(c) == 1 + (-1) ** (n - 4)
        )
        report.add("polygon-sphere-certificate", "polygon-shellable-sphere", n,
                   "pass" if ok else "fail", verdict=cert.verdict, dim=cert.dim,
                   rule=cert.rule, facets=len(c.facets), catalan=catalan)
    return report


def _add_ball(report: Report, claim: str, paper_ref: str, n: int, c: Complex) -> None:
    """Claim that c is an (n-1)-ball."""
    cert = certify(c)
    ok = cert.verdict == "ball" and cert.dim == n - 1 and euler_characteristic(c) == 1
    report.add(claim, paper_ref, n, "pass" if ok else "fail",
               verdict=cert.verdict, dim=cert.dim, rule=cert.rule)


def crown_ball_certificates(n_max: int) -> Report:
    report = Report()
    for n in range(2, n_max + 1):
        _add_ball(report, "crown-ball-certificate", "crown-combinatorial-ball", n,
                  arc_complex(crown(n)))
    return report


def mobius_ball_certificates(n_max: int) -> Report:
    report = Report()
    for n in range(2, n_max + 1):
        s = mobius_crown(n)
        _add_ball(report, "mobius-ball-certificate", "mobius-combinatorial-ball", n,
                  arc_complex(s))
        inner = inner_complex(s)
        inner_cert = certify(inner)
        dim = dimension(inner)
        ok = inner_cert.shelling is not None and dim == n - 1
        report.add("inner-mobius-shellable", "inner-mobius-shellable-pseudomanifold", n,
                   "pass" if ok else "fail", pseudomanifold=inner_cert.pseudomanifold, dim=dim)
    return report


def crown_flip_diameters(n_max: int) -> Report:
    report = Report()
    for n in range(2, n_max + 1):
        c = arc_complex(crown(n))
        g = flip_graph(c)
        diameter = graph_diameter(g)
        ok = diameter == 2 * n - 2  # -1 on a disconnected graph
        report.add("crown-flip-diameter", "crown-flip-graph-diameter", n, "pass" if ok else "fail",
                   facets=len(c.facets), diameter=diameter, expected=2 * n - 2)
    return report


def structural_propositions() -> Report:
    """Order-free structural facts feeding the core obstruction."""
    report = Report()
    for n in range(4, 7):
        # a flag complex is a cone over v iff N[v] holds every vertex
        s = mobius_crown(n)
        everything = (1 << sum(a.kind == "cc" for a in enumerate_arcs(s))) - 1  # c-arcs first
        rows = disjointness_graph(s).closed_neighbourhoods
        apex = next((v for v in _bits(everything) if rows[v] & everything == everything), None)
        report.add("inner-mobius-not-a-cone", "inner-mobius-no-apex", n,
                   "pass" if apex is None else "fail", apex=apex)
    for n in range(2, 7):
        s = mobius_crown(n)
        arcs = enumerate_arcs(s)
        carcs = [a for a in arcs if a.kind == "cc"]
        offenders = [
            b.label()
            for b in arcs
            if b.kind == "b" and all(disjoint(s, b, carc) for carc in carcs)
        ]
        report.add("no-barc-avoids-all-carcs", "barcs-meet-carcs", n,
                   "pass" if not offenders else "fail", offenders=offenders)
    # strong collapsibility of the n=3 full complex is not covered by the
    # core obstruction (which needs n >= 4); computed and reported only
    ok = graph_core(disjointness_graph(mobius_crown(3)))[0].bit_count() == 1
    report.add("mobius-3-strong-collapsibility", "not-a-paper-claim", 3, "info",
               strongly_collapsible=ok)
    return report.add(
        "strip-row-dimension-convention",
        "strip-simplex-dimension-discrepancy",
        None,
        "info",
        note=(
            "with corner arcs excluded the row/column complexes are "
            "simplices of dimension m-3 and n-3; the claimed m-1/n-1 "
            "would require the trivial corner arcs"
        ),
    )


# --- aggregate runner -------------------------------------------------------------


@dataclass
class Limits:
    polygon: int = 9
    crown: int = 6
    mobius: int = 5
    inner_mobius: int = 7
    strip: int = 10  # maximum m + n

    def to_json(self) -> dict:
        return asdict(self)


def run_all(
    limits: Limits | None = None,
    seed: int = 0,
    jobs: int = 1,
    evidence_dir: str | None = None,
) -> Report:
    """Run every suite within the limits; failures are recorded, not thrown.

    With evidence_dir set, per-claim details (schedules, trace data) are
    written there as JSON files and each claim's evidence_path points to its
    file; otherwise details stay inline and evidence_path is null.
    """
    limits = limits or Limits()
    report = Report(seed=seed, limits=limits.to_json())

    tasks: list = []

    def add(name, fn, *args):
        tasks.append((name, fn, args))

    for n in range(1, limits.crown + 1):
        add(f"crown:{n}", thm_crown_strong, n)
    for n in range(1, limits.inner_mobius + 1):
        add(f"inner:{n}", thm_inner_mobius, n)
    for n in range(1, limits.mobius + 1):
        add(f"mobius-collapse:{n}", thm_mobius_collapse, n)
    for n in range(4, limits.mobius + 1):
        add(f"mobius-core:{n}", thm_mobius_not_strong, n)
    for m in range(1, limits.strip):
        for n in range(1, limits.strip - m + 1):
            add(f"strip:{m},{n}", thm_strip_strong, m, n)
    add("polygon-certs", polygon_certificates, limits.polygon)
    add("crown-certs", crown_ball_certificates, limits.crown)
    add("mobius-certs", mobius_ball_certificates, limits.mobius)
    add("crown-flips", crown_flip_diameters, limits.crown)
    if limits.mobius >= 3:
        add("props", structural_propositions)

    def run_one(task):
        name, fn, args = task
        try:
            return fn(*args)
        except TheoremError as exc:
            return Report().add(exc.claim, "schedule-assertion", name, "fail", message=str(exc))
        except Exception as exc:  # unexpected breakage is still a recorded failure
            return Report().add(name, "suite-error", name, "fail", message=repr(exc))

    if jobs > 1:
        # imported here: at module level it adds to the set-up time of every run
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, tasks))
    else:
        results = [run_one(t) for t in tasks]
    for sub in results:
        report.extend(sub)
    report.claims.sort(key=lambda c: (c.claim, str(c.n)))
    if evidence_dir is not None:
        _write_evidence(report, evidence_dir)
    return report


def _write_evidence(report: Report, evidence_dir: str) -> None:
    os.makedirs(evidence_dir, exist_ok=True)
    for claim in report.claims:
        if not claim.details:
            continue
        tag = str(claim.n).replace(" ", "").replace("[", "").replace("]", "").replace(",", "-")
        name = f"{claim.claim}-{tag}.json"
        path = os.path.join(evidence_dir, name)
        with open(path, "w") as fh:
            json.dump(claim.details, fh, indent=2, sort_keys=True)
            fh.write("\n")
        claim.evidence_path = path
        claim.details = {}
