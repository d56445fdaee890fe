"""Independent oracles used to freeze expected values.

Everything here is deliberately written from first principles, separate
from the library code paths it checks.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from functools import lru_cache
from typing import Iterable

from arclab.arcs import (
    B_ARC,
    C_ARC,
    CC_ARC,
    CROWN,
    DIAG,
    MOBIUS,
    STRIP,
    Arc,
    SurfaceSpec,
    _strictly_inside,
    arc_ids,
    b_arc,
    b_arc_from_wrap,
    c_arc,
    cc_arc,
    diag,
    disjoint,
    enumerate_arcs,
    loop_b,
    loop_c,
    mobius_crown,
    polygon,
    saplings_of_degree,
    strip_arc,
    validate_arc,
    wrap_length,
)
from arclab import certify as certify_module
from arclab.build import arc_complex, disjointness_graph, induced_arc_complex, inner_complex
from arclab.certify import (
    PM_BOUNDARY,
    PM_CLOSED,
    PM_NO,
    RULE_DANARAJ_KLEE,
    RULE_WHITEHEAD,
    Certificate,
    _floods,
)
from arclab.collapse import INCONCLUSIVE, PROVEN, face_order, is_collapsible, trace, verify_trace
from arclab.simplicial import (
    EMPTY_FACE,
    Complex,
    FacetEditor,
    Graph,
    _complex,
    dimension,
    euler_characteristic,
    facets_containing,
    faces,
    is_cone,
    isomorphic,
    join_all,
    link,
    make_complex,
    vertex_deletion,
)
from arclab.strong import (
    StrongTrace,
    _dominated,
    core,
    dominated_vertices,
    dominating_set,
    graph_core,
    strong_to_elementary,
)
from arclab.theorems import MOBIUS_COLLAPSE_CLAIM, Report, TheoremError


@lru_cache(maxsize=None)
def catalan(k: int) -> int:
    """Catalan numbers by the convolution recurrence."""
    if k == 0:
        return 1
    return sum(catalan(j) * catalan(k - 1 - j) for j in range(k))


def mobius_core_arcs_disjoint(n: int, pair1: tuple[int, int], pair2: tuple[int, int]) -> bool:
    """Alternation oracle for one-sided arcs of the Moebius crown.

    Both arcs cross the core curve once, so their strand endpoints on the
    crosscap circle interleave; the arcs are disjoint exactly when the four
    boundary endpoints can likewise be placed in alternating cyclic order.
    Endpoints at a shared boundary vertex may be micro-ordered freely.
    """
    points = [(pair1[0], 0), (pair1[1], 0), (pair2[0], 1), (pair2[1], 1)]
    by_vertex: dict[int, list[int]] = {}
    for idx, (v, _) in enumerate(points):
        by_vertex.setdefault(v, []).append(idx)

    groups = sorted(by_vertex.items())
    orders = [list(itertools.permutations(members)) for _, members in groups]
    for choice in itertools.product(*orders):
        seq: list[int] = []
        for perm in choice:
            seq.extend(points[idx][1] for idx in perm)
        if all(seq[i] != seq[(i + 1) % 4] for i in range(4)):
            return True
    return False


def pair_loop_graph(s, keep=lambda arc: True):
    """The disjointness graph of s on the arcs `keep` accepts, by arc id,
    with every pair tested by `disjoint`: the construction the bitset rows
    of `build` replaced."""
    arcs = [(i, a) for i, a in enumerate(enumerate_arcs(s)) if keep(a)]
    edges = [(i, j) for (i, x), (j, y) in itertools.combinations(arcs, 2) if disjoint(s, x, y)]
    return make_graph([i for i, _ in arcs], edges)


def euler_by_inclusion_exclusion(facets) -> int:
    """chi via inclusion-exclusion over the maximal faces (chi of a
    nonempty simplex is 1)."""
    facets = [set(f) for f in facets]
    total = 0
    for r in range(1, len(facets) + 1):
        for combo in itertools.combinations(facets, r):
            inter = set.intersection(*combo)
            if inter:
                total += (-1) ** (r + 1)
    return total


def brute_force_faces(facets) -> set[frozenset]:
    """All nonempty faces spanned by the maximal faces."""
    out: set[frozenset] = set()
    for f in facets:
        f = sorted(f)
        for r in range(1, len(f) + 1):
            out.update(map(frozenset, itertools.combinations(f, r)))
    return out


def maximal_faces(faces) -> set[frozenset]:
    """The faces of a collection that lie in no other one, by comparing every
    pair; {frozenset()} when there is no nonempty face (the empty complex)."""
    faces = {frozenset(f) for f in faces}
    maximal = {f for f in faces if not any(f < g for g in faces)}
    return maximal or {frozenset()}


def adjacency(vertices, edges) -> dict[int, set]:
    """Each vertex -> the set of its neighbours."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_is_connected(vertices, edges) -> bool:
    """Connectivity by a breadth-first search on adjacency sets."""
    vertices = list(vertices)
    if not vertices:
        return True
    adj = adjacency(vertices, edges)
    seen = {vertices[0]}
    queue = deque(seen)
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(vertices)


def naive_max_cliques(vertices, edges) -> set[frozenset]:
    """Maximal cliques by brute-force subset filtering (tiny graphs only)."""
    vertices = sorted(vertices)
    adj = adjacency(vertices, edges)
    cliques: set[frozenset] = set()
    for r in range(1, len(vertices) + 1):
        for combo in itertools.combinations(vertices, r):
            if all(v in adj[u] for u, v in itertools.combinations(combo, 2)):
                cliques.add(frozenset(combo))
    return {c for c in cliques if not any(c < d for d in cliques)}


def floyd_warshall_diameter(n_vertices: int, edges) -> int:
    """All-pairs shortest paths by Floyd-Warshall; -1 if disconnected."""
    INF = float("inf")
    dist = [[0 if i == j else INF for j in range(n_vertices)] for i in range(n_vertices)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n_vertices):
        dk = dist[k]
        for i in range(n_vertices):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n_vertices):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    best = max(max(row) for row in dist) if n_vertices else 0
    return -1 if best == INF else int(best)


def pairwise_validate_shelling(c, order) -> bool:
    """The shelling check that the star-mask validator replaced, by pairs.

    `order` must list the facets of c.  For each k >= 1 the pieces
    F_k & F_j, j < k, are intersected pairwise, the maximal nonempty ones
    kept, and each must have d vertices (d the dimension of c); for d >= 1
    at least one must exist.  O(t^3) over an order of t facets.
    """
    order = [frozenset(f) for f in order]
    if sorted(order, key=sorted) != sorted(c.facets, key=sorted):
        return False
    d = max(len(f) for f in c.facets) - 1
    for k, facet in enumerate(order):
        if k == 0:
            continue
        pieces = {facet & g for g in order[:k]} - {frozenset()}
        maximal = [p for p in pieces if not any(p < q for q in pieces)]
        if d >= 1 and not maximal:
            return False
        if any(len(p) != d for p in maximal):
            return False
    return True


def ridge_dict(c) -> dict:
    """Each codimension-one face of a facet, as a frozenset -> the indices of
    the facets containing it: the ridge table that `Complex.ridge_neighbours`
    replaced.  The empty facet has the one ridge {}."""
    table: dict = {}
    for i, f in enumerate(c.facets):
        if not f:
            table.setdefault(frozenset(), []).append(i)
        for v in f:
            table.setdefault(f - {v}, []).append(i)
    return table


def ridge_dict_neighbours(c) -> list[dict]:
    """Facet i -> {v: the set of the other facets through F_i - v}, from `ridge_dict`."""
    table = ridge_dict(c)
    return [{v: set(table[f - {v}]) - {i} for v in f} for i, f in enumerate(c.facets)]


def ridge_dict_dual_edges(c) -> list[tuple[int, int]]:
    """The dual graph's edges: each pair of facets listed under one ridge."""
    return sorted(
        {pair for members in ridge_dict(c).values() for pair in itertools.combinations(members, 2)}
    )


def ridge_dict_pseudomanifold_check(c):
    """(status, strongly connected, boundary) of a pure complex, from
    `ridge_dict`: the boundary is the ridges in one facet, sorted by their
    sorted ids; a ridge in three or more facets or a disconnected dual
    graph is "no"."""
    table = ridge_dict(c)
    boundary = tuple(sorted((r for r, members in table.items() if len(members) == 1), key=sorted))
    overfull = any(len(members) > 2 for members in table.values())
    connected = bfs_is_connected(range(len(c.facets)), ridge_dict_dual_edges(c))
    if overfull or not connected:
        return "no", connected, boundary
    return ("with-boundary" if boundary else "closed"), connected, boundary


def reference_pseudomanifold_check(c):
    """(status, strongly connected, boundary) of a pure complex: the check
    that read the sorted boundary ridges off `Complex.ridge_neighbours`
    before the status came from the ridge counts alone."""
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
    return status, connected, tuple(sorted(boundary, key=sorted))


def _reference_chi_consistent(verdict: str, d: int, chi: int) -> bool:
    if verdict == "sphere":
        return chi == 1 + (-1) ** d
    if verdict == "ball":
        return chi == 1
    return True


def reference_certify(c, effort: str = "full") -> Certificate:
    """The certificate assembly that one exit per outcome replaced: points
    answered apart, and one exit and one Euler check per rule.  It reads
    `shelling_search` and `EFFORT_BUDGETS` through the certify module, so a
    test that patches them there patches both paths."""
    shell_budget, collapse_budget = certify_module.EFFORT_BUDGETS[effort]
    d = dimension(c)
    status, connected, _ = reference_pseudomanifold_check(c)
    notes: list[str] = []

    if c.n_vertices == 0:
        return Certificate(status, connected, None, "undetermined", None, None, ("empty complex",))
    if d == 0:
        if c.n_vertices == 1:
            return Certificate(status, connected, tuple(c.facets), "ball", 0, RULE_DANARAJ_KLEE)
        if c.n_vertices == 2:
            return Certificate(status, connected, tuple(c.facets), "sphere", 0, RULE_DANARAJ_KLEE)
        return Certificate(status, connected, None, "undetermined", None, None)

    shelling = None
    if status in (PM_CLOSED, PM_BOUNDARY):
        result = certify_module.shelling_search(c, shell_budget)
        if result.status == PROVEN:
            shelling = result.order
            verdict = "sphere" if status == PM_CLOSED else "ball"
            if not _reference_chi_consistent(verdict, d, euler_characteristic(c)):
                raise AssertionError("certificate contradicts Euler characteristic")
            return Certificate(status, connected, shelling, verdict, d, RULE_DANARAJ_KLEE)
        if result.status == INCONCLUSIVE:
            notes.append(f"shelling search: inconclusive after {result.nodes} of {shell_budget} nodes")
        else:
            notes.append(f"shelling search: disproven after {result.nodes} nodes")

    if status == PM_BOUNDARY:
        coll = is_collapsible(c, collapse_budget)
        if coll.status == PROVEN:
            links_ok = True
            saw_ball = False
            for v in c.vertex_ids:
                sub = reference_certify(link(c, [v]), effort)
                if sub.verdict == "ball" and sub.dim == d - 1:
                    saw_ball = True
                elif not (sub.verdict == "sphere" and sub.dim == d - 1):
                    links_ok = False
                    break
            if links_ok and saw_ball:
                if not _reference_chi_consistent("ball", d, euler_characteristic(c)):
                    raise AssertionError("certificate contradicts Euler characteristic")
                notes.append("collapsible combinatorial manifold with boundary")
                return Certificate(status, connected, shelling, "ball", d, RULE_WHITEHEAD, tuple(notes))
        elif coll.status == INCONCLUSIVE:
            notes.append(
                f"collapsibility search: inconclusive after {coll.nodes} of {collapse_budget} nodes"
            )
        else:
            notes.append(f"collapsibility search: disproven after {coll.nodes} nodes")

    return Certificate(status, connected, shelling, "undetermined", None, None, tuple(notes))


def reference_shelling_search(c, budget: int):
    """The backtracking shelling search that the restriction-face search
    replaced, kept as its reference: (status, order or None, nodes spent).

    Starts are tried in facet order and candidates in ascending facet index;
    a candidate is addable when every nonempty intersection with an earlier
    facet lies inside one of its ridges shared with an earlier facet, which
    rescans every earlier facet (O(t^3) over a search).  Each call of
    `extend` with a facet still to place spends one node.  Recursive, so
    only for complexes of a few hundred facets.
    """
    facets = list(c.facets)
    t = len(facets)
    d = len(facets[0]) - 1
    if t == 1 or d <= 0:
        return "proven", tuple(facets), 0

    index = {v: i for i, v in enumerate(c.vertex_ids)}
    masks = [0] * t
    for i, f in enumerate(facets):
        for v in f:
            masks[i] |= 1 << index[v]

    def popcount(x: int) -> int:
        return bin(x).count("1")

    neighbors: list[list[int]] = [[] for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            if popcount(masks[i] & masks[j]) == d:
                neighbors[i].append(j)
                neighbors[j].append(i)

    nodes = 0

    class Budget(Exception):
        pass

    def addable(i: int, used: list[int]) -> bool:
        ridges = [masks[i] & masks[j] for j in used if popcount(masks[i] & masks[j]) == d]
        if not ridges:
            return False
        for j in used:
            x = masks[i] & masks[j]
            if x and not any(x & ~r == 0 for r in ridges):
                return False
        return True

    def extend(used: list[int], used_set: set[int], frontier: set[int]):
        nonlocal nodes
        if len(used) == t:
            return used
        nodes += 1
        if nodes >= budget:
            raise Budget
        # used is as it was on arrival whenever a candidate is tested
        for i in sorted(frontier):
            if not addable(i, used):
                continue
            new_frontier = (frontier | set(neighbors[i])) - used_set - {i}
            used.append(i)
            used_set.add(i)
            result = extend(used, used_set, new_frontier)
            if result is not None:
                return result
            used.pop()
            used_set.discard(i)
        return None

    for start in range(t):
        try:
            found = extend([start], {start}, set(neighbors[start]))
        except Budget:
            return "inconclusive", None, nodes
        if found is not None:
            return "proven", tuple(facets[i] for i in found), nodes
    return "disproven", None, nodes


def facet_stage_domination(s, graph, removed) -> dict[int, set]:
    """Each dominated vertex of the arc complex of s without `removed`, with
    its dominating set, read from the facets of that complex: the
    Moebius-core stage check that the graph check replaced."""
    X = induced_arc_complex(s, graph, removed)
    return {v: dominating_set(X, v) for v, _ in dominated_vertices(X)}


def mobius_stages(n):
    """The stages (I, J) of the Moebius core argument, one by one.

    A stage deletes the loops M_j (j in I) and the ridge b-arcs joining i and
    i+1 for the cyclic pairs (i, i+1) in J, both ends in I; I = {} is the
    full complex.
    """
    pairs = [(i, i % n + 1) for i in range(1, n + 1)]
    for I in itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), k) for k in range(n + 1)
    ):
        inside = [p for p in pairs if set(p) <= set(I)]
        for J in itertools.chain.from_iterable(
            itertools.combinations(inside, k) for k in range(len(inside) + 1)
        ):
            yield frozenset(I), frozenset(J)


def mobius_ridge_arc(pair):
    """The ridge b-arc joining the ends of the cyclic pair (i, j): its polygon
    side runs from j back around to i."""
    return b_arc(pair[1], pair[0])


def every_mobius_stage_check(n, graph=None) -> set:
    """The Moebius-core stage check at every stage, one by one, with no lemma.

    At each stage (I, J) of `mobius_stages`, on `graph` (default: the
    disjointness graph of the Moebius crown), the dominated vertices must be
    exactly the loops M_j (j not in I) and the ridge b-arcs at the pairs
    inside I but not in J, each dominated by its witness: L_j, or the c-arc
    joining the pair.  Raises AssertionError at the first stage that breaks
    this; returns the set of every (I, J).
    """
    s = mobius_crown(n)
    graph = disjointness_graph(s) if graph is None else graph
    ids = arc_ids(s)
    stages = set()
    for I, J in mobius_stages(n):
        inside = [(i, i % n + 1) for i in I if i % n + 1 in I]
        removed = {ids[loop_b(j)] for j in I} | {ids[mobius_ridge_arc(p)] for p in J}
        alive = sum(1 << v for v in graph.vertices if v not in removed)
        dom = {v: intersecting_dominating_set(graph, alive, v)
               for v in graph.vertices if alive >> v & 1}
        expected = {ids[loop_b(j)]: ids[loop_c(j)] for j in range(1, n + 1) if j not in I}
        expected |= {ids[mobius_ridge_arc(p)]: ids[cc_arc(*p)] for p in inside if p not in J}
        assert {v for v, d in dom.items() if d} == set(expected), (I, J)
        assert all(dom[v] >> w & 1 for v, w in expected.items()), (I, J)
        stages.add((I, J))
    return stages


def facet_mobius_core_check(n) -> None:
    """The Moebius-core suite's cross-check on facets, which the graph checks replaced.

    The canonical core of the arc complex must take the graph core's steps
    and end at the complex on A minus D, with no vertex left dominated.
    """
    s = mobius_crown(n)
    graph = disjointness_graph(s)
    ids = arc_ids(s)
    D = [ids[loop_b(j)] for j in range(1, n + 1)]
    D += [ids[mobius_ridge_arc((i, i % n + 1))] for i in range(1, n + 1)]
    terminal, steps = core(arc_complex(s))
    assert steps == graph_core(graph)[1]
    assert terminal == induced_arc_complex(s, graph, D)
    assert dominated_vertices(terminal) == []


def factorwise_sapling_link_check(s, L, sap, ids) -> bool:
    """Whether the link L of the sapling `sap` splits into its tile factors,
    found by search: the Moebius-collapse check that the explicit tile maps
    replaced.

    Each b-arc of L must nest in exactly one sapling arc; each group must be
    isomorphic to the arc complex of its polygon tile, the c-arcs of L to the
    inner complex of the trunk, and L must be the join of all of them.
    `isomorphic` is a backtracking search gated to 25 vertices.
    """
    n = s.n
    arc_of = {i: a for a, i in ids.items()}
    groups = {b: [] for b in sap}
    c_vertices = []
    for v in L.vertex_ids:
        arc = arc_of[v]
        if arc.kind != "b":
            c_vertices.append(v)
            continue
        hosts = [b for b in sap if _nested_in(n, arc, b)]
        if len(hosts) != 1:
            return False
        groups[hosts[0]].append(v)
    factors = [restrict(L, groups[b]) for b in sap]
    trunk = restrict(L, c_vertices)
    deg = n + sum(1 - wrap_length(b, n) for b in sap)
    return (
        all(
            isomorphic(f, arc_complex(polygon(wrap_length(b, n) + 1)))
            for f, b in zip(factors, sap)
        )
        and isomorphic(trunk, inner_complex(mobius_crown(deg)))
        and join_all(factors + [trunk]) == L
    )


# --- the Moebius collapse on a FacetEditor: the path the graph suite replaced -------


def _tile(W: int, models: dict) -> tuple[Complex, list[Arc]]:
    """polygon(W+1)'s arc complex and its diagonals, built once per `models` dict."""
    if ("tile", W) not in models:
        tile = polygon(W + 1)
        models["tile", W] = arc_complex(tile), enumerate_arcs(tile)
    return models["tile", W]


def _trunk(deg: int, models: dict):
    """The inner complex of mobius_crown(deg), its c-arcs by id, and the
    `graph_core` of its graph, built once per `models` dict."""
    if ("trunk", deg) not in models:
        trunk = mobius_crown(deg)
        inner = inner_complex(trunk)
        c_arcs = [(v, c) for v, c in enumerate(enumerate_arcs(trunk)) if c.kind == CC_ARC]
        models["trunk", deg] = inner, c_arcs, graph_core(inner.graph)
    return models["trunk", deg]


def sapling_arc_map(n: int, sap: tuple[Arc, ...], ids: dict[Arc, int], models: dict):
    """The model key of a sapling's link and the arc map from the model's vertices.

    The tile under a sapling arc b spans W = wrap_length(b) boundary edges
    from p = b.a, and its diagonal d:i-j of polygon(W+1) is the b-arc from
    p+i-1 spanning j-i edges.  The trunk's boundary vertices o_1 < ... <
    o_deg are those strictly inside no sapling arc, and cc:i-j of its inner
    complex is cc(o_i, o_j).  The key is (the sorted wrap lengths, deg); the
    model's vertices are the tiles' diagonals in sorted-width order, then
    the trunk's c-arcs, each factor at its offset.
    """
    tiles = sorted(sap, key=lambda b: wrap_length(b, n))
    widths = tuple(wrap_length(b, n) for b in tiles)
    arc_map: dict[int, int] = {}
    for b, W in zip(tiles, widths):
        offset, diagonals = len(arc_map), _tile(W, models)[1]
        arc_map.update(
            (offset + v, ids[b_arc_from_wrap((b.a + d.a - 2) % n + 1, d.b - d.a, n)])
            for v, d in enumerate(diagonals)
        )
    o = [v for v in range(1, n + 1) if not any(_strictly_inside(n, v, b) for b in sap)]
    offset, c_arcs = len(arc_map), _trunk(len(o), models)[1]
    arc_map.update((offset + v, ids[cc_arc(o[c.a - 1], o[c.b - 1])]) for v, c in c_arcs)
    return (widths, len(o)), arc_map


def link_model(key, models: dict):
    """The model join J of `key` as a `Complex` built from the factors' facets,
    and its elementary collapse to a vertex, verified on J: the trunk's
    `graph_core`, then every tile vertex onto the trunk's last vertex w, each
    converted by `strong_to_elementary` and replayed by `verify_trace`."""
    widths, deg = key
    model = [list(widths), deg]
    factors: list[list[frozenset[int]]] = []
    labels: dict[int, str] = {}
    offset = 0
    for k, W in enumerate(widths):
        tile, diagonals = _tile(W, models)
        factors.append([frozenset(offset + v for v in f) for f in tile.facets])
        labels.update((offset + v, f"{k}.{label}") for v, label in tile.vertex_labels)
        offset += len(diagonals)
    trunk, _, (left, strong) = _trunk(deg, models)
    if left.bit_count() != 1:
        raise TheoremError(MOBIUS_COLLAPSE_CLAIM, "trunk inner complex is not strongly collapsible",
                           model=model)
    factors.append([frozenset(offset + v for v in f) for f in trunk.facets])
    labels.update((offset + v, label) for v, label in trunk.vertex_labels)
    J = _complex(labels, [frozenset().union(*parts) for parts in itertools.product(*factors)])
    w = offset + trunk.graph.vertices[left.bit_length() - 1]
    steps = [(offset + v, offset + u) for v, u in strong.steps]
    steps += [(x, w) for x in J.vertex_ids if x < offset]
    try:
        t = strong_to_elementary(J, StrongTrace(tuple(steps)))
    except ValueError as exc:
        raise TheoremError(MOBIUS_COLLAPSE_CLAIM, f"link model witness fails: {exc}",
                           model=model) from None
    verdict = verify_trace(J, t)
    if not (verdict.valid and verdict.terminal.n_vertices == 1):
        raise TheoremError(MOBIUS_COLLAPSE_CLAIM, "the model trace does not collapse its join to a vertex",
                           model=model, step=verdict.failed_step, reason=verdict.reason)
    return J, t


def sapling_link_length(s, link_facets: set, sap: tuple[Arc, ...], ids: dict[Arc, int],
                        models: dict) -> int:
    """Check a sapling's link, given by its facets, against its model join;
    returns the length of the model's collapse trace.  The arc map must be
    injective and carry the model's facets onto `link_facets` exactly."""
    key, arc_map = sapling_arc_map(s.n, sap, ids, models)
    if key not in models:
        J, t = link_model(key, models)
        models[key] = J.facets, len(t)
    facets, length = models[key]
    sapling = [b.label() for b in sap]
    if len(set(arc_map.values())) != len(arc_map):
        raise TheoremError(MOBIUS_COLLAPSE_CLAIM, "tile maps are not injective", sapling=sapling)
    if {frozenset(map(arc_map.__getitem__, f)) for f in facets} != link_facets:
        raise TheoremError(MOBIUS_COLLAPSE_CLAIM,
                           "link is not the join of its tile complexes under the arc maps",
                           sapling=sapling)
    return length


def editor_mobius_collapse(n: int) -> Report:
    """`thm_mobius_collapse` on the full complex's facets: a `FacetEditor`
    face-deletes each sapling after checking its link facet for facet against
    its model join, and what the rounds leave is checked the same way, as
    the empty sapling's link.  Same details as the suite."""
    s = mobius_crown(n)
    full = arc_complex(s)
    ids = arc_ids(s)
    Y = FacetEditor(full)
    models: dict = {}
    replayed = 0
    round_sizes: list[int] = []
    for deg in range(1, n):
        saps = saplings_of_degree(s, deg)
        round_sizes.append(len(saps))
        for s1, s2 in itertools.combinations(saps, 2):
            union = frozenset(ids[a] for a in s1) | frozenset(ids[a] for a in s2)
            if Y.star_mask(union):
                raise TheoremError(MOBIUS_COLLAPSE_CLAIM, "two same-round saplings span a common face",
                                   n=n, degree=deg, pair=[[a.label() for a in s1], [a.label() for a in s2]])
        for sap in saps:
            sap_ids = frozenset(ids[a] for a in sap)
            if not Y.star_mask(sap_ids):
                raise TheoremError(MOBIUS_COLLAPSE_CLAIM, "predicted sapling is not a face",
                                   n=n, degree=deg, sapling=[a.label() for a in sap])
            link_facets = {f - sap_ids for f in Y.containing(sap_ids)}
            replayed += sapling_link_length(s, link_facets, sap, ids, models) + 1
            Y.delete(sap_ids)
        if any(wrap_length(a, n) > n - deg for a in enumerate_arcs(s)
               if a.kind == B_ARC and Y.star_mask([ids[a]])):
            raise TheoremError(MOBIUS_COLLAPSE_CLAIM, "a b-arc scheduled for this round survived it",
                               n=n, degree=deg)
    replayed += sapling_link_length(s, set(Y.facets()), (), ids, models)
    return Report().add(MOBIUS_COLLAPSE_CLAIM, "mobius-collapse-to-point", n,
                        vertices=full.n_vertices, facets=len(full.facets), rounds=round_sizes,
                        trace_length=replayed)


def all_pairs_spanning_pair(masks: list[int], commons: list[int], free):
    """The same-round pair check by unions, the reference for
    `theorems._same_round_pair`: every pair i < j in order, its union tested
    against both masks' common rows and then by `free`; the first that
    passes, or None."""
    for i, (m1, c1) in enumerate(zip(masks, commons)):
        for j in range(i + 1, len(masks)):
            union = m1 | masks[j]
            if not union & ~(c1 & commons[j]) and free(union):
                return i, j
    return None


# --- scans and the set-indexed replayer that the facet-bitset index replaced ---


def scan_facets_containing(c, face) -> list:
    """The facets of c containing face, in facet order, by testing each one."""
    face = frozenset(face)
    return [f for f in c.facets if face <= f]


def or_loop_stars(c) -> dict[int, int]:
    """Vertex -> bitset of the facets through it, ORing in 1 << i facet by facet."""
    stars = {v: 0 for v in c.vertex_ids}
    for i, f in enumerate(c.facets):
        for v in f:
            stars[v] |= 1 << i
    return stars


def scan_is_cone(c):
    """The lowest vertex lying in every facet, or None, by intersecting them."""
    apexes = set.intersection(*map(set, c.facets))
    return min(apexes) if apexes else None


def scan_dominating_set(c, v) -> set:
    """The vertices other than v in every facet through v, by intersection."""
    stars = scan_facets_containing(c, [v])
    if not stars:
        raise ValueError(f"vertex {v} is not in the complex")
    return set.intersection(*map(set, stars)) - {v}


def scan_strong_to_elementary(c, t):
    """The elementary trace of the strong collapse t from c, by scanning every
    face of the complex at each step: for each (v, w), the faces with v and
    not w, each paired with itself plus w, larger faces first and then by
    sorted ids.  ValueError if a witness does not dominate its vertex."""
    steps = []
    for i, (v, w) in enumerate(t.steps):
        if w not in scan_dominating_set(c, v):
            raise ValueError(f"step {i}: vertex {v} is not dominated by {w}")
        with_v = sorted(
            (f for f in faces(c) if v in f and w not in f), key=lambda f: (-len(f), sorted(f))
        )
        steps.extend((f, f | {w}) for f in with_v)
        c = vertex_deletion(c, v)
    return trace(steps)


def scan_free_pairs(c) -> list:
    """Every (face, facet) with the nonempty face proper in that facet alone,
    larger faces first, then by sorted ids."""
    out = []
    for facet in c.facets:
        for r in range(1, len(facet)):
            for face in map(frozenset, itertools.combinations(sorted(facet), r)):
                if scan_facets_containing(c, face) == [facet]:
                    out.append((face, facet))
    return sorted(out, key=lambda p: (-len(p[0]), sorted(p[0]), sorted(p[1])))


def greedy_collapse(c):
    """Collapse c by the first pair of `scan_free_pairs`, the largest free
    face, until no face is free or one vertex is left: (steps, whether one
    vertex is left)."""
    steps = []
    while c.n_vertices != 1 and (pairs := scan_free_pairs(c)):
        steps.append(pairs[0])
        c = apply_collapse(c, *pairs[0])
    return steps, c.n_vertices == 1


class SetReplayer:
    """Facets in a set and a vertex -> set-of-facets index, copied in full
    per search child: the replayer that `FacetEditor` replaced."""

    def __init__(self, facets):
        self.facets = set(facets)
        self.by_vertex: dict = {}
        for f in self.facets:
            for v in f:
                self.by_vertex.setdefault(v, set()).add(f)

    def copy(self) -> "SetReplayer":
        return SetReplayer(self.facets)

    def containing(self, face) -> set:
        if not face:
            return set(self.facets)
        return set.intersection(*(self.by_vertex.get(v, set()) for v in face))

    def collapse(self, free, coface):
        """Apply one step; returns an error message or None."""
        if not free or not free < coface:
            return "free face must be a nonempty proper subset of its coface"
        stars = self.containing(free)
        if stars != {coface}:
            return (
                f"{sorted(free)} is not free with coface {sorted(coface)}; "
                f"containing facets: {sorted(map(sorted, stars))}"
            )
        self.facets.discard(coface)
        for v in coface:
            self.by_vertex[v].discard(coface)
        for v in free:
            piece = coface - {v}
            if not self.containing(piece):
                self.facets.add(piece)
                for u in piece:
                    self.by_vertex[u].add(piece)
        return None

    def codim1_moves(self) -> list:
        moves = [
            (facet - {v}, facet)
            for facet in self.facets
            if len(facet) >= 2
            for v in facet
            if self.containing(facet - {v}) == {facet}
        ]
        return sorted(moves, key=lambda p: (-len(p[0]), sorted(p[0]), sorted(p[1])))


def reference_verify_trace(c, steps):
    """Replay steps on c's facets: (valid, failed step, reason, final facets)."""
    rep = SetReplayer(c.facets)
    for i, (free, coface) in enumerate(steps):
        err = rep.collapse(free, coface)
        if err:
            return False, i, err, None
    return True, None, None, rep.facets


def reference_is_collapsible(c, budget: int):
    """The depth-first collapsibility search on `SetReplayer` states:
    (status, steps or None, nodes spent).  A cone gives ("proven", "cone",
    0), since the search proper never runs on one.  Each state reached for
    the first time spends one node, the start included."""
    if c.n_vertices == 0:
        return "disproven", None, 0
    if c.n_vertices == 1:
        return "proven", [], 0
    if scan_is_cone(c) is not None:
        return "proven", "cone", 0

    def state(rep):
        return tuple(sorted(tuple(sorted(f)) for f in rep.facets))

    root = SetReplayer(c.facets)
    seen = {state(root)}
    nodes = 1
    if nodes >= budget:
        return "inconclusive", None, nodes
    path: list = []

    def children(rep):
        for free, coface in rep.codim1_moves():
            child = rep.copy()
            child.collapse(free, coface)
            yield (free, coface), child

    stack = [children(root)]
    while stack:
        for move, child in stack[-1]:
            if len(child.facets) == 1 and len(next(iter(child.facets))) == 1:
                return "proven", path + [move], nodes
            key = state(child)
            if key in seen:
                continue
            seen.add(key)
            nodes += 1
            if nodes >= budget:
                return "inconclusive", None, nodes
            path.append(move)
            stack.append(children(child))
            break
        else:
            stack.pop()
            if path:
                path.pop()
    return "disproven", None, nodes


# --- helpers that no library code calls ----------------------------------------------


def restrict(c, keep):
    """Induced subcomplex on a vertex subset."""
    keep = frozenset(keep)
    labels = {v: l for v, l in c.vertex_labels if v in keep}
    return make_complex(labels, [f & keep for f in c.facets], c.surface)


def apply_collapse(c, free, coface):
    """c after the one collapse step (free, coface); ValueError if it is none."""
    verdict = verify_trace(c, trace([(free, coface)]))
    if not verdict.valid:
        raise ValueError(verdict.reason)
    return verdict.terminal


def remove_dominated(c, v):
    """c without v; ValueError unless some vertex dominates v."""
    if not dominating_set(c, v):
        raise ValueError(f"vertex {v} is not dominated")
    return vertex_deletion(c, v)


def join_lift_trace(x, t):
    """Lift a collapse of y to one of x * y, ending at x * (terminal of t).

    Each step (s, c) of t becomes the steps (f | s, f | c) over all faces f
    of x, the empty face included, in decreasing dimension of f.
    """
    xfaces = sorted(faces(x, include_empty=True), key=face_order)
    return trace((f | free, f | coface) for free, coface in t.steps for f in xfaces)


# --- the strong collapses that rebuilt a complex per removed vertex ----------------


def rebuilding_core(c, order="canonical", seed=0):
    """`core` by `vertex_deletion`, a new complex and star index per step."""
    pick = (lambda dom: dom[0]) if order == "canonical" else random.Random(seed).choice
    steps = []
    while dom := dominated_vertices(c):
        v, w = pick(dom)
        steps.append((v, w))
        c = vertex_deletion(c, v)
    return c, StrongTrace(tuple(steps))


def rescanning_core(c, order="canonical", seed=0):
    """`core` on one editor, with every vertex's dominating set rescanned each round."""
    pick = (lambda dom: dom[0]) if order == "canonical" else random.Random(seed).choice
    editor = FacetEditor(c)
    steps = []
    while dom := _dominated(editor.stars, editor.slots):
        v, w = pick(dom)
        steps.append((v, w))
        editor.delete(frozenset((v,)))
    return editor.to_complex(), StrongTrace(tuple(steps))


def _rebuilding_replay(c, t):
    """The complex before each step (v, w) of t from c, and the terminal;
    ValueError at the first step whose witness does not dominate v."""
    before = []
    for i, (v, w) in enumerate(t.steps):
        dom = dominating_set(c, v)
        if w not in dom:
            raise ValueError(
                f"step {i}: vertex {v} is not dominated by {w} "
                f"(dominating set {sorted(dom)})"
            )
        before.append(c)
        c = vertex_deletion(c, v)
    return before, c


def rebuilding_verify_strong_trace(c, t):
    """`verify_strong_trace` by `vertex_deletion` per step."""
    return _rebuilding_replay(c, t)[1]


def rebuilding_strong_to_elementary(c, t):
    """`strong_to_elementary` read off the star of each rebuilt complex."""
    steps = []
    for current, (v, w) in zip(_rebuilding_replay(c, t)[0], t.steps):
        with_v = set()
        for f in facets_containing(current, [v]):
            rest = f - {v, w}
            for k in range(len(rest) + 1):
                with_v.update(frozenset((v, *s)) for s in itertools.combinations(rest, k))
        steps.extend((f, f | {w}) for f in sorted(with_v, key=face_order))
    return trace(steps)


def intersecting_dominating_set(g, alive, i):
    """`graph_dominating_set` with no memo: N[i] & alive intersected with
    N[u] for every u in it, without i, recomputed at every call."""
    if not alive >> i & 1:
        raise ValueError(f"vertex position {i} is not alive")
    nbhds = g.closed_neighbourhoods
    mine = nbhds[i] & alive
    dom = mine
    for u in range(len(nbhds)):
        if mine >> u & 1:
            dom &= nbhds[u]
            if dom == 1 << i:
                break
    return dom & ~(1 << i)


def rescanning_graph_core(g, order="canonical", seed=0):
    """`graph_core` rescanning every alive vertex's dominating set each round."""
    pick = (lambda dom: dom[0]) if order == "canonical" else random.Random(seed).choice
    alive = (1 << len(g.vertices)) - 1
    steps = []
    while True:
        dom = []
        for i in range(len(g.vertices)):
            if alive >> i & 1 and (d := intersecting_dominating_set(g, alive, i)):
                dom.append((i, (d & -d).bit_length() - 1))
        if not dom:
            return alive, StrongTrace(tuple(steps))
        i, w = pick(dom)
        steps.append((g.vertices[i], g.vertices[w]))
        alive &= ~(1 << i)


# --- the facet checks that the strong suites' graph checks replaced ----------------


def only_facet_through(editor, v):
    """The facet of the editor through v when there is exactly one, else None:
    the inner-Moebius check `editor.containing([L]) == [fan]`."""
    through = editor.containing([v])
    return through[0] if len(through) == 1 else None


def closed_star(editor: FacetEditor, face: Iterable[int]) -> Complex:
    """The subcomplex generated by the editor's facets that contain `face`."""
    facets = editor.containing(face)
    return make_complex({v: editor.labels[v] for v in set().union(*facets)}, facets, editor.surface)


def link_apex(editor, v):
    """The strip's witness for v: `is_cone` of the link of v in its closed star
    when that link is one nonempty simplex, else None."""
    lk = link(closed_star(editor, [v]), [v])
    return is_cone(lk) if len(lk.facets) == 1 and lk.n_vertices >= 1 else None


# --- arc symmetries, sapling tests and constructors that only the tests use ---------


def rotated(s: SurfaceSpec, arc: Arc, shift: int = 1) -> Arc:
    """Shift all boundary labels by `shift` (mod n); not defined for strips."""
    if s.family == STRIP:
        raise ValueError("integral strips have no rotational symmetry")
    n = s.n

    def r(v: int) -> int:
        return (v + shift - 1) % n + 1

    if arc.kind == DIAG:
        return diag(r(arc.a), r(arc.b))
    if arc.kind == C_ARC:
        return c_arc(r(arc.a))
    if arc.kind == CC_ARC:
        return cc_arc(r(arc.a), r(arc.b))
    return b_arc(r(arc.a), r(arc.b))


def reflected(s: SurfaceSpec, arc: Arc) -> Arc:
    """Relabel v -> n+1-v (and i -> m+1-i on the blue row of a strip)."""
    n = s.n

    def r(v: int) -> int:
        return n + 1 - v

    if s.family == STRIP:
        return strip_arc(s.m + 1 - arc.a, r(arc.b))
    if arc.kind == DIAG:
        return diag(r(arc.a), r(arc.b))
    if arc.kind == C_ARC:
        return c_arc(r(arc.a))
    if arc.kind == CC_ARC:
        return cc_arc(r(arc.a), r(arc.b))
    # reflection reverses the boundary orientation, so the polygon side of
    # (p, q) becomes the clockwise interval from the image of q to the image
    # of p
    return b_arc(r(arc.b), r(arc.a))


def _nested_in(n: int, inner: Arc, outer: Arc) -> bool:
    """Whether inner's polygon side sits inside outer's (for disjoint arcs)."""
    pi, wi = (inner.a - 1) % n, wrap_length(inner, n)
    po, wo = (outer.a - 1) % n, wrap_length(outer, n)
    if (pi, wi) == (po, wo):
        return False
    for k in (-1, 0, 1):
        if po <= pi + k * n and pi + wi + k * n <= po + wo:
            return True
    return False


def pair_test_saplings_of_degree(s: SurfaceSpec, deg: int) -> list[tuple[Arc, ...]]:
    """`saplings_of_degree` as it was before the boundary-edge masks: each
    candidate b-arc is tested against every chosen one with `disjoint` and
    `_nested_in` both ways."""
    n = s.n
    barcs = [a for a in enumerate_arcs(s) if a.kind == B_ARC]
    target = n - deg  # required sum of (wrap - 1); the empty face is no sapling
    if target <= 0:
        return []
    out: list[tuple[Arc, ...]] = []

    def extend(start: int, chosen: list[Arc], remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(chosen))
            return
        for idx in range(start, len(barcs)):
            cand = barcs[idx]
            w = wrap_length(cand, n)
            if w - 1 > remaining:
                continue
            if all(
                disjoint(s, cand, prev)
                and not _nested_in(n, cand, prev)
                and not _nested_in(n, prev, cand)
                for prev in chosen
            ):
                chosen.append(cand)
                extend(idx + 1, chosen, remaining - (w - 1))
                chosen.pop()

    extend(0, [], target)
    return out


def _branches(s: SurfaceSpec, arcs) -> list[Arc]:
    """The outermost b-arcs of a face of a crown's arc complex.

    Every arc is validated and every pair tested for disjointness first, so a
    set of arcs that is not a face raises ValueError.  c-arcs live in the
    trunk of the tile tree, so they are checked but bound no branch.
    """
    if s.family not in (CROWN, MOBIUS):
        raise ValueError("tile trees are defined for crowns")
    arcs = sorted(set(arcs))
    for a in arcs:
        validate_arc(s, a)
    for x, y in itertools.combinations(arcs, 2):
        if not disjoint(s, x, y):
            raise ValueError(f"{x.label()} and {y.label()} intersect; not a face")
    barcs = [a for a in arcs if a.kind == B_ARC]
    return [x for x in barcs if not any(_nested_in(s.n, x, y) for y in barcs)]


def degree(s: SurfaceSpec, arcs) -> int:
    """Degree of a face: its branches plus its roots, the boundary edges
    (p, p+1) that no branch covers."""
    n = s.n
    branches = _branches(s, arcs)
    covered = {(x.a - 1 + t) % n for x in branches for t in range(wrap_length(x, n))}
    return len(branches) + n - len(covered)


def is_sapling(s: SurfaceSpec, arcs) -> bool:
    """Whether a boundary simplex has no nesting among its b-arcs."""
    arcs = sorted(set(arcs))
    if any(a.kind != B_ARC for a in arcs):
        raise ValueError("saplings are boundary simplices (b-arcs only)")
    if not arcs:
        raise ValueError("the empty face is not a sapling")
    return len(_branches(s, arcs)) == len(arcs)


def make_graph(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> Graph:
    vs = tuple(sorted(set(vertices)))
    vset = set(vs)
    es = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge at {u}")
        if u not in vset or v not in vset:
            raise ValueError(f"edge ({u},{v}) uses an undeclared vertex")
        es.add((min(u, v), max(u, v)))
    position = {v: i for i, v in enumerate(vs)}
    rows = [1 << i for i in range(len(vs))]
    for u, v in es:
        rows[position[u]] |= 1 << position[v]
        rows[position[v]] |= 1 << position[u]
    return Graph(vs, tuple(rows))


def point_complex(v: int, label: str) -> Complex:
    return make_complex({v: label}, [[v]])
