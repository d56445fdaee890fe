import gc
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arclab.arcs import crown, integral_strip, mobius_crown, polygon
from arclab.build import arc_complex, disjointness_graph, inner_complex
from arclab.certify import flip_graph
from arclab.simplicial import (
    _complex,
    clique_counts,
    complex_from_json,
    complex_to_json,
    count_max_cliques,
    dimension,
    dumps_canonical,
    empty_complex,
    euler_characteristic,
    f_vector,
    face_deletion,
    facets_containing,
    flag_complex,
    graph_to_dot,
    is_cone,
    isomorphic,
    join,
    join_all,
    link,
    loads_complex,
    make_complex,
    max_cliques,
    surface_from_json,
    vertex_deletion,
)
from oracles import (
    adjacency,
    brute_force_faces,
    catalan,
    euler_by_inclusion_exclusion,
    SetReplayer,
    make_graph,
    maximal_faces,
    naive_max_cliques,
    or_loop_stars,
    point_complex,
    reference_is_collapsible,
    reference_verify_trace,
    restrict,
    scan_dominating_set,
    scan_facets_containing,
    scan_is_cone,
)


def simple_labels(ids):
    return {v: f"v{v}" for v in ids}


def complex_from_facets(facets):
    ids = set().union(*[set(f) for f in facets]) if facets else set()
    return make_complex(simple_labels(ids), facets)


# hypothesis strategy: small random complexes given by facet candidates
facet_strategy = st.lists(
    st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)


# --- construction ----------------------------------------------------------------


def test_flag_complex_of_mobius_two_is_a_path(complex_of):
    c = complex_of("mobius", 2)
    labels = c.labels
    facet_labels = {frozenset(labels[v] for v in f) for f in c.facets}
    assert facet_labels == {
        frozenset({"M:1", "L:1"}),
        frozenset({"L:1", "cc:1-2"}),
        frozenset({"cc:1-2", "L:2"}),
        frozenset({"L:2", "M:2"}),
    }


def test_flag_complex_of_empty_graph_is_isolated_vertices():
    g = make_graph(range(4), [])
    c = flag_complex(g)
    assert sorted(map(sorted, c.facets)) == [[0], [1], [2], [3]]


def test_hexagon_complex_has_catalan_facets(complex_of):
    c = complex_of("polygon", 6)
    assert len(c.facets) == catalan(4) == 14


@pytest.mark.parametrize("n", range(4, 9))
def test_polygon_facet_counts_match_catalan(n, complex_of):
    assert len(complex_of("polygon", n).facets) == catalan(n - 2)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (5, 5), (2, 7)])
def test_strip_facet_counts_are_lattice_paths(m, n, complex_of):
    # triangulations of the strip are monotone staircases: binomial count
    from math import comb

    assert len(complex_of("strip", n, m).facets) == comb(m + n - 2, m - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_crown_facet_counts_follow_the_closed_form(n, complex_of):
    # regression gate: 1, 3, 10, 35, 126, 462 = C(2n-1, n-1)
    from math import comb

    assert len(complex_of("crown", n).facets) == comb(2 * n - 1, n - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_mobius_facet_counts_are_powers_of_four(n, complex_of):
    # regression gate: the full complex has 4^(n-1) facets
    assert len(complex_of("mobius", n).facets) == 4 ** (n - 1)


def test_max_cliques_against_naive_enumeration():
    # a fixed awkward graph plus the mobius(3) disjointness graph
    g = make_graph(range(6), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (5, 0)])
    assert set(max_cliques(g)) == naive_max_cliques(g.vertices, g.edges)
    g2 = disjointness_graph(mobius_crown(3))
    assert set(max_cliques(g2)) == naive_max_cliques(g2.vertices, g2.edges)


@st.composite
def sparse_graphs(draw):
    """A random graph on up to 9 vertices with non-contiguous ids."""
    ids = sorted(draw(st.sets(st.integers(min_value=-20, max_value=60), max_size=9)))
    pairs = list(itertools.combinations(ids, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(ids, [p for p, k in zip(pairs, keep) if k])


@settings(max_examples=200, deadline=None)
@given(sparse_graphs())
def test_max_cliques_matches_naive_enumeration_once_each(g):
    cliques = max_cliques(g)
    assert len(cliques) == len(set(cliques))
    assert set(cliques) == naive_max_cliques(g.vertices, g.edges)


@st.composite
def sparse_edge_lists(draw):
    """Up to 9 non-contiguous vertex ids and an edge list over them, with repeats
    and both orientations of a pair."""
    ids = sorted(draw(st.sets(st.integers(min_value=-20, max_value=60), max_size=9)))
    if len(ids) < 2:
        return ids, []
    pair = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True).map(tuple)
    return ids, draw(st.lists(pair, max_size=20))


@settings(max_examples=200, deadline=None)
@given(sparse_edge_lists())
@example(([], []))
@example(([-3, 5, 40], [(40, -3), (-3, 40)]))  # 5 is isolated
def test_edges_are_read_off_the_rows_sorted_and_deduplicated(case):
    ids, es = case
    g = make_graph(ids, es)
    assert g.vertices == tuple(ids)
    assert g.edges == sorted({(min(e), max(e)) for e in es})


@st.composite
def dense_graphs(draw):
    """A random graph on up to 14 vertices with non-contiguous ids and any density."""
    ids = sorted(draw(st.sets(st.integers(min_value=-20, max_value=60), max_size=14)))
    pairs = list(itertools.combinations(ids, 2))
    density = draw(st.floats(0, 1))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(ids, [p for p, k in zip(pairs, keep) if k < density])


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_graphs(), dense_graphs()))
def test_clique_count_f_vectors_match_the_facet_walk(g):
    c = flag_complex(g)
    walked = _complex(c.labels, c.facets)  # the same complex with no graph kept
    assert c.graph is g and walked.graph is None and walked == c
    assert c.f_vector == clique_counts(g) == walked.f_vector


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_graphs(), dense_graphs()))
@example(make_graph([], []))
def test_counted_max_cliques_are_the_listed_ones(g):
    assert count_max_cliques(g) == len(max_cliques(g))


def test_count_max_cliques_leaves_no_reference_cycle():
    g = make_graph(range(5), [(0, 1), (1, 2), (2, 0), (3, 4)])
    gc.collect()
    gc.disable()
    try:
        assert count_max_cliques(g) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_max_cliques_leaves_no_reference_cycle():
    """The cliques go as soon as the caller drops them, not at the next collection."""
    g = make_graph(range(5), [(0, 1), (1, 2), (2, 0), (3, 4)])
    gc.collect()
    gc.disable()
    try:
        assert len(max_cliques(g)) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def overlapping_triangles(t):
    """t facets {i, i + 1, i + 2}, so each vertex's star spans up to 3 of them."""
    return complex_from_facets([{i, i + 1, i + 2} for i in range(t)])


@pytest.mark.parametrize("t", [1, 7, 8, 9, 16, 17])
def test_stars_match_the_or_loop_across_byte_boundaries(t):
    c = overlapping_triangles(t)
    assert len(c.facets) == t
    assert c.stars == or_loop_stars(c)


def test_stars_of_the_empty_complex_and_of_arc_complexes(complex_of):
    assert empty_complex().stars == or_loop_stars(empty_complex()) == {}
    for family, n in [("polygon", 7), ("crown", 5), ("mobius", 4), ("inner-mobius", 5)]:
        c = complex_of(family, n)
        assert c.stars == or_loop_stars(c)


def test_flag_complex_faces_are_graph_cliques(complex_of):
    s = mobius_crown(3)
    g = disjointness_graph(s)
    adj = adjacency(g.vertices, g.edges)
    c = complex_of("mobius", 3)
    for f in c.facets:
        for u, v in itertools.combinations(sorted(f), 2):
            assert v in adj[u]


# --- link, deletion, join ----------------------------------------------------------


def test_link_of_crown_loop_is_cone_over_pentagon_complex(complex_of):
    c = complex_of("crown", 4)
    ids = {label: v for v, label in c.vertex_labels}
    lk = link(c, [ids["M:1"]])
    apex = is_cone(lk)
    assert apex is not None and lk.label(apex) == "c:1"
    base = restrict(lk, set(lk.vertex_ids) - {apex})
    assert f_vector(base) == [5, 5]  # a 5-cycle


def test_link_of_facet_is_empty_complex(complex_of):
    c = complex_of("polygon", 5)
    lk = link(c, c.facets[0])
    assert lk.n_vertices == 0 and dimension(lk) == -1


def test_link_of_mobius_core_loop_is_polygon_sphere(complex_of):
    c = complex_of("mobius", 4)
    ids = {label: v for v, label in c.vertex_labels}
    lk = link(c, [ids["L:1"]])
    assert isomorphic(lk, arc_complex(polygon(6)))


def test_link_requires_a_face(complex_of):
    c = complex_of("polygon", 4)
    with pytest.raises(ValueError):
        link(c, c.vertex_ids[:2])  # the two diagonals cross


def test_face_deletion_drops_star_only():
    c = complex_from_facets([[0, 1, 2], [1, 2, 3]])
    d = face_deletion(c, [1, 2])
    assert set(map(frozenset, [(0, 1), (0, 2), (1, 3), (2, 3)])) == set(d.facets)


def test_deleting_free_vertex_of_edge():
    c = complex_from_facets([[0, 1]])
    d = vertex_deletion(c, 0)
    assert d.facets == (frozenset([1]),)


def test_deletion_never_increases_dimension():
    c = complex_from_facets([[0, 1, 2], [2, 3], [4]])
    for v in c.vertex_ids:
        assert dimension(vertex_deletion(c, v)) <= dimension(c)


def test_deletion_of_absent_face_rejected():
    c = complex_from_facets([[0, 1]])
    with pytest.raises(ValueError):
        face_deletion(c, [5])


def test_join_point_is_cone():
    base = complex_from_facets([[0, 1], [2, 3]])
    apex = point_complex(9, "apex")
    coned = join(base, apex)
    assert is_cone(base) is None
    assert is_cone(coned) == 9


def test_join_label_collision_rejected():
    a = point_complex(0, "x")
    b = point_complex(1, "x")
    with pytest.raises(ValueError):
        join(a, b)


def test_join_pentagon_complex_with_point_f_vector(complex_of):
    c = complex_of("polygon", 5)
    coned = join(c, point_complex(99, "apex"))
    assert f_vector(coned) == [6, 10, 5]


def test_join_of_strongly_collapsible_factors_is_strongly_collapsible(complex_of):
    from arclab.strong import core

    a = complex_of("crown", 3)
    b = arc_complex(crown(2))
    shifted = make_complex(
        {v + 100: "b" + l for v, l in b.vertex_labels},
        [[v + 100 for v in f] for f in b.facets],
    )
    assert core(a)[0].n_vertices == core(shifted)[0].n_vertices == 1
    assert core(join(a, shifted))[0].n_vertices == 1


@settings(max_examples=60, deadline=None)
@given(facet_strategy, facet_strategy)
def test_link_join_duality(f1, f2):
    x = complex_from_facets(f1)
    y_ids = {v + 10 for f in f2 for v in f}
    y = make_complex(simple_labels(y_ids), [[v + 10 for v in f] for f in f2])
    sigma = set(x.facets[0])
    lhs = link(join(x, y), sigma)
    rhs = join_all([link(x, sigma), y])
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(facet_strategy, st.integers(min_value=0, max_value=7))
def test_vertex_deletion_star_round_trip(facets, v):
    c = complex_from_facets(facets)
    if v not in c.vertex_ids:
        return
    star = facets_containing(c, [v])
    d = vertex_deletion(c, v)
    rebuilt_faces = list(d.facets) + list(star)
    rebuilt = make_complex(c.labels, rebuilt_faces)
    assert rebuilt == c


# --- facets stay an antichain without re-pruning ------------------------------------


@st.composite
def graphs(draw, offset=0):
    """A random graph on 1..7 vertices numbered from offset."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(offset, offset + n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(range(offset, offset + n), [p for p, k in zip(pairs, keep) if k])


def assert_prunes_to(c, labels, faces):
    """c is the complex of the maximal faces among faces, in canonical order."""
    expected = maximal_faces(faces)
    assert list(c.facets) == sorted(expected, key=sorted)
    used = set().union(*expected)
    assert c.vertex_labels == tuple((v, labels[v]) for v in sorted(used))


@settings(max_examples=150, deadline=None)
@given(graphs(), graphs(offset=10), st.data())
def test_operations_match_oracle_pruning(g, h, data):
    from arclab.collapse import verify_trace
    from arclab.strong import core, strong_to_elementary

    c = flag_complex(g)
    labels = c.labels
    adj = adjacency(g.vertices, g.edges)
    cliques = [
        k
        for r in range(1, len(g.vertices) + 1)
        for k in itertools.combinations(g.vertices, r)
        if all(b in adj[a] for a, b in itertools.combinations(k, 2))
    ]
    assert_prunes_to(c, labels, cliques)

    faces_c = brute_force_faces(c.facets)
    facet = data.draw(st.sampled_from(c.facets))
    sigma = frozenset(data.draw(st.sets(st.sampled_from(sorted(facet)), min_size=1)))
    assert_prunes_to(link(c, sigma), labels, [f - sigma for f in faces_c if sigma <= f])
    assert_prunes_to(face_deletion(c, sigma), labels, [f for f in faces_c if not sigma <= f])
    v = data.draw(st.sampled_from(c.vertex_ids))
    assert_prunes_to(vertex_deletion(c, v), labels, [f for f in faces_c if v not in f])
    keep = data.draw(st.sets(st.integers(min_value=0, max_value=8)))
    assert_prunes_to(restrict(c, keep), labels, [f for f in faces_c if f <= keep])

    d = flag_complex(h, {v: f"w{v}" for v in h.vertices})
    both = {**labels, **d.labels}
    faces_d = brute_force_faces(d.facets)
    joined = [f | e for f in faces_c | {frozenset()} for e in faces_d | {frozenset()}]
    assert_prunes_to(join(c, d), both, joined)

    terminal, strong = core(c)
    removed = {u for u, _ in strong.steps}
    verdict = verify_trace(c, strong_to_elementary(c, strong))
    assert verdict.valid and verdict.terminal == terminal
    assert_prunes_to(verdict.terminal, labels, [f for f in faces_c if not f & removed])


# --- the facet-bitset index against the scans it replaced ------------------------


def trace_steps(data, c, count):
    """A random trace for c.  Each step is a free pair of the state the steps
    so far reach, a facet of that state with a proper part of it that may
    lie in other facets too, or an arbitrary pair of vertex sets."""
    rep = SetReplayer(c.facets)
    vertex = st.integers(min_value=0, max_value=8)
    steps = []
    for _ in range(count):
        kind = data.draw(st.integers(min_value=0, max_value=3))
        facets = sorted(rep.facets, key=sorted)
        moves = rep.codim1_moves()
        if kind >= 2 and moves:
            free, coface = data.draw(st.sampled_from(moves))
        elif kind == 1 and facets:
            coface = data.draw(st.sampled_from(facets))
            free = frozenset(data.draw(st.sets(st.sampled_from(sorted(coface)), min_size=1)))
        else:
            free = frozenset(data.draw(st.sets(vertex, max_size=3)))
            coface = free | data.draw(st.sets(vertex, max_size=2))
        rep.collapse(free, coface)
        steps.append((free, coface))
    return steps


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=4), min_size=1, max_size=9),
    st.data(),
)
def test_star_index_matches_the_scans(facets, data):
    """Star queries, deletions, replays and the collapsibility search on the
    index give what the scans and the set-indexed replayer give, on random
    complexes that need not be flag complexes."""
    from arclab.collapse import cone_collapse_trace, is_collapsible, trace, verify_trace
    from arclab.strong import dominating_set

    c = complex_from_facets(facets)
    faces_c = brute_force_faces(c.facets)
    others = data.draw(st.lists(st.sets(st.integers(min_value=0, max_value=8), max_size=3)))
    for face in sorted(faces_c, key=sorted) + [frozenset(f) for f in others]:
        expected = scan_facets_containing(c, face)
        assert c.star_mask(face) == sum(1 << i for i, f in enumerate(c.facets) if f in expected)
        assert facets_containing(c, face) == expected
    assert is_cone(c) == scan_is_cone(c)
    for v in c.vertex_ids:
        assert dominating_set(c, v) == scan_dominating_set(c, v)

    sigma = data.draw(st.sampled_from(sorted(faces_c, key=sorted)))
    assert_prunes_to(face_deletion(c, sigma), c.labels, [f for f in faces_c if not sigma <= f])
    missing = frozenset(data.draw(st.sets(st.integers(min_value=0, max_value=8), min_size=1)))
    if missing not in faces_c:
        with pytest.raises(ValueError):
            face_deletion(c, missing)

    steps = trace_steps(data, c, data.draw(st.integers(min_value=1, max_value=8)))
    verdict = verify_trace(c, trace(steps))
    valid, failed_step, reason, terminal = reference_verify_trace(c, steps)
    assert (verdict.valid, verdict.failed_step, verdict.reason) == (valid, failed_step, reason)
    if valid:
        assert_prunes_to(verdict.terminal, c.labels, terminal)

    budget = data.draw(st.sampled_from([1, 2, 5, 20, 1000]))
    result = is_collapsible(c, budget)
    status, expected_steps, nodes = reference_is_collapsible(c, budget)
    if euler_by_inclusion_exclusion(c.facets) != 1:
        # a collapse keeps chi and a point has chi = 1: the search is skipped
        assert (result.status, result.nodes, result.trace) == ("disproven", 0, None)
        assert status != "proven"
        return
    assert (result.status, result.nodes) == (status, nodes)
    if expected_steps == "cone":
        assert result.trace == cone_collapse_trace(c)
    elif expected_steps is None:
        assert result.trace is None
    else:
        assert result.trace == trace(expected_steps)


def test_antichain_operations_never_prune(monkeypatch):
    """Flag complexes, links, joins and collapse replays skip the pruning pass."""
    from arclab import simplicial
    from arclab.collapse import cone_collapse_trace, verify_trace
    from arclab.strong import core, strong_to_elementary

    apex = point_complex(1000, "apex")

    def no_pruning(faces):
        raise AssertionError("pruned faces that are already an antichain")

    monkeypatch.setattr(simplicial, "_maximal_faces", no_pruning)
    with pytest.raises(AssertionError):
        make_complex({0: "a"}, [[0]])  # the patch is in force

    c = arc_complex(mobius_crown(4))
    lk = link(c, [c.vertex_ids[0]])
    cone = join(lk, apex)
    verdict = verify_trace(cone, cone_collapse_trace(cone))
    assert verdict.valid and verdict.terminal.vertex_ids == (1000,)
    terminal, strong = core(c)
    verdict = verify_trace(c, strong_to_elementary(c, strong))
    assert verdict.valid and verdict.terminal == terminal


# --- numeric invariants ----------------------------------------------------------


def test_pentagon_complex_is_a_circle(complex_of):
    c = complex_of("polygon", 5)
    assert f_vector(c) == [5, 5]
    assert euler_characteristic(c) == 0


def test_single_vertex_f_vector():
    c = point_complex(0, "v")
    assert f_vector(c) == [1]
    assert euler_characteristic(c) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_crown_complexes_have_euler_characteristic_one(n, complex_of):
    assert euler_characteristic(complex_of("crown", n)) == 1


@settings(max_examples=60, deadline=None)
@given(facet_strategy)
def test_euler_characteristic_matches_inclusion_exclusion(facets):
    c = complex_from_facets(facets)
    assert euler_characteristic(c) == euler_by_inclusion_exclusion(c.facets)


@settings(max_examples=60, deadline=None)
@given(facet_strategy)
def test_f_vector_matches_brute_force_faces(facets):
    c = complex_from_facets(facets)
    brute = brute_force_faces(c.facets)
    fv = f_vector(c)
    assert sum(fv) == len(brute)
    for k, count in enumerate(fv):
        assert count == sum(1 for f in brute if len(f) == k + 1)


def brute_force_f_vector(c):
    brute = brute_force_faces(c.facets)
    return [sum(1 for f in brute if len(f) == k) for k in range(1, max(map(len, brute), default=0) + 1)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=7),
                min_size=1, max_size=12))
def test_the_cached_f_vector_matches_brute_force_faces_on_wide_facets(facets):
    c = complex_from_facets(facets)
    fv = f_vector(c)
    assert fv == brute_force_f_vector(c)
    fv.append(0)  # a copy: the cached counts and equality are untouched
    assert f_vector(c) == brute_force_f_vector(c)
    assert c == complex_from_facets(facets)


@pytest.mark.parametrize("family,n", [("polygon", 8), ("crown", 5), ("mobius", 4), ("inner-mobius", 5)])
def test_f_vector_of_arc_complexes_matches_brute_force_faces(family, n, complex_of):
    assert f_vector(complex_of(family, n)) == brute_force_f_vector(complex_of(family, n))


def test_the_empty_complex_has_no_faces():
    c = make_complex({}, [])
    assert f_vector(c) == [] and euler_characteristic(c) == 0


# --- cones ------------------------------------------------------------------------


def test_inner_crown_complex_is_a_cone(complex_of):
    inner = inner_complex(crown(5))
    assert len(inner.facets) == 1
    assert is_cone(inner) is not None


@pytest.mark.parametrize("n", range(4, 7))
def test_inner_mobius_complex_is_not_a_cone(n):
    assert is_cone(inner_complex(mobius_crown(n))) is None


def test_single_vertex_is_its_own_apex():
    assert is_cone(point_complex(3, "v")) == 3


# --- dual graphs and isomorphism ---------------------------------------------------


def test_hexagon_dual_graph_is_the_associahedron_skeleton(complex_of):
    g = flip_graph(complex_of("polygon", 6))
    assert len(g.vertices) == 14
    assert len(g.edges) == 21


def test_mobius_two_dual_graph_is_a_path(complex_of):
    g = flip_graph(complex_of("mobius", 2))
    degrees = sorted(len(v) for v in adjacency(g.vertices, g.edges).values())
    assert len(g.vertices) == 4 and degrees == [1, 1, 2, 2]


def test_dual_graph_requires_pure():
    c = complex_from_facets([[0, 1, 2], [3, 4]])
    with pytest.raises(ValueError):
        flip_graph(c)


def test_isomorphic_to_relabeled_self(complex_of):
    c = complex_of("crown", 3)
    perm = {v: (v * 7 + 3) % 97 for v in c.vertex_ids}
    relabeled = make_complex(
        {perm[v]: f"x{perm[v]}" for v in c.vertex_ids},
        [[perm[v] for v in f] for f in c.facets],
    )
    assert isomorphic(c, relabeled)


def test_isomorphic_distinguishes_path_from_star():
    path = complex_from_facets([[0, 1], [1, 2], [2, 3]])
    star = complex_from_facets([[0, 1], [0, 2], [0, 3]])
    assert not isomorphic(path, star)


def test_isomorphic_gate():
    big = complex_from_facets([[i, i + 1] for i in range(30)])
    with pytest.raises(ValueError):
        isomorphic(big, big)


# --- serialization ------------------------------------------------------------------


def test_json_round_trip_is_byte_identical(complex_of):
    c = complex_of("mobius", 3)
    text = dumps_canonical(c)
    again = dumps_canonical(loads_complex(text))
    assert text == again


def test_json_surface_round_trip(complex_of):
    c = complex_of("strip", 2, 3)
    d = complex_to_json(c)
    c2 = complex_from_json(json.loads(json.dumps(d)))
    assert c2 == c and c2.surface == c.surface


def test_json_errors_carry_paths():
    with pytest.raises(ValueError, match="facets"):
        complex_from_json({"vertices": [{"id": 0, "label": "a"}], "facets": [[1]]})
    with pytest.raises(ValueError, match=r"vertices\[1\]"):
        complex_from_json(
            {"vertices": [{"id": 0, "label": "a"}, {"id": 0}], "facets": [[0]]}
        )


@pytest.mark.parametrize("d,message", [
    ({"vertices": 5, "facets": []}, "vertices must be a list"),
    ({"vertices": [], "facets": 7}, "facets must be a list"),
    ({"vertices": [{"id": 0, "label": "a"}], "facets": [[0, 0]]}, r"facets\[0\]: .* distinct"),
])
def test_json_rejects_non_lists_and_repeated_facet_ids(d, message):
    with pytest.raises(ValueError, match=message):
        complex_from_json(d)


def test_json_rejects_boolean_vertex_ids():
    with pytest.raises(ValueError, match=r"vertices\[0\]"):
        complex_from_json({"vertices": [{"id": True, "label": "a"}], "facets": [[True]]})
    with pytest.raises(ValueError, match=r"facets\[0\]"):
        complex_from_json({"vertices": [{"id": 1, "label": "a"}], "facets": [[True]]})


def test_json_strip_surface_requires_m():
    with pytest.raises(ValueError, match="strip needs"):
        surface_from_json({"family": "strip", "n": 3})
    with pytest.raises(ValueError, match="single vertex count"):
        surface_from_json({"family": "polygon", "n": 5, "m": 2})
    assert surface_from_json({"family": "strip", "n": 3, "m": 2}) == integral_strip(2, 3)


def test_uncovered_vertex_rejected():
    with pytest.raises(ValueError, match="no maximal face"):
        make_complex({0: "a", 1: "b"}, [[0]])


def test_dot_escapes_backslashes_before_quotes():
    g = make_graph([0, 1], [(0, 1)])
    dot = graph_to_dot(g, {0: "a\\", 1: 'b"c\\"'})
    assert dot == (
        "graph arcs {\n"
        '  "a\\\\";\n'
        '  "b\\"c\\\\\\"";\n'
        '  "a\\\\" -- "b\\"c\\\\\\"";\n'
        "}\n"
    )
