import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arclab import certify as certify_module
from arclab.certify import (
    PM_BOUNDARY,
    PM_CLOSED,
    PM_NO,
    RULE_DANARAJ_KLEE,
    RULE_WHITEHEAD,
    ShellingResult,
    certify,
    flip_graph,
    graph_diameter,
    is_connected,
    pseudomanifold_check,
    shelling_search,
    validate_shelling,
)
from arclab.collapse import DEFAULT_BUDGET, DISPROVEN, INCONCLUSIVE, PROVEN, is_collapsible
from arclab.simplicial import (
    dumps_canonical,
    euler_characteristic,
    link,
    loads_complex,
    make_complex,
)
from oracles import (
    bfs_is_connected,
    floyd_warshall_diameter,
    make_graph,
    pairwise_validate_shelling,
    reference_shelling_search,
    ridge_dict_dual_edges,
    ridge_dict_neighbours,
    ridge_dict_pseudomanifold_check,
)

def labeled(facets):
    ids = {v for f in facets for v in f}
    return make_complex({v: f"v{v}" for v in ids}, facets)

# --- pseudomanifolds ---------------------------------------------------------------

@pytest.mark.parametrize("family,n", [("polygon", 7), ("crown", 4), ("mobius", 3), ("inner-mobius", 5)])
def test_a_json_round_trip_drops_the_graph_but_not_the_f_vector_or_the_certificate(
    family, n, complex_of
):
    c = complex_of(family, n)
    loaded = loads_complex(dumps_canonical(c))
    assert c.graph is not None and loaded.graph is None and loaded == c
    assert loaded.f_vector == c.f_vector
    assert certify(loaded) == certify(c)

def test_hexagon_complex_is_a_closed_pseudomanifold(complex_of):
    report = pseudomanifold_check(complex_of("polygon", 6))
    assert report.status == PM_CLOSED and report.strongly_connected
    assert report.boundary == ()

def test_crown_complex_has_boundary(complex_of):
    report = pseudomanifold_check(complex_of("crown", 4))
    assert report.status == PM_BOUNDARY and report.strongly_connected

def test_two_triangles_sharing_a_vertex_not_strongly_connected():
    report = pseudomanifold_check(labeled([[0, 1, 2], [2, 3, 4]]))
    assert report.status == PM_NO and not report.strongly_connected

def test_pseudomanifold_check_requires_pure():
    with pytest.raises(ValueError):
        pseudomanifold_check(labeled([[0, 1, 2], [3, 4]]))

# --- shellings ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(4, 9))
def test_polygon_complex_is_shellable(n, complex_of):
    c = complex_of("polygon", n)
    result = shelling_search(c)
    assert result.status == PROVEN
    assert validate_shelling(c, result.order)

@pytest.mark.parametrize("n", range(2, 6))
def test_mobius_complex_is_shellable(n, complex_of):
    c = complex_of("mobius", n)
    result = shelling_search(c)
    assert result.status == PROVEN
    assert validate_shelling(c, result.order)

@pytest.mark.parametrize(
    "family,n",
    [("polygon", n) for n in range(4, 10)]
    + [("crown", n) for n in range(2, 7)]
    + [("mobius", n) for n in range(2, 6)]
    + [("inner-mobius", n) for n in range(2, 6)],
)
def test_shelling_search_matches_reference(family, n, complex_of):
    c = complex_of(family, n)
    result = shelling_search(c)
    assert (result.status, result.order, result.nodes) == reference_shelling_search(
        c, DEFAULT_BUDGET
    )

@st.composite
def pure_complexes(draw, min_dim=1, max_facets=14):
    d = draw(st.integers(min_value=min_dim, max_value=3))
    facets = draw(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=7), min_size=d + 1, max_size=d + 1),
            min_size=1,
            max_size=max_facets,
            unique=True,
        )
    )
    return labeled(facets)

@settings(max_examples=300, deadline=None)
@given(pure_complexes(min_dim=0, max_facets=10))
@example(labeled([[0]]))
@example(labeled([[0], [1], [2]]))  # the ridge {} lies in three facets
@example(labeled([[0, 1, 2], [2, 3, 4]]))  # the bowtie
@example(make_complex({}, []))  # the empty facet's one ridge {} is boundary
def test_ridge_neighbours_match_the_ridge_dict(c):
    """The ridge table read off the stars, and the checks that read it, give
    what the frozenset ridge dictionary gives."""
    assert [{v: set(others) for v, others in row} for row in c.ridge_neighbours] == (
        ridge_dict_neighbours(c)
    )
    pm = pseudomanifold_check(c)
    assert (pm.status, pm.strongly_connected, pm.boundary) == ridge_dict_pseudomanifold_check(c)
    g = flip_graph(c)
    assert list(g.edges) == ridge_dict_dual_edges(c)
    assert g.closed_neighbourhoods == make_graph(g.vertices, g.edges).closed_neighbourhoods
    result = shelling_search(c, 200)
    assert (result.status, result.order, result.nodes) == reference_shelling_search(c, 200)

@settings(max_examples=300, deadline=None)
@given(pure_complexes(), st.integers(min_value=1, max_value=400))
def test_shelling_search_matches_reference_on_random_complexes(c, budget):
    result = shelling_search(c, budget)
    assert (result.status, result.order, result.nodes) == reference_shelling_search(c, budget)
    if result.status == PROVEN:
        assert validate_shelling(c, result.order)

def test_shelling_budget_exhaustion_is_reported(complex_of, monkeypatch):
    c = complex_of("polygon", 7)
    result = shelling_search(c, budget=3)
    assert result.status == INCONCLUSIVE and result.order is None and result.nodes == 3
    monkeypatch.setitem(certify_module.EFFORT_BUDGETS, "fast", (3, 5_000))
    cert = certify(c, "fast")
    assert cert.verdict == "undetermined"
    assert cert.notes == ("shelling search: inconclusive after 3 of 3 nodes",)

def test_exhausted_shelling_search_is_reported_as_disproven():
    # the 7-vertex torus: a closed pseudomanifold that no order shells
    torus = labeled(
        [[i, (i + a) % 7, (i + 3) % 7] for i in range(7) for a in (1, 2)]
    )
    result = shelling_search(torus)
    assert result.status == DISPROVEN and 0 < result.nodes < 20_000
    cert = certify(torus, "fast")
    assert cert.pseudomanifold == PM_CLOSED and cert.verdict == "undetermined"
    assert cert.notes == (f"shelling search: disproven after {result.nodes} nodes",)

def test_certify_says_why_the_collapsibility_search_stopped(complex_of, monkeypatch):
    # a disk with boundary, not a cone: both searches run out of budget
    c = complex_of("mobius", 3)
    monkeypatch.setitem(certify_module.EFFORT_BUDGETS, "fast", (1, 3))
    cert = certify(c, "fast")
    assert cert.pseudomanifold == PM_BOUNDARY and cert.verdict == "undetermined"
    assert cert.notes == (
        "shelling search: inconclusive after 1 of 1 nodes",
        "collapsibility search: inconclusive after 3 of 3 nodes",
    )
    # an annulus has chi = 0, so no collapse can end at a point, which has chi = 1
    annulus = labeled([[0, 1, 3], [1, 3, 4], [1, 2, 4], [2, 4, 5], [0, 2, 5], [0, 3, 5]])
    monkeypatch.setitem(certify_module.EFFORT_BUDGETS, "fast", (1, 5_000))
    result = is_collapsible(annulus, 5_000)
    assert (result.status, result.nodes) == (DISPROVEN, 0)
    cert = certify(annulus, "fast")
    assert cert.notes[-1] == "collapsibility search: disproven after 0 nodes"
    # a hollow triangle beside a path has chi = 1: the search exhausts its space
    result = is_collapsible(labeled([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5]]), 5_000)
    assert result.status == DISPROVEN and 1 < result.nodes < 5_000

def test_disjoint_edges_not_shellable():
    result = shelling_search(labeled([[0, 1], [2, 3]]))
    assert result.status == DISPROVEN

def test_validate_shelling_rejects_bad_orders(complex_of):
    c = complex_of("polygon", 5)
    facets = list(c.facets)
    # pick an order whose second facet is disjoint from the first
    first = facets[0]
    far = next(f for f in facets if not (f & first))
    rest = [f for f in facets if f not in (first, far)]
    assert not validate_shelling(c, [first, far] + rest)

def test_validate_shelling_requires_permutation(complex_of):
    c = complex_of("polygon", 5)
    assert not validate_shelling(c, list(c.facets)[:-1])
    order = list(shelling_search(c).order)
    assert validate_shelling(c, order)
    assert not validate_shelling(c, order + order[-1:])  # a facet twice
    assert not validate_shelling(c, order[:-1] + order[:1])  # one twice, one missing
    assert not validate_shelling(c, order[:-1] + [frozenset({99})])  # not a facet of c

@st.composite
def complexes_with_orders(draw):
    """A random complex, pure or not, and an order of its facets: a shelling
    the search found (pure input) or the canonical order, then shuffled by a
    few adjacent swaps, or by a random permutation."""
    if draw(st.booleans()):
        c = draw(pure_complexes())
    else:
        facets = draw(st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=4),
                               min_size=1, max_size=10))
        c = labeled(facets)
    order = list(c.facets)
    if len({len(f) for f in order}) == 1:
        result = shelling_search(c, 2_000)
        if result.status == PROVEN:
            order = list(result.order)
    if draw(st.booleans()):
        return c, draw(st.permutations(order))
    for i in draw(st.lists(st.integers(0, max(len(order) - 2, 0)), max_size=3)):
        order[i:i + 2] = order[i:i + 2][::-1]
    return c, order

@settings(max_examples=400, deadline=None)
@given(complexes_with_orders())
def test_validate_shelling_matches_the_pairwise_oracle(case):
    c, order = case
    assert validate_shelling(c, order) == pairwise_validate_shelling(c, order)

@pytest.mark.parametrize("family,n", [("polygon", 7), ("crown", 4), ("mobius", 4), ("inner-mobius", 4)])
def test_validate_shelling_matches_the_pairwise_oracle_on_arc_complexes(family, n, complex_of):
    c = complex_of(family, n)
    order = list(shelling_search(c).order)
    assert validate_shelling(c, order) and pairwise_validate_shelling(c, order)
    for k in range(1, len(order)):
        swapped = order[:k - 1] + [order[k], order[k - 1]] + order[k + 1:]
        assert validate_shelling(c, swapped) == pairwise_validate_shelling(c, swapped)

def test_validate_shelling_on_points_and_the_empty_complex():
    points = labeled([[0], [1], [2]])
    assert validate_shelling(points, [[2], [0], [1]])
    empty = make_complex({}, [])
    assert validate_shelling(empty, empty.facets)

# --- certificates ---------------------------------------------------------------------

@pytest.mark.parametrize("n", range(4, 11))
def test_polygon_certificates_are_spheres(n, complex_of):
    cert = certify(complex_of("polygon", n))
    assert cert.verdict == "sphere" and cert.dim == n - 4
    assert cert.rule == RULE_DANARAJ_KLEE

@pytest.mark.parametrize("n", range(2, 8))
def test_crown_certificates_are_balls(n, complex_of):
    cert = certify(complex_of("crown", n))
    assert cert.verdict == "ball" and cert.dim == n - 1

@pytest.mark.parametrize("n", range(2, 7))
def test_mobius_certificates_are_balls(n, complex_of):
    cert = certify(complex_of("mobius", n))
    assert cert.verdict == "ball" and cert.dim == n - 1

def test_certificate_chi_consistency(complex_of):
    for n in range(4, 9):
        c = complex_of("polygon", n)
        cert = certify(c)
        assert euler_characteristic(c) == 1 + (-1) ** cert.dim
    for n in range(2, 6):
        c = complex_of("crown", n)
        assert certify(c).verdict == "ball" and euler_characteristic(c) == 1

def refuse_shelling(monkeypatch, *complexes):
    """Make the shelling search inconclusive on the given complexes, or on
    every complex if none is given, so that Whitehead is the route left."""
    search = certify_module.shelling_search

    def refusing(c, budget):
        if complexes and not any(c is x for x in complexes):
            return search(c, budget)
        return ShellingResult(INCONCLUSIVE, nodes=budget)

    monkeypatch.setattr(certify_module, "shelling_search", refusing)

def test_whitehead_route_certifies_a_disk(monkeypatch):
    # triangulated disk: fan of triangles around vertex 0; its links still shell
    disk = labeled([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])
    refuse_shelling(monkeypatch, disk)
    cert = certify(disk)
    assert cert.verdict == "ball" and cert.dim == 2
    assert cert.rule == RULE_WHITEHEAD

def test_whitehead_recursion_is_bounded_by_the_dimension_alone(monkeypatch):
    # with no shelling found, every link down to the points goes by Whitehead
    refuse_shelling(monkeypatch)
    cert = certify(labeled([range(7)]))
    assert (cert.verdict, cert.dim, cert.rule) == ("ball", 6, RULE_WHITEHEAD)

def test_undetermined_without_applicable_rules(complex_of, monkeypatch):
    # Whitehead applies only with boundary, and polygon(6) is a closed sphere
    refuse_shelling(monkeypatch)
    cert = certify(complex_of("polygon", 6))
    assert cert.verdict == "undetermined"


def test_empty_complex_is_undetermined(complex_of):
    cert = certify(complex_of("polygon", 3))
    assert cert.verdict == "undetermined"
    assert "empty complex" in cert.notes

def test_recursive_links_of_crown_certify(complex_of):
    # links of c-arcs are spheres, links of b-arcs are balls, one dim down
    n = 4
    c = complex_of("crown", n)
    labels = c.labels
    saw_ball = False
    for v in c.vertex_ids:
        cert = certify(link(c, [v]))
        if labels[v].startswith("c:"):
            assert cert.verdict == "sphere" and cert.dim == n - 2
        else:
            assert cert.verdict == "ball" and cert.dim == n - 2
            saw_ball = True
    assert saw_ball

def test_certificate_json_shape(complex_of):
    cert = certify(complex_of("polygon", 4))
    d = cert.to_json()
    assert d["verdict"] == {"kind": "sphere", "dim": 0}
    assert d["rule"] == RULE_DANARAJ_KLEE
    assert isinstance(d["shelling"], list)

# --- flip graphs -----------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(2, 2), (3, 4), (4, 6), (5, 8)])
def test_crown_flip_diameter(n, expected, complex_of):
    g = flip_graph(complex_of("crown", n))
    assert is_connected(g)
    assert graph_diameter(g) == expected

def test_hexagon_flip_diameter_against_independent_oracle(complex_of):
    g = flip_graph(complex_of("polygon", 6))
    index = {v: i for i, v in enumerate(g.vertices)}
    edges = [(index[u], index[v]) for u, v in g.edges]
    oracle = floyd_warshall_diameter(len(g.vertices), edges)
    value = graph_diameter(g)
    assert value == oracle == 4
    assert value <= 9

def test_single_facet_diameter_zero():
    g = flip_graph(labeled([[0, 1, 2]]))
    assert graph_diameter(g) == 0

def test_disconnected_graph_diameter_is_minus_one():
    g = make_graph(range(4), [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert graph_diameter(g) == -1

@st.composite
def graphs(draw):
    """A random graph on 0..9 vertices, often disconnected."""
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(range(n), draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])

@settings(max_examples=300, deadline=None)
@given(graphs())
def test_graph_diameter_matches_floyd_warshall(g):
    assert graph_diameter(g) == floyd_warshall_diameter(len(g.vertices), g.edges)

@settings(max_examples=300, deadline=None)
@given(graphs())
def test_is_connected_matches_the_bfs_oracle(g):
    assert is_connected(g) == bfs_is_connected(g.vertices, g.edges)

def test_flip_graph_requires_pure():
    with pytest.raises(ValueError):
        flip_graph(labeled([[0, 1, 2], [3, 4]]))
