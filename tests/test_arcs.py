import itertools

import pytest

from arclab.arcs import (
    B_ARC,
    arc_ids,
    b_arc,
    b_arc_from_wrap,
    b_id,
    c_arc,
    cc_arc,
    cc_id,
    crown,
    disjoint,
    enumerate_arcs,
    integral_strip,
    loop_b,
    loop_c,
    mobius_crown,
    polygon,
    saplings_of_degree,
    strip_arc,
    validate_arc,
    wrap_length,
)
from arclab.build import arc_complex, disjointness_graph, inner_complex
from oracles import (
    degree,
    is_sapling,
    mobius_core_arcs_disjoint,
    pair_loop_graph,
    pair_test_saplings_of_degree,
    reflected,
    rotated,
)

ALL_SURFACES = (
    [polygon(n) for n in range(3, 9)]
    + [crown(n) for n in range(1, 9)]
    + [mobius_crown(n) for n in range(1, 9)]
    + [integral_strip(m, n) for m, n in [(1, 1), (2, 3), (3, 2), (4, 4), (2, 6)]]
)


# --- enumeration ---------------------------------------------------------------


def test_mobius_one_has_exactly_one_arc():
    assert enumerate_arcs(mobius_crown(1)) == [loop_c(1)]


def test_triangle_has_no_diagonals():
    assert enumerate_arcs(polygon(3)) == []


def test_crown_three_counts():
    arcs = enumerate_arcs(crown(3))
    assert len(arcs) == 9
    assert sum(a.kind == "c" for a in arcs) == 3
    assert sum(a.kind == "b" for a in arcs) == 6


def test_mobius_two_counts():
    assert len(enumerate_arcs(mobius_crown(2))) == 5


@pytest.mark.parametrize("n", range(1, 9))
def test_mobius_arc_count_formula(n):
    assert len(enumerate_arcs(mobius_crown(n))) == n * (3 * n - 1) // 2


@pytest.mark.parametrize("s", ALL_SURFACES, ids=lambda s: s.describe())
def test_enumeration_is_valid_and_duplicate_free(s):
    arcs = enumerate_arcs(s)
    assert len(set(arcs)) == len(arcs)
    for a in arcs:
        validate_arc(s, a)


def test_strip_corners_excluded():
    arcs = enumerate_arcs(integral_strip(3, 2))
    labels = {a.label() for a in arcs}
    assert labels == {"strip:1-2", "strip:2-1", "strip:2-2", "strip:3-1"}


def test_labels_are_stable():
    assert loop_b(2).label() == "M:2"
    assert b_arc(1, 3).label() == "b:1-3"
    assert loop_c(4).label() == "L:4"
    assert cc_arc(2, 5).label() == "cc:2-5"
    assert c_arc(7).label() == "c:7"
    assert strip_arc(1, 2).label() == "strip:1-2"


# --- disjointness: worked instances ---------------------------------------------


def test_two_maximal_mobius_core_arcs_intersect():
    s = mobius_crown(3)
    assert disjoint(s, loop_c(1), loop_c(2)) is False


def test_barc_a31_meets_core_arc_14_on_mobius4():
    s = mobius_crown(4)
    a31 = b_arc(3, 1)  # polygon side 3,4,1
    assert disjoint(s, a31, cc_arc(1, 4)) is False


def test_crown_loop_is_disjoint_from_its_own_c_arc():
    for n in range(2, 7):
        s = crown(n)
        assert disjoint(s, loop_b(1), c_arc(1)) is True
        assert all(not disjoint(s, loop_b(1), c_arc(i)) for i in range(2, n + 1))


def test_interleaved_mobius_core_arcs_are_disjoint():
    s = mobius_crown(4)
    assert disjoint(s, cc_arc(1, 3), cc_arc(2, 4)) is True


def test_identical_arcs_rejected():
    with pytest.raises(ValueError):
        disjoint(crown(4), loop_b(1), loop_b(1))


def test_mobius_two_predicate_table():
    # hand enumeration: the complex is the path M1 - L1 - (1,2) - L2 - M2
    s = mobius_crown(2)
    arcs = {a.label(): a for a in enumerate_arcs(s)}
    expected_edges = {
        frozenset({"M:1", "L:1"}),
        frozenset({"L:1", "cc:1-2"}),
        frozenset({"cc:1-2", "L:2"}),
        frozenset({"L:2", "M:2"}),
    }
    got = {
        frozenset({x, y})
        for x, y in itertools.combinations(arcs, 2)
        if disjoint(s, arcs[x], arcs[y])
    }
    assert got == expected_edges


def test_mobius_core_predicate_against_alternation_oracle():
    for n in range(1, 9):
        s = mobius_crown(n)
        ccs = [a for a in enumerate_arcs(s) if a.kind == "cc"]
        for x, y in itertools.combinations(ccs, 2):
            assert disjoint(s, x, y) == mobius_core_arcs_disjoint(
                n, (x.a, x.b), (y.a, y.b)
            ), (n, x, y)


def test_crown_loop_link_formula():
    # arcs disjoint from M_i are c_i and the b-arcs nested in its polygon side
    for n in range(2, 7):
        s = crown(n)
        i = 1
        neighbors = {
            a.label() for a in enumerate_arcs(s) if a != loop_b(i) and disjoint(s, loop_b(i), a)
        }
        nested = {
            a.label()
            for a in enumerate_arcs(s)
            if a.kind == "b"
            and a != loop_b(i)
            and (a.a - i) % n + wrap_length(a, n) <= n
        }
        assert neighbors == {f"c:{i}"} | nested


# --- the disjointness graph that builds the arc complexes ----------------------------

PAIR_LOOP_SURFACES = (
    [polygon(n) for n in (4, 6, 7)]
    + [crown(n) for n in (2, 4, 5)]
    + [mobius_crown(n) for n in (2, 3, 4)]
    + [integral_strip(m, n) for m, n in [(2, 3), (3, 3)]]
)


def validated_disjoint_pairs(s, arcs):
    """{ids[x], ids[y]} for every pair of the arcs that the validating `disjoint` accepts."""
    ids = {a: i for i, a in enumerate(enumerate_arcs(s))}
    return {
        frozenset((ids[x], ids[y])) for x, y in itertools.combinations(arcs, 2) if disjoint(s, x, y)
    }


def skeleton_pairs(c):
    """The edges of the graph a flag complex is built from: vertex pairs in a facet."""
    return {frozenset(e) for f in c.facets for e in itertools.combinations(f, 2)}


@pytest.mark.parametrize("s", PAIR_LOOP_SURFACES, ids=lambda s: s.describe())
def test_the_pair_loop_keeps_exactly_the_validated_disjoint_pairs(s):
    arcs = enumerate_arcs(s)
    expected = validated_disjoint_pairs(s, arcs)
    g = disjointness_graph(s)
    assert g.vertices == tuple(range(len(arcs)))
    assert set(map(frozenset, g.edges)) == expected
    full = arc_complex(s)
    assert full.vertex_ids == g.vertices and skeleton_pairs(full) == expected
    if s.family in ("crown", "mobius"):
        kept = [a for a in arcs if a.kind != B_ARC]
        inner = inner_complex(s)
        assert inner.vertex_ids == tuple(i for i, a in enumerate(arcs) if a.kind != B_ARC)
        assert skeleton_pairs(inner) == validated_disjoint_pairs(s, kept)


KERNEL_SURFACES = (
    [polygon(n) for n in range(3, 15)]
    + [crown(n) for n in range(1, 13)]
    + [mobius_crown(n) for n in range(1, 13)]
    + [integral_strip(m, n) for m in range(1, 10) for n in range(1, 10)]
)


@pytest.mark.parametrize("s", KERNEL_SURFACES, ids=lambda s: s.describe())
def test_disjointness_rows_match_the_pair_loop(s):
    g, oracle = disjointness_graph(s), pair_loop_graph(s)
    assert g == oracle
    arcs = enumerate_arcs(s)  # pairs of ids in lexicographic order, so sorted
    pairs = itertools.combinations(range(len(arcs)), 2)
    assert g.edges == [(i, j) for i, j in pairs if disjoint(s, arcs[i], arcs[j])]
    if s.family in ("crown", "mobius"):
        # the c-arcs come first, so the inner graph is on their ids 0..c-1
        g, oracle = inner_complex(s).graph, pair_loop_graph(s, lambda a: a.kind != B_ARC)
        assert g == oracle


# --- symmetry gates --------------------------------------------------------------


@pytest.mark.parametrize("s", ALL_SURFACES, ids=lambda s: s.describe())
def test_disjoint_is_symmetric(s):
    arcs = enumerate_arcs(s)
    for x, y in itertools.combinations(arcs, 2):
        assert disjoint(s, x, y) == disjoint(s, y, x)


@pytest.mark.parametrize(
    "s",
    [x for x in ALL_SURFACES if x.family != "strip"],
    ids=lambda s: s.describe(),
)
def test_rotation_equivariance(s):
    arcs = enumerate_arcs(s)
    arcset = set(arcs)
    for a in arcs:
        assert rotated(s, a) in arcset
    for x, y in itertools.combinations(arcs, 2):
        assert disjoint(s, x, y) == disjoint(s, rotated(s, x), rotated(s, y))


@pytest.mark.parametrize("s", ALL_SURFACES, ids=lambda s: s.describe())
def test_reflection_equivariance(s):
    arcs = enumerate_arcs(s)
    arcset = set(arcs)
    for a in arcs:
        assert reflected(s, a) in arcset
    for x, y in itertools.combinations(arcs, 2):
        assert disjoint(s, x, y) == disjoint(s, reflected(s, x), reflected(s, y))


# --- botany -----------------------------------------------------------------------


def test_loop_is_a_degree_one_sapling():
    s = mobius_crown(3)
    assert degree(s, [loop_b(1)]) == 1  # one branch, no roots
    assert is_sapling(s, [loop_b(1)])


def test_minimal_arc_has_degree_n_minus_one():
    s = mobius_crown(4)
    assert degree(s, [b_arc(4, 2)]) == 3  # one branch, two roots


def test_empty_face_tile_tree():
    assert degree(crown(5), []) == 5  # no branches, five roots


def test_nested_barcs_are_not_a_sapling():
    s = mobius_crown(5)
    outer, inner = b_arc(1, 4), b_arc(1, 3)
    assert disjoint(s, outer, inner)
    assert not is_sapling(s, [outer, inner])
    assert is_sapling(s, [b_arc(1, 3), b_arc(3, 5)])


def test_two_degree_six_saplings_union_to_degree_four():
    # two disjoint single-arc saplings of degree 6 whose union has degree 4
    s = mobius_crown(8)
    one, two = b_arc_from_wrap(1, 3, 8), b_arc_from_wrap(5, 3, 8)
    assert degree(s, [one]) == 6 and degree(s, [two]) == 6
    assert disjoint(s, one, two)
    assert is_sapling(s, [one, two])
    assert degree(s, [one, two]) == 4


def test_degree_ignores_c_arcs():
    s = mobius_crown(4)
    assert disjoint(s, cc_arc(2, 4), b_arc(4, 2))
    assert degree(s, [cc_arc(2, 4), b_arc(4, 2)]) == 3


def test_tile_tree_rejects_crossing_arcs():
    s = crown(4)
    with pytest.raises(ValueError, match="intersect"):
        degree(s, [b_arc(1, 3), b_arc(2, 4)])
    with pytest.raises(ValueError, match="intersect"):
        is_sapling(s, [b_arc(1, 3), b_arc(2, 4)])


def test_saplings_of_degree_enumeration():
    s = mobius_crown(4)
    deg2 = saplings_of_degree(s, 2)
    singletons = [sap for sap in deg2 if len(sap) == 1]
    pairs = [sap for sap in deg2 if len(sap) == 2]
    assert len(singletons) == 4 and len(pairs) == 2
    for sap in deg2:
        assert is_sapling(s, sap)
        assert degree(s, sap) == 2


@pytest.mark.parametrize("s", [f(n) for f in (crown, mobius_crown) for n in range(1, 10)],
                         ids=lambda s: s.describe())
def test_edge_mask_saplings_are_the_pair_tested_ones_in_the_same_order(s):
    for deg in range(0, s.n + 2):
        assert saplings_of_degree(s, deg) == pair_test_saplings_of_degree(s, deg), deg


@pytest.mark.parametrize("s", [f(n) for f in (crown, mobius_crown) for n in range(1, 7)],
                         ids=lambda s: s.describe())
def test_saplings_of_degree_are_every_b_arc_face_of_that_degree_with_no_nesting(s):
    """Every set of pairwise disjoint b-arcs, by brute force, that passes
    `is_sapling` is listed under its `degree`, once, and nothing else is."""
    barcs = [a for a in enumerate_arcs(s) if a.kind == B_ARC]
    by_degree: dict[int, set] = {}

    def grow(face: list, start: int) -> None:
        if face and is_sapling(s, face):
            by_degree.setdefault(degree(s, face), set()).add(tuple(face))
        for k in range(start, len(barcs)):
            if all(disjoint(s, barcs[k], a) for a in face):
                grow(face + [barcs[k]], k + 1)

    grow([], 0)
    assert set(by_degree) <= set(range(1, s.n))
    for deg in range(0, s.n + 2):
        found = saplings_of_degree(s, deg)
        assert len(found) == len(set(found)) and set(found) == by_degree.get(deg, set()), deg


@pytest.mark.parametrize("n", range(1, 13))
def test_id_functions_follow_the_arc_layout(n):
    s = mobius_crown(n)
    ids = arc_ids(s)
    assert {a: (cc_id(n, a.a, a.b) if a.kind == "cc" else b_id(n, a.a, wrap_length(a, n)))
            for a in ids} == ids
