import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab.arcs import arc_ids, crown, loop_b, loop_c, mobius_crown
from arclab.build import disjointness_graph

from arclab.collapse import verify_trace
from arclab.simplicial import (
    euler_characteristic,
    flag_complex,
    isomorphic,
    make_complex,
)
from arclab.strong import (
    StrongTrace,
    _dominators,
    core,
    dominated_vertices,
    dominating_set,
    graph_core,
    graph_dominating_set,
    strong_to_elementary,
    verify_strong_trace,
)
from oracles import (
    apply_collapse,
    intersecting_dominating_set,
    make_graph,
    rebuilding_core,
    rebuilding_strong_to_elementary,
    rebuilding_verify_strong_trace,
    remove_dominated,
    rescanning_core,
    rescanning_graph_core,
    scan_strong_to_elementary,
)
from test_simplicial import graphs

def labeled(facets):
    ids = {v for f in facets for v in f}
    return make_complex({v: f"v{v}" for v in ids}, facets)

def random_complex(rng, pool, max_facets=6, max_size=4):
    facets = [
        rng.sample(pool, rng.randint(1, min(max_size, len(pool))))
        for _ in range(rng.randint(1, max_facets))
    ]
    return labeled(facets)

# --- dominated vertices ----------------------------------------------------------

def test_mobius_three_dominated_are_exactly_the_b_loops(complex_of):
    s = mobius_crown(3)
    c = complex_of("mobius", 3)
    ids = arc_ids(s)
    dom = dict(dominated_vertices(c))
    assert set(dom) == {ids[loop_b(i)] for i in (1, 2, 3)}
    for i in (1, 2, 3):
        assert dom[ids[loop_b(i)]] == ids[loop_c(i)]

def test_every_vertex_of_a_simplex_is_dominated():
    c = labeled([[0, 1, 2, 3]])
    assert [v for v, _ in dominated_vertices(c)] == [0, 1, 2, 3]

def test_core_of_simplex_is_a_point():
    terminal, t = core(labeled([[0, 1, 2]]))
    assert terminal.n_vertices == 1 and len(t) == 2

def test_core_of_crown_five_is_a_point(complex_of):
    terminal, _ = core(complex_of("crown", 5))
    assert terminal.n_vertices == 1

def test_core_of_mobius_four_has_fourteen_vertices(complex_of):
    terminal, t = core(complex_of("mobius", 4))
    assert terminal.n_vertices == 22 - 8 == 14
    assert len(t) == 8
    assert dominated_vertices(terminal) == []

def test_remove_dominated_requires_domination():
    c = labeled([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        remove_dominated(c, 1)
    assert remove_dominated(c, 0).n_vertices == 2

def test_isolated_vertex_is_not_dominated():
    c = labeled([[0], [1, 2]])
    assert dominating_set(c, 0) == set()

# --- cores: idempotence, order independence ------------------------------------------

def test_core_is_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        c = random_complex(rng, range(8))
        terminal, _ = core(c)
        again, t = core(terminal)
        assert again == terminal and len(t) == 0

def test_strong_trace_length_counts_removals():
    rng = random.Random(4)
    for _ in range(20):
        c = random_complex(rng, range(8))
        terminal, t = core(c)
        assert len(t) == c.n_vertices - terminal.n_vertices

def test_random_orders_give_isomorphic_cores():
    rng = random.Random(5)
    for _ in range(15):
        c = random_complex(rng, range(9))
        canonical, _ = core(c)
        for seed in range(4):
            shuffled, _ = core(c, order="random", seed=seed)
            assert isomorphic(canonical, shuffled)

def test_mobius_random_orders_agree_exactly(complex_of):
    c = complex_of("mobius", 4)
    canonical, _ = core(c)
    for seed in range(20):
        shuffled, _ = core(c, order="random", seed=seed)
        assert set(shuffled.vertex_ids) == set(canonical.vertex_ids)

# --- flag complexes: domination read off the graph ------------------------------------

def members(g, mask):
    return {v for i, v in enumerate(g.vertices) if mask >> i & 1}

@settings(max_examples=150, deadline=None)
@given(graphs(offset=3), st.data())
def test_graph_domination_and_cores_match_facets(g, data):
    alive = data.draw(st.integers(min_value=1, max_value=(1 << len(g.vertices)) - 1))
    kept = members(g, alive)
    induced = flag_complex(make_graph(kept, [e for e in g.edges if set(e) <= kept]))
    for i, v in enumerate(g.vertices):
        if alive >> i & 1:
            assert members(g, graph_dominating_set(g, alive, i)) == dominating_set(induced, v)
    full = flag_complex(g)
    for order, seed in [("canonical", 0)] + [("random", seed) for seed in range(3)]:
        left, t = graph_core(g, order, seed)
        terminal, facet_t = core(full, order, seed)
        assert t == facet_t
        assert verify_strong_trace(full, t) == terminal
        assert members(g, left) == set(terminal.vertex_ids)
        # started from alive, the graph core is the core of the induced flag complex
        left, t = graph_core(g, order, seed, alive=alive)
        terminal, facet_t = core(induced, order, seed)
        assert t == facet_t
        assert members(g, left) == set(terminal.vertex_ids)

@st.composite
def sparse_ids_graphs(draw):
    """A random graph on up to 14 vertices with gaps in their ids."""
    vertices = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=14)))
    pairs = list(itertools.combinations(vertices, 2))
    density = draw(st.floats(0.2, 0.95))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(vertices, [p for p, k in zip(pairs, keep) if k < density])

@settings(max_examples=200, deadline=None)
@given(sparse_ids_graphs())
def test_incremental_graph_core_matches_the_rescanning_oracle(g):
    for order, seed in [("canonical", 0)] + [("random", seed) for seed in range(4)]:
        assert graph_core(g, order, seed) == rescanning_graph_core(g, order, seed)

@pytest.mark.parametrize("n", range(4, 8))
def test_incremental_graph_core_matches_the_rescanning_oracle_on_mobius_crowns(n):
    g = disjointness_graph(mobius_crown(n))
    assert graph_core(g) == rescanning_graph_core(g)
    for seed in range(20):
        assert graph_core(g, "random", seed) == rescanning_graph_core(g, "random", seed)

@settings(max_examples=200, deadline=None)
@given(sparse_ids_graphs(), st.data())
def test_witness_driven_dominators_match_the_definition(g, data):
    size = len(g.vertices)
    nbhds = g.closed_neighbourhoods
    masks = st.integers(0, (1 << size) - 1)
    for _ in range(data.draw(st.integers(1, 8))):
        test, candidates = data.draw(masks), data.draw(masks)
        expected = sum(1 << w for w in range(size) if candidates >> w & 1 and not test & ~nbhds[w])
        assert _dominators(nbhds, test, candidates) == expected
    # as in the Moebius core's check (d): a test that omits v, against v's neighbours
    v = data.draw(st.integers(0, size - 1))
    kept = data.draw(masks) & ~(1 << v)
    scanned = [w for w in range(size) if w != v and nbhds[v] >> w & 1 and not nbhds[v] & ~nbhds[w] & kept]
    assert _dominators(nbhds, nbhds[v] & kept, nbhds[v] & ~(1 << v)) == sum(1 << w for w in scanned)

@pytest.mark.parametrize("n", range(4, 9))
def test_random_graph_cores_match_the_rescanning_oracle_on_crowns(n):
    # many b-arcs are dominated at once, so the random pick runs at large counts
    g = disjointness_graph(crown(n))
    for seed in range(5):
        assert graph_core(g, "random", seed) == rescanning_graph_core(g, "random", seed)

@pytest.mark.parametrize(("n", "entries"), [(6, 782), (10, 9633)])
def test_the_moebius_suites_cores_ask_the_same_distinct_questions(n, entries):
    g = disjointness_graph(mobius_crown(n))
    graph_core(g)
    for seed in range(20):
        graph_core(g, "random", seed)
    assert len(g.dominating_sets) == entries

@settings(max_examples=200, deadline=None)
@given(sparse_ids_graphs(), st.data())
def test_memoised_dominating_sets_match_the_intersecting_oracle(g, data):
    size = len(g.vertices)
    nbhds = g.closed_neighbourhoods
    for _ in range(data.draw(st.integers(1, 12))):
        i = data.draw(st.integers(0, size - 1))
        alive = data.draw(st.integers(0, (1 << size) - 1)) | 1 << i
        assert graph_dominating_set(g, alive, i) == intersecting_dominating_set(g, alive, i)
        # a mask that differs only outside N[i] asks the same question
        other = alive ^ data.draw(st.integers(0, (1 << size) - 1)) & ~nbhds[i]
        entries = len(g.dominating_sets)
        assert graph_dominating_set(g, other, i) == intersecting_dominating_set(g, other, i)
        assert len(g.dominating_sets) == entries
        assert (i, nbhds[i] & alive) in g.dominating_sets
    fresh = make_graph(g.vertices, g.edges)
    assert fresh == g and hash(fresh) == hash(g)

@settings(max_examples=150, deadline=None)
@given(sparse_ids_graphs(), st.data())
def test_graph_cores_sharing_one_memo_match_the_rescanning_oracle(g, data):
    size = len(g.vertices)
    for alive in data.draw(st.lists(st.integers(1, (1 << size) - 1), max_size=4)):
        for i in range(size):
            if alive >> i & 1:
                graph_dominating_set(g, alive, i)
    for order, seed in [("canonical", 0)] + [("random", seed) for seed in range(4)]:
        fresh = make_graph(g.vertices, g.edges)
        assert graph_core(g, order, seed) == rescanning_graph_core(fresh, order, seed)
    # a repeated core asks only questions already answered
    entries = len(g.dominating_sets)
    graph_core(g)
    assert len(g.dominating_sets) == entries

def test_graph_dominating_set_rejects_a_dead_vertex():
    g = make_graph(range(3), [(0, 1), (1, 2)])
    assert graph_dominating_set(g, 0b111, 0) == 0b010
    with pytest.raises(ValueError):
        graph_dominating_set(g, 0b110, 0)
    assert g.dominating_sets == {(0, 0b011): 0b010}  # the dead query left no entry

# --- strong collapsibility decisions ---------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_crowns_strongly_collapsible(n, complex_of):
    assert core(complex_of("crown", n))[0].n_vertices == 1

@pytest.mark.parametrize("n", (4, 5))
def test_mobius_full_not_strongly_collapsible(n, complex_of):
    assert core(complex_of("mobius", n))[0].n_vertices > 1

@pytest.mark.parametrize("n", range(1, 8))
def test_inner_mobius_strongly_collapsible(n, complex_of):
    assert core(complex_of("inner-mobius", n))[0].n_vertices == 1

# --- elementary conversion ---------------------------------------------------------

def test_edge_conversion():
    c = labeled([[0, 1]])
    t = StrongTrace(((0, 1),))
    elem = strong_to_elementary(c, t)
    assert elem.steps == ((frozenset([0]), frozenset([0, 1])),)

def test_mobius_two_strong_trace_converts_to_point(complex_of):
    c = complex_of("mobius", 2)
    terminal, t = core(c)
    assert terminal.n_vertices == 1
    elem = strong_to_elementary(c, t)
    verdict = verify_trace(c, elem)
    assert verdict.valid and verdict.terminal.n_vertices == 1

def test_crown_schedule_converts_to_full_collapse(complex_of):
    c = complex_of("crown", 4)
    terminal, t = core(c)
    assert terminal.n_vertices == 1
    verdict = verify_trace(c, strong_to_elementary(c, t))
    assert verdict.valid and verdict.terminal.n_vertices == 1

def test_conversion_preserves_euler_characteristic_stepwise():
    rng = random.Random(6)
    for _ in range(10):
        c = random_complex(rng, range(7))
        terminal, t = core(c)
        chi = euler_characteristic(c)
        current = c
        for step in strong_to_elementary(c, t).steps:
            current = apply_collapse(current, *step)
            assert euler_characteristic(current) == chi
        assert current == terminal

@st.composite
def complexes(draw):
    """A random complex on the vertices 0..7, with up to eight facets."""
    facets = draw(st.lists(st.frozensets(st.integers(0, 7), min_size=1, max_size=5),
                           min_size=1, max_size=8))
    return labeled(facets)

@settings(max_examples=200, deadline=None)
@given(complexes())
def test_core_retesting_only_the_removed_star_matches_the_rescanning_oracle(c):
    for order, seed in [("canonical", 0)] + [("random", seed) for seed in range(5)]:
        assert core(c, order, seed) == rescanning_core(c, order, seed)


@pytest.mark.parametrize("family,n", [("crown", 4), ("mobius", 3), ("mobius", 4), ("strip", 5)])
def test_core_matches_the_rescanning_oracle_on_arc_complexes(family, n, complex_of):
    c = complex_of(family, n, 4) if family == "strip" else complex_of(family, n)
    for order, seed in [("canonical", 0)] + [("random", seed) for seed in range(8)]:
        assert core(c, order, seed) == rescanning_core(c, order, seed)


# --- the editor against the complex-rebuilding strong collapses -------------------------

def outcome(check, c, t):
    """check(c, t), or the message of the ValueError it raises."""
    try:
        return check(c, t)
    except ValueError as exc:
        return f"ValueError: {exc}"

def assert_the_editor_matches_the_rebuilding_oracle(c, order, seed):
    terminal, t = core(c, order, seed)
    assert (terminal, t) == rebuilding_core(c, order, seed)
    assert verify_strong_trace(c, t) == terminal == rebuilding_verify_strong_trace(c, t)
    assert strong_to_elementary(c, t) == rebuilding_strong_to_elementary(c, t)
    return t

@settings(max_examples=200, deadline=None)
@given(complexes(), st.integers(0, 3), st.data())
def test_strong_collapses_on_the_editor_match_the_rebuilding_oracle(c, seed, data):
    for order in ("canonical", "random"):
        t = assert_the_editor_matches_the_rebuilding_oracle(c, order, seed)
        # one step replaced by an arbitrary (vertex, witness), 8 lying in no complex
        steps = list(t.steps)
        i = data.draw(st.integers(0, len(steps)))
        steps[i:i + 1] = [(data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8)))]
        bad = StrongTrace(tuple(steps))
        for check, oracle in ((verify_strong_trace, rebuilding_verify_strong_trace),
                              (strong_to_elementary, rebuilding_strong_to_elementary)):
            assert outcome(check, c, bad) == outcome(oracle, c, bad)

def assert_conversion_matches_the_scan(c, t):
    elem = strong_to_elementary(c, t)
    assert elem == scan_strong_to_elementary(c, t)
    assert verify_trace(c, elem).terminal == verify_strong_trace(c, t)

@settings(max_examples=200, deadline=None)
@given(complexes(), st.integers(0, 3))
def test_conversion_on_the_star_matches_the_face_scan(c, seed):
    for order in ("canonical", "random"):
        assert_conversion_matches_the_scan(c, core(c, order, seed)[1])

@pytest.mark.parametrize("family,n", [("inner-mobius", n) for n in range(2, 7)]
                         + [("crown", n) for n in range(1, 6)])
def test_conversion_on_the_star_matches_the_face_scan_on_arc_complexes(family, n, complex_of):
    c = complex_of(family, n)
    assert_conversion_matches_the_scan(
        c, assert_the_editor_matches_the_rebuilding_oracle(c, "canonical", 0))

def test_verify_strong_trace_checks_witnesses():
    c = labeled([[0, 1], [1, 2]])
    good = StrongTrace(((0, 1),))
    assert verify_strong_trace(c, good).n_vertices == 2
    with pytest.raises(ValueError):
        verify_strong_trace(c, StrongTrace(((1, 0),)))

def test_strong_trace_json_round_trip():
    t = StrongTrace(((3, 4), (5, 6)))
    assert StrongTrace.from_json(t.to_json()) == t
