import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab.arcs import crown, mobius_crown
from arclab.build import arc_complex, inner_complex
from arclab.collapse import (
    CollapseTrace,
    DISPROVEN,
    INCONCLUSIVE,
    PROVEN,
    cone_collapse_trace,
    is_collapsible,
    trace,
    verify_trace,
    welker_expand,
)
from arclab.simplicial import (
    euler_characteristic,
    is_cone,
    join,
    link,
    make_complex,
)
from arclab.strong import core, strong_to_elementary
from oracles import apply_collapse, closed_star, join_lift_trace, point_complex


def labeled(facets, offset=0):
    ids = {v + offset for f in facets for v in f}
    return make_complex({v: f"v{v}" for v in ids}, [[v + offset for v in f] for f in facets])


def random_complex(rng, ids, max_facets=6, max_size=4):
    pool = list(ids)
    facets = [
        rng.sample(pool, rng.randint(1, min(max_size, len(pool))))
        for _ in range(rng.randint(1, max_facets))
    ]
    return make_complex({v: f"v{v}" for v in pool if any(v in f for f in facets)}, facets)


# --- single steps ------------------------------------------------------------------


def test_triangle_collapses_in_three_cone_steps():
    c = labeled([[0, 1, 2]])
    t = cone_collapse_trace(c)
    assert len(t) == 3
    verdict = verify_trace(c, t)
    assert verdict.valid and verdict.terminal.n_vertices == 1


def test_apply_collapse_rejects_non_free():
    c = labeled([[0, 1, 2], [1, 2, 3]])
    with pytest.raises(ValueError):
        apply_collapse(c, [1, 2], [0, 1, 2])


def test_corrupted_trace_detected(complex_of):
    c = complex_of("mobius", 2)
    _, strong = core(c)
    t = strong_to_elementary(c, strong)
    assert verify_trace(c, t).valid
    bad = list(t.steps)
    bad[1] = (bad[1][0] | {next(iter(bad[0][0]))}, bad[1][1])
    verdict = verify_trace(c, trace(bad))
    assert not verdict.valid and verdict.failed_step == 1


def test_trace_json_round_trip():
    t = trace([({0}, {0, 1}), ({2}, {2, 3})])
    assert CollapseTrace.from_json(t.to_json()) == t


# --- cone traces -----------------------------------------------------------------


def test_cone_over_pentagon_cycle_has_ten_steps(complex_of):
    c = join(complex_of("polygon", 5), point_complex(99, "apex"))
    t = cone_collapse_trace(c)
    assert len(t) == 10  # 5 edges + 5 vertices of the base
    verdict = verify_trace(c, t)
    assert verdict.valid and verdict.terminal.vertex_ids == (99,)


def test_single_vertex_cone_trace_is_empty():
    t = cone_collapse_trace(point_complex(0, "v"))
    assert len(t) == 0


def test_inner_crown_simplex_fully_collapses():
    c = inner_complex(crown(4))
    t = cone_collapse_trace(c)
    verdict = verify_trace(c, t)
    assert verdict.valid and verdict.terminal.n_vertices == 1


def test_cone_trace_rejects_non_cone(complex_of):
    with pytest.raises(ValueError):
        cone_collapse_trace(complex_of("polygon", 5))


def test_cone_trace_with_chosen_apex():
    c = labeled([[0, 1], [0, 2], [1, 2]])  # hollow triangle is no cone
    with pytest.raises(ValueError):
        cone_collapse_trace(c)
    coned = join(c, point_complex(9, "w"))
    t = cone_collapse_trace(coned, apex=9)
    assert verify_trace(coned, t).terminal.vertex_ids == (9,)


# --- join lifts -------------------------------------------------------------------


def test_join_lift_with_point_behaves_like_cone():
    y = labeled([[0, 1]])
    t = trace([({0}, {0, 1}), ({1},)]) if False else trace([({0}, {0, 1})])
    x = point_complex(9, "x")
    lifted = join_lift_trace(x, t)
    joined = join(x, y)
    verdict = verify_trace(joined, lifted)
    assert verdict.valid
    assert len(lifted) == 2 * len(t)  # faces of x: empty + the point


def test_join_lift_trace_length_counts_faces(complex_of):
    x = complex_of("polygon", 5)
    y = labeled([[100, 101]])
    t = trace([({100}, {100, 101})])
    lifted = join_lift_trace(x, t)
    assert len(lifted) == 11 * len(t)  # 1 + 5 + 5 faces of x
    verdict = verify_trace(join(x, y), lifted)
    assert verdict.valid


def test_join_lift_full_collapse_to_factor():
    rng = random.Random(5)
    x = random_complex(rng, range(5))
    y = labeled([[10, 11], [11, 12]])
    terminal, strong = core(y)
    assert terminal.n_vertices == 1
    t = strong_to_elementary(y, strong)
    lifted = join_lift_trace(x, t)
    verdict = verify_trace(join(x, y), lifted)
    assert verdict.valid
    # terminal is x joined with the single surviving vertex of y
    terminal_y = verify_trace(y, t).terminal
    assert verdict.terminal == join(x, terminal_y)


# --- welker expansion ---------------------------------------------------------------


def test_expansion_of_point_link():
    c = labeled([[0, 1], [1, 2]])
    # link of vertex 0 is the single vertex 1
    expansion = welker_expand(c, [0], trace([]))
    assert expansion.steps == ((frozenset([0]), frozenset([0, 1])),)
    verdict = verify_trace(c, expansion)
    assert verdict.valid


def test_expansion_of_degree_two_sapling():
    from arclab.arcs import arc_ids, saplings_of_degree

    s = mobius_crown(3)
    c = arc_complex(s)
    ids = arc_ids(s)
    # first remove the three degree-one saplings (the loops) as in round one
    current = c
    for sap in saplings_of_degree(s, 1):
        sap_ids = frozenset(ids[a] for a in sap)
        lk = link(current, sap_ids)
        apex = is_cone(lk)
        assert apex is not None
        expansion = welker_expand(current, sap_ids, cone_collapse_trace(lk, apex=apex))
        verdict = verify_trace(current, expansion)
        assert verdict.valid
        current = verdict.terminal
    sap = saplings_of_degree(s, 2)[0]
    sap_ids = frozenset(ids[a] for a in sap)
    lk = link(current, sap_ids)
    terminal, strong = core(lk)
    assert terminal.n_vertices == 1
    expansion = welker_expand(current, sap_ids, strong_to_elementary(lk, strong))
    verdict = verify_trace(current, expansion)
    assert verdict.valid
    assert len(expansion) == len(strong_to_elementary(lk, strong)) + 1


def test_expansion_requires_link_collapse_to_point():
    c = labeled([[0, 1, 2], [0, 1, 3]])
    with pytest.raises(ValueError):
        welker_expand(c, [0, 1], trace([]))  # link is two points, not one


# --- collapsibility search -----------------------------------------------------------


def test_cone_is_proven_collapsible():
    c = labeled([[0, 1, 2], [0, 2, 3]])
    result = is_collapsible(c, budget=10_000)
    assert result.status == PROVEN
    assert verify_trace(c, result.trace).valid


def test_zero_sphere_is_disproven():
    c = labeled([[0], [1]])
    assert is_collapsible(c, budget=10_000).status == DISPROVEN


def test_pentagon_circle_is_disproven(complex_of):
    assert is_collapsible(complex_of("polygon", 5), budget=50_000).status == DISPROVEN


def test_search_out_of_budget_is_inconclusive():
    path = labeled([[i, i + 1] for i in range(5)])
    assert is_collapsible(path, budget=2).status == INCONCLUSIVE


def test_search_depth_is_not_bounded_by_the_interpreter():
    # a path of 200 edges collapses one leaf per step: 200 nested states
    path = labeled([[i, i + 1] for i in range(200)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        result = is_collapsible(path)
    finally:
        sys.setrecursionlimit(limit)
    assert result.status == PROVEN and len(result.trace) == 200
    assert verify_trace(path, result.trace).valid


def test_small_mobius_complexes_proven_by_search(complex_of):
    for n in (2, 3):
        result = is_collapsible(complex_of("mobius", n), budget=200_000)
        assert result.status == PROVEN
        assert verify_trace(complex_of("mobius", n), result.trace).valid


def test_search_agrees_with_schedules(complex_of):
    # schedule says collapsible; the search must never disagree
    from arclab.theorems import thm_mobius_collapse

    thm_mobius_collapse(3)
    assert is_collapsible(complex_of("mobius", 3), budget=200_000).status == PROVEN


def assert_the_search_takes_the_greedy_trace(c):
    """Greedy's largest free face is always a ridge of its facet: a smaller
    free face lies in a free ridge of the same facet.  So greedy's step is
    the search's first child, and wherever greedy reaches a point on a
    non-cone the search returns greedy's trace."""
    from oracles import greedy_collapse

    steps, reached_point = greedy_collapse(c)
    assert all(len(free) + 1 == len(coface) for free, coface in steps)
    if reached_point and is_cone(c) is None:
        result = is_collapsible(c)
        assert result.status == PROVEN and result.trace == trace(steps)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_the_search_takes_the_greedy_trace_wherever_greedy_reaches_a_point(facets):
    assert_the_search_takes_the_greedy_trace(labeled(facets))


@pytest.mark.parametrize("family, n", [
    ("polygon", 5), ("polygon", 6), ("crown", 2), ("crown", 3), ("mobius", 2), ("mobius", 3),
])
def test_the_search_takes_the_greedy_trace_on_arc_complexes(complex_of, family, n):
    assert_the_search_takes_the_greedy_trace(complex_of(family, n))


# --- euler invariance ------------------------------------------------------------------


def test_euler_characteristic_preserved_along_steps():
    rng = random.Random(11)
    for _ in range(10):
        base = random_complex(rng, range(6))
        c = join(base, point_complex(42, "apex"))
        t = cone_collapse_trace(c)
        chi = euler_characteristic(c)
        current = c
        for step in t.steps:
            current = apply_collapse(current, *step)
            assert euler_characteristic(current) == chi


def suite_replays(monkeypatch, n):
    """The steps thm_mobius_collapse(n) stands for, in order, rebuilt
    test-side on its editor oracle: each sapling's expansion, `welker_expand`
    of its mapped model trace on its star in the oracle's editor, then the
    tail, the mapped model trace of the empty sapling, whose link is what
    the rounds leave.  Each sapling's face deletion is also checked to leave
    the facets that replaying its expansion on a copy of the editor leaves.
    Returns the facets the rounds leave, the steps, the saplings compared
    and the oracle's report."""
    import oracles
    from arclab.collapse import replay
    from arclab.simplicial import FacetEditor
    from test_theorems import sapling_link_trace

    remainders, steps, compared, pending, models = [], [], [], {}, {}
    check = oracles.sapling_link_length

    def mapping(s, link_facets, sap, ids, suite_models):
        length = check(s, link_facets, sap, ids, suite_models)
        link_trace = sapling_link_trace(s, sap, ids, models)
        if sap:
            pending[frozenset(ids[a] for a in sap)] = link_trace
        else:  # the empty sapling: its link is the editor, and nothing is deleted
            remainders.append(link_facets)
            steps.extend(link_trace.steps)
        return length

    class ComparingEditor(FacetEditor):
        def delete(self, face):
            link_trace = pending.pop(face, None)
            if link_trace is None:
                return super().delete(face)
            expansion = welker_expand(closed_star(self, face), face, link_trace)
            expanded = self.copy()
            assert replay(expanded, expansion) is None
            super().delete(face)
            assert set(self.facets()) == set(expanded.facets())
            steps.extend(expansion.steps)
            compared.append(face)

    monkeypatch.setattr(oracles, "sapling_link_length", mapping)
    monkeypatch.setattr(oracles, "FacetEditor", ComparingEditor)
    report = oracles.editor_mobius_collapse(n)
    assert not pending and len(remainders) == 1
    return remainders[0], trace(steps), compared, report


def test_replaying_the_mobius_master_trace_reuses_freed_slots(monkeypatch):
    """The editor's slot table, the width of its star bitsets, never grows
    past the most facets live at once over the steps the suite stands for."""
    from arclab.simplicial import FacetEditor

    remainder, master, _, _ = suite_replays(monkeypatch, 4)
    full = arc_complex(mobius_crown(4))
    editor = FacetEditor(full)
    most_live = len(full.facets)
    reached = False
    for free, _ in master.steps:
        reached |= set(editor.facets()) == remainder
        editor.delete(free)
        most_live = max(most_live, len(editor.facets()))
        assert len(editor.slots) <= most_live
    assert len(master) > 100 and len(editor.facets()) == 1
    # the suite checks what its rounds leave, the inner complex, as the
    # empty sapling's link, and the master trace passes through it
    assert remainder == set(inner_complex(mobius_crown(4)).facets) and reached


@pytest.mark.parametrize("n", range(1, 6))
def test_the_steps_the_mobius_collapse_replays_collapse_the_full_complex_to_a_point(monkeypatch, n):
    from arclab.theorems import thm_mobius_collapse

    _, master, _, report = suite_replays(monkeypatch, n)
    verdict = verify_trace(arc_complex(mobius_crown(n)), master)
    assert verdict.valid and verdict.terminal.n_vertices == 1
    assert len(master) == report.claims[0].details["trace_length"]
    assert len(master) == thm_mobius_collapse(n).claims[0].details["trace_length"]


@pytest.mark.parametrize("n", range(1, 7))
def test_each_sapling_deletion_leaves_what_its_replayed_expansion_does(monkeypatch, n):
    """The face deletion of a sapling from the suite's editor leaves the same
    facets as replaying the sapling's expansion on a copy of the editor."""
    from arclab.arcs import saplings_of_degree

    _, _, compared, report = suite_replays(monkeypatch, n)
    assert report.all_passed
    s = mobius_crown(n)
    assert len(compared) == sum(len(saplings_of_degree(s, d)) for d in range(1, n))
