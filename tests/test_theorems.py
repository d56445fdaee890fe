import functools
import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclab import simplicial, theorems
from arclab.arcs import (
    arc_ids,
    b_arc,
    c_arc,
    cc_arc,
    cc_id,
    crown,
    integral_strip,
    loop_b,
    loop_c,
    mobius_crown,
    polygon,
    strip_arc,
)
from arclab.build import arc_complex, disjointness_graph, induced_arc_complex, inner_complex
from arclab.certify import certify
from arclab.collapse import CollapseTrace, trace, verify_trace
from arclab.simplicial import (
    FacetEditor,
    Graph,
    _bits,
    _complex,
    clique_counts,
    count_max_cliques,
    flag_complex,
    join_all,
    make_complex,
    max_cliques,
)
from arclab.strong import (
    StrongTrace,
    dominated_vertices,
    dominating_set,
    graph_core,
    graph_dominating_set,
    strong_to_elementary,
    verify_strong_trace,
)
from arclab.theorems import (
    MOBIUS_CORE_CLAIM,
    Limits,
    TheoremError,
    run_all,
    thm_crown_strong,
    thm_inner_mobius,
    thm_mobius_collapse,
    thm_mobius_not_strong,
    thm_strip_strong,
)
import oracles
from oracles import (
    brute_force_faces,
    editor_mobius_collapse,
    every_mobius_stage_check,
    facet_mobius_core_check,
    facet_stage_domination,
    factorwise_sapling_link_check,
    link_apex,
    make_graph,
    mobius_ridge_arc,
    mobius_stages,
    only_facet_through,
    scan_dominating_set,
)
from test_simplicial import graphs


def replayed(report, c):
    """The terminal of the claim's schedule, replayed from c by the strong checker."""
    return verify_strong_trace(c, StrongTrace.from_json(report.claims[0].details["schedule"]))


def test_replay_failure_names_the_claim_the_step_and_the_dominating_set():
    path = make_graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(TheoremError) as caught:
        theorems._replay(path, 0b111, [(1, 0)], "some-claim", n=2)
    assert caught.value.claim == "some-claim"
    assert caught.value.details == {"n": 2}
    assert "step 0: vertex 1 is not dominated by 0" in str(caught.value)
    assert "dominating set []" in str(caught.value)
    with pytest.raises(TheoremError, match="step 1: vertex 0 is not in the complex"):
        theorems._replay(path, 0b111, [(0, 1), (0, 1)], "some-claim")


def test_replay_applies_each_round_to_the_suite_alive_mask_in_place():
    path = make_graph(range(4), [(0, 1), (1, 2), (2, 3)])
    alive = theorems._replay(path, 0b1111, [(0, 1)], "some-claim")
    alive = theorems._replay(path, alive, [(3, 2), (1, 2)], "some-claim")
    terminal = verify_strong_trace(flag_complex(path), StrongTrace(((0, 1), (3, 2), (1, 2))))
    assert set(_bits(alive)) == set(terminal.vertex_ids) == {2}


def failing_step(replay, steps):
    """The first k at which replay(steps[:k + 1]) raises, or None if none does."""
    for k in range(len(steps)):
        try:
            replay(steps[:k + 1])
        except (ValueError, TheoremError):
            return k
    return None


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(0, 3), st.data())
def test_graph_replay_matches_the_strong_checker_on_the_flag_complex(g, seed, data):
    # ids are 0..size-1, so they are the positions; size lies in no graph
    size = len(g.vertices)
    steps = list(graph_core(g, "random", seed)[1].steps)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(steps)))
        steps[i:i + 1] = [(data.draw(st.integers(0, size)), data.draw(st.integers(0, size)))]
    c = flag_complex(g)
    everyone = (1 << size) - 1
    on_graph = failing_step(lambda t: theorems._replay(g, everyone, t, "claim"), steps)
    on_facets = failing_step(lambda t: verify_strong_trace(c, StrongTrace(tuple(t))), steps)
    assert on_graph == on_facets
    if on_graph is None:
        left = theorems._replay(g, everyone, steps, "claim")
        assert set(_bits(left)) == set(verify_strong_trace(c, StrongTrace(tuple(steps))).vertex_ids)
    else:
        with pytest.raises(TheoremError, match=f"step {on_graph}: "):
            theorems._replay(g, everyone, steps, "claim")


def lockstep(report, c, alive):
    """(editor on c, alive mask, next step) before each step of the
    claim's schedule, both in lockstep, and after the last, with step None."""
    editor = FacetEditor(c)
    for step in [*StrongTrace.from_json(report.claims[0].details["schedule"]).steps, None]:
        assert set().union(*editor.facets()) == set(_bits(alive))
        yield editor, alive, step
        if step is not None:
            editor.delete(frozenset(step[:1]))
            alive &= ~(1 << step[0])


# --- crown schedule -----------------------------------------------------------------


def test_crown_four_rounds_and_terminal():
    report = thm_crown_strong(4)
    details = report.claims[0].details
    assert details["rounds"] == [4, 4, 4]
    schedule = StrongTrace.from_json(details["schedule"])
    ids = arc_ids(crown(4))
    # loops leave first, each with its own c-arc as witness
    first_batch = schedule.steps[:4]
    assert {v for v, _ in first_batch} == {ids[loop_b(i)] for i in range(1, 5)}
    for v, w in first_batch:
        loop_vertex = next(i for i in range(1, 5) if ids[loop_b(i)] == v)
        assert w == ids[c_arc(loop_vertex)]


def test_crown_one_is_trivial():
    assert thm_crown_strong(1).claims[0].status == "pass"


@pytest.mark.parametrize("n", range(1, 7))
def test_crown_schedule_passes(n):
    report = thm_crown_strong(n)
    assert report.all_passed
    s = crown(n)
    ids = arc_ids(s)
    terminal = replayed(report, arc_complex(s))
    assert set(terminal.vertex_ids) == {ids[c_arc(i)] for i in range(1, n + 1)}
    assert len(terminal.facets) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_crown_graph_checks_match_their_facet_forms(n):
    s = crown(n)
    graph = disjointness_graph(s)
    everyone = (1 << len(graph.vertices)) - 1
    for editor, alive, _ in lockstep(thm_crown_strong(n), arc_complex(s), everyone):
        current = editor.to_complex()
        assert theorems._simplex(graph, alive) == (len(current.facets) == 1)
        for v in _bits(alive):  # the round-start witness check, on graph and on facets
            assert set(_bits(graph_dominating_set(graph, alive, v))) == scan_dominating_set(current, v)


def test_a_missing_crown_witness_fails_naming_the_dominating_set(monkeypatch):
    """With the edge b:1-3 -- b:2-1 toggled, c:3 no longer dominates b:1-3
    in round 2; the failure names the arc, the witness and the round, and
    lists the labels of the dominating set that is left."""
    s = crown(3)
    ids = arc_ids(s)
    graph = toggled(disjointness_graph(s), ids[b_arc(1, 3)], ids[b_arc(2, 1)])
    monkeypatch.setattr(theorems, "disjointness_graph", lambda s: graph)
    with pytest.raises(TheoremError, match=r": b:1-3 is not dominated by c:3 in round 2 ") as caught:
        thm_crown_strong(3)
    assert caught.value.details == {"n": 3, "dominating": ["c:1"]}


# --- inner mobius schedule -------------------------------------------------------------


def test_inner_mobius_three_removal_order_and_witnesses():
    report = thm_inner_mobius(3)
    schedule = StrongTrace.from_json(report.claims[0].details["schedule"])
    ids = arc_ids(mobius_crown(3))
    expected = [
        (ids[loop_c(3)], ids[cc_arc(1, 3)]),
        (ids[cc_arc(2, 3)], ids[cc_arc(1, 2)]),
        (ids[cc_arc(1, 3)], ids[loop_c(1)]),
        (ids[loop_c(2)], ids[cc_arc(1, 2)]),
        (ids[cc_arc(1, 2)], ids[loop_c(1)]),
    ]
    assert list(schedule.steps) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_inner_mobius_schedule_passes(n):
    report = thm_inner_mobius(n)
    assert report.all_passed
    s = mobius_crown(n)
    terminal = replayed(report, inner_complex(s))
    assert list(terminal.vertex_ids) == [arc_ids(s)[loop_c(1)]]


@pytest.mark.parametrize("n", range(1, 8))
def test_inner_mobius_graph_checks_match_their_facet_forms(n):
    s = mobius_crown(n)
    graph = disjointness_graph(s)
    ids = arc_ids(s)
    inner = sum(1 << i for a, i in ids.items() if a.kind != "b")
    loops = {ids[loop_c(j)]: j for j in range(2, n + 1)}
    for editor, alive, step in lockstep(thm_inner_mobius(n), inner_complex(s), inner):
        if step and step[0] in loops:  # the fan check the facet suite made
            fan = {ids[cc_arc(i, loops[step[0]])] for i in range(1, loops[step[0]] + 1)}
            assert only_facet_through(editor, step[0]) == fan
        for v in _bits(alive):
            star = graph.closed_neighbourhoods[v] & alive
            assert only_facet_through(editor, v) == (
                frozenset(_bits(star)) if theorems._simplex(graph, star) else None
            )


# --- mobius collapse ---------------------------------------------------------------------


def test_mobius_collapse_three_replays_to_a_point():
    report = thm_mobius_collapse(3)
    details = report.claims[0].details
    assert details["vertices"] == 12
    assert details["rounds"] == [3, 3]  # three loops, then three minimal arcs


def test_mobius_collapse_one_has_empty_schedule():
    report = thm_mobius_collapse(1)
    assert report.claims[0].details["trace_length"] == 0


@pytest.mark.parametrize("n", range(1, 5))
def test_mobius_collapse_passes(n):
    assert thm_mobius_collapse(n).all_passed


@pytest.mark.parametrize("n, trace_length", enumerate((0, 4, 27, 159, 920, 5320, 30807, 178623), 1))
def test_mobius_collapse_reports_its_trace_length_and_rounds(n, trace_length):
    details = thm_mobius_collapse(n).claims[0].details
    assert details["trace_length"] == trace_length
    assert details["rounds"] == [math.comb(n, d) for d in range(1, n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_the_collapse_schedule_pairs_every_face_but_one_vertex(n):
    """The reported trace collapses the whole complex to a point, so it
    pairs off every nonempty face but one: 2 * trace_length + 1 faces."""
    faces = sum(clique_counts(disjointness_graph(mobius_crown(n))))
    assert 2 * thm_mobius_collapse(n).claims[0].details["trace_length"] + 1 == faces


@pytest.mark.parametrize("n", range(1, 10))
def test_the_facets_read_off_the_schedule_are_the_maximal_cliques_of_the_graph(n):
    """The suite sums its models' facet counts; the whole graph's maximal
    cliques are counted here, apart from the suite."""
    facets = count_max_cliques(disjointness_graph(mobius_crown(n)))
    assert thm_mobius_collapse(n).claims[0].details["facets"] == facets


def test_the_suite_counts_maximal_cliques_only_on_tiles_and_trunks(monkeypatch):
    counted = []
    count = theorems.count_max_cliques
    monkeypatch.setattr(theorems, "count_max_cliques", lambda g: counted.append(g) or count(g))
    assert thm_mobius_collapse(7).all_passed
    factors = ([disjointness_graph(polygon(W + 1)) for W in range(3, 8)]
               + [theorems.inner_graph(mobius_crown(deg)) for deg in range(1, 8)])
    assert len(counted) == len(set(counted)) == len(factors)
    assert set(counted) == set(factors)


def chorded(graph, chords):
    for x, y in chords:
        graph = toggled(graph, x, y)
    return graph


@pytest.mark.parametrize("chords", [[(0, 2)], [(0, 2), (0, 3)]])
def test_a_tile_not_pure_of_its_size_fails_the_suite_naming_the_model(monkeypatch, chords):
    """polygon(5)'s diagonals form a 5-cycle.  One chord across it makes a
    triangle and leaves three edges maximal.  Two from one vertex make a
    fan of three triangles: pure, but a facet of the tile must have 2
    vertices, as a triangulation of the pentagon does.  At n = 4 the first
    sapling, the loop M:1, has that tile, of width 4."""
    build = theorems.disjointness_graph
    monkeypatch.setattr(theorems, "disjointness_graph",
                        lambda s: chorded(build(s), chords) if s == polygon(5) else build(s))
    with pytest.raises(TheoremError) as caught:
        thm_mobius_collapse(4)
    assert "model factor is not pure" in str(caught.value)
    assert caught.value.details == {"model": [[4], 1]}


def common(rows, mask):
    """The AND of the rows of the vertices in mask, every vertex if none."""
    return functools.reduce(int.__and__, (rows[u] for u in _bits(mask)), (1 << len(rows)) - 1)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_the_link_vertices_tell_the_faces_through_a_sapling_and_the_first_same_round_pair(g, data):
    """On random graphs, random earlier masks and random masks sigma (cliques
    or not, empty included), with a face a clique holding no earlier mask:
    `_link_vertices` fails sigma iff it is no face, or else iff an earlier
    mask lies in sigma + V_sigma, V_sigma found here by its definition;
    otherwise it returns V_sigma, and sigma | m is a face iff m is a clique
    inside sigma | V_sigma.  On the masks that pass, `_same_round_pair`
    finds the all-pairs loop's first pair."""
    rows = g.closed_neighbourhoods
    vertex_sets = st.sets(st.integers(0, len(rows) - 1), max_size=3)
    masks = [sum(1 << v for v in vs) for vs in data.draw(st.lists(vertex_sets, max_size=10))]
    nonempty = st.sets(st.integers(0, len(rows) - 1), min_size=1, max_size=3)
    earlier = [sum(1 << v for v in vs) for vs in data.draw(st.lists(nonempty, max_size=3))]

    def free(mask):
        return all(p & ~mask for p in earlier)

    def is_face(mask):
        return not mask & ~common(rows, mask) and free(mask)

    passed, links = [], []
    for sigma in masks:
        V = sum(1 << v for v in range(len(rows)) if not sigma >> v & 1 and not sigma & ~rows[v]
                and free(sigma | 1 << v))
        try:
            found = theorems._link_vertices(rows, at_lowest(rows, earlier), sigma, ())
        except TheoremError as caught:
            if is_face(sigma):
                assert "an earlier sapling lies in the link's vertex set" in str(caught)
                assert not free(sigma | V)
            else:
                assert "predicted sapling is not a face" in str(caught)
            continue
        assert found == V and free(sigma | V)
        for m in range(1 << len(rows)):
            assert is_face(sigma | m) == (not m & ~common(rows, m) and not m & ~(sigma | V)), m
        passed.append(sigma)
        links.append(V)
    commons = [common(rows, mask) for mask in passed]
    assert theorems._same_round_pair(passed, links) == oracles.all_pairs_spanning_pair(passed, commons, free)


@pytest.mark.parametrize("n", range(1, 8))
def test_mobius_collapse_reports_what_the_editor_oracle_does(n):
    assert thm_mobius_collapse(n).claims[0].details == editor_mobius_collapse(n).claims[0].details


def sapling_link_trace(s, sap, ids, models):
    """The link trace the editor oracle stands for at a sapling: its model's
    trace, verified on the model, mapped through the sapling's arc map.
    `models` also caches the model traces, by ("trace", key)."""
    key, arc_map = oracles.sapling_arc_map(s.n, sap, ids, models)
    if ("trace", key) not in models:
        models["trace", key] = oracles.link_model(key, models)[1]

    def image(face):
        return frozenset(map(arc_map.__getitem__, face))

    return trace((image(free), image(coface)) for free, coface in models["trace", key].steps)


def sapling_links(monkeypatch, n):
    """(surface, link, sapling, ids, link trace) for every sapling the
    editor oracle of thm_mobius_collapse(n) deletes, as it finds them, after
    each has passed its check; the link trace is `sapling_link_trace`'s, and
    the oracle counts its length.  The last is the empty sapling, whose link
    is what the rounds leave and whose trace is the tail."""
    seen, models = [], {}
    check = oracles.sapling_link_length

    def recording(s, link_facets, sap, ids, oracle_models):
        length = check(s, link_facets, sap, ids, oracle_models)
        L = _complex({i: a.label() for a, i in ids.items()}, link_facets)
        link_trace = sapling_link_trace(s, sap, ids, models)
        assert len(link_trace) == length
        seen.append((s, L, sap, ids, link_trace))
        return length

    monkeypatch.setattr(oracles, "sapling_link_length", recording)
    report = editor_mobius_collapse(n)
    monkeypatch.undo()
    assert len(seen) == sum(report.claims[0].details["rounds"]) + 1
    assert seen[-1][2] == ()
    return seen


@pytest.mark.parametrize("n", (3, 4, 5))
def test_every_sapling_link_passes_the_tile_maps_and_the_factorwise_isomorphism_oracle(monkeypatch, n):
    for s, L, sap, ids, _ in sapling_links(monkeypatch, n):
        assert factorwise_sapling_link_check(s, L, sap, ids)


@pytest.mark.parametrize("n", range(3, 8))
def test_every_sapling_link_trace_collapses_its_link_to_a_vertex_by_codimension_one_pairs(
    monkeypatch, n
):
    for _, L, _, _, link_trace in sapling_links(monkeypatch, n):
        verdict = verify_trace(L, link_trace)
        assert verdict.valid and verdict.terminal.n_vertices == 1
        assert all(free < coface and len(coface - free) == 1 for free, coface in link_trace.steps)
        assert 2 * len(link_trace) == len(brute_force_faces(L.facets)) - 1


def test_each_sapling_model_is_built_once_per_call(monkeypatch):
    built, models, replays = [], [], []
    for name in ("disjointness_graph", "inner_complex"):
        build = getattr(theorems, name)
        monkeypatch.setattr(theorems, name, lambda s, b=build: built.append((b, s)) or b(s))
    build_model = theorems._link_model
    monkeypatch.setattr(theorems, "_link_model", lambda key, m: models.append(key) or build_model(key, m))
    replay = theorems._replay
    monkeypatch.setattr(theorems, "_replay", lambda g, alive, steps, *args, **details:
                        replays.append(len(steps)) or replay(g, alive, steps, *args, **details))
    for _ in range(2):  # the models do not outlive a call
        built.clear(), models.clear(), replays.clear()
        assert thm_mobius_collapse(5).all_passed
        assert len(built) == len(set(built)) > 2
        # one model per (sorted wrap lengths, trunk degree), each replayed
        # once; the last is the empty sapling's, the inner complex
        assert len(models) == len(set(models)) == len(replays) == 7
        assert models[-1] == ((), 5)


def test_every_model_strong_collapse_converts_to_an_elementary_trace_of_the_counted_length(monkeypatch):
    """For every model thm_mobius_collapse(n) builds, n <= 8: on the flag
    complex of its join rows, `strong_to_elementary` of the suite's strong
    trace passes `verify_trace` down to a vertex, and its length is the one
    the suite counts on the rows."""
    found = {}  # key -> (J, strong trace, counted length, facets)
    build_model = theorems._link_model
    monkeypatch.setattr(theorems, "_link_model",
                        lambda key, models: found.setdefault(key, build_model(key, models)))
    for n in range(1, 9):
        assert thm_mobius_collapse(n).all_passed
    assert len(found) > 30 and ((), 8) in found and ((8,), 1) in found
    for key, (J, strong, length, _) in found.items():
        c = flag_complex(J)
        t = strong_to_elementary(c, strong)
        verdict = verify_trace(c, t)
        assert verdict.valid and verdict.terminal.n_vertices == 1, key
        assert len(t) == length, key


def test_each_model_is_the_join_of_its_tile_and_trunk_complexes():
    """The flag complex of a model's join rows is the join of its factors'
    complexes, offset as `_sapling_arc_map` numbers them."""
    for key in [((2,), 3), ((2, 2), 2), ((3,), 2), ((2, 3), 2), ((4,), 1), ((), 4)]:
        J = theorems._link_model(key, {})[0]
        factors = [arc_complex(polygon(W + 1)) for W in key[0]] + [inner_complex(mobius_crown(key[1]))]
        parts, offset = [], 0
        for c in factors:
            parts.append(make_complex({offset + v: str(offset + v) for v in c.vertex_ids},
                                      [[offset + v for v in f] for f in c.facets]))
            offset += c.n_vertices
        assert set(flag_complex(J).facets) == set(join_all(parts).facets), key


def graph_sapling_checks(monkeypatch, n):
    """(surface, graph rows, earlier saplings, sapling, ids) for every call
    of the suite's link vertex check in thm_mobius_collapse(n), each after
    it passed; the earlier saplings, those of the rounds before the
    sapling's, as one list of masks."""
    seen = []
    check = theorems._link_vertices
    s = mobius_crown(n)
    ids = arc_ids(s)

    def recording(rows, earlier, sigma, sap, **where):
        V = check(rows, earlier, sigma, sap, **where)
        seen.append((s, rows, [p for listed in earlier for p in listed], sap, ids))
        return V

    monkeypatch.setattr(theorems, "_link_vertices", recording)
    assert thm_mobius_collapse(n).all_passed
    monkeypatch.undo()
    return seen


def at_lowest(rows, masks):
    """The earlier saplings as the suite's link vertex check takes them:
    each mask listed at its lowest vertex."""
    earlier = [[] for _ in rows]
    for p in masks:
        earlier[(p & -p).bit_length() - 1].append(p)
    return earlier


def test_each_link_is_the_flag_complex_on_its_vertex_set(monkeypatch):
    """The link the editor oracle finds at each sapling is the flag complex
    of the graph on V_sigma, the suite's link vertices, and no earlier
    sapling lies inside sigma + V_sigma."""
    links = sapling_links(monkeypatch, 5)
    checks = graph_sapling_checks(monkeypatch, 5)
    assert [x[2] for x in links] == [x[3] for x in checks]
    for (_, L, _, _, _), (_, rows, earlier, sap, ids) in zip(links, checks):
        sigma = {ids[b] for b in sap}
        V = {v for v in range(len(rows)) if v not in sigma
             and all(rows[u] >> v & 1 for u in sigma)
             and not any(set(_bits(p)) <= sigma | {v} for p in earlier)}
        induced = make_graph(V, [(u, v) for u, v in itertools.combinations(V, 2) if rows[u] >> v & 1])
        assert (set(max_cliques(induced)) or {frozenset()}) == set(L.facets)
        assert not any(set(_bits(p)) <= sigma | V for p in earlier)


def test_a_flipped_model_row_bit_fails_naming_the_sapling(monkeypatch):
    """Each pair of a model's vertices, its edge toggled in the join rows,
    fails the first sapling with that model: the loop M:1, and the empty
    sapling, whose model is the inner complex."""
    build_model = theorems._link_model
    for key, sapling in [(((4,), 1), ["M:1"]), (((), 4), [])]:
        J = build_model(key, {})[0]
        size = len(J.vertices)
        for x, y in itertools.combinations(range(size), 2):
            flipped = toggled(J, x, y)

            def flipping(k, models, key=key, flipped=flipped):
                J, strong, length, facets = build_model(k, models)
                return (flipped, strong, length, facets) if k == key else (J, strong, length, facets)

            monkeypatch.setattr(theorems, "_link_model", flipping)
            with pytest.raises(TheoremError) as caught:
                thm_mobius_collapse(4)
            assert "link is not the join" in str(caught.value)
            assert caught.value.details["sapling"] == sapling
    monkeypatch.undo()
    assert thm_mobius_collapse(4).all_passed


def test_a_trunk_map_shifted_by_one_fails_naming_the_sapling(monkeypatch):
    s, L, sap, ids = two_arc_sapling_link(monkeypatch)
    cached: dict = {}
    oracles.sapling_link_length(s, set(L.facets), sap, ids, cached)
    checks = [x for x in graph_sapling_checks(monkeypatch, 4) if x[3] == sap]
    assert len(checks) == 1
    _, rows, earlier, _, _ = checks[0]
    suite_cached: dict = {}
    V = theorems._link_vertices(rows, at_lowest(rows, earlier), sum(1 << ids[b] for b in sap), sap)
    theorems._sapling_link_length(s.n, rows, V, sap, suite_cached)
    # every trunk arc cc(o_i, o_j) lands on cc(o_i + 1, o_j + 1) instead
    shifted = lambda i, j: cc_arc(i % s.n + 1, j % s.n + 1)  # noqa: E731
    monkeypatch.setattr(oracles, "cc_arc", shifted)
    # the suite reads the same shift off the arc ids
    monkeypatch.setattr(theorems, "cc_id", lambda n, i, j: cc_id(n, *sorted((i % n + 1, j % n + 1))))
    for models in ({}, cached):
        with pytest.raises(TheoremError) as caught:
            oracles.sapling_link_length(s, set(L.facets), sap, ids, models)
        assert "link is not the join" in str(caught.value)
        assert caught.value.details["sapling"] == [b.label() for b in sap]
    for models in ({}, suite_cached):
        with pytest.raises(TheoremError) as caught:
            theorems._sapling_link_length(s.n, rows, V, sap, models)
        assert re.search("not a bijection onto the link|link is not the join", str(caught.value))
        assert caught.value.details["sapling"] == [b.label() for b in sap]


def test_an_arc_map_that_hits_an_arc_twice_is_no_bijection(monkeypatch):
    """An arc map one entry longer than the model, which sends the model
    vertex of an arc x > 0 to x - 1 and then x - 1 once more: its ids still
    add up to V's bits, since 2^(x - 1) + 2^(x - 1) = 2^x, so only the count
    of the map's entries tells that it is no bijection."""
    arc_map = theorems._sapling_arc_map

    def repeating(n, sap, models):
        key, image = arc_map(n, sap, models)
        i = next(i for i, x in enumerate(image) if x)
        image[i] -= 1
        return key, image + [image[i]]

    monkeypatch.setattr(theorems, "_sapling_arc_map", repeating)
    with pytest.raises(TheoremError) as caught:
        thm_mobius_collapse(3)
    assert "not a bijection onto the link" in str(caught.value)
    assert caught.value.details["sapling"] == ["M:1"]


@pytest.mark.parametrize("n", (3, 4, 5))
def test_a_hidden_earlier_sapling_inside_the_link_fails_the_witness_naming_the_sapling(monkeypatch, n):
    """Hiding an earlier sapling sigma + tau, tau an edge of the link's
    graph, removes tau from the link without removing a vertex: the link is
    no longer the flag complex on V_sigma, and the witness check says so."""
    for s, rows, earlier, sap, ids in graph_sapling_checks(monkeypatch, n):
        sigma = sum(1 << ids[b] for b in sap)
        V = [v for v in range(len(rows)) if not sigma >> v & 1 and not sigma & ~rows[v]
             and not any(not p & ~(sigma | 1 << v) for p in earlier)]
        edge = next(((u, v) for u, v in itertools.combinations(V, 2) if rows[u] >> v & 1), None)
        if edge is None:
            continue
        hidden = earlier + [sigma | 1 << edge[0] | 1 << edge[1]]
        with pytest.raises(TheoremError) as caught:
            theorems._link_vertices(rows, at_lowest(rows, hidden), sigma, sap)
        assert "an earlier sapling lies in the link's vertex set" in str(caught.value)
        assert caught.value.details["sapling"] == [b.label() for b in sap]


def injecting(monkeypatch, deg, saps, last=False):
    """Make thm_mobius_collapse meet `saps`, tuples of arcs, first (or last)
    in round `deg`."""
    real = theorems.saplings_of_degree

    def saplings(s, d):
        if d != deg:
            return real(s, d)
        return real(s, d) + saps if last else saps + real(s, d)

    monkeypatch.setattr(theorems, "saplings_of_degree", saplings)


@pytest.mark.parametrize("last", (False, True))
def test_a_sapling_listed_twice_in_its_round_fails_naming_it_twice(monkeypatch, last):
    """A sapling spans a face with itself; at n = 4 a two-arc sapling of
    round 2, listed once more first (or last)."""
    sap = next(sap for sap in theorems.saplings_of_degree(mobius_crown(4), 2) if len(sap) == 2)
    injecting(monkeypatch, 2, [sap], last)
    with pytest.raises(TheoremError) as caught:
        thm_mobius_collapse(4)
    assert "two same-round saplings span a common face" in str(caught.value)
    assert caught.value.details["pair"] == [[b.label() for b in sap]] * 2
    assert caught.value.details["degree"] == 2


def test_two_same_round_saplings_spanning_a_face_fail_naming_the_pair(monkeypatch):
    # b:1-3 and b:3-1 are disjoint, so their union is a face while round 1
    # has deleted nothing
    injecting(monkeypatch, 1, [(b_arc(1, 3),), (b_arc(3, 1),)])
    with pytest.raises(TheoremError) as caught:
        thm_mobius_collapse(4)
    assert "two same-round saplings span a common face" in str(caught.value)
    assert caught.value.details["pair"] == [["b:1-3"], ["b:3-1"]]
    assert caught.value.details["degree"] == 1


@pytest.mark.parametrize("last", (False, True))
@pytest.mark.parametrize("deg, sap, why", [
    # every loop misses both arcs, so a loop and this sapling span a clique
    # only if the sapling's own rows are left out of the union's
    (1, (b_arc(1, 3), b_arc(2, 4)), "the two arcs cross: no clique"),
    (2, (b_arc(1, 3), loop_b(1)), "a clique that holds M:1, deleted in round 1"),
    (1, (), "the empty face, which is no sapling of a round"),
])
def test_a_predicted_sapling_that_is_no_face_fails_naming_it(monkeypatch, deg, sap, why, last):
    injecting(monkeypatch, deg, [sap], last)
    with pytest.raises(TheoremError) as caught:
        thm_mobius_collapse(4)
    assert "predicted sapling is not a face" in str(caught.value), why
    assert caught.value.details["sapling"] == [b.label() for b in sap]
    assert caught.value.details["degree"] == deg


@pytest.mark.parametrize("deg", (1, 2))
def test_a_one_arc_sapling_left_out_of_its_round_fails_as_a_survivor(monkeypatch, deg):
    real = theorems.saplings_of_degree
    dropped = next(sap for sap in real(mobius_crown(4), deg) if len(sap) == 1)
    monkeypatch.setattr(theorems, "saplings_of_degree",
                        lambda s, d: [sap for sap in real(s, d) if sap != dropped])
    with pytest.raises(TheoremError) as caught:
        thm_mobius_collapse(4)
    assert "a b-arc scheduled for this round survived it" in str(caught.value)
    assert caught.value.details["degree"] == deg


def two_arc_sapling_link(monkeypatch):
    """A sapling of two arcs, and its link, as the editor oracle meets them at n = 4."""
    links = [x[:4] for x in sapling_links(monkeypatch, 4) if len(x[2]) == 2]
    assert links
    return links[0]


def test_a_link_with_a_facet_dropped_or_added_fails_naming_the_sapling(monkeypatch):
    links = [x[:4] for x in sapling_links(monkeypatch, 4)]
    two_arc = next(x for x in links if len(x[2]) == 2)
    remainder = links[-1]  # the empty sapling's link: what the rounds leave
    for s, L, sap, ids in (two_arc, remainder):
        labels = L.labels
        kept = L.facets[1:]
        dropped = make_complex({v: labels[v] for v in set().union(*kept)}, kept)
        stray = min(set(ids.values()) - set(labels))  # an arc outside the link
        added = make_complex({**labels, stray: "stray"}, [*L.facets, [stray]])
        cached: dict = {}
        oracles.sapling_link_length(s, set(L.facets), sap, ids, cached)
        for changed in (dropped, added):
            for models in ({}, cached):  # whether or not the sapling's model is cached
                with pytest.raises(TheoremError) as caught:
                    oracles.sapling_link_length(s, set(changed.facets), sap, ids, models)
                assert "link is not the join" in str(caught.value)
                assert caught.value.details["sapling"] == [b.label() for b in sap]
            assert not factorwise_sapling_link_check(s, changed, sap, ids)


@pytest.mark.parametrize("key", [((2,), 3), ((2, 2), 2), ((3,), 2), ((2, 3), 2), ((), 4)])
def test_a_model_trace_with_a_step_dropped_or_altered_fails_naming_the_model(monkeypatch, key):
    _, t = oracles.link_model(key, {})
    convert = oracles.strong_to_elementary
    broken = []
    for i, (free, coface) in enumerate(t.steps):
        broken.append(t.steps[:i] + t.steps[i + 1:])
        # the same free face with a coface one vertex larger, which is not its only facet
        other = min(set().union(*(c for _, c in t.steps)) - coface)
        broken.append(t.steps[:i] + ((free, coface | {other}),) + t.steps[i + 1:])
    for steps in broken:
        monkeypatch.setattr(oracles, "strong_to_elementary", lambda c, strong, s=steps: CollapseTrace(s))
        with pytest.raises(TheoremError) as caught:
            oracles.link_model(key, {})
        assert "does not collapse its join" in str(caught.value)
        assert caught.value.details["model"] == [list(key[0]), key[1]]
    # a wrong witness in the strong trace fails the conversion, naming the model
    def misnamed(c, strong):
        (v, _), *rest = strong.steps
        w = min(set(c.vertex_ids) - dominating_set(c, v) - {v})
        return convert(c, StrongTrace(((v, w), *rest)))

    monkeypatch.setattr(oracles, "strong_to_elementary", misnamed)
    with pytest.raises(TheoremError) as caught:
        oracles.link_model(key, {})
    assert "witness fails" in str(caught.value)
    assert caught.value.details["model"] == [list(key[0]), key[1]]


def test_a_broken_model_trace_fails_the_suite_naming_the_model(monkeypatch):
    """A model trace one step short fails the editor oracle, and a trunk core
    whose first witness is wrong fails the suite's replay on the join rows."""
    convert = oracles.strong_to_elementary
    monkeypatch.setattr(oracles, "strong_to_elementary",
                        lambda c, strong: CollapseTrace(convert(c, strong).steps[:-1]))
    with pytest.raises(TheoremError) as caught:
        editor_mobius_collapse(4)
    assert caught.value.details["model"] == [[4], 1]  # the first sapling, a loop, has wrap 4
    trunk = theorems._trunk

    def misnamed(deg, models):
        graph, c_arcs, (left, strong), faces, facets = trunk(deg, models)
        if strong.steps:
            (v, _), *rest = strong.steps
            strong = StrongTrace(((v, v), *rest))  # a vertex never dominates itself
        return graph, c_arcs, (left, strong), faces, facets

    monkeypatch.setattr(theorems, "_trunk", misnamed)
    with pytest.raises(TheoremError) as caught:
        thm_mobius_collapse(4)
    assert "step 0" in str(caught.value)
    # round 1's trunks have one vertex and no step; round 2 starts with a
    # sapling of two arcs of wrap 2, whose trunk has degree 2
    assert caught.value.details["model"] == [[2, 2], 2]


# --- non-strong-collapsibility ---------------------------------------------------------


def test_mobius_four_stage_predictions():
    report = thm_mobius_not_strong(4)
    details = report.claims[0].details
    assert details["core_vertices"] == 14
    assert details["removed"] == 8


@pytest.mark.parametrize("n", (4, 5))
def test_mobius_core_graph_stages_match_the_facet_stage_check(n):
    s = mobius_crown(n)
    graph = disjointness_graph(s)
    ids = arc_ids(s)
    stages = 0
    for I, J in mobius_stages(n):
        removed = [ids[loop_b(j)] for j in I] + [ids[mobius_ridge_arc(p)] for p in J]
        alive = (1 << len(graph.vertices)) - 1 & ~sum(1 << v for v in removed)
        dom = {}
        for v in graph.vertices:
            if alive >> v & 1 and (d := graph_dominating_set(graph, alive, v)):
                dom[v] = {w for w in graph.vertices if d >> w & 1}
        assert dom == facet_stage_domination(s, graph, removed)
        stages += 1
    assert stages == thm_mobius_not_strong(n).claims[0].details["stages_checked"]


@pytest.mark.parametrize("n", range(4, 9))
def test_every_stage_check_passes_on_the_stages_the_suite_counts(n):
    every = every_mobius_stage_check(n)
    assert len(every) == thm_mobius_not_strong(n).claims[0].details["stages_checked"]


@pytest.mark.parametrize("n", range(4, 13))
def test_the_matrix_trace_stage_count_is_the_enumeration(n):
    stages = thm_mobius_not_strong(n).claims[0].details["stages_checked"]
    assert stages == sum(1 for _ in mobius_stages(n))


@pytest.mark.parametrize("n", range(4, 8))
def test_the_canonical_core_on_facets_ends_at_the_complex_on_a_minus_d(n):
    facet_mobius_core_check(n)


# the first words of the suite's message for each whole-graph check
CHECK_MESSAGES = {
    "(a)": rf"^{MOBIUS_CORE_CLAIM}: M:\d+ is not dominated by L:\d+ at every stage",
    "(b)": rf"^{MOBIUS_CORE_CLAIM}: b-arc at \(\d+, \d+\) is not dominated by its c-arc witness",
    "(c)": rf"^{MOBIUS_CORE_CLAIM}: a vertex outside D is dominated at some stage",
    "(d)": rf"^{MOBIUS_CORE_CLAIM}: b-arc at \(\d+, \d+\) is dominated at some stage that keeps M:",
}


@pytest.mark.parametrize(
    ("which", "check"),
    [(0, "(a)"), (1, "(a)"), (2, "(b)"), (3, "(b)")],
    ids=["loops", "loop-witnesses", "ridges", "ridge-witnesses"],
)
def test_a_perturbed_prediction_fails_the_lemma(monkeypatch, which, check):
    # two loops, L witnesses, ridge b-arcs or c-arc witnesses swap places:
    # the first two trip check (a), the last two check (b)
    real = theorems._mobius_prediction

    def perturbed(n):
        maps = list(real(n))
        a, b = list(maps[which])[:2]
        maps[which] = {**maps[which], a: maps[which][b], b: maps[which][a]}
        return tuple(maps)

    monkeypatch.setattr(theorems, "_mobius_prediction", perturbed)
    with pytest.raises(TheoremError, match=CHECK_MESSAGES[check]):
        thm_mobius_not_strong(5)


def toggled(graph, x, y):
    """graph with the edge between positions x and y removed if present, else added."""
    rows = list(graph.closed_neighbourhoods)
    rows[x] ^= 1 << y
    rows[y] ^= 1 << x
    return Graph(graph.vertices, tuple(rows))


def every_stage_passes_on(n, graph) -> bool:
    try:
        every_mobius_stage_check(n, graph)
    except AssertionError:
        return False
    return True


def suite_passes_on(monkeypatch, n, graph) -> bool:
    monkeypatch.setattr(theorems, "disjointness_graph", lambda s: graph)
    try:
        thm_mobius_not_strong(n)
    except TheoremError:
        return False
    return True


@pytest.mark.parametrize(
    ("x", "y", "check"),
    [
        (loop_c(1), b_arc(1, 3), "(a)"),
        (loop_c(1), cc_arc(1, 2), "(b)"),
        (loop_c(1), cc_arc(2, 5), "(c)"),
        (loop_c(1), loop_c(2), "(d)"),
    ],
    ids=["a", "b", "c", "d"],
)
def test_one_toggled_edge_trips_each_whole_graph_check(monkeypatch, x, y, check):
    s = mobius_crown(5)
    ids = arc_ids(s)
    graph = toggled(disjointness_graph(s), ids[x], ids[y])
    assert not every_stage_passes_on(5, graph)
    monkeypatch.setattr(theorems, "disjointness_graph", lambda s: graph)
    with pytest.raises(TheoremError, match=CHECK_MESSAGES[check]) as failed:
        thm_mobius_not_strong(5)
    if check in ("(c)", "(d)"):
        # the dominators named are those the neighbour-by-neighbour scan finds
        loops, _, ridge, _ = theorems._mobius_prediction(5)
        K = (1 << len(graph.vertices)) - 1 & ~sum(1 << v for v in (*loops.values(), *ridge.values()))
        if check == "(c)":
            v, kept = failed.value.details["arc"], K
        else:
            i, j, e = map(int, re.search(r"at \((\d+), (\d+)\).*?M:(\d+)", str(failed.value)).groups())
            v, kept = ridge[i, j], K | 1 << loops[e]
        nbhds = graph.closed_neighbourhoods
        scanned = [w for w in _bits(nbhds[v] & ~(1 << v)) if not nbhds[v] & ~nbhds[w] & kept]
        assert scanned and failed.value.details["by"] == scanned == sorted(scanned)


def test_the_suite_passes_on_a_toggled_graph_iff_every_stage_check_does(monkeypatch):
    graph = disjointness_graph(mobius_crown(4))
    outcomes = set()
    for x, y in itertools.combinations(range(len(graph.vertices)), 2):
        g = toggled(graph, x, y)
        staged = every_stage_passes_on(4, g)
        assert suite_passes_on(monkeypatch, 4, g) == staged, (x, y)
        outcomes.add(staged)
    assert outcomes == {True, False}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_the_suite_agrees_with_every_stage_check_on_sampled_toggles(data):
    graph = disjointness_graph(mobius_crown(5))
    x, y = data.draw(st.sets(st.integers(0, len(graph.vertices) - 1), min_size=2, max_size=2))
    g = toggled(graph, x, y)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert suite_passes_on(monkeypatch, 5, g) == every_stage_passes_on(5, g)


@pytest.mark.parametrize(
    ("bad", "message"),
    [(("canonical", 0), "canonical core has the wrong vertex set"),
     (("random", 19), r"random removal order \(seed 19\) reached a different terminal")],
)
def test_every_call_checks_the_canonical_core_and_twenty_random_ones(monkeypatch, bad, message):
    # the lemma already fixes every core, so only a core that lies can fail here
    calls = []
    real = theorems.graph_core

    def recording(g, order="canonical", seed=0):
        calls.append((order, seed))
        left, steps = real(g, order=order, seed=seed)
        return (left ^ 1 if (order, seed) == bad else left), steps

    monkeypatch.setattr(theorems, "graph_core", recording)
    with pytest.raises(TheoremError, match=message):
        thm_mobius_not_strong(5)
    every = [("canonical", 0), *(("random", seed) for seed in range(20))]
    assert calls == every[:every.index(bad) + 1]


def test_ridge_arc_dominated_after_removing_two_adjacent_loops():
    # removing M_1 and M_2 makes the b-arc joining 1 and 2 dominated by (1,2)
    s = mobius_crown(4)
    ids = arc_ids(s)
    X = induced_arc_complex(s, disjointness_graph(s), [ids[loop_b(1)], ids[loop_b(2)]])
    dom = dict(dominated_vertices(X))
    ridge = ids[b_arc(2, 1)]
    assert ridge in dom and dom[ridge] == ids[cc_arc(1, 2)]


def test_mobius_not_strong_rejects_small_n():
    with pytest.raises(TheoremError):
        thm_mobius_not_strong(3)


# --- strips -----------------------------------------------------------------------------


def test_strip_three_two_worked_instance():
    report = thm_strip_strong(3, 2)
    claim = report.claims[0]
    assert claim.status == "pass"
    assert claim.details["vertices"] == 4
    schedule = StrongTrace.from_json(claim.details["schedule"])
    # two scheduled removals strip the top row, then the 1-simplex collapses
    assert len(schedule.steps) == 3


def test_strip_row_case_is_a_simplex():
    report = thm_strip_strong(1, 6)
    claim = report.claims[0]
    assert claim.status == "pass"
    assert claim.details["dimension"] == 3  # n - 3


def test_strip_two_two_is_reported_outside_hypothesis():
    report = thm_strip_strong(2, 2)
    claim = report.claims[0]
    assert claim.status == "info"
    assert "0-sphere" in claim.details["note"]


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1)])
def test_a_strip_with_no_arc_reports_the_empty_face(m, n):
    claim = thm_strip_strong(m, n).claims[0]
    assert claim.status == "info"
    assert (claim.details["vertices"], claim.details["facets"], claim.details["dimension"]) == (0, 1, -1)


def test_maximal_chains_count_the_maximal_cliques_of_every_strip_up_to_nine():
    for m, n in itertools.product(range(1, 10), repeat=2):
        g = disjointness_graph(integral_strip(m, n))
        # with no vertex the one facet is the empty face, which max_cliques omits
        assert theorems._maximal_chains(g) == (len(max_cliques(g)) or 1), (m, n)


def test_maximal_chains_match_the_lattice_path_count_up_to_twenty():
    for m, n in itertools.product(range(1, 21), repeat=2):
        g = disjointness_graph(integral_strip(m, n))
        assert theorems._maximal_chains(g) == math.comb(m + n - 2, m - 1), (m, n)


def test_the_strip_suite_builds_no_facet(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the strip suite built facets")

    # flag_complex reaches max_cliques through the simplicial module
    for name in ("flag_complex", "max_cliques"):
        monkeypatch.setattr(simplicial, name, refuse)
        monkeypatch.setattr(theorems, name, refuse, raising=False)
    for m, n in [(1, 2), (1, 6), (6, 1), (2, 2), (3, 2), (5, 7)]:
        assert thm_strip_strong(m, n).all_passed


@pytest.mark.parametrize("m,n,message", [(1, 6, "not a simplex"), (6, 1, "not a simplex"),
                                         (2, 2, "should be a 0-sphere")])
def test_one_toggled_edge_fails_the_strip_edge_cases(monkeypatch, m, n, message):
    graph = toggled(disjointness_graph(integral_strip(m, n)), 0, 1)
    monkeypatch.setattr(theorems, "disjointness_graph", lambda s: graph)
    with pytest.raises(TheoremError, match=message):
        thm_strip_strong(m, n)


STRIPS = [(m, k - m) for k in range(5, 10) for m in range(2, k - 1)]  # 5 <= m+n <= 9


@pytest.mark.parametrize("m,n", STRIPS)
def test_strip_schedule_passes(m, n):
    report = thm_strip_strong(m, n)
    assert report.all_passed
    assert replayed(report, arc_complex(integral_strip(m, n))).n_vertices == 1


@pytest.mark.parametrize("m,n", STRIPS)
def test_strip_graph_checks_match_their_facet_forms(m, n):
    s = integral_strip(m, n)
    graph = disjointness_graph(s)
    everyone = (1 << len(graph.vertices)) - 1
    firsts = {arc_ids(s)[strip_arc(1, j)] for j in range(2, n + 1)}
    for editor, alive, step in lockstep(thm_strip_strong(m, n), arc_complex(s), everyone):
        if step and step[0] in firsts:
            assert step[1] == link_apex(editor, step[0])  # the witness the facet suite named
        assert theorems._simplex(graph, alive) == (len(editor.facets()) == 1)
        for v in _bits(alive):
            lk = graph.closed_neighbourhoods[v] & alive & ~(1 << v)
            lowest = (lk & -lk).bit_length() - 1
            assert link_apex(editor, v) == (lowest if theorems._simplex(graph, lk) else None)


# --- certificates -----------------------------------------------------------------------


@pytest.mark.parametrize("verdict,dim,ok,status", [
    ("sphere", 2, True, "pass"), ("sphere", 2, False, "fail"),
    ("ball", 2, True, "fail"), ("sphere", 1, True, "fail"),
])
def test_a_certificate_claim_fails_on_each_check(complex_of, verdict, dim, ok, status):
    report = theorems.Report()
    theorems._add_certificate(report, "claim", "ref", 6, complex_of("polygon", 6), verdict, dim, ok,
                              facets=14)
    [claim] = report.claims
    assert claim.status == status
    assert claim.details == {"verdict": "sphere", "dim": 2, "rule": "danaraj-klee", "facets": 14}


def test_a_certificate_claim_fails_on_the_euler_characteristic(monkeypatch, complex_of):
    # a 2-ball certificate for an annulus, whose Euler characteristic is 0
    annulus = make_complex({v: f"v{v}" for v in range(6)},
                           [[0, 1, 3], [1, 3, 4], [1, 2, 4], [2, 4, 5], [0, 2, 5], [0, 3, 5]])
    ball = certify(complex_of("crown", 3))
    monkeypatch.setattr(theorems, "certify", lambda c: ball)
    report = theorems.Report()
    theorems._add_certificate(report, "claim", "ref", 3, annulus, "ball", 2)
    assert report.claims[0].status == "fail"


# --- runner -----------------------------------------------------------------------------


def test_run_all_small_limits():
    limits = Limits(polygon=5, crown=3, mobius=3, inner_mobius=3, strip=5)
    report = run_all(limits, seed=7)
    assert report.all_passed
    assert report.to_json()["seed"] == 7
    claims = {c.claim for c in report.claims}
    assert "crown-strong-collapse" in claims
    assert "mobius-3-strong-collapsibility" in claims
    # not-a-paper-claim entries are informational
    info = [c for c in report.claims if c.claim == "mobius-3-strong-collapsibility"]
    assert info[0].status == "info" and info[0].paper_ref == "not-a-paper-claim"


def test_run_all_with_jobs_matches_serial():
    limits = Limits(polygon=4, crown=2, mobius=2, inner_mobius=2, strip=4)
    serial = run_all(limits, seed=0, jobs=1)
    parallel = run_all(limits, seed=0, jobs=4)
    strip_json = lambda r: [c.to_json() for c in r.claims]
    assert strip_json(serial) == strip_json(parallel)


def test_run_all_zero_limits_is_empty():
    limits = Limits(polygon=3, crown=0, mobius=0, inner_mobius=0, strip=1)
    report = run_all(limits)
    assert report.claims == []


def test_run_all_passes_the_crown_limit_to_every_crown_suite(monkeypatch):
    from arclab import theorems

    seen = {}

    def recorder(name):
        def suite(n):
            seen.setdefault(name, []).append(n)
            return theorems.Report()

        return suite

    for name in ("thm_crown_strong", "crown_ball_certificates", "crown_flip_diameters"):
        monkeypatch.setattr(theorems, name, recorder(name))
    run_all(Limits(polygon=3, crown=7, mobius=0, inner_mobius=0, strip=1))
    assert seen == {
        "thm_crown_strong": [1, 2, 3, 4, 5, 6, 7],
        "crown_ball_certificates": [7],
        "crown_flip_diameters": [7],
    }
