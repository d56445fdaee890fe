"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every expected value here is either trivially forced, frozen from an
independent oracle, or a witness-level schedule assertion.
"""

import itertools
import random

from arclab.arcs import (
    crown,
    disjoint,
    enumerate_arcs,
    integral_strip,
    mobius_crown,
    polygon,
)
from arclab.build import arc_complex
from arclab.certify import certify, flip_graph, graph_diameter, is_connected
from arclab.collapse import cone_collapse_trace, verify_trace, welker_expand
from arclab.simplicial import (
    dimension,
    euler_characteristic,
    is_cone,
    is_pure,
    isomorphic,
    join,
    link,
    make_complex,
)
from arclab.strong import core, strong_to_elementary
from arclab.theorems import (
    thm_crown_strong,
    thm_inner_mobius,
    thm_mobius_collapse,
    thm_mobius_not_strong,
    thm_strip_strong,
)
from oracles import apply_collapse, catalan, join_lift_trace, point_complex, reflected, rotated


def _report(k: int, text: str) -> None:
    print(f"criterion {k}: PASS - {text}")


def test_criterion_1_crown_strong_collapsibility(complex_of):
    for n in range(1, 7):
        report = thm_crown_strong(n)
        assert report.all_passed
        assert core(complex_of("crown", n))[0].n_vertices == 1
    _report(1, "crowns n=1..6 strongly collapsible by schedule and core")


def test_criterion_2_inner_mobius_strong_collapsibility():
    for n in range(1, 8):
        assert thm_inner_mobius(n).all_passed
    _report(2, "inner mobius complexes n=1..7 strongly collapsible with witnesses")


def test_criterion_3_mobius_collapse_traces():
    for n in range(1, 6):
        report = thm_mobius_collapse(n)
        assert report.all_passed
    _report(3, "mobius complexes n=1..5 collapse to a point via sapling rounds")


def test_criterion_4_mobius_core_obstruction():
    for n in (4, 5, 6):
        report = thm_mobius_not_strong(n)
        assert report.all_passed
        details = report.claims[0].details
        assert details["removed"] == 2 * n
    _report(4, "dominated-set predictions and cores for n=4,5,6; 20 orders agree")


def test_criterion_5_strip_strong_collapsibility():
    for m in range(1, 10):
        for n in range(1, 11 - m):
            report = thm_strip_strong(m, n)
            if m >= 2 and n >= 2 and m + n >= 5:
                assert report.all_passed and report.claims[0].status == "pass"
            else:
                assert report.all_passed
    # the excluded (2,2) case really is a 0-sphere
    assert core(arc_complex(integral_strip(2, 2)))[0].n_vertices != 1
    _report(5, "strips m,n>=2, 5<=m+n<=10 strongly collapsible; edge cases honest")


def test_criterion_6_ball_and_sphere_certificates(complex_of):
    expected_catalan = {4: 2, 5: 5, 6: 14, 7: 42, 8: 132}
    for n in range(4, 9):
        c = complex_of("polygon", n)
        assert len(c.facets) == catalan(n - 2) == expected_catalan[n]
        cert = certify(c)
        assert cert.verdict == "sphere" and cert.dim == n - 4
        assert euler_characteristic(c) == 1 + (-1) ** (n - 4)
    for n in range(2, 6):
        for family in ("crown", "mobius"):
            c = complex_of(family, n)
            cert = certify(c)
            assert cert.verdict == "ball" and cert.dim == n - 1
            assert euler_characteristic(c) == 1
    _report(6, "sphere certificates for polygons (catalan facets), balls for crowns")


def test_criterion_7_crown_flip_diameters(complex_of):
    values = {}
    for n in range(2, 6):
        g = flip_graph(complex_of("crown", n))
        assert is_connected(g)
        values[n] = graph_diameter(g)
        assert values[n] == 2 * n - 2
    assert values == {2: 2, 3: 4, 4: 6, 5: 8}
    _report(7, "crown flip graphs connected with diameter 2n-2 (2,4,6,8)")


def test_criterion_8_predicate_soundness_gates(complex_of):
    surfaces = (
        [polygon(n) for n in range(4, 9)]
        + [crown(n) for n in range(1, 9)]
        + [mobius_crown(n) for n in range(1, 9)]
    )
    for s in surfaces:
        arcs = enumerate_arcs(s)
        for x, y in itertools.combinations(arcs, 2):
            d = disjoint(s, x, y)
            assert d == disjoint(s, y, x)
            assert d == disjoint(s, rotated(s, x), rotated(s, y))
            assert d == disjoint(s, reflected(s, x), reflected(s, y))
    for m, n in [(2, 3), (3, 4), (4, 4)]:
        s = integral_strip(m, n)
        arcs = enumerate_arcs(s)
        for x, y in itertools.combinations(arcs, 2):
            assert disjoint(s, x, y) == disjoint(s, y, x)
            assert disjoint(s, x, y) == disjoint(
                s, reflected(s, x), reflected(s, y)
            )
    for family, top in (("crown", 6), ("mobius", 5)):
        for n in range(1, top + 1):
            c = complex_of(family, n)
            assert is_pure(c) and dimension(c) == n - 1
            labels = c.labels
            for f in c.facets:
                assert any(not labels[v].startswith(("b:", "M:")) for v in f)
    for n in range(3, 6):
        c = complex_of("crown", n)
        ids = {label: v for v, label in c.vertex_labels}
        lk = link(c, [ids["M:1"]])
        model = join(arc_complex(polygon(n + 1)), point_complex(10_000, "apex"))
        assert isomorphic(lk, model)
    _report(8, "predicate symmetry/equivariance, purity, and loop-link structure")


def _random_complex(rng, pool, max_facets=6, max_size=4):
    facets = [
        rng.sample(pool, rng.randint(1, min(max_size, len(pool))))
        for _ in range(rng.randint(1, max_facets))
    ]
    ids = {v for f in facets for v in f}
    return make_complex({v: f"v{v}" for v in ids}, facets)


def _assert_chi_invariant(c, t):
    chi = euler_characteristic(c)
    current = c
    for step in t.steps:
        current = apply_collapse(current, *step)
        assert euler_characteristic(current) == chi
    return current


def test_criterion_9_randomized_machinery_checks():
    rng = random.Random(20260810)
    runs = 0
    for _ in range(25):  # cone collapse traces
        base = _random_complex(rng, range(6))
        c = join(base, point_complex(50, "apex"))
        t = cone_collapse_trace(c)
        verdict = verify_trace(c, t)
        assert verdict.valid and verdict.terminal.n_vertices == 1
        _assert_chi_invariant(c, t)
        runs += 1
    for _ in range(25):  # join lifts of cone collapses
        x = _random_complex(rng, range(5))
        y = join(_random_complex(rng, range(10, 14)), point_complex(60, "w"))
        ty = cone_collapse_trace(y)
        lifted = join_lift_trace(x, ty)
        assert len(lifted) == (sum(1 for _ in _faces_with_empty(x))) * len(ty)
        joined = join(x, y)
        verdict = verify_trace(joined, lifted)
        assert verdict.valid
        _assert_chi_invariant(joined, lifted)
        runs += 1
    for _ in range(25):  # welker expansions over cone links
        base = _random_complex(rng, range(20, 25))
        edge = make_complex({90: "x", 91: "y"}, [[90, 91]])
        c = join(base, edge)
        lk = link(c, [90])  # base joined with the point 91: a cone
        apex = is_cone(lk)
        assert apex is not None
        expansion = welker_expand(c, [90], cone_collapse_trace(lk, apex=apex))
        verdict = verify_trace(c, expansion)
        assert verdict.valid
        assert len(expansion) == len(cone_collapse_trace(lk, apex=apex)) + 1
        _assert_chi_invariant(c, expansion)
        runs += 1
    for _ in range(25):  # strong-to-elementary conversions
        c = _random_complex(rng, range(7))
        terminal, strong = core(c)
        elem = strong_to_elementary(c, strong)
        verdict = verify_trace(c, elem)
        assert verdict.valid and verdict.terminal == terminal
        _assert_chi_invariant(c, elem)
        runs += 1
    assert runs == 100
    _report(9, "100 randomized trace constructions replay with invariant chi")


def _faces_with_empty(c):
    from arclab.simplicial import faces

    return faces(c, include_empty=True)
