import json

import pytest

from arclab import cli
from arclab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_mobius_three(tmp_path, capsys):
    out = tmp_path / "m3.json"
    code, _, err = run(capsys, "gen", "--surface", "mobius", "--n", "3", "--out", str(out))
    assert code == 0 and err == ""
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 12
    assert data["surface"] == {"family": "mobius", "n": 3}


def test_gen_round_trip_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "c4.json"
    code, _, _ = run(capsys, "gen", "--surface", "crown", "--n", "4", "--out", str(out))
    assert code == 0
    from arclab.simplicial import dumps_canonical, loads_complex

    text = out.read_text()
    assert dumps_canonical(loads_complex(text)) == text


def test_gen_empty_polygon_warns(capsys):
    code, out, err = run(capsys, "gen", "--surface", "polygon", "--n", "3")
    assert code == 0
    assert "no nontrivial arcs" in err
    assert json.loads(out)["vertices"] == []


def test_gen_dot_output(capsys):
    code, out, _ = run(capsys, "gen", "--surface", "crown", "--n", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("graph arcs {")
    assert '"c:1"' in out and '"M:1"' in out
    # edge count = number of disjoint pairs of the predicate
    from itertools import combinations

    from arclab.arcs import crown, disjoint, enumerate_arcs

    s = crown(4)
    expected = sum(
        1 for x, y in combinations(enumerate_arcs(s), 2) if disjoint(s, x, y)
    )
    assert out.count(" -- ") == expected


def test_gen_dot_builds_no_complex(monkeypatch, capsys):
    def refuse(s):
        raise AssertionError("gen --format dot built the arc complex")

    monkeypatch.setattr(cli, "arc_complex", refuse)
    code, out, _ = run(capsys, "gen", "--surface", "polygon", "--n", "6", "--format", "dot")
    assert code == 0 and out.count(";") == 9 + 21  # nine diagonals, 21 disjoint pairs
    assert '"d:1-3";' in out and '"d:1-3" -- "d:1-4";' in out
    code, out, err = run(capsys, "gen", "--surface", "polygon", "--n", "3", "--format", "dot")
    assert code == 0 and "no nontrivial arcs" in err
    assert out == "graph arcs {\n}\n"


def test_gen_rejects_bad_flags(capsys):
    code, _, _ = run(capsys, "gen", "--surface", "klein", "--n", "3")
    assert code == 2
    code, _, _ = run(capsys, "gen", "--surface", "strip", "--n", "3")
    assert code == 2  # missing --m


@pytest.mark.parametrize("surface", ["polygon", "crown", "mobius"])
def test_gen_rejects_m_on_a_surface_with_one_vertex_count(capsys, surface):
    code, out, err = run(capsys, "gen", "--surface", surface, "--n", "2", "--m", "5")
    assert code == 2 and out == ""
    assert "takes a single vertex count" in err


def test_check_reports_certificate(tmp_path, capsys):
    src = tmp_path / "m3.json"
    run(capsys, "gen", "--surface", "mobius", "--n", "3", "--out", str(src))
    code, out, _ = run(capsys, "check", "--in", str(src), "--cert-level", "fast")
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["verdict"] == {"kind": "ball", "dim": 2}


@pytest.mark.parametrize("points,verdict,notes", [
    (1, {"kind": "ball", "dim": 0}, []),
    (2, {"kind": "sphere", "dim": 0}, []),
    (3, {"kind": "undetermined", "dim": None}, []),
    (0, {"kind": "undetermined", "dim": None}, ["empty complex"]),
])
def test_check_certifies_points_and_the_empty_complex(tmp_path, capsys, points, verdict, notes):
    # points are never searched: one is a ball, two a sphere, three no pseudomanifold
    src = tmp_path / "points.json"
    src.write_text(json.dumps({"vertices": [{"id": i, "label": f"p{i}"} for i in range(points)],
                               "facets": [[i] for i in range(points)]}))
    code, out, _ = run(capsys, "check", "--in", str(src), "--cert-level", "full")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert (cert["verdict"], cert["notes"]) == (verdict, notes)
    assert cert["rule"] == ("danaraj-klee" if points in (1, 2) else None)


def test_check_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [{"id": 0, "label": "a"}], "facets": [[1]]}')
    code, _, err = run(capsys, "check", "--in", str(bad))
    assert code == 2
    assert "facets[0]" in err


@pytest.mark.parametrize("text,message", [
    ('{"vertices": [{"id": true, "label": "a"}], "facets": [[true]]}', "vertices[0]"),
    ('{"surface": {"family": "strip", "n": 3}, "vertices": [{"id": 0, "label": "a"}],'
     ' "facets": [[0]]}', "strip needs"),
    ('{"vertices": 5, "facets": []}', "vertices must be a list"),
    ('{"vertices": [], "facets": 7}', "facets must be a list"),
    ('{"vertices": [{"id": 0, "label": "a"}], "facets": [[0, 0]]}', "distinct vertex ids"),
])
def test_check_rejects_coerced_input(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "check", "--in", str(bad))
    assert code == 2 and out == ""
    assert message in err


def test_collapse_search_on_mobius_two(tmp_path, capsys):
    src = tmp_path / "m2.json"
    run(capsys, "gen", "--surface", "mobius", "--n", "2", "--out", str(src))
    code, out, _ = run(capsys, "collapse", "--in", str(src))
    assert code == 0
    payload = json.loads(out)
    assert payload["collapsed_to_point"] is True
    assert len(payload["terminal_vertices"]) == 1


def test_collapse_fails_on_sphere(tmp_path, capsys):
    src = tmp_path / "p5.json"
    run(capsys, "gen", "--surface", "polygon", "--n", "5", "--out", str(src))
    code, out, _ = run(capsys, "collapse", "--in", str(src))
    assert code == 1
    assert json.loads(out)["collapsed_to_point"] is False


def test_core_of_mobius_four(tmp_path, capsys):
    src = tmp_path / "m4.json"
    run(capsys, "gen", "--surface", "mobius", "--n", "4", "--out", str(src))
    core_out = tmp_path / "core.json"
    trace_out = tmp_path / "trace.json"
    code, out, _ = run(
        capsys,
        "core",
        "--in",
        str(src),
        "--out",
        str(core_out),
        "--trace-out",
        str(trace_out),
    )
    assert code == 0
    assert "core: 14 vertices" in out
    core_data = json.loads(core_out.read_text())
    assert len(core_data["vertices"]) == 14
    trace_data = json.loads(trace_out.read_text())
    assert len(trace_data) == 8
    assert {"removed", "witness"} <= set(trace_data[0])


def test_core_to_stdout_is_one_json_document(tmp_path, capsys):
    src = tmp_path / "m4.json"
    run(capsys, "gen", "--surface", "mobius", "--n", "4", "--out", str(src))
    # json.loads fails on any summary line printed after the document
    code, out, _ = run(capsys, "core", "--in", str(src), "--out", "-")
    assert code == 0 and len(json.loads(out)["vertices"]) == 14
    code, out, _ = run(capsys, "core", "--in", str(src), "--trace-out", "-")
    assert code == 0 and len(json.loads(out)) == 8


def test_core_rejects_both_outputs_on_stdout_before_loading(monkeypatch, capsys):
    def refuse(path):
        raise AssertionError("core loaded its input before checking its outputs")

    monkeypatch.setattr(cli, "_load_complex", refuse)
    code, out, err = run(capsys, "core", "--in", "m4.json", "--out", "-", "--trace-out", "-")
    assert code == 2 and out == ""
    assert "both name stdout" in err


def test_flip_diameter_of_crown_four(tmp_path, capsys):
    src = tmp_path / "c4.json"
    run(capsys, "gen", "--surface", "crown", "--n", "4", "--out", str(src))
    code, out, _ = run(capsys, "flip", "--in", str(src), "--diameter")
    assert code == 0
    stats = json.loads(out)
    assert stats["diameter"] == 6 and stats["connected"] is True


def test_theorems_small_limits(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "theorems",
        "--max-polygon", "4",
        "--max-crown", "2",
        "--max-mobius", "3",
        "--max-inner-mobius", "2",
        "--max-strip", "5",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["tool"] == "arclab"
    statuses = {c["status"] for c in report["claims"]}
    assert "fail" not in statuses
    for claim in report["claims"]:
        assert {"claim", "paper_ref", "n", "status", "evidence_path"} <= set(claim)


def test_missing_input_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--in", "/nonexistent/file.json")
    assert code == 2
    assert "no such file" in err


def test_a_directory_as_input_is_an_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "check", "--in", str(tmp_path))
    assert code == 2 and out == ""
    assert str(tmp_path) in err and len(err.splitlines()) == 1


def test_an_output_in_a_missing_directory_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, _, err = run(capsys, "gen", "--surface", "mobius", "--n", "3", "--out", str(out))
    assert code == 2 and not out.parent.exists()
    assert str(out) in err and len(err.splitlines()) == 1


def test_theorems_evidence_dir(tmp_path, capsys):
    out = tmp_path / "report.json"
    evidence = tmp_path / "evidence"
    code, _, _ = run(
        capsys,
        "theorems",
        "--max-polygon", "3",
        "--max-crown", "2",
        "--max-mobius", "0",
        "--max-inner-mobius", "0",
        "--max-strip", "0",
        "--out", str(out),
        "--evidence-dir", str(evidence),
    )
    assert code == 0
    report = json.loads(out.read_text())
    detailed = [c for c in report["claims"] if c["evidence_path"]]
    assert detailed, "claims with details should point at evidence files"
    for claim in detailed:
        assert claim["details"] == {}
        payload = json.loads(open(claim["evidence_path"]).read())
        assert isinstance(payload, dict) and payload


def test_budget_flag_sets_the_search_budget(tmp_path, capsys):
    src = tmp_path / "m2.json"
    run(capsys, "gen", "--surface", "mobius", "--n", "2", "--out", str(src))
    code, out, _ = run(capsys, "collapse", "--in", str(src), "--budget", "1")
    assert code == 1  # budget of one node cannot finish the search
    assert json.loads(out)["collapsed_to_point"] is False
    code, _, err = run(capsys, "collapse", "--in", str(src), "--budget", "not-a-number")
    assert code == 2 and "--budget" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_collapse_rejects_a_budget_flag_below_one(tmp_path, capsys, budget):
    src = tmp_path / "m2.json"
    run(capsys, "gen", "--surface", "mobius", "--n", "2", "--out", str(src))
    code, out, err = run(capsys, "collapse", "--in", str(src), "--budget", budget)
    assert code == 2 and out == ""
    assert "at least 1" in err


@pytest.mark.parametrize("flag, value, minimum", [
    ("--max-polygon", "-1", 0),
    ("--max-crown", "-3", 0),
    ("--max-mobius", "-2", 0),
    ("--max-inner-mobius", "-1", 0),
    ("--max-strip", "-5", 0),
])
def test_theorems_rejects_limits_below_their_minimum(tmp_path, capsys, flag, value, minimum):
    out = tmp_path / "report.json"
    code, _, err = run(capsys, "theorems", flag, value, "--out", str(out))
    assert code == 2 and not out.exists()
    assert f"invalid {flag}={value}: expected an integer of at least {minimum}" in err


def test_theorems_limit_flags_default_to_the_limits():
    import dataclasses

    from arclab.cli import build_parser
    from arclab.theorems import Limits

    args = build_parser().parse_args(["theorems"])
    defaults = dataclasses.asdict(Limits())
    assert {name: getattr(args, f"max_{name}") for name in defaults} == defaults
