"""Self-test of the benchmark on tiny inputs (about ten seconds).

    python3 -m pytest -q perfbench/test_bench.py

Runs every workload once untraced and once traced at the self-test sizes in
`workloads.TINY_LIMITS`, and checks the metric names, the tracer's coverage
and the layers each workload is predicted not to touch.
"""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    return {
        (name, trace): run.measure(name, seed=0, seconds=0, trace=trace, tiny=True)
        for name in workloads.NAMES
        for trace in (False, True)
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(results, trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in workloads.NAMES:
        result = results[name, trace]
        assert result["correct"], (name, result["info"]["problems"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == want, name


def test_end_to_end_metrics_are_never_zero(results):
    for name in workloads.NAMES:
        metrics = results[name, False]["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), name


def test_tracing_overhead_is_a_small_positive_share(results):
    for name in workloads.NAMES:
        metrics = results[name, True]["metrics"]
        overhead = metrics["trace.overhead_s"]["value"]
        assert 0 < overhead < metrics["trace.wall_s"]["value"], name


def test_every_wrapped_function_is_called_on_some_workload(results):
    def total(metric):
        return sum(results[name, True]["metrics"][metric]["value"] for name in workloads.NAMES)

    for module, fns in tracing.SPANNED.items():
        stat = "time_s" if module == "theorems" else "calls"
        for fn in fns:
            assert total(f"{module}.{fn}.{stat}") > 0, f"{module}.{fn} never traced"
    for module, fns in tracing.COUNTED.items():
        for fn in fns:
            assert total(f"{module}.{fn}.calls") > 0, f"{module}.{fn} never counted"


def test_predicted_zero_pattern(results):
    for name in ("mobius-core", "mobius-collapse"):
        metrics = results[name, True]["metrics"]
        certify_calls = {k: m["value"] for k, m in metrics.items()
                         if k.startswith("certify.") and k.endswith(".calls")}
        assert certify_calls and not any(certify_calls.values()), name
    collapse = results["mobius-collapse", True]["metrics"]
    assert collapse["build.induced_arc_complex.calls"]["value"] == 0
    assert results["theorems-default", True]["metrics"]["certify.shelling_search.calls"]["value"] > 0


def test_a_changed_claim_counts_once():
    from arclab.theorems import ClaimResult, Report

    rows = workloads.FROZEN["tiny"]["theorems-default"]
    report = Report(claims=[ClaimResult(*row) for row in rows])
    assert workloads.claims_failed("theorems-default", report, tiny=True) == (0, len(rows))
    report.claims[0].status = "fail"
    assert workloads.claims_failed("theorems-default", report, tiny=True) == (1, len(rows))
    del report.claims[-1]
    assert workloads.claims_failed("theorems-default", report, tiny=True) == (2, len(rows))


def test_recheck_rejects_a_broken_shelling_order():
    import dataclasses

    from arclab.arcs import polygon
    from arclab.build import arc_complex
    from arclab.certify import shelling_search

    c = arc_complex(polygon(6))
    good = shelling_search(c)
    bad = dataclasses.replace(good, order=good.order[:-1])
    assert tracing.recheck({"shelling_search": [(c, good)], "core": []}) == []
    assert len(tracing.recheck({"shelling_search": [(c, bad)], "core": []})) == 1


def test_install_replaces_every_from_import_binding():
    import sys

    import arclab.cli  # noqa: F401  the front end binds suites and layers too

    tracer = tracing.Tracer()
    originals = {}
    for table in (tracing.SPANNED, tracing.COUNTED):
        for module, fns in table.items():
            for fn in fns:
                originals[id(getattr(sys.modules[f"arclab.{module}"], fn))] = f"{module}.{fn}"
    with tracer:
        for key, module in list(sys.modules.items()):
            if key == "arclab" or key.startswith("arclab."):
                for attr, value in vars(module).items():
                    assert id(value) not in originals, f"{key}.{attr} still unwrapped"
    restored = {id(getattr(sys.modules[f"arclab.{name.split('.')[0]}"], name.split(".")[1]))
                for name in originals.values()}
    assert restored == set(originals)


def test_a_raising_suite_is_a_failed_claim(monkeypatch):
    from arclab import theorems

    def broken(n):
        raise theorems.TheoremError("mobius-collapse-to-point", "trace does not replay", n=n)

    monkeypatch.setattr(theorems, "thm_mobius_collapse", broken)
    report = workloads.run_pass(*workloads.inputs("mobius-collapse", 0, tiny=True))
    assert workloads.claims_failed("mobius-collapse", report, tiny=True) == (1, 1)
