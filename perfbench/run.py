"""arclab's benchmark: how long a run of suites takes to reach its verdicts.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one process each

Run from the repository root; arclab is imported from ``src/``.  A workload
(see `workloads.py`) is repeated in one process, one caller, no added
threads, until S seconds have passed since its first suite call (at least
one pass).  Every pass's claim table is compared with the frozen one before
any number counts; a difference makes the run incorrect and the exit code 1.

With ``--trace 0`` the run reports the end-to-end metrics:

    wall_s       median wall time of one pass, first suite call to last verdict
    setup_s      median, over fresh interpreters, of ``import arclab`` plus
                 building the workload's inputs
    peak_rss_mb  peak resident memory of this process

``claims_failed`` and ``claims_total`` go into the result's ``failed`` and
``attempted`` (summed over passes).  With ``--trace 1`` the passes run with
spans around every call into each arclab layer (see `tracing.py`); the run
reports the per-layer metrics per traced pass, the median traced pass as
``trace.wall_s``, and as ``trace.overhead_s`` the time the wrappers added to a
pass, from a per-call cost calibrated in the same process.  It then replays
every shelling order and strong-collapse trace that the traced passes
returned, and writes the spans to ``perfbench/out/``.  Metric units are read
from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import NAMES  # noqa: E402  needs the path above

SETUP_PROBES = 11

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for section in ("end_to_end", "per_layer") for m in SPEC[section]}


def timed_passes(name: str, seed: int, seconds: float, tiny: bool) -> tuple[list[float], int, int]:
    """Run passes for `seconds`; return per-pass wall times, failed and attempted claims."""
    from workloads import claims_failed, inputs, run_pass

    suite, args = inputs(name, seed, tiny)
    walls: list[float] = []
    failed = attempted = 0
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        report = run_pass(suite, args)
        t1 = perf_counter()
        walls.append(t1 - t0)
        bad, total = claims_failed(name, report, tiny)
        failed += bad
        attempted += total
        if t1 - start >= seconds:
            return walls, failed, attempted


def setup_seconds(name: str, seed: int, tiny: bool) -> float:
    """Median set-up time over fresh interpreters, each timed from inside."""
    probe = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "import arclab, arclab.theorems, workloads\n"
        f"workloads.inputs({name!r}, {seed}, {tiny})\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not trace:
        walls, failed, attempted = timed_passes(name, seed, seconds, tiny)
        problems = []
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_seconds(name, seed, tiny),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        from tracing import Tracer, recheck

        tracer = Tracer()
        with tracer:
            walls, failed, attempted = timed_passes(name, seed, seconds, tiny)
        problems = recheck(tracer.kept)
        values = tracer.summary(len(walls))
        values["trace.wall_s"] = statistics.median(walls)
        values["trace.overhead_s"] = tracer.overhead(len(walls))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{name}-seed{seed}.json"))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        "info": {"wall_s_passes": walls, "problems": problems},
    }


def print_result(name: str, result: dict) -> None:
    info = result["info"]
    walls = info["wall_s_passes"]
    print(f"workload {name}: {len(walls)} pass(es), {min(walls):.4f} to {max(walls):.4f} s")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'claims_failed':<44} {result['failed']:>14} of {result['attempted']} claims_total")
    for problem in info["problems"]:
        print(f"  replay problem: {problem}")


def run_every_workload(args) -> int:
    """Each workload in its own process, so peak memory is not shared."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        import arclab.theorems
    except ImportError as exc:
        print(f"perfbench: cannot import arclab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(arclab.theorems.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: arclab was not imported from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_every_workload(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    del result["info"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
