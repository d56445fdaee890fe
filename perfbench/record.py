"""Baseline record: repeated benchmark runs plus reference measurements.

    python3 perfbench/record.py [--out perfbench/baseline.json]

Runs `run.py` for ``run_seconds`` from BENCHMARK.json on every workload with
seeds 1..RUNS (workloads interleaved, so
slow drift of the host's load falls on all of them alike) and records each
end-to-end metric's median, quartiles and spread (interquartile distance as
a share of the median).  It repeats that for SETS sets and records how far
each later set's median lies from the first's, as a share of the first.  It
then makes one traced run per workload and adds three references that are not
gated workloads:

- one `run_all(Limits())` pass at jobs=1 and one at jobs=2 (threads under the
  interpreter lock), in that order, in one fresh process;
- the tier-1 test run: its pass count and wall time;
- the reachable-n table, read from `reach.py`'s output if it exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10
SETS = 2
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

JOBS_PROBE = """
import json, sys, time
sys.path.insert(0, "src")
from arclab.theorems import Limits, run_all
out = {}
for jobs in (1, 2):
    t0 = time.perf_counter()
    report = run_all(Limits(), jobs=jobs)
    out[f"jobs={jobs}"] = {"wall_s": time.perf_counter() - t0, "all_passed": report.all_passed}
print(json.dumps(out))
"""


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values)}


def tier1() -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    passed = re.search(r"(\d+) passed", tail)
    return {"passed": int(passed.group(1)) if passed else None, "summary": tail,
            "wall_s": seconds}


def host() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        found = re.search(r"model name\s*:\s*(.+)", cpuinfo.read_text())
        model = found.group(1).strip() if found else ""
    return {"cpus": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}


def main(argv=None) -> int:
    from workloads import NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)

    sets, summaries = [], []
    for k in range(SETS):
        runs: dict[str, list] = {name: [] for name in NAMES}
        for seed in range(1, RUNS + 1):
            for name in NAMES:
                runs[name].append(bench(name, seed, 0))
                m = runs[name][-1]["metrics"]
                print(f"set {k} {name:<18} seed {seed:>2}: "
                      + "  ".join(f"{key}={v:.4f}" for key, v in m.items()), flush=True)
        sets.append(runs)
        summaries.append({
            name: {metric: spread([r["metrics"][metric] for r in rs]) for metric in rs[0]["metrics"]}
            for name, rs in runs.items()
        })
    drift = {
        name: {metric: [s[name][metric]["median"] / first["median"] - 1 for s in summaries[1:]]
               for metric, first in summaries[0][name].items()}
        for name in NAMES
    }
    traced = {name: bench(name, 0, 1) for name in NAMES}
    jobs = subprocess.run([sys.executable, "-c", JOBS_PROBE], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    reach_file = HERE / "out" / "reach.json"
    record = {
        "host": host(),
        "run_seconds": SECONDS,
        "summary": summaries,
        "median_drift": drift,
        "runs": sets,
        "traced": traced,
        "jobs": json.loads(jobs.stdout),
        "tier1": tier1(),
        "reach": json.loads(reach_file.read_text()) if reach_file.exists() else None,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for k, summary in enumerate(summaries):
        for name, metrics in summary.items():
            for metric, s in metrics.items():
                print(f"set {k} {name:<18} {metric:<12} median {s['median']:.4f}  "
                      f"spread {s['spread']:.3f}  drift {drift[name][metric]}")
    print(f"wrote {args.out}")
    return 0 if all(r["correct"] for runs in sets for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
