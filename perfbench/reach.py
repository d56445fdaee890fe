"""Reachable-n table: the largest n each suite settles within a wall budget.

    python3 perfbench/reach.py [--out perfbench/out/reach.json]

A report, not a gated metric: an n near the budget edge can flip by one
between runs.  Each family is tried at n = start, start+1, ... until the
first n it does not settle.  Every attempt runs alone in its own child
process, killed after BUDGET wall seconds, and is recorded as `pass`, or with why it
stopped: `timeout`, `fail` (a claim failed or the suite raised),
`undetermined` (a certificate came back undetermined) or `memory`.

Strips are indexed by m+n and run as the balanced strip (m = (m+n)//2).
A certificate family at n runs its suite with n_max = n, so its time
includes the smaller n, and judges only the claims at n.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

BUDGET = 90.0  # wall seconds per claim
MEMORY_LIMIT = 2 << 30  # address space of one attempt, bytes
MAX_N = 40

# family -> (suite in arclab.theorems, first n)
FAMILIES = {
    "crown-strong": ("thm_crown_strong", 1),
    "inner-mobius-strong": ("thm_inner_mobius", 1),
    "mobius-collapse": ("thm_mobius_collapse", 1),
    "mobius-core": ("thm_mobius_not_strong", 4),
    "strip-strong": ("thm_strip_strong", 5),
    "polygon-certificate": ("polygon_certificates", 4),
    "crown-certificate": ("crown_ball_certificates", 2),
    "mobius-certificate": ("mobius_ball_certificates", 2),
    "crown-flip-diameter": ("crown_flip_diameters", 2),
}


def attempt(family: str, n: int) -> dict:
    """Run one claim in this process and judge it."""
    from arclab import theorems

    suite, _ = FAMILIES[family]
    args = (n // 2, n - n // 2) if family == "strip-strong" else (n,)
    try:
        report = getattr(theorems, suite)(*args)
    except theorems.TheoremError as exc:
        return {"status": "fail", "message": str(exc)[:300]}
    except MemoryError:
        return {"status": "memory"}
    except Exception as exc:  # a crashing suite is a failed attempt, recorded
        return {"status": "fail", "message": repr(exc)[:300]}
    key = list(args) if family == "strip-strong" else n
    claims = [c for c in report.claims if c.n == key]
    for c in claims:
        if c.status == "fail":
            verdict = c.details.get("verdict")
            return {"status": "undetermined" if verdict == "undetermined" else "fail",
                    "claim": c.claim, "details": {k: str(v) for k, v in c.details.items()}}
    if not claims:
        return {"status": "fail", "message": "no claim reported at this n"}
    return {"status": "pass"}


def timed_attempt(family: str, n: int) -> dict:
    cmd = [sys.executable, __file__, "--attempt", family, str(n)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=BUDGET)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        result = {"status": "timeout"}
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            result = json.loads(lines[-1])
        else:
            result = {"status": "memory" if "MemoryError" in proc.stderr else "fail",
                      "message": proc.stderr.strip()[-300:]}
    result["seconds"] = round(time.perf_counter() - start, 2)
    return result


def reach() -> dict:
    table = {}
    for family in FAMILIES:
        _, n = FAMILIES[family]
        best = None
        while n <= MAX_N:
            result = timed_attempt(family, n)
            print(f"{family:<22} n={n:<3} {result['status']:<12} {result['seconds']:8.2f} s", flush=True)
            if result["status"] != "pass":
                table[family] = {"reached": best, "first_unsettled": n, **result}
                break
            best = {"n": n, "seconds": result["seconds"]}
            n += 1
        else:
            table[family] = {"reached": best, "first_unsettled": None}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "out" / "reach.json"))
    parser.add_argument("--attempt", nargs=2, metavar=("FAMILY", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.attempt:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
        print(json.dumps(attempt(args.attempt[0], int(args.attempt[1]))))
        return 0
    table = reach()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"budget_s": BUDGET, "families": table}, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
