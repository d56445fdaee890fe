"""The benchmark's workloads: what one pass runs, and the claims it must return.

Each workload is a fixed verification run of arclab's suites.  The seed is
forwarded to `run_all`, which records it in its report; no suite draws on
it, so every seed does the same work and must return the same claim table.
`frozen.json` holds those tables as produced by the unmodified suites, both
at benchmark size and at the self-test's tiny size.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

NAMES = ("theorems-default", "mobius-core", "mobius-collapse")

FROZEN = json.loads((Path(__file__).with_name("frozen.json")).read_text())

# sizes for the self-test: every layer still runs, in well under a second
TINY_LIMITS = {"polygon": 7, "crown": 5, "mobius": 4, "inner_mobius": 6, "strip": 8}


def inputs(name: str, seed: int, tiny: bool = False) -> tuple[str, tuple]:
    """The suite `arclab.theorems` runs for one pass, and its arguments.

    The suite is returned by name and looked up at call time, so a pass goes
    through whatever the tracer has bound under that name.
    """
    from arclab.theorems import Limits

    if name == "theorems-default":
        limits = Limits(**TINY_LIMITS) if tiny else Limits()
        return "run_all", (limits, seed, 1)
    if name == "mobius-core":
        return "thm_mobius_not_strong", (4 if tiny else 6,)
    if name == "mobius-collapse":
        return "thm_mobius_collapse", (5 if tiny else 6,)
    raise ValueError(f"unknown workload {name!r}")


def run_pass(suite: str, args: tuple):
    """One pass; a suite that raises returns a failed claim.

    The claim is recorded as `run_all` records it, except that its `n` is the
    suite's name where `run_all` has its own task name: a pass knows only the
    suite and its arguments.  Either row differs from the frozen table, whose
    statuses are all `pass` or `info`, so it counts as failed all the same.
    """
    from arclab import theorems

    try:
        return getattr(theorems, suite)(*args)
    except theorems.TheoremError as exc:
        claim = theorems.ClaimResult(exc.claim, "schedule-assertion", suite, "fail",
                                     details={"message": str(exc)})
    except Exception as exc:  # the run goes on and reports it as incorrect
        claim = theorems.ClaimResult(suite, "suite-error", suite, "fail",
                                     details={"message": repr(exc)})
    failed = theorems.Report()
    failed.claims.append(claim)
    return failed


def claim_table(report) -> list[list]:
    """Rows (claim, paper_ref, n, status), with n in its JSON form."""
    return [
        json.loads(json.dumps([c.claim, c.paper_ref, c.n, c.status]))
        for c in report.claims
    ]


def claims_failed(name: str, report, tiny: bool = False) -> tuple[int, int]:
    """(claims that differ from the frozen table, frozen claims in total).

    A claim that changed status, disappeared or turned up unexpectedly
    counts; a changed claim counts once, not once missing and once extra.
    """
    frozen = FROZEN["tiny" if tiny else "full"][name]
    want = Counter(json.dumps(row) for row in frozen)
    got = Counter(json.dumps(row) for row in claim_table(report))
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    return max(missing, extra), len(frozen)
