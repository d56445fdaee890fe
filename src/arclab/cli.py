"""Command-line front end.

Subcommands: gen (build a complex or disjointness graph), check (validate a
complex file and certify it), collapse (find a collapse trace), core
(strong-collapse to the core), flip (flip-graph statistics), theorems (run
the verification suites).  Exit codes: 0 all-pass, 1 failed claim, 2 usage
or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .arcs import SurfaceSpec, enumerate_arcs
from .build import arc_complex, disjointness_graph
from .certify import certify, flip_graph, graph_diameter, is_connected
from .collapse import DEFAULT_BUDGET, PROVEN, is_collapsible, trace, verify_trace
from .simplicial import (
    dimension,
    dumps_canonical,
    euler_characteristic,
    graph_to_dot,
    loads_complex,
)
from .strong import core
from .theorems import Limits, run_all


def _at_least(source: str, raw, minimum: int) -> int:
    """raw as an integer; exits 2 with a message unless it is one >= minimum."""
    try:
        value = int(raw)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise SystemExit(f"invalid {source}={raw!r}: expected an integer of at least {minimum}")
    return value


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_complex(path: str):
    try:
        with open(path) as fh:
            return loads_complex(fh.read())
    except FileNotFoundError:
        raise SystemExit(f"no such file: {path}")
    except (ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"{path}: {exc}")


def cmd_gen(args) -> int:
    s = SurfaceSpec(args.surface, args.n, args.m)
    arcs = enumerate_arcs(s)
    if not arcs:
        print(f"warning: {s.describe()} has no nontrivial arcs", file=sys.stderr)
    if args.format == "dot":
        labels = {i: a.label() for i, a in enumerate(arcs)}
        _write(args.out, graph_to_dot(disjointness_graph(s), labels))
    else:
        _write(args.out, dumps_canonical(arc_complex(s)))
    return 0


def cmd_check(args) -> int:
    c = _load_complex(args.input)
    report: dict = {
        "input": args.input,
        "vertices": c.n_vertices,
        "facets": len(c.facets),
        "dimension": dimension(c),
        "euler_characteristic": euler_characteristic(c),
        "certificate": None,
    }
    failed = False
    if args.cert_level != "none":
        try:
            cert = certify(c, effort=args.cert_level)
            report["certificate"] = cert.to_json()
        except ValueError as exc:
            report["certificate"] = {"error": str(exc)}
            failed = True
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


def cmd_collapse(args) -> int:
    budget = _at_least("--budget", args.budget, 1)
    c = _load_complex(args.input)
    result = is_collapsible(c, budget)
    proven = result.status == PROVEN
    t = result.trace or trace([])
    verdict = verify_trace(c, t)
    if not verdict.valid:
        raise SystemExit(f"internal error: emitted trace failed to replay: {verdict.reason}")
    payload = {
        "collapsed_to_point": proven,
        "steps": t.to_json(),
        "terminal_vertices": sorted(verdict.terminal.vertex_ids),
    }
    _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if proven else 1


def cmd_core(args) -> int:
    if args.out == args.trace_out == "-":
        raise SystemExit("core: --out - and --trace-out - both name stdout; give one of them a file")
    c = _load_complex(args.input)
    terminal, t = core(c, order=args.order, seed=args.seed)
    if args.out:
        _write(args.out, dumps_canonical(terminal))
    if args.trace_out:
        _write(args.trace_out, json.dumps(t.to_json(), indent=2) + "\n")
    if "-" not in (args.out, args.trace_out):  # stdout carries JSON otherwise
        print(
            f"core: {terminal.n_vertices} vertices, {len(terminal.facets)} facets "
            f"({len(t)} removals)"
        )
    return 0


def cmd_flip(args) -> int:
    c = _load_complex(args.input)
    try:
        g = flip_graph(c)
    except ValueError as exc:
        raise SystemExit(str(exc))
    stats = {
        "facets": len(c.facets),
        "flips": len(g.edges),
        "connected": is_connected(g),
    }
    if args.diameter:
        stats["diameter"] = graph_diameter(g)
    _write(args.out, json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_theorems(args) -> int:
    limits = Limits(**{
        f.name: _at_least(_limit_flag(f.name), getattr(args, f"max_{f.name}"), 0)
        for f in dataclasses.fields(Limits)
    })
    report = run_all(limits, evidence_dir=args.evidence_dir)
    _write(args.out, report.dumps())
    if args.out not in (None, "-"):
        counts = {"pass": 0, "fail": 0, "info": 0}
        for claim in report.claims:
            counts[claim.status] = counts.get(claim.status, 0) + 1
        print(f"claims: {counts}")
    return 0 if report.all_passed else 1


def _limit_flag(field: str) -> str:
    return "--max-" + field.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arclab",
        description="arc complexes of marked surfaces: build, collapse, certify",
    )
    parser.add_argument("--version", action="version", version=f"arclab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="build an arc complex (JSON) or disjointness graph (DOT)")
    gen.add_argument("--surface", required=True, choices=["polygon", "crown", "mobius", "strip"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, default=None, help="x-vertex count (strip only)")
    gen.add_argument("--out", default=None)
    gen.add_argument("--format", choices=["json", "dot"], default="json")
    gen.set_defaults(func=cmd_gen)

    check = sub.add_parser("check", help="validate a complex file and certify it")
    check.add_argument("--in", dest="input", required=True)
    check.add_argument("--cert-level", choices=["none", "fast", "full"], default="fast")
    check.add_argument("--out", default=None)
    check.set_defaults(func=cmd_check)

    coll = sub.add_parser("collapse", help="search for a collapse trace")
    coll.add_argument("--in", dest="input", required=True)
    coll.add_argument("--budget", default=DEFAULT_BUDGET,
                      help=f"search node budget (default: {DEFAULT_BUDGET})")
    coll.add_argument("--out", default=None)
    coll.set_defaults(func=cmd_collapse)

    core_p = sub.add_parser("core", help="strong-collapse to the core")
    core_p.add_argument("--in", dest="input", required=True)
    core_p.add_argument("--order", choices=["canonical", "random"], default="canonical")
    core_p.add_argument("--seed", type=int, default=0)
    core_p.add_argument("--out", default=None)
    core_p.add_argument("--trace-out", default=None)
    core_p.set_defaults(func=cmd_core)

    flip = sub.add_parser("flip", help="flip-graph statistics of a pure complex")
    flip.add_argument("--in", dest="input", required=True)
    flip.add_argument("--diameter", action="store_true")
    flip.add_argument("--out", default=None)
    flip.set_defaults(func=cmd_flip)

    thms = sub.add_parser("theorems", help="run the verification suites")
    for f in dataclasses.fields(Limits):
        thms.add_argument(_limit_flag(f.name), type=int, default=f.default)
    thms.add_argument("--out", default=None)
    thms.add_argument("--evidence-dir", default=None,
                      help="write per-claim detail files and reference them")
    thms.set_defaults(func=cmd_theorems)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        return exc.code if exc.code is not None else 2
    except (OSError, ValueError) as exc:  # unreadable or unwritable paths too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
