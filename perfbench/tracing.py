"""Spans around the calls into each arclab layer, installed from outside.

A layer is a module of ``src/arclab``.  `Tracer.install` replaces each
listed function in every loaded ``arclab.*`` module that binds the same
function object, so calls made through from-imports (``theorems.core``,
``collapse.make_complex``, ...) are caught as well as calls through the
defining module.  Spans are kept in memory as ``(name, start, end, parent)``
tuples and summarised, or written out, after the traced region ends.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

# module -> functions that get a span (calls, inclusive time, self time)
SPANNED = {
    "arcs": ("enumerate_arcs",),
    "build": ("arc_complex", "inner_complex", "induced_arc_complex"),
    "simplicial": (
        "flag_complex", "max_cliques", "make_complex", "vertex_deletion",
        "link", "isomorphic", "join_all",
    ),
    "strong": ("dominating_set", "dominated_vertices", "core", "strong_to_elementary"),
    "collapse": ("verify_trace", "welker_expand"),
    "certify": (
        "certify", "shelling_search", "validate_shelling",
        "pseudomanifold_check", "flip_graph", "graph_diameter",
    ),
    "theorems": (
        "thm_crown_strong", "thm_inner_mobius", "thm_mobius_collapse",
        "thm_mobius_not_strong", "thm_strip_strong", "polygon_certificates",
        "crown_ball_certificates", "mobius_ball_certificates",
        "crown_flip_diameters", "structural_propositions",
    ),
}
# counted only: tens of thousands of calls per pass, too many for spans
COUNTED = {"arcs": ("disjoint",)}


# function -> the counts its observer in `Tracer._observers` adds per call
COUNTERS = {
    "simplicial.make_complex": ("faces_in", "facets_out"),
    "simplicial.max_cliques": ("cliques_out",),
    "strong.dominated_vertices": ("tested", "found"),
    "collapse.verify_trace": ("steps",),
    "certify.shelling_search": ("facets", "proven"),
}

# calls of a no-op per timed block, and blocks, when calibrating a wrapper's cost
CALIBRATION_CALLS = 2000
CALIBRATION_BLOCKS = 51


class Tracer:
    """Records spans and counts for the wrapped arclab functions.

    `kept` holds the inputs and results of `shelling_search` and `core`
    calls, which `recheck` replays after the traced region.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self.kept: dict[str, list] = {"shelling_search": [], "core": []}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        for stat in COUNTERS.get(name, ()):
            counts[f"{name}.{stat}"] = 0

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                if observe is None:
                    result = fn(*args, **kwargs)
                else:
                    result, amounts = observe(fn, args, kwargs)
                    for stat, amount in amounts.items():
                        counts[f"{name}.{stat}"] += amount
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observers(self) -> dict:
        """Per function: calls it and returns the result and the counts to add."""
        kept = self.kept

        def make_complex(fn, args, kwargs):
            # a generator of faces is drained inside the span, as it would be
            labels, faces, *rest = args
            faces = list(faces)
            result = fn(labels, faces, *rest, **kwargs)
            return result, {"faces_in": len(faces), "facets_out": len(result.facets)}

        def max_cliques(fn, args, kwargs):
            result = fn(*args, **kwargs)
            return result, {"cliques_out": len(result)}

        def dominated_vertices(fn, args, kwargs):
            result = fn(*args, **kwargs)
            return result, {"tested": args[0].n_vertices, "found": len(result)}

        def verify_trace(fn, args, kwargs):
            result = fn(*args, **kwargs)
            return result, {"steps": len(args[1])}

        def shelling_search(fn, args, kwargs):
            from arclab.certify import PROVEN

            result = fn(*args, **kwargs)
            kept["shelling_search"].append((args[0], result))
            return result, {"facets": len(args[0].facets), "proven": int(result.status == PROVEN)}

        def core(fn, args, kwargs):
            result = fn(*args, **kwargs)
            kept["core"].append((args[0], result))
            return result, {}

        return {
            "simplicial.make_complex": make_complex,
            "simplicial.max_cliques": max_cliques,
            "strong.dominated_vertices": dominated_vertices,
            "collapse.verify_trace": verify_trace,
            "certify.shelling_search": shelling_search,
            "strong.core": core,
        }

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function in every loaded arclab module."""
        import arclab.theorems  # noqa: F401  loads every layer module

        observers = self._observers()
        modules = [m for k, m in sys.modules.items() if k == "arclab" or k.startswith("arclab.")]
        plan = [(mod, fn, True) for mod, fns in SPANNED.items() for fn in fns]
        plan += [(mod, fn, False) for mod, fns in COUNTED.items() for fn in fns]
        for mod, fn, spanned in plan:
            name = f"{mod}.{fn}"
            original = getattr(sys.modules[f"arclab.{mod}"], fn)
            if spanned:
                wrapper = self._span(name, original, observers.get(name))
            else:
                wrapper = self._count(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------------

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass.

        `time_s` sums the spans that have no enclosing span of the same name,
        so recursive calls are not counted twice; `self_s` is a span's
        duration minus the durations of its direct child spans.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        inclusive = [0.0] * n_names
        own = [0.0] * n_names
        child_time = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name_id, start, end, parent = self.spans[i]
            duration = end - start
            calls[name_id] += 1
            own[name_id] += duration - child_time[i]
            if parent >= 0:
                child_time[parent] += duration
            p = parent
            while p >= 0 and self.spans[p][0] != name_id:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name_id] += duration
        out = {}
        for k, name in enumerate(self.names):
            stats = {"calls": calls[k], "time_s": inclusive[k], "self_s": own[k]}
            for stat in ("time_s",) if name.startswith("theorems.") else stats:
                out[f"{name}.{stat}"] = stats[stat] / passes
        for key, count in self.counts.items():
            out[key] = count / passes
        return out

    def overhead(self, passes: int) -> float:
        """Estimated time the wrappers added to one traced pass.

        Each wrapper's cost is calibrated as traced minus untraced calls of a
        no-op, in short alternating blocks so that drift in the host's speed
        cancels, and multiplied by the number of calls that went through that
        kind of wrapper.  The observers' own work (draining a face generator,
        taking lengths) is not included.
        """
        probe = Tracer()
        span_cost = _wrapper_cost(lambda fn: probe._span("probe", fn))
        count_cost = _wrapper_cost(lambda fn: probe._count("probe", fn))
        counted = sum(self.counts[f"{mod}.{fn}.calls"] for mod, fns in COUNTED.items() for fn in fns)
        return (len(self.spans) * span_cost + counted * count_cost) / passes

    def write(self, path: str) -> None:
        """Write the spans as JSON: a name table and [name, start, end, parent] rows."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _wrapper_cost(wrap) -> float:
    """Median seconds a wrapper adds to one call of a no-op."""

    def noop():
        return None

    wrapped = wrap(noop)
    calls = range(CALIBRATION_CALLS)
    extra = []
    for _ in range(CALIBRATION_BLOCKS):
        t0 = perf_counter()
        for _ in calls:
            noop()
        t1 = perf_counter()
        for _ in calls:
            wrapped()
        t2 = perf_counter()
        extra.append((t2 - t1) - (t1 - t0))
    return statistics.median(extra) / CALIBRATION_CALLS


def recheck(kept: dict) -> list[str]:
    """Replay every kept shelling order and strong-collapse trace.

    Uses the program's own independent checkers, called after the traced
    region, so a check weakened inside a search cannot pass unnoticed.
    Returns one message per result that does not replay.
    """
    from arclab.certify import PROVEN, validate_shelling
    from arclab.strong import verify_strong_trace

    problems = []
    for complex_, result in kept["shelling_search"]:
        if result.status == PROVEN and not validate_shelling(complex_, result.order):
            problems.append(f"shelling order of a {len(complex_.facets)}-facet complex does not replay")
    for complex_, (terminal, strong_trace) in kept["core"]:
        try:
            replayed = verify_strong_trace(complex_, strong_trace)
        except ValueError as exc:
            problems.append(f"core trace does not replay: {exc}")
            continue
        if replayed != terminal:
            problems.append("core trace replays to a different terminal")
    return problems
