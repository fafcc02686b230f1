"""Per-layer spans for the traced run, recorded from outside the package.

Each layer has one entry point, looked up by module and attribute name. The
tracer replaces every binding of that function across the loaded
`shapedparts` modules (the package re-imports names with `from . import`)
with a wrapper that records a span: its duration, the part covered by child
spans, and counts read off the arguments and the result. A layer's self time
is its span time minus its children's. An entry point that is not found is
reported as unmeasured, and its time stays in the caller's self time.

The wrappers time themselves: the tracer's own bookkeeping is charged to no
layer, so the layer self times plus that overhead add up to the traced
commands' total time.
"""

from __future__ import annotations

import statistics
import sys
from math import comb
from time import perf_counter

# layer name -> (module, attribute) of the function whose calls are its spans
ENTRY_POINTS = {
    "problems.load": ("shapedparts.problems", "load_problem"),
    "generic.masks": ("shapedparts.generic", "_two_partition_masks"),
    "generic.assembly": ("shapedparts.generic", "enumerate_generic_p_partitions"),
    "polytope": ("shapedparts.polytope", "candidate_vertices"),
    "hull.filter": ("shapedparts.polytope", "enumerate_vertices"),
    "solver": ("shapedparts.solver", "solve"),
    "objectives": ("shapedparts.objectives", "ExternalOracle.evaluate"),
    "brute.vertices": ("shapedparts.brute", "brute_vertices"),
    "brute.solve": ("shapedparts.brute", "brute_solve"),
}

# per-layer metric -> (unit, better); see bench/README.md for what each moves
METRICS = {
    "generic.masks_s": ("s", "lower"),
    "generic.two_partitions": ("count", "lower"),
    "generic.sign_queries": ("count", "lower"),
    "generic.sign_query_us": ("us", "lower"),
    "generic.assembly_s": ("s", "lower"),
    "generic.partitions": ("count", "lower"),
    "polytope.self_s": ("s", "lower"),
    "polytope.admissible": ("count", "lower"),
    "polytope.candidates": ("count", "lower"),
    "polytope.dedup_ratio": ("ratio", "lower"),
    "hull.filter_s": ("s", "lower"),
    "hull.vertices": ("count", "lower"),
    "hull.vertex_yield": ("ratio", "higher"),
    "objectives.busy_s": ("s", "lower"),
    "objectives.queries": ("count", "lower"),
    "objectives.query_p50_us": ("us", "lower"),
    "objectives.distinct_matrices": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "brute.vertices_s": ("s", "lower"),
    "brute.solve_s": ("s", "lower"),
    "brute.partitions": ("count", "lower"),
    "problems.load_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts that must repeat exactly between passes and runs
EXACT_COUNTS = (
    "generic.two_partitions",
    "generic.partitions",
    "polytope.admissible",
    "polytope.candidates",
    "hull.vertices",
    "objectives.queries",
    "brute.partitions",
)

# metric -> layers it needs measured
_NEEDS = {
    "generic.masks_s": ("generic.masks",),
    "generic.two_partitions": ("generic.masks",),
    "generic.sign_queries": ("generic.masks",),
    "generic.sign_query_us": ("generic.masks",),
    "generic.assembly_s": ("generic.assembly",),
    "generic.partitions": ("generic.assembly",),
    "polytope.self_s": ("polytope",),
    "polytope.admissible": ("polytope",),
    "polytope.candidates": ("polytope",),
    "polytope.dedup_ratio": ("polytope",),
    "hull.filter_s": ("hull.filter",),
    "hull.vertices": ("hull.filter",),
    "hull.vertex_yield": ("hull.filter", "polytope"),
    "objectives.busy_s": ("objectives",),
    "objectives.queries": ("objectives",),
    "objectives.query_p50_us": ("objectives",),
    "objectives.distinct_matrices": ("objectives",),
    "solver.self_s": ("solver",),
    "brute.vertices_s": ("brute.vertices",),
    "brute.solve_s": ("brute.solve",),
    "brute.partitions": ("brute.vertices", "brute.solve"),
    "problems.load_s": ("problems.load",),
}


def _count_result(layer: str, args, result, counts: dict, brute_partitions: int) -> None:
    """Add the work counts one span of `layer` did to `counts`."""
    if layer == "generic.masks":
        perturbed = args[0]
        d, n = perturbed.d, perturbed.n
        counts["generic.two_partitions"] += len(result)
        counts["generic.sign_queries"] += comb(n, d) * (n - d) if n > d else 0
    elif layer == "generic.assembly":
        counts["generic.partitions"] += len(result)
    elif layer == "polytope":
        counts["polytope.admissible"] += result.admissible_count
        counts["polytope.candidates"] += len(result.members)
    elif layer == "hull.filter":
        counts["hull.vertices"] += result.vertex_count
    elif layer in ("brute.vertices", "brute.solve"):
        counts["brute.partitions"] += brute_partitions


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    """Installs the span wrappers and accumulates self times and counts."""

    def __init__(self):
        self.measured: set[str] = set()
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.query_us: list[float] = []
        self.brute_partitions = 0  # admissible partitions of the current instance
        self._distinct: set[tuple] = set()
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero the totals; called at the start of every traced pass."""
        self.self_s = {layer: 0.0 for layer in list(ENTRY_POINTS) + ["cli"]}
        self.counts = {name: 0 for name, (unit, _) in METRICS.items() if unit == "count"}
        self.query_us = []

    def _wrap(self, layer: str, fn):
        def span(*args, **kwargs):
            t0 = perf_counter()
            parent = self._stack[-1]
            frame = _Frame()
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame.child
            if layer == "objectives":
                self.counts["objectives.queries"] += 1
                self.query_us.append(duration * 1e6)
                self._distinct.add(args[1].flatten())
            else:
                _count_result(layer, args, result, self.counts, self.brute_partitions)
            t1 = perf_counter()
            parent.child += t1 - t0
            return result

        return span

    def install(self) -> None:
        """Wrap every entry point that exists; the rest stay unmeasured."""
        packages = [m for name, m in sys.modules.items()
                    if name == "shapedparts" or name.startswith("shapedparts.")]
        for layer, (module_name, attr) in ENTRY_POINTS.items():
            owner = sys.modules.get(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if owner is None or not callable(original):
                continue
            self.measured.add(layer)
            wrapper = self._wrap(layer, original)
            targets = [owner] if path else [
                m for m in packages if getattr(m, name, None) is original
            ]
            for target in targets:
                self._patches.append((target, name, original))
                setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def command(self, call):
        """Run `call()` as one root span (the CLI layer); returns its result and duration."""
        root = _Frame()
        self._stack.append(root)
        self._distinct = set()
        start = perf_counter()
        try:
            result = call()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.counts["objectives.distinct_matrices"] += len(self._distinct)
        self.self_s["cli"] += (end - start) - root.child
        return result, end - start

    def pass_metrics(self, pass_s: float) -> dict[str, float | None]:
        """Per-layer metrics of one traced pass that took `pass_s` in its commands."""
        s, c = self.self_s, self.counts
        out: dict[str, float | None] = {
            "generic.masks_s": s["generic.masks"],
            "generic.assembly_s": s["generic.assembly"],
            "polytope.self_s": s["polytope"],
            "hull.filter_s": s["hull.filter"],
            "objectives.busy_s": s["objectives"],
            "solver.self_s": s["solver"],
            "brute.vertices_s": s["brute.vertices"],
            "brute.solve_s": s["brute.solve"],
            "problems.load_s": s["problems.load"],
            "cli.self_s": s["cli"],
        }
        out.update(c)
        out["generic.sign_query_us"] = (
            s["generic.masks"] / c["generic.sign_queries"] * 1e6 if c["generic.sign_queries"] else 0.0
        )
        out["polytope.dedup_ratio"] = (
            c["polytope.candidates"] / c["polytope.admissible"] if c["polytope.admissible"] else 0.0
        )
        out["hull.vertex_yield"] = (
            c["hull.vertices"] / c["polytope.candidates"] if c["polytope.candidates"] else 0.0
        )
        out["objectives.query_p50_us"] = (
            statistics.median(self.query_us) if self.query_us else 0.0
        )
        out["trace.pass_s"] = pass_s
        out["trace.overhead_s"] = pass_s - sum(s.values())
        for metric, layers in _NEEDS.items():
            if not all(layer in self.measured for layer in layers):
                out[metric] = None
        return out
