"""Outside-in layer tracing for kneser_lab.

The package's modules call each other through module-level names (for
example `solve.build_conflict_hypergraph` or `constructions.blow_up`'s use of
`build_partition_constrained`).  A Tracer replaces those names, and the ones
the benchmark itself calls, with timing wrappers for the duration of one
traced pass and restores them afterwards.  Nothing under src/ changes.

Spans are kept in memory as (layer, parent, duration).  A layer's self time
is the sum over its spans of duration minus the durations of direct child
spans, so the self times of all layers plus the root span's own remainder
add up to the root span exactly.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


def _subsets(counts, out):
    counts["setsys.subsets"] += len(out)


def _edges(used):
    def count(counts, out):
        counts["kneser.edges"] += out.num_edges
        if used:
            counts["kneser.edges_used"] += out.num_edges

    return count


def _witnesses(counts, out):
    counts["solve.conflict.witnesses"] += len(out.witnesses)


def _engine(counts, out):
    counts["solve.engine.nodes"] += out.nodes
    counts["solve.engine.calls"] += 1
    counts["solve.engine.exact"] += out.status == "EXACT"


def _report(tuples_key):
    def count(counts, out):
        counts[tuples_key] += out.stats.get("tuples_examined", 0)
        counts["verify.violations"] += len(out.violations)

    return count


def _lift(counts, out):
    counts["constructions.lift_vertices"] += len(out[0].colors)


def _violations(counts, out):
    counts["verify.violations"] += len(out.violations)


# (module, attribute, layer, counter).  Hypergraph constructors that the
# benchmark calls feed their edges to chromatic_number; the one reached from
# blow_up only has its vertices read, which kneser.edges_used_frac exposes.
WRAPS = [
    ("kneser", "enumerate_k_subsets", "setsys.enumerate", _subsets),
    ("solve", "enumerate_k_subsets", "setsys.enumerate", _subsets),
    ("constructions", "enumerate_k_subsets", "setsys.enumerate", _subsets),
    ("kneser", "build_kneser_hypergraph", "kneser.build", _edges(True)),
    ("kneser", "build_stable_subhypergraph", "kneser.build", _edges(True)),
    ("kneser", "build_partition_constrained", "kneser.build", _edges(True)),
    ("constructions", "build_partition_constrained", "kneser.build", _edges(False)),
    ("solve", "build_conflict_hypergraph", "solve.conflict", _witnesses),
    ("solve", "min_partition_number", "solve.engine", _engine),
    ("solve", "chromatic_number", "solve.engine", _engine),
    ("solve", "verify_partition_certificate", "verify.partition",
     _report("verify.partition_tuples")),
    ("solve", "verify_coloring", "verify.coloring_edges", _violations),
    ("constructions", "build_tight_partition", "constructions.tight", None),
    ("constructions", "blow_up", "constructions.blowup", _lift),
    ("constructions", "check_stable_embedding", "constructions.embed", None),
    ("constructions", "verify_partition_certificate", "verify.partition",
     _report("verify.partition_tuples")),
    ("verify", "verify_partition_certificate", "verify.partition",
     _report("verify.partition_tuples")),
    ("verify", "verify_coloring_certificate", "verify.coloring_cert",
     _report("verify.coloring_tuples")),
]

LAYERS = [
    "setsys.enumerate",
    "kneser.build",
    "solve.conflict",
    "solve.engine",
    "constructions.tight",
    "constructions.blowup",
    "constructions.embed",
    "verify.partition",
    "verify.coloring_cert",
    "verify.coloring_edges",
    "bench",
]


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, parent index, duration]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, module, name, layer, count) -> None:
        fn = getattr(module, name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            spans.append([layer, stack[-1] if stack else None, 0.0])
            stack.append(len(spans) - 1)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[stack.pop()][2] = perf_counter() - t0
            if count is not None:
                count(counts, out)
            return out

        self._saved.append((module, name, fn))
        setattr(module, name, traced)

    def run(self, body):
        """Run body() as the root span with every wrapper installed.

        A Tracer records one pass.  Returns body's result and the root
        span's duration, the traced pass's wall time.
        """
        if self.spans:
            raise RuntimeError("a Tracer records a single pass")
        try:
            for mod, name, layer, count in WRAPS:
                module = importlib.import_module(f"kneser_lab.{mod}")
                self._wrap(module, name, layer, count)
            self.spans.append(["bench", None, 0.0])
            self._stack.append(0)
            t0 = perf_counter()
            try:
                out = body()
            finally:
                self.spans[self._stack.pop()][2] = perf_counter() - t0
        finally:
            for module, name, fn in reversed(self._saved):
                setattr(module, name, fn)
            self._saved.clear()
        return out, self.spans[0][2]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for layer, parent, dur in self.spans:
            if parent is not None:
                child[parent] += dur
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _, dur), inner in zip(self.spans, child):
            out[layer] += dur - inner
        return out
