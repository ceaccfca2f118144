"""Span tracing of branchbox from outside the package.

The tracer replaces the public functions that one branchbox module
imports from another with timing wrappers, by rebinding the name in the
*calling* module (``branchbox.runner.evolve_ensemble_step``, not
``branchbox.branching.evolve_ensemble_step``), so only calls that cross
a module boundary are recorded.  The package itself is not modified and
the originals are restored afterwards.

Each call records a span (name, start, end, parent).  A span's self time
is its duration minus the durations of its direct children; spans nest
strictly (one thread), so the self times of all spans sum to the
duration of the root spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# (calling module, modules whose public functions it calls)
BOUNDARIES = (
    ("branchbox.runner", ("branchbox.branching", "branchbox.stats", "branchbox.density")),
    ("branchbox.branching", ("branchbox.model", "branchbox.rng")),
)

# classes traced like functions: construction and every public method
TRACED_CLASSES = {("branchbox.density", "UnitaryPropagator")}

# several small functions reported as one span
GROUPS = {
    "stats.ensemble_position_mean": "stats.moments",
    "stats.ensemble_position_variance": "stats.moments",
    "stats.effective_branch_count": "stats.moments",
}

STEP_SPAN = "branching.evolve_ensemble_step"
# per-step bookkeeping done by the tracer; a span of its own so that it
# is not charged to the caller's self time
BOOKKEEPING_SPAN = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.steps: list[tuple[int, int, int, float]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span per call; ``after(args, result)``
        runs once the span closes, under a bookkeeping span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        book = self.wrap(BOOKKEEPING_SPAN, after) if after is not None else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if book is not None:
                book(args, result)
            return result

        return traced

    def observe_step(self, args, out):
        """Branching counts of one evolve_ensemble_step, from its ensembles."""
        e = args[0]
        m = out.masses()
        neff = float(m.sum() ** 2 / (m @ m))
        self.steps.append((
            int(out.next_uid - e.next_uid), out.n_branches,
            int(np.unique(out.center).size), neff / out.n_branches,
        ))

    def install(self):
        """Wrap every boundary name; returns a function restoring them."""
        saved = []
        for caller_name, sources in BOUNDARIES:
            caller = sys.modules[caller_name]
            for attr, value in list(vars(caller).items()):
                source = getattr(value, "__module__", None)
                if attr.startswith("_") or source not in sources:
                    continue
                span = f"{source.rsplit('.', 1)[1]}.{attr}"
                if inspect.isfunction(value):
                    after = self.observe_step if span == STEP_SPAN else None
                    traced = self.wrap(GROUPS.get(span, span), value, after)
                elif (source, attr) in TRACED_CLASSES:
                    traced = self._traced_class(span, value)
                else:
                    continue
                saved.append((caller, attr, value))
                setattr(caller, attr, traced)

        def restore():
            for caller, attr, value in saved:
                setattr(caller, attr, value)

        return restore

    def _traced_class(self, span: str, cls):
        members = {"__init__": self.wrap(span, cls.__init__)}
        for attr, value in vars(cls).items():
            if not attr.startswith("_") and inspect.isfunction(value):
                members[attr] = self.wrap(span, value)
        return type(cls.__name__, (cls,), members)

    def table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ms": []})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["ms"].append(1e3 * (end - start))
        return dict(out)


def layer_metrics(table: dict[str, dict], steps: list[tuple]) -> dict[str, float]:
    """The per-layer metrics a traced workload run reports."""

    def self_s(name):
        return table[name]["self_s"] if name in table else 0.0

    def calls(name):
        return table[name]["calls"] if name in table else 0

    def ms_pct(name, q):
        return float(np.percentile(table[name]["ms"], q)) if name in table else 0.0

    n_steps = calls(STEP_SPAN)
    rows = sum(s[0] for s in steps)
    survivors = sum(s[1] for s in steps)
    metrics = {
        f"{STEP_SPAN}.calls": n_steps,
        f"{STEP_SPAN}.self_s": self_s(STEP_SPAN),
        f"{STEP_SPAN}.ms_p50": ms_pct(STEP_SPAN, 50),
        f"{STEP_SPAN}.ms_p90": ms_pct(STEP_SPAN, 90),
        "branching.rows_per_step": rows / n_steps if n_steps else 0.0,
        "branching.survivors_per_step": survivors / n_steps if n_steps else 0.0,
        "branching.survivor_ratio": survivors / rows if rows else 0.0,
        "branching.distinct_sites": (
            sum(s[2] for s in steps) / n_steps if n_steps else 0.0),
        "branching.neff_ratio": sum(s[3] for s in steps) / n_steps if n_steps else 0.0,
        "model.bin_weights.calls_per_step":
            calls("model.bin_weights") / n_steps if n_steps else 0.0,
        "model.bin_weights.self_s": self_s("model.bin_weights"),
        "model.reflect_center.self_s": self_s("model.reflect_center"),
        "stats.position_histogram.self_s": self_s("stats.position_histogram"),
        "stats.position_histogram.ms_p50": ms_pct("stats.position_histogram", 50),
        "stats.moments.self_s": self_s("stats.moments"),
        "runner.run_scenario.self_s": self_s("runner.run_scenario"),
    }
    for fn in ("lineage_hash_child", "mix", "unit_uniform"):
        metrics[f"rng.{fn}.calls"] = calls(f"rng.{fn}")
        metrics[f"rng.{fn}.self_s"] = self_s(f"rng.{fn}")
    for fn in ("UnitaryPropagator", "von_neumann_entropy", "random_mixed_state",
               "grw_localization_channel", "evolve_wavefunction"):
        metrics[f"density.{fn}.self_s"] = self_s(f"density.{fn}")
    return metrics
