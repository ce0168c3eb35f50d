"""Per-layer tracing of one ``netcon solve`` call, from outside the program.

While a solve is traced, ``Tracer`` replaces the module attributes that the
solvers look up at call time (``netcon.cli.solve_tree``,
``netcon.chains.merge_value``, ...) with timing wrappers, and puts the
originals back afterwards.  Phases (solve, parse, format, catalog, weights,
closure, the candidate generator's lifetime, project, replay) are recorded as
spans that share the solve's id.  Hot leaf calls (``merge_value``,
``block_summaries``, ``merge_plan``, ``evaluate_rforest`` and the generator's
``next``) are only summed per solve, because a span per call would cost more
than the call.

Every wrapped call adds its duration to the child time of the frame that
encloses it, so a frame's self time is its duration minus its wrapped
children, and the self times of one solve add up to its traced duration.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import netcon.chains
import netcon.cli
import netcon.metric_solver
import netcon.tree_solver

clock = time.perf_counter

OUTER = "cli.solve"
TREE = "tree_solver.solve"
METRIC = "metric_solver.solve"
REPLAY = "evaluator.replay"
ENUMERATE = "metric_solver.enumerate"

# (module, attribute, frame name, kind); a "span" frame may enclose others
PATCHES = (
    (netcon.cli, "parse_instance", "model.parse", "span"),
    (netcon.cli, "format_solution", "cli.format", "span"),
    (netcon.cli, "solve_tree", TREE, "span"),
    (netcon.cli, "solve_fixed_r", METRIC, "span"),
    (netcon.tree_solver, "enumerate_subtrees", "tree_solver.catalog", "span"),
    (netcon.tree_solver, "pair_weight_tables", "tree_solver.weights", "span"),
    (netcon.tree_solver, "evaluate_sequence", REPLAY, "span"),
    (netcon.chains, "merge_value", "chains.merge_value", "leaf"),
    (netcon.chains, "block_summaries", "chains.block_summaries", "leaf"),
    (netcon.chains, "merge_plan", "chains.merge_plan", "leaf"),
    (netcon.metric_solver, "build_metric_closure", "metric_solver.closure", "span"),
    (netcon.metric_solver, "enumerate_candidate_forests", ENUMERATE, "generator"),
    (netcon.metric_solver, "evaluate_rforest", "metric_solver.evaluate", "leaf"),
    (netcon.metric_solver, "project_to_graph", "metric_solver.project", "span"),
    (netcon.metric_solver, "evaluate_sequence", REPLAY, "span"),
)


@dataclass
class SolveStats:
    """What one traced solve did, by frame name."""

    busy: Counter = field(default_factory=Counter)  # seconds inside the frame
    own: Counter = field(default_factory=Counter)  # busy minus wrapped children
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)  # subtrees, blocks, candidates, ...

    @property
    def total(self) -> float:
        return self.busy[OUTER]

    def unaccounted(self) -> float:
        """Traced time that no frame's self time covers; 0 up to rounding."""
        return self.total - sum(self.own.values())

    def counters(self) -> dict[str, int]:
        """The counters that the self-check cases pin to closed forms."""
        return {
            "tree_solver.subtrees": self.counts["tree_solver.subtrees"],
            "chains.merge_value_calls": self.calls["chains.merge_value"],
            "metric_solver.candidates": self.counts["metric_solver.candidates"],
            "metric_solver.evaluations": self.calls["metric_solver.evaluate"],
        }


class Tracer:
    """Traces solves one at a time; keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, str | None, float, float]] = []
        self.solves: list[SolveStats] = []
        self._stack: list[list] = []  # [name, child seconds]
        self._folds: list = []

    def trace(self, run):
        """Call ``run()`` with every layer wrapped; return its result."""
        stats = SolveStats()
        originals = []
        for module, attr, name, kind in PATCHES:
            fn = getattr(module, attr, None)
            if fn is None:  # renamed or removed by the program: its metrics read 0
                continue
            originals.append((module, attr, fn))
            wrap = {"span": self._span, "leaf": self._leaf, "generator": self._generator}[kind]
            setattr(module, attr, wrap(name, fn, stats))
        try:
            return self._span(OUTER, run, stats)()
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)
            self._fold()
            self.solves.append(stats)

    def _span(self, name, fn, stats):
        stack = self._stack
        spans = self.spans
        solve_id = len(self.solves)

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stats.busy[name] += took
                stats.own[name] += took - frame[1]
                stats.calls[name] += 1
                if stack:
                    stack[-1][1] += took
                spans.append((solve_id, name, parent, start, end))
            if name == "tree_solver.catalog":
                stats.counts["tree_solver.subtrees"] += result.subtree_count
            return result

        return wrapper

    def _leaf(self, name, fn, stats):
        # sums live in a local list while the solve runs; _fold adds them up
        stack = self._stack
        acc = [0.0, 0, 0]  # seconds, calls, blocks or improving candidates
        self._folds.append((name, acc, stats))
        if name == "chains.block_summaries":
            def wrapper(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                took = clock() - start
                acc[0] += took
                acc[1] += 1
                acc[2] += len(result)
                stack[-1][1] += took
                return result
        elif name == "metric_solver.evaluate":
            incumbent = []

            def wrapper(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                took = clock() - start
                acc[0] += took
                acc[1] += 1
                stack[-1][1] += took
                # a candidate, not the re-score after projection
                if stack[-1][0] == METRIC and (not incumbent or result.value < incumbent[0]):
                    incumbent[:] = [result.value]
                    acc[2] += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                took = clock() - start
                acc[0] += took
                acc[1] += 1
                stack[-1][1] += took
                return result

        return wrapper

    def _fold(self) -> None:
        extra = {"chains.block_summaries": "chains.blocks", "metric_solver.evaluate": "metric_solver.improving"}
        for name, (seconds, calls, count), stats in self._folds:
            stats.busy[name] += seconds
            stats.own[name] += seconds
            stats.calls[name] += calls
            if name in extra:
                stats.counts[extra[name]] += count
        self._folds.clear()

    def _generator(self, name, fn, stats):
        stack = self._stack
        spans = self.spans
        solve_id = len(self.solves)

        def lifetime(inner):
            parent = stack[-1][0]
            start = clock()
            try:
                while True:
                    t = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        took = clock() - t
                        stats.busy[name] += took
                        stats.own[name] += took
                        stats.calls[name] += 1
                        stack[-1][1] += took
                    stats.counts["metric_solver.candidates"] += 1
                    yield item
            finally:
                spans.append((solve_id, name + ".lifetime", parent, start, clock()))

        def wrapper(*args, **kwargs):
            return lifetime(fn(*args, **kwargs))

        return wrapper


def missing() -> list[str]:
    """Wrapped attributes that the program no longer has."""
    return [f"{module.__name__}.{attr}" for module, attr, _, _ in PATCHES if not hasattr(module, attr)]


def per_layer(solves: list[SolveStats], untraced: list[float]) -> dict[str, tuple[float, str]]:
    """Per-solve means of every layer metric, plus the tracing overhead."""
    n = len(solves)
    busy = sum((s.busy for s in solves), Counter())
    own = sum((s.own for s in solves), Counter())
    calls = sum((s.calls for s in solves), Counter())
    counts = sum((s.counts for s in solves), Counter())

    def ratio(a, b):
        return a / b if b else 0.0

    traced = busy[OUTER] / n
    return {
        "model.parse_s": (busy["model.parse"] / n, "s"),
        "cli.format_s": (busy["cli.format"] / n, "s"),
        "tree_solver.solve_s": (busy[TREE] / n, "s"),
        "tree_solver.self_s": (own[TREE] / n, "s"),
        "tree_solver.catalog_s": (busy["tree_solver.catalog"] / n, "s"),
        "tree_solver.subtrees": (counts["tree_solver.subtrees"] / n, "count"),
        "tree_solver.weights_s": (busy["tree_solver.weights"] / n, "s"),
        # the DP keeps one record per subtree
        "tree_solver.kept_per_merge": (
            ratio(counts["tree_solver.subtrees"], calls["chains.merge_value"]), "ratio"),
        "chains.merge_value_s": (busy["chains.merge_value"] / n, "s"),
        "chains.merge_value_calls": (calls["chains.merge_value"] / n, "count"),
        "chains.block_summaries_s": (busy["chains.block_summaries"] / n, "s"),
        "chains.block_summaries_calls": (calls["chains.block_summaries"] / n, "count"),
        "chains.blocks_mean": (
            ratio(counts["chains.blocks"], calls["chains.block_summaries"]), "count"),
        "chains.merge_plan_s": (busy["chains.merge_plan"] / n, "s"),
        "metric_solver.solve_s": (busy[METRIC] / n, "s"),
        "metric_solver.self_s": (own[METRIC] / n, "s"),
        "metric_solver.closure_s": (busy["metric_solver.closure"] / n, "s"),
        "metric_solver.enumerate_s": (busy[ENUMERATE] / n, "s"),
        "metric_solver.candidates": (counts["metric_solver.candidates"] / n, "count"),
        "metric_solver.evaluate_s": (busy["metric_solver.evaluate"] / n, "s"),
        "metric_solver.evaluations": (calls["metric_solver.evaluate"] / n, "count"),
        "metric_solver.project_s": (busy["metric_solver.project"] / n, "s"),
        "metric_solver.improving_frac": (
            ratio(counts["metric_solver.improving"], counts["metric_solver.candidates"]), "ratio"),
        "evaluator.replay_s": (busy[REPLAY] / n, "s"),
        "evaluator.replays": (calls[REPLAY] / n, "count"),
        "trace.solve_s": (traced, "s"),
        "trace.overhead_s": (traced - sum(untraced) / len(untraced), "s"),
    }


def split(solves: list[SolveStats]) -> dict[str, float]:
    """Share of the traced solve time spent in each frame's own code."""
    own = sum((s.own for s in solves), Counter())
    total = sum(s.total for s in solves)
    return {name: seconds / total for name, seconds in own.most_common()}
