"""Acceptance checks: oracle-equality sweeps, property sweeps, and budget runs.

Each criterion function returns a CheckResult; ``run_all`` executes the whole
suite.  ``scale`` shrinks trial counts (and the budget-run sizes) for smoke
runs; the full suite uses scale=1.0.  Criteria 5 (an exhaustive sweep) and
8 (fixed fixtures) take no scale.

Criteria 1-6 are sweeps over seeded instances: each collects one message per
failure, and ``_result`` reports how many there were and quotes the first.
Criterion 7 lists each budget run's time and objective, and criterion 8 each
fixture whose repeated ``solve`` output differs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
import random
import tempfile
import time
from typing import NamedTuple

from .chains import Job, density_decomposition, merge_two_chains
from .errors import NetconError
from .metric_solver import solve_fixed_r
from .model import (
    Instance,
    Network,
    OlaInput,
    RelevantPair,
    generate,
    reduce_ola,
    write_instance,
)
from .oracle import interleaving_oracle, subset_dp
from .tree_solver import solve_tree


class CheckResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        """The one-line report ``netcon selftest`` prints for this criterion."""
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


def _scaled(trials: int, scale: float) -> int:
    return max(1, round(trials * scale))


def _result(
    number: int, name: str, start: float, subject: str, failures: list[str], noun: str = "mismatches"
) -> CheckResult:
    """The result of a sweep begun at ``start`` over ``subject`` (what it
    checked, counted): it passes with no failure messages, and a fail quotes
    the first."""
    detail = f"{subject}, {len(failures)} {noun}"
    if failures:
        detail += "; first: " + failures[0]
    return CheckResult(number, name, not failures, detail, time.perf_counter() - start)


def _random_pairs(rng: random.Random, n: int, count: int):
    population = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [RelevantPair(u, v, rng.randint(1, 5)) for u, v in rng.sample(population, count)]


def criterion_tree_exactness(scale: float = 1.0) -> CheckResult:
    """1: solve_tree matches the subset DP on random trees."""
    rng = random.Random(118821)
    trials = _scaled(200, scale)
    start = time.perf_counter()
    failures = []
    for trial in range(trials):
        n = rng.randint(2, 9)
        max_pairs = n * (n - 1) // 2
        instance = generate(
            "random_tree",
            n,
            seed=rng.randrange(1 << 30),
            pair_count=rng.randint(1, min(8, max_pairs)),
            length_range=(1, 10),
            weight_range=(1, 5),
        )
        _, report = solve_tree(instance, force=True)
        want, _ = subset_dp(instance)
        if report.objective != want:
            failures.append(f"trial {trial}: solver {report.objective} != oracle {want}")
    return _result(1, "tree solver exactness", start, f"{trials} random trees", failures)


def _fixed_r_instances(rng: random.Random, trials: int):
    for trial in range(trials):
        n = rng.randint(3, 8)
        max_edges = n * (n - 1) // 2
        m = rng.randint(n - 1, min(14, max_edges))
        base = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            edge_count=m,
            pair_count=1,
            length_range=(1, 10),
        )
        # trial % 4 cycles through general and shared-vertex layouts, each
        # under wct and then under maxlat
        common = trial % 2 == 1
        maxlat = trial % 4 >= 2
        r_max = (n - 1) if common else max_edges  # shared-vertex pairs are depot-to-x
        r = rng.choice([x for x in (2, 3) if x <= r_max])
        if common:
            depot = rng.randrange(n)
            others = rng.sample([v for v in range(n) if v != depot], r)
            pairs = [
                RelevantPair(min(depot, v), max(depot, v), rng.randint(1, 5))
                for v in others
            ]
        else:
            pairs = _random_pairs(rng, n, r)
        if maxlat:
            pairs = [RelevantPair(p.u, p.v, p.weight, rng.randint(0, 30)) for p in pairs]
        objective = "maxlat" if maxlat else "wct"
        yield trial, Instance(base.network, tuple(pairs), objective)


def criterion_fixed_r_exactness(scale: float = 1.0) -> tuple[CheckResult, CheckResult]:
    """2 and 6: fixed-r solver matches the subset DP under wct and maxlat;
    replaying the built sequence gives the forest optimum."""
    rng = random.Random(422411)
    trials = _scaled(100, scale)
    start = time.perf_counter()
    mismatches = []
    faults = []  # the solves that raised: a replay differed from the value it checks
    for trial, instance in _fixed_r_instances(rng, trials):
        want, _ = subset_dp(instance)
        try:
            _, report = solve_fixed_r(instance)
        except NetconError as exc:
            faults.append(f"trial {trial}: {exc}")
            mismatches.append(faults[-1])
            continue
        if report.objective != want:
            mismatches.append(f"trial {trial}: solver {report.objective} != oracle {want}")
    graphs = f"{trials} random graphs, wct and maxlat"
    replayed = f"{trials} winning forests replayed"
    return (
        _result(2, "fixed-r solver exactness", start, graphs, mismatches),
        _result(6, "replayed objective equals the forest optimum", start, replayed, faults),
    )


def _random_chain(rng: random.Random, size: int) -> list[Job]:
    return [Job(rng.randint(1, 9), rng.randint(0, 9)) for _ in range(size)]


def criterion_merge_optimality(scale: float = 1.0) -> CheckResult:
    """3: two-chain merge matches the exhaustive interleaving minimum."""
    rng = random.Random(733313)
    trials = _scaled(500, scale)
    start = time.perf_counter()
    failures = []
    for trial in range(trials):
        total = rng.randint(0, 12)
        n1 = rng.randint(0, total)
        c1 = _random_chain(rng, n1)
        c2 = _random_chain(rng, total - n1)
        _, got = merge_two_chains(c1, c2)
        want = interleaving_oracle(c1, c2)
        if got != want:
            failures.append(f"trial {trial}: merge {got} != oracle {want}")
    return _result(3, "two-chain merge optimality", start, f"{trials} random chain pairs", failures)


def _decomposition_flaw(chain: list[Job]) -> str | None:
    blocks = density_decomposition(chain)
    starts = list(itertools.accumulate((jobs for _, _, jobs in blocks), initial=0))
    if any(a >= b for a, b in zip(starts, starts[1:])) or starts[-1] != len(chain):
        return "blocks do not cover the chain in order"
    for (weight, processing, _), start, end in zip(blocks, starts, starts[1:]):
        jobs = chain[start:end]
        sums = (sum(job.weight for job in jobs), sum(job.processing for job in jobs))
        if (weight, processing) != sums:
            return f"block [{start}:{end}] is {weight}/{processing}, its jobs sum to {sums[0]}/{sums[1]}"
    for (w1, p1, _), (w2, p2, _) in zip(blocks, blocks[1:]):
        if w1 * p2 <= w2 * p1:
            return "densities not strictly decreasing"
    # quadratic scan: every block is a maximum-density initial block of its residual
    for (weight, processing, _), start, end in zip(blocks, starts, starts[1:]):
        x = y = 0
        for job in chain[start:]:
            x += job.processing
            y += job.weight
            if y * processing > weight * x:
                return (
                    f"block [{start}:{end}] density "
                    f"{weight}/{processing} beaten by prefix {y}/{x}"
                )
    return None


def criterion_density_decomposition(scale: float = 1.0) -> CheckResult:
    """4: decomposition blocks cover, sum their jobs, decrease, and dominate
    all prefixes."""
    rng = random.Random(911177)
    trials = _scaled(500, scale)
    start = time.perf_counter()
    failures = []
    for trial in range(trials):
        flaw = _decomposition_flaw(_random_chain(rng, rng.randint(0, 12)))
        if flaw:
            failures.append(f"trial {trial}: {flaw}")
    subject = f"{trials} random chains"
    return _result(4, "density decomposition correctness", start, subject, failures, "flawed decompositions")


def _graphs_up_to_iso(n: int):
    """Canonical representatives of all simple graphs on exactly n vertices."""
    vertex_pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for mask in range(1 << len(vertex_pairs)):
        edges = [vertex_pairs[i] for i in range(len(vertex_pairs)) if mask >> i & 1]
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges)) for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            yield canon


def _ola_brute_force(n: int, edges) -> int:
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        cost = sum(abs(perm[u] - perm[v]) for u, v in edges)
        if best is None or cost < best:
            best = cost
    return best


def criterion_reduction_identity() -> CheckResult:
    """5: arrangement optimum + |V|^2(|V|+1)/2 equals the reduced-star optimum."""
    start = time.perf_counter()
    failures = []
    checked = 0
    for n in range(1, 6):
        for edges in _graphs_up_to_iso(n):
            checked += 1
            ola = OlaInput(n, tuple(edges), 0)
            instance, _ = reduce_ola(ola)
            got, _ = subset_dp(instance)
            want = _ola_brute_force(n, edges) + n * n * (n + 1) // 2
            if got != want:
                failures.append(f"n={n} edges={edges}: star optimum {got} != {want}")
    return _result(5, "star reduction identity", start, f"{checked} graphs up to isomorphism", failures)


def spider(n: int, seed: int) -> Instance:
    """Tree with 3 leaves, paths of near-equal length glued at vertex 0, and 4 pairs."""
    rng = random.Random(seed)
    edges = []
    vertex = 1
    for leg in range(3):
        prev = 0
        for _ in range((n - 1) // 3 + (leg < (n - 1) % 3)):
            edges.append((prev, vertex, rng.randint(1, 10)))
            prev = vertex
            vertex += 1
    return Instance(Network(n, tuple(edges)), tuple(_random_pairs(rng, n, 4)))


def criterion_budget_runs(scale: float = 1.0) -> CheckResult:
    """7: fixed-size runs finish inside their wall-clock budgets."""
    path_n, spider_n, graph_n, graph_m = (60, 24, 40, 90) if scale < 1.0 else (200, 60, 150, 400)
    tree = functools.partial(solve_tree, force=True)
    graph = generate("random_graph", graph_n, seed=13, edge_count=graph_m, pair_count=2)
    runs = [
        (f"path n={path_n}", generate("path", path_n, seed=7, pair_count=6), tree, 30.0),
        (f"3-leaf tree n={spider_n}", spider(spider_n, seed=11), tree, 60.0),
        (f"fixed-r n={graph_n} r=2", graph, solve_fixed_r, 60.0),
    ]
    start = time.perf_counter()
    failures = []
    details = []
    for label, instance, solve, budget in runs:
        t0 = time.perf_counter()
        _, report = solve(instance)
        took = time.perf_counter() - t0
        details.append(f"{label}: {took:.2f}s (budget {budget:.0f}s, objective {report.objective})")
        if took >= budget:
            failures.append(label)
    return CheckResult(7, "budget runs", not failures, "; ".join(details), time.perf_counter() - start)


def _determinism_fixtures(directory: str) -> list[tuple[str, list[str]]]:
    """Write fixture files and return (path, extra solve flags) entries."""
    entries = []

    def put(name: str, instance: Instance, flags: list[str]):
        path = os.path.join(directory, name)
        with open(path, "w") as handle:
            handle.write(write_instance(instance))
        entries.append((path, flags))

    put("path3.ncn", generate("path", 3, length_range=(1, 1), pairs=[(0, 2, 1)]), ["--backend", "tree"])
    put("tree9.ncn", generate("random_tree", 9, seed=5, pair_count=3), ["--backend", "tree"])
    put("graph7.ncn", generate("random_graph", 7, seed=9, edge_count=12, pair_count=2), ["--backend", "fixed-r"])
    put(
        "maxlat6.ncn",
        generate("random_graph", 6, seed=3, edge_count=9, pair_count=2, objective="maxlat"),
        ["--backend", "fixed-r"],
    )
    star, _ = reduce_ola(OlaInput(3, ((0, 1), (0, 2), (1, 2)), 4))
    put("star4.ncn", star, ["--backend", "auto"])
    return entries


def criterion_determinism() -> CheckResult:
    """8: repeated runs are byte-identical."""
    from . import cli

    start = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory() as directory:
        for path, flags in _determinism_fixtures(directory):
            outputs = []
            for _ in range(3):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    status = cli.main(["solve", *flags, path])
                if status != 0:
                    failures.append(f"{os.path.basename(path)}: exit {status}")
                outputs.append(buffer.getvalue())
            if len(set(outputs)) != 1:
                failures.append(f"{os.path.basename(path)}: outputs differ across runs")
    detail = "; ".join(["5 fixtures x 3 runs", *failures])
    return CheckResult(8, "deterministic solver output", not failures, detail, time.perf_counter() - start)


def run_all(scale: float = 1.0) -> list[CheckResult]:
    tree = criterion_tree_exactness(scale)
    exactness, replay = criterion_fixed_r_exactness(scale)
    return [
        tree,
        exactness,
        criterion_merge_optimality(scale),
        criterion_density_decomposition(scale),
        criterion_reduction_identity(),
        replay,
        criterion_budget_runs(scale),
        criterion_determinism(),
    ]
