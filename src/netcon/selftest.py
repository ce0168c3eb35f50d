"""Acceptance checks: oracle-equality sweeps, property sweeps, and budget runs.

Each criterion function returns a CheckResult; ``run_all`` executes the whole
suite.  ``scale`` shrinks trial counts (and the budget-run sizes) for smoke
runs; the full suite uses scale=1.0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import os
import random
import tempfile
import time
from dataclasses import dataclass

from .chains import Job, density_decomposition, merge_two_chains
from .metric_solver import solve_fixed_r, solve_fixed_r_detailed
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


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _scaled(trials: int, scale: float) -> int:
    return max(1, round(trials * scale))


def _random_pairs(rng: random.Random, n: int, count: int, weight_hi: int = 5):
    population = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [
        RelevantPair(u, v, rng.randint(1, weight_hi))
        for u, v in rng.sample(population, count)
    ]


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
    elapsed = time.perf_counter() - start
    detail = f"{trials} random trees, {len(failures)} mismatches"
    if failures:
        detail += "; first: " + failures[0]
    return CheckResult(1, "tree solver exactness", not failures, detail, elapsed)


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
            pairs = [dataclasses.replace(p, due=rng.randint(0, 30)) for p in pairs]
        objective = "maxlat" if maxlat else "wct"
        yield trial, Instance(base.network, tuple(pairs), objective)


def criterion_fixed_r_exactness(scale: float = 1.0) -> tuple[CheckResult, CheckResult]:
    """2 and 6: fixed-r solver matches the subset DP under wct and maxlat;
    replaying the built sequence gives the forest optimum."""
    rng = random.Random(422411)
    trials = _scaled(100, scale)
    start = time.perf_counter()
    mismatches = []
    replay_mismatches = 0
    for trial, instance in _fixed_r_instances(rng, trials):
        solution = solve_fixed_r_detailed(instance)
        want, _ = subset_dp(instance)
        if solution.report.objective != want:
            mismatches.append(
                f"trial {trial}: solver {solution.report.objective} != oracle {want}"
            )
        if solution.evaluation.value != want:
            mismatches.append(
                f"trial {trial}: forest optimum {solution.evaluation.value} != {want}"
            )
        if solution.report.objective != solution.evaluation.value:
            replay_mismatches += 1
    elapsed = time.perf_counter() - start
    detail = f"{trials} random graphs, wct and maxlat, {len(mismatches)} mismatches"
    if mismatches:
        detail += "; first: " + mismatches[0]
    exactness = CheckResult(2, "fixed-r solver exactness", not mismatches, detail, elapsed)
    replay = CheckResult(
        6,
        "replayed objective equals the forest optimum",
        replay_mismatches == 0,
        f"{trials} winning forests replayed, {replay_mismatches} mismatches",
        elapsed,
    )
    return exactness, replay


def _random_chain(rng: random.Random, size: int) -> list[Job]:
    return [Job(rng.randint(1, 9), rng.randint(0, 9)) for _ in range(size)]


def criterion_merge_optimality(scale: float = 1.0) -> CheckResult:
    """3: two-chain merge matches the exhaustive interleaving minimum."""
    rng = random.Random(733313)
    trials = _scaled(500, scale)
    start = time.perf_counter()
    failures = 0
    for _ in range(trials):
        total = rng.randint(0, 12)
        n1 = rng.randint(0, total)
        c1 = _random_chain(rng, n1)
        c2 = _random_chain(rng, total - n1)
        _, got = merge_two_chains(c1, c2)
        if got != interleaving_oracle(c1, c2):
            failures += 1
    elapsed = time.perf_counter() - start
    return CheckResult(
        3,
        "two-chain merge optimality",
        failures == 0,
        f"{trials} random chain pairs, {failures} mismatches",
        elapsed,
    )


def _decomposition_flaw(chain: list[Job]) -> str | None:
    blocks = density_decomposition(chain)
    if [j for _, _, _, a, b in blocks for j in chain[a:b]] != list(chain):
        return "blocks do not cover the chain in order"
    for (w1, p1, *_), (w2, p2, *_) in zip(blocks, blocks[1:]):
        if w1 * p2 <= w2 * p1:
            return "densities not strictly decreasing"
    # quadratic scan: every block is a maximum-density initial block of its residual
    for weight, processing, _, start, end in blocks:
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
    """4: decomposition blocks cover, decrease, and dominate all prefixes."""
    rng = random.Random(911177)
    trials = _scaled(500, scale)
    start = time.perf_counter()
    failures = 0
    first = ""
    for _ in range(trials):
        chain = _random_chain(rng, rng.randint(0, 12))
        flaw = _decomposition_flaw(chain)
        if flaw:
            failures += 1
            first = first or flaw
    elapsed = time.perf_counter() - start
    detail = f"{trials} random chains, {failures} flawed decompositions"
    if first:
        detail += "; first: " + first
    return CheckResult(4, "density decomposition correctness", failures == 0, detail, elapsed)


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


def criterion_reduction_identity(scale: float = 1.0) -> CheckResult:
    """5: arrangement optimum + |V|^2(|V|+1)/2 equals the reduced-star optimum."""
    del scale  # the sweep is exhaustive by definition
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
    elapsed = time.perf_counter() - start
    detail = f"{checked} graphs up to isomorphism, {len(failures)} mismatches"
    if failures:
        detail += "; first: " + failures[0]
    return CheckResult(5, "star reduction identity", not failures, detail, elapsed)


def spider(n: int, legs: int = 3, seed: int = 0, pair_count: int = 4) -> Instance:
    """Tree with ``legs`` leaves: paths of near-equal length glued at vertex 0."""
    rng = random.Random(seed)
    edges = []
    ends = []
    vertex = 1
    for leg in range(legs):
        size = (n - 1) // legs + (1 if leg < (n - 1) % legs else 0)
        prev = 0
        for _ in range(size):
            edges.append((prev, vertex, rng.randint(1, 10)))
            prev = vertex
            vertex += 1
        ends.append(prev)
    population = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = [
        RelevantPair(u, v, rng.randint(1, 5))
        for u, v in rng.sample(population, pair_count)
    ]
    return Instance(Network(n, tuple(edges)), tuple(pairs))


def criterion_budget_runs(scale: float = 1.0) -> CheckResult:
    """7: fixed-size runs finish inside their wall-clock budgets."""
    small = scale < 1.0
    runs = [
        (
            "path n=200" if not small else "path n=60",
            generate("path", 60 if small else 200, seed=7, pair_count=6),
            dict(kind="tree"),
            30.0,
        ),
        (
            "3-leaf tree n=60" if not small else "3-leaf tree n=24",
            spider(24 if small else 60, seed=11),
            dict(kind="tree"),
            60.0,
        ),
        (
            "fixed-r n=150 r=2" if not small else "fixed-r n=40 r=2",
            generate(
                "random_graph",
                40 if small else 150,
                seed=13,
                edge_count=90 if small else 400,
                pair_count=2,
            ),
            dict(kind="fixed-r"),
            60.0,
        ),
    ]
    start = time.perf_counter()
    failures = []
    details = []
    for label, instance, opts, budget in runs:
        t0 = time.perf_counter()
        if opts["kind"] == "tree":
            _, report = solve_tree(instance, force=True)
        else:
            _, report = solve_fixed_r(instance)
        took = time.perf_counter() - t0
        details.append(f"{label}: {took:.2f}s (budget {budget:.0f}s, objective {report.objective})")
        if took >= budget:
            failures.append(label)
    elapsed = time.perf_counter() - start
    return CheckResult(
        7,
        "budget runs",
        not failures,
        "; ".join(details),
        elapsed,
    )


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


def criterion_determinism(scale: float = 1.0) -> CheckResult:
    """8: repeated runs are byte-identical."""
    del scale
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
    elapsed = time.perf_counter() - start
    return CheckResult(
        8,
        "deterministic solver output",
        not failures,
        "5 fixtures x 3 runs" + ("" if not failures else "; " + "; ".join(failures)),
        elapsed,
    )


def run_all(scale: float = 1.0) -> list[CheckResult]:
    results = [criterion_tree_exactness(scale)]
    exactness, replay = criterion_fixed_r_exactness(scale)
    results.append(exactness)
    results.append(criterion_merge_optimality(scale))
    results.append(criterion_density_decomposition(scale))
    results.append(criterion_reduction_identity(scale))
    results.append(replay)
    results.append(criterion_budget_runs(scale))
    results.append(criterion_determinism(scale))
    return results
