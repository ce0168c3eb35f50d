"""The benchmark's instance pools, one per workload.

Each workload is a fixed list of strata.  A stratum fixes the shape that
decides how much work a solve does (tree shape and size, or graph size and
pair count); the random parts (lengths, weights, pair placement, extra edges)
come from one of ``VARIANTS`` variants.  Every variant of every stratum is
generated deterministically from its name, so the whole pool is known ahead
of time and every instance in it has a pinned optimal objective in
``pins.json``.  The run seed picks one variant per stratum and the solve
order; sizes never depend on the seed, and instances are never filtered by
how long they take.

Instances are produced with ``netcon.generate`` where it can express them
(paths and random graphs); spiders, dense pair sets and depot pairs are
built from ``netcon.Network`` and ``netcon.Instance`` directly.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import netcon

WORKLOADS = ("tree-sparse", "tree-dense", "fixed-r-wct", "fixed-r-maxlat")
VARIANTS = 3


@dataclass(frozen=True)
class Case:
    """One benchmark input: the canonical instance text plus solve flags."""

    key: str  # "<workload>/<stratum>.<variant>"
    text: str
    flags: tuple[str, ...] = ()

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


def _spread(lo: int, hi: int, count: int, *, even: bool = False) -> list[int]:
    """``count`` sizes spaced evenly over [lo, hi], rounded up to even if asked."""
    sizes = [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]
    return [s + (s % 2) if even else s for s in sizes]


def _spider(rng: random.Random, n: int, legs: int) -> netcon.Network:
    """Tree made of ``legs`` paths of near-equal length glued at vertex 0."""
    edges = []
    vertex = 1
    for leg in range(legs):
        prev = 0
        for _ in range((n - 1) // legs + (leg < (n - 1) % legs)):
            edges.append((prev, vertex, rng.randint(1, 10)))
            prev = vertex
            vertex += 1
    return netcon.Network(n, tuple(edges))


def _tree(rng: random.Random, shape: str, n: int, pairs) -> netcon.Instance:
    if shape == "path":
        return netcon.generate("path", n, seed=rng.randrange(1 << 30), pairs=pairs)
    network = _spider(rng, n, legs=int(shape[-1]))
    return netcon.Instance(network, tuple(netcon.RelevantPair(*p) for p in pairs))


def _random_pairs(rng: random.Random, n: int, count: int):
    population = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [(u, v, rng.randint(1, 5)) for u, v in rng.sample(population, count)]


def _matching_pairs(rng: random.Random, n: int):
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[i + 1], rng.randint(1, 5)) for i in range(0, n, 2)]


def _graph(rng: random.Random, n: int, r: int, objective: str, depot: bool) -> netcon.Instance:
    m = rng.randint(-(-6 * n // 5), min(3 * n, n * (n - 1) // 2))
    if depot:
        hub, *others = rng.sample(range(n), r + 1)
        ends = [(hub, x) for x in others]
    else:
        # distinct endpoints: pairs that share one are cheap and would make a
        # stratum's work depend on the variant; depot instances cover sharing
        flat = rng.sample(range(n), 2 * r)
        ends = list(zip(flat[::2], flat[1::2]))
    due = objective == "maxlat"
    pairs = [(u, v, rng.randint(1, 5)) + ((rng.randint(0, 50),) if due else ()) for u, v in ends]
    return netcon.generate(
        "random_graph", n, seed=rng.randrange(1 << 30), edge_count=m, pairs=pairs, objective=objective
    )


TREE_SHAPES = ("path", "spider2", "spider3")


def strata(workload: str) -> list[tuple]:
    """The fixed stratum list of a workload; see ``build`` for the fields."""
    if workload == "tree-sparse":
        # 3-leg spiders stop at n=60: their DP work grows like n^5
        return [
            (shape, n)
            for shape, hi in zip(TREE_SHAPES, (70, 70, 60))
            for n in _spread(20, hi, 16)
        ]
    if workload == "tree-dense":
        return [(shape, n) for shape in TREE_SHAPES for n in _spread(20, 60, 16, even=True)]
    # r=3 stops at n=9: with six distinct terminals n=10 already takes 3 s
    graphs = [("graph", n, 2) for n in _spread(30, 100, 20)]
    graphs += [("graph", n, 3) for n in (8, 8, 9, 9)]
    if workload == "fixed-r-maxlat":
        graphs += [("depot", n, 3) for n in _spread(10, 24, 8)]
        graphs += [("depot", n, 4) for n in (10, 11, 12)]
    return graphs


def build(workload: str, stratum: int, variant: int) -> Case:
    spec = strata(workload)[stratum]
    rng = random.Random(f"{workload}/{stratum}/{variant}")
    flags: tuple[str, ...] = ()
    if workload == "tree-sparse":
        shape, n = spec
        # the pair count sets how many chain jobs carry weight, so it is fixed
        # per stratum (3..8 in turn) rather than drawn per variant
        instance = _tree(rng, shape, n, _random_pairs(rng, n, 3 + stratum % 6))
    elif workload == "tree-dense":
        shape, n = spec
        instance = _tree(rng, shape, n, _matching_pairs(rng, n))
    else:
        kind, n, r = spec
        objective = "wct" if workload == "fixed-r-wct" else "maxlat"
        instance = _graph(rng, n, r, objective, depot=kind == "depot")
        if kind == "depot":
            flags = ("--depot",)
    text = netcon.write_instance(instance)
    return Case(f"{workload}/{stratum:02d}.{variant}", text, flags)


def cases(workload: str, seed: int) -> list[Case]:
    """The run's instances: one seed-chosen variant of every stratum."""
    rng = random.Random(seed)
    return [build(workload, i, rng.randrange(VARIANTS)) for i in range(len(strata(workload)))]


def self_check_cases() -> list[tuple[Case, dict[str, int]]]:
    """Small instances whose layer counters have closed forms.

    A path with m edges has m(m+1)/2 subtrees and C(m, 3) two-sided merges;
    one pair on a general graph gives a single candidate forest, evaluated
    once as a candidate and once after projection.
    """
    m = 12
    path = netcon.generate("path", m + 1, seed=5, pair_count=4)
    single = netcon.generate("random_graph", 8, seed=5, edge_count=12, pair_count=1)
    return [
        (
            Case("self-check/path", netcon.write_instance(path)),
            {"tree_solver.subtrees": m * (m + 1) // 2, "chains.merge_value_calls": m * (m - 1) * (m - 2) // 6},
        ),
        (
            Case("self-check/one-pair", netcon.write_instance(single)),
            {"metric_solver.candidates": 1, "metric_solver.evaluations": 2},
        ),
    ]
