"""Sweep forced fixed-r solve times over (pair endpoints t, pairs r), and pick
the fixed-r guard's two bounds from it.

    PYTHONPATH=src python3 scripts/fixed_r_guard_sweep.py -o SWEEP_fixed_r_guard.json

Each cell (t, r) solves four random graphs per size in SIZES and objective
with ``solve_fixed_r(force=True)`` and keeps raw wall-clock seconds.  The
sizes run from the smallest graphs up to n = 100, the largest graph of the
benchmark's fixed-r workloads; a size below t is raised to t.  A graph has
6n/5..3n edges (as the benchmark's fixed-r graphs have), lengths 1-10 or, on
every other graph, 1-2 (tie-prone), weights 1-5 and due dates 0-50.
Its r pairs join t distinct endpoints: a matching over them first, then
distinct random pairs among them, so no vertex is common to all pairs.
Cells run by t from T_MIN to T_MAX, then by r up to R_MAX.  A cell stops at
its first solve over three budgets, and once a cell is over budget no
larger r at that t runs.

The bounds: ENDPOINT_BOUND is the largest t whose cells with r <= 6 all
stay within the budget, and PAIR_BOUND the largest r such that every cell
with at most ENDPOINT_BOUND endpoints and at most r pairs does; neither goes
below what the shared-vertex and general bounds admitted before (r = 6 at a
shared vertex, r = 4 over 8 endpoints).  Endpoints come first because t is
the exponent of every subset DP; r matters through the r! pair orders that
wct prices before its DPs.  ``worst_admitted_s`` is the slowest solve with
t and r within the chosen bounds, per objective.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import sys
import time

from netcon import generate, solve_fixed_r

BUDGET_S = 1.0  # raw seconds per forced solve
SIZES = (16, 40, 70, 100)
T_MIN, T_MAX, R_MAX = 4, 12, 9
MIN_ENDPOINT_BOUND = 8  # four pairs over eight endpoints were admitted before
MIN_PAIR_BOUND = 6  # six pairs at a shared vertex (seven endpoints) were admitted before


def _instance(rng: random.Random, n: int, t: int, r: int, objective: str, ties: bool):
    ends = rng.sample(range(n), t)
    keys = {frozenset(ends[i : i + 2]) for i in range(0, t - 1, 2)}
    if t % 2:
        keys.add(frozenset((ends[-1], rng.choice(ends[:-1]))))
    while len(keys) < r:
        keys.add(frozenset(rng.sample(ends, 2)))
    due = objective == "maxlat"
    pairs = [
        tuple(sorted(key)) + (rng.randint(1, 5),) + ((rng.randint(0, 50),) if due else ())
        for key in sorted(keys, key=sorted)
    ]
    return generate(
        "random_graph",
        n,
        seed=rng.randrange(1 << 30),
        edge_count=rng.randint(-(-6 * n // 5), min(3 * n, n * (n - 1) // 2)),
        pairs=pairs,
        length_range=(1, 2) if ties else (1, 10),
        objective=objective,
    )


def _cell(t: int, r: int, objective: str) -> dict:
    rng = random.Random(f"guard/{objective}/{t}/{r}")
    seconds = []
    for n, ties in itertools.product(SIZES, (False, True) * 2):
        instance = _instance(rng, max(n, t), t, r, objective, ties)
        assert len(instance.terminals) == t and instance.common_pair_vertex() is None
        start = time.perf_counter()
        solve_fixed_r(instance, force=True)
        seconds.append(round(time.perf_counter() - start, 4))
        if seconds[-1] > 3 * BUDGET_S:
            break
    return {"t": t, "r": r, "objective": objective, "seconds": seconds, "max_s": max(seconds)}


def _pair_range(t: int, r_max: int) -> range:
    return range(-(-t // 2), min(r_max, t * (t - 1) // 2) + 1)


def _bounds(cells: list[dict]) -> tuple[int, int]:
    within = {(c["objective"], c["t"], c["r"]) for c in cells if c["max_s"] <= BUDGET_S}

    def fits(t_max: int, r_max: int) -> bool:
        return all(
            (objective, t, r) in within
            for objective in ("wct", "maxlat")
            for t in range(T_MIN, t_max + 1)
            for r in _pair_range(t, r_max)
        )

    endpoint = max([MIN_ENDPOINT_BOUND] + [c["t"] for c in cells if fits(c["t"], MIN_PAIR_BOUND)])
    pair = max([MIN_PAIR_BOUND] + [c["r"] for c in cells if fits(endpoint, c["r"])])
    return endpoint, pair


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args()
    cells = []
    for objective in ("wct", "maxlat"):
        for t in range(T_MIN, T_MAX + 1):
            for r in _pair_range(t, R_MAX):
                cell = _cell(t, r, objective)
                cells.append(cell)
                print(json.dumps(cell), file=sys.stderr, flush=True)
                if cell["max_s"] > BUDGET_S:
                    break
    endpoint, pair = _bounds(cells)
    result = {
        "about": __doc__.strip(),
        "budget_s": BUDGET_S,
        "machine": f"Python {platform.python_version()}, {platform.machine()}, {os.cpu_count()} CPUs",
        "chosen": {"ENDPOINT_BOUND": endpoint, "PAIR_BOUND": pair},
        "worst_admitted_s": {
            objective: max(
                c["max_s"] for c in cells if c["objective"] == objective and c["t"] <= endpoint and c["r"] <= pair
            )
            for objective in ("wct", "maxlat")
        },
        "cells": cells,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(json.dumps({"chosen": result["chosen"], "worst_admitted_s": result["worst_admitted_s"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
