"""Independent brute-force solvers used as ground truth in tests.

The subset dynamic program exploits the fact that whichever order the edges
of a subset are built in, the subset's total length is the same; a pair first
connected within subset S is therefore charged at len(S) regardless of the
internal order, which makes a subset-indexed recursion exact even though the
objective depends on the order.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .chains import Job
from .errors import GuardExceededError
from .evaluator import evaluate_sequence
from .model import Instance, Objective
from .unionfind import UnionFind

SUBSET_EDGE_LIMIT = 22
PERMUTATION_EDGE_LIMIT = 8
INTERLEAVING_JOB_LIMIT = 14


def subset_dp(
    instance: Instance, *, max_edges: int = SUBSET_EDGE_LIMIT, force: bool = False
) -> tuple[int, tuple[int, ...]]:
    """Exact optimum over all build orders via DP on edge subsets.

    Returns the optimal objective and one optimal full build sequence
    (essential prefix first, leftover edges appended in ascending id order).
    """
    network = instance.network
    m = network.edge_count
    if m > max_edges and not force:
        raise GuardExceededError(f"subset dp limited to {max_edges} edges, got {m}")

    edges = network.edges
    pairs = instance.pairs
    r = len(pairs)
    all_pairs_mask = (1 << r) - 1
    maximize_sum = instance.objective is Objective.WEIGHTED_SUM

    # connected-pair bitmask per edge subset
    conn = [0] * (1 << m)
    for mask in range(1, 1 << m):
        uf = UnionFind(network.vertex_count)
        rest = mask
        while rest:
            low = rest & -rest
            u, v, _ = edges[low.bit_length() - 1]
            uf.union(u, v)
            rest ^= low
        pm = 0
        for i, pair in enumerate(pairs):
            if uf.connected(pair.u, pair.v):
                pm |= 1 << i
        conn[mask] = pm

    # weight sum per pair bitmask
    pair_sum = [0] * (1 << r)
    for pm in range(1, 1 << r):
        low = pm & -pm
        pair_sum[pm] = pair_sum[pm ^ low] + pairs[low.bit_length() - 1].weight

    length = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        length[mask] = length[mask ^ low] + edges[low.bit_length() - 1][2]

    # under maxlat a subset that connects no pair has no value yet (None)
    value: list[int | None] = [0 if maximize_sum else None] * (1 << m)
    choice = [-1] * (1 << m)
    best_mask = -1
    best_value = None
    for mask in range(1, 1 << m):
        t = length[mask]
        connected = conn[mask]
        best = None
        best_edge = -1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            sub = mask ^ low
            new = connected & ~conn[sub]
            if maximize_sum:
                cand = value[sub] + t * pair_sum[new]
            else:
                cand = value[sub]
                npm = new
                while npm:
                    nlow = npm & -npm
                    npm ^= nlow
                    late = t - pairs[nlow.bit_length() - 1].due
                    if cand is None or late > cand:
                        cand = late
            if best is None or cand < best:
                best = cand
                best_edge = low.bit_length() - 1
        value[mask] = best
        choice[mask] = best_edge
        if connected == all_pairs_mask and (best_value is None or best < best_value):
            best_value = best
            best_mask = mask

    assert best_value is not None  # network is connected, so the full set qualifies
    order = []
    mask = best_mask
    while mask:
        e = choice[mask]
        order.append(e)
        mask ^= 1 << e
    order.reverse()
    used = set(order)
    order.extend(e for e in range(m) if e not in used)
    return best_value, tuple(order)


def permutation_oracle(
    instance: Instance, *, max_edges: int = PERMUTATION_EDGE_LIMIT, force: bool = False
) -> int:
    """Exhaustive minimum of evaluate_sequence over all full edge orders."""
    m = instance.network.edge_count
    if m > max_edges and not force:
        raise GuardExceededError(f"permutation oracle limited to {max_edges} edges, got {m}")
    best = None
    for perm in itertools.permutations(range(m)):
        obj = evaluate_sequence(instance, perm).objective
        if best is None or obj < best:
            best = obj
    return best


def interleaving_oracle(
    c1: Sequence[Job],
    c2: Sequence[Job],
    *,
    max_jobs: int = INTERLEAVING_JOB_LIMIT,
    force: bool = False,
) -> int:
    """Minimum total weighted completion time over all order-preserving interleavings."""
    total = len(c1) + len(c2)
    if total > max_jobs and not force:
        raise GuardExceededError(f"interleaving oracle limited to {max_jobs} jobs, got {total}")
    best = None
    for slots in itertools.combinations(range(total), len(c1)):
        taken = set(slots)
        i = j = 0
        elapsed = 0
        obj = 0
        for k in range(total):
            if k in taken:
                job = c1[i]
                i += 1
            else:
                job = c2[j]
                j += 1
            elapsed += job.processing
            obj += job.weight * elapsed
        if best is None or obj < best:
            best = obj
    return 0 if best is None else best
