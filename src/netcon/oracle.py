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


def subset_dp(instance: Instance, *, force: bool = False) -> tuple[int, tuple[int, ...]]:
    """Exact optimum over all build orders via DP on edge subsets.

    Returns the optimal objective and one optimal order of every edge.  Once
    a subset joins every pair, an edge added after it connects no new pair
    and so costs nothing; the full edge set's value is therefore the
    optimum, and its order, read back through each subset's last edge, is
    an optimal full build sequence.
    """
    network = instance.network
    m = network.edge_count
    if m > SUBSET_EDGE_LIMIT and not force:
        raise GuardExceededError(
            f"subset dp limited to {SUBSET_EDGE_LIMIT} edges, got {m}; "
            "pass force=True (--force on the command line) to run anyway"
        )

    edges = network.edges
    pairs = instance.pairs
    maximize_sum = instance.objective is Objective.WEIGHTED_SUM

    # per edge subset, in ascending mask order so that every subset without
    # one of its edges comes first: its length, its connected-pair bitmask
    # and under wct that bitmask's weight, its value and its last edge
    length = [0] * (1 << m)
    conn = [0] * (1 << m)
    conn_weight = [0] * (1 << m) if maximize_sum else []
    # under maxlat a subset that connects no pair has no value yet (None)
    value: list[int | None] = [0 if maximize_sum else None] * (1 << m)
    choice = [-1] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        t = length[mask] = length[mask ^ low] + edges[low.bit_length() - 1][2]
        uf = UnionFind(network.vertex_count)
        rest = mask
        while rest:
            low = rest & -rest
            u, v, _ = edges[low.bit_length() - 1]
            uf.union(u, v)
            rest ^= low
        connected = weight = 0
        for i, pair in enumerate(pairs):
            if uf.connected(pair.u, pair.v):
                connected |= 1 << i
                weight += pair.weight
        conn[mask] = connected
        if maximize_sum:
            conn_weight[mask] = weight

        best = None
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            sub = mask ^ low
            if maximize_sum:  # conn[sub] is a subset of conn[mask]
                cand = value[sub] + t * (weight - conn_weight[sub])
            else:
                cand = value[sub]
                npm = connected & ~conn[sub]
                while npm:
                    nlow = npm & -npm
                    npm ^= nlow
                    late = t - pairs[nlow.bit_length() - 1].due
                    if cand is None or late > cand:
                        cand = late
            if best is None or cand < best:
                best = cand
                choice[mask] = low.bit_length() - 1
        value[mask] = best

    order = []
    mask = full = (1 << m) - 1
    while mask:
        e = choice[mask]
        order.append(e)
        mask ^= 1 << e
    order.reverse()
    return value[full], tuple(order)


def permutation_oracle(instance: Instance, *, force: bool = False) -> int:
    """Exhaustive minimum of evaluate_sequence over all full edge orders."""
    m = instance.network.edge_count
    if m > PERMUTATION_EDGE_LIMIT and not force:
        raise GuardExceededError(
            f"permutation oracle limited to {PERMUTATION_EDGE_LIMIT} edges, got {m}; "
            "pass force=True (--force on the command line) to run anyway"
        )
    best = None
    for perm in itertools.permutations(range(m)):
        obj = evaluate_sequence(instance, perm).objective
        if best is None or obj < best:
            best = obj
    return best


def interleaving_oracle(c1: Sequence[Job], c2: Sequence[Job], *, force: bool = False) -> int:
    """Minimum total weighted completion time over all order-preserving interleavings."""
    total = len(c1) + len(c2)
    if total > INTERLEAVING_JOB_LIMIT and not force:
        raise GuardExceededError(
            f"interleaving oracle limited to {INTERLEAVING_JOB_LIMIT} jobs, got {total}; "
            "pass force=True to run anyway"
        )
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
