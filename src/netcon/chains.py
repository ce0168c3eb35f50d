"""Single-machine chain scheduling for total weighted completion time.

A chain is an ordered list of jobs that must run in order.  Its density
decomposition splits it into consecutive blocks of strictly decreasing
weight-per-time density; blocks are the vertices of the upper convex hull of
the prefix (processing, weight) points, so equal-density stretches fuse into
one longest block.  Two chains merge optimally by repeatedly emitting the
highest-density front block, preferring the first chain on ties.

``block_summaries`` is the one decomposition: every block is a plain
``(weight, processing, inner, start, end)`` tuple, which the tree solver, the
public ``density_decomposition`` and ``merge_two_chains`` all share.

All densities are compared exactly by integer cross-multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence


@dataclass(frozen=True)
class Job:
    processing: int
    weight: int
    tag: Any = None

    def __post_init__(self):
        if not isinstance(self.processing, int) or self.processing < 1:
            raise ValueError(f"job processing time must be a positive integer: {self.processing!r}")
        if not isinstance(self.weight, int) or self.weight < 0:
            raise ValueError(f"job weight must be a non-negative integer: {self.weight!r}")


Chain = Sequence[Job]


def _prefix_hull(ps: Sequence[int], ws: Sequence[int]) -> list[int]:
    """Indices of the upper convex hull of prefix points (with index 0 first)."""
    xs = [0]
    ys = [0]
    for p, w in zip(ps, ws):
        xs.append(xs[-1] + p)
        ys.append(ys[-1] + w)
    hull = [0]
    for i in range(1, len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # pop b unless a->b->i turns strictly right; collinear points fuse
            if (xs[b] - xs[a]) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (xs[i] - xs[a]) >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


# Block summaries are (weight, processing, inner, start, end) tuples, where
# inner is the weighted completion cost of the block run in isolation.  They
# are the memoized form reused across many merges of the same chain.
BlockSummary = tuple[int, int, int, int, int]


def block_summaries(ps: Sequence[int], ws: Sequence[int]) -> tuple[BlockSummary, ...]:
    hull = _prefix_hull(ps, ws)
    out = []
    for a, b in zip(hull, hull[1:]):
        weight = processing = inner = 0
        for i in range(a, b):
            processing += ps[i]
            weight += ws[i]
            inner += ws[i] * processing
        out.append((weight, processing, inner, a, b))
    return tuple(out)


def density_decomposition(chain: Chain) -> list[BlockSummary]:
    """Split a chain into maximum-density initial blocks of successive residuals.

    Each block is a ``(weight, processing, inner, start, end)`` tuple covering
    ``chain[start:end]``.
    """
    return list(block_summaries([j.processing for j in chain], [j.weight for j in chain]))


def rho_factor(chain: Chain) -> Fraction:
    """Density of the chain's maximum-density initial block; 0 when empty."""
    blocks = density_decomposition(chain)
    if not blocks:
        return Fraction(0, 1)
    weight, processing, _, _, _ = blocks[0]
    return Fraction(weight, processing)


def merge_plan(s1: Sequence[BlockSummary], s2: Sequence[BlockSummary]) -> list[int]:
    """Source (0 or 1) of each block in the optimal interleaving order."""
    plan = []
    i = j = 0
    while i < len(s1) and j < len(s2):
        w1, p1 = s1[i][0], s1[i][1]
        w2, p2 = s2[j][0], s2[j][1]
        if w1 * p2 >= w2 * p1:  # tie goes to the first chain
            plan.append(0)
            i += 1
        else:
            plan.append(1)
            j += 1
    plan.extend([0] * (len(s1) - i))
    plan.extend([1] * (len(s2) - j))
    return plan


def merge_value(s1: Sequence[BlockSummary], s2: Sequence[BlockSummary]) -> int:
    """Objective of the optimal interleaving, from block summaries alone."""
    total = 0
    elapsed = 0
    i = j = 0
    n1 = len(s1)
    n2 = len(s2)
    if n1 and n2:
        w1, p1, inner1, _, _ = s1[0]
        w2, p2, inner2, _, _ = s2[0]
        while True:
            if w1 * p2 >= w2 * p1:
                total += inner1 + elapsed * w1
                elapsed += p1
                i += 1
                if i == n1:
                    break
                w1, p1, inner1, _, _ = s1[i]
            else:
                total += inner2 + elapsed * w2
                elapsed += p2
                j += 1
                if j == n2:
                    break
                w2, p2, inner2, _, _ = s2[j]
    for k in range(i, n1):
        w, p, inner, _, _ = s1[k]
        total += inner + elapsed * w
        elapsed += p
    for k in range(j, n2):
        w, p, inner, _, _ = s2[k]
        total += inner + elapsed * w
        elapsed += p
    return total


def merge_two_chains(c1: Chain, c2: Chain) -> tuple[list[Any], int]:
    """Optimal interleaving of two chains.

    Returns the merged order as a list of job tags plus its total weighted
    completion time, minimal over all order-preserving interleavings.
    """
    s1 = density_decomposition(c1)
    s2 = density_decomposition(c2)
    merged: list[Job] = []
    i = j = 0
    for src in merge_plan(s1, s2):
        if src == 0:
            _, _, _, a, b = s1[i]
            merged.extend(c1[a:b])
            i += 1
        else:
            _, _, _, a, b = s2[j]
            merged.extend(c2[a:b])
            j += 1
    elapsed = 0
    objective = 0
    for job in merged:
        elapsed += job.processing
        objective += job.weight * elapsed
    return [job.tag for job in merged], objective
