"""Single-machine chain scheduling for total weighted completion time.

A chain is an ordered list of jobs that must run in order.  Its density
decomposition splits it into consecutive blocks of strictly decreasing
weight-per-time density; blocks are the vertices of the upper convex hull of
the prefix (processing, weight) points, so equal-density stretches fuse into
one longest block.  Two chains merge optimally by repeatedly emitting the
highest-density front block, preferring the first chain on ties
(``interleave``).

A block is a plain ``(weight, processing, jobs)`` tuple with no position, so
merges share their parts' blocks; each block's ``jobs`` taken from its own
chain in interleaving order rebuild the merged order.  ``merged_blocks``
holds the one fusing rule: it takes two decompositions' blocks in that order,
then one more job, fusing each with its predecessors while their density is
not higher.  ``block_summaries`` feeds it single jobs, the tree solver two
subtrees' blocks and the last edge's job.

``merge_value`` prices a merge without building it, in delay form: from the
two chains' own objectives, each block taken in ``interleave`` order adds its
processing time times the weight the other chain has left.  The total only
grows, so a caller that only asks whether the merge beats a ``limit`` lets
the walk stop there: the result is exact below ``limit`` and some value no
less than it otherwise.

All densities are compared exactly by integer cross-multiplication.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator, Sequence

from .frozen import Frozen
from .model import exact_digits


class Job(Frozen):
    __slots__ = _fields = ("processing", "weight", "tag")

    @exact_digits
    def __init__(self, processing: int, weight: int, tag: Any = None) -> None:
        if type(processing) is not int or processing < 1:
            raise ValueError(f"job processing time must be a positive integer: {processing!r}")
        if type(weight) is not int or weight < 0:
            raise ValueError(f"job weight must be a non-negative integer: {weight!r}")
        init = object.__setattr__
        init(self, "processing", processing)
        init(self, "weight", weight)
        init(self, "tag", tag)


Chain = Sequence[Job]


# Block summaries are (weight, processing, jobs) tuples: a block's total
# weight and processing time and the number of consecutive jobs it covers.
BlockSummary = tuple[int, int, int]


def merged_blocks(
    s1: Sequence[BlockSummary], s2: Sequence[BlockSummary], weight: int, processing: int
) -> tuple[BlockSummary, ...]:
    """Decomposition of the optimal interleaving of ``s1`` and ``s2`` followed
    by one job of ``weight`` and ``processing``.

    One loop takes the blocks in ``interleave`` order, then the job, and fuses
    each with its predecessors while their density is not higher: this is the
    one fusing rule.  A fuse adds the three fields; a block that fuses with
    nothing is kept as the same tuple.
    """
    blocks: list[BlockSummary] = []
    n1 = len(s1)
    n2 = len(s2)
    i = j = 0
    for _ in range(n1 + n2 + 1):
        if i < n1 and (j == n2 or s1[i][0] * s2[j][1] >= s2[j][0] * s1[i][1]):
            block = s1[i]
            i += 1
        elif j < n2:
            block = s2[j]
            j += 1
        else:
            block = (weight, processing, 1)
        w, p, k = block
        while blocks and blocks[-1][0] * p <= w * blocks[-1][1]:
            w0, p0, k0 = blocks.pop()
            block = w, p, k = w0 + w, p0 + p, k0 + k
        blocks.append(block)
    return tuple(blocks)


def block_summaries(ps: Sequence[int], ws: Sequence[int]) -> tuple[BlockSummary, ...]:
    """The blocks of ``density_decomposition`` for the chain of processing
    times ``ps`` and weights ``ws``.  It stays apart from that function only
    because ``perfbench/layers.py`` wraps it by name and
    ``test_tracer_puts_the_original_functions_back`` looks it up, until
    ROADMAP item 1."""
    jobs = [(w, p, 1) for p, w in zip(ps, ws)]
    if not jobs:
        return ()
    w, p, _ = jobs.pop()
    return merged_blocks(jobs, (), w, p)


def density_decomposition(chain: Chain) -> list[BlockSummary]:
    """Split a chain into maximum-density initial blocks of successive residuals.

    Each block is a ``(weight, processing, jobs)`` tuple covering the next
    ``jobs`` jobs of the chain, so the blocks cover it in order.
    """
    return list(block_summaries([j.processing for j in chain], [j.weight for j in chain]))


def interleave(
    s1: Sequence[BlockSummary], s2: Sequence[BlockSummary]
) -> Iterator[tuple[int, BlockSummary]]:
    """Yield ``(side, block)`` in the optimal interleaving order of two decompositions.

    The highest-density front block goes first, the first chain on ties.
    """
    i = j = 0
    while i < len(s1) and j < len(s2):
        b1, b2 = s1[i], s2[j]
        if b1[0] * b2[1] >= b2[0] * b1[1]:
            yield 0, b1
            i += 1
        else:
            yield 1, b2
            j += 1
    for block in s1[i:]:
        yield 0, block
    for block in s2[j:]:
        yield 1, block


def merge_plan(s1: Sequence[BlockSummary], s2: Sequence[BlockSummary]) -> list[int]:
    """Source (0 or 1) of each block in the optimal interleaving order.  No
    solver calls it: it stays only because ``perfbench/layers.py`` wraps it
    by name and ``test_tracer_puts_the_original_functions_back`` looks it
    up, until ROADMAP item 1."""
    return [side for side, _ in interleave(s1, s2)]


def merge_value(
    s1: Sequence[BlockSummary],
    s2: Sequence[BlockSummary],
    own1: int,
    own2: int,
    weight1: int,
    weight2: int,
    limit: int | None = None,
) -> int:
    """Objective of the optimal interleaving, from block summaries, or a
    value no less than ``limit`` when the objective is not below it.

    ``own1`` and ``own2`` are the chains' objectives when each runs alone and
    ``weight1`` and ``weight2`` their total weights, the sums of their block
    weights.  The walk is in delay form: it starts at ``own1 + own2``, and
    each block it takes in ``interleave`` order delays whatever weight the
    other chain has left by the block's processing time.  The total only
    grows, so the walk returns as soon as it reaches ``limit`` (``None``: no
    limit).  Block densities fall and no weight is negative, so once one
    chain's weight is used up, every block still to come adds nothing: a
    weightless chain returns at once.
    """
    if not weight1 or not weight2:
        return own1 + own2
    total = own1 + own2
    if limit is not None and total >= limit:
        return total
    i = j = 0
    w1, p1, _ = s1[0]
    w2, p2, _ = s2[0]
    while True:
        if w1 * p2 >= w2 * p1:
            total += p1 * weight2
            weight1 -= w1
            if not weight1:
                return total
            i += 1
            w1, p1, _ = s1[i]
        else:
            total += p2 * weight1
            weight2 -= w2
            if not weight2:
                return total
            j += 1
            w2, p2, _ = s2[j]
        if limit is not None and total >= limit:
            return total


def merge_two_chains(c1: Chain, c2: Chain) -> tuple[list[Any], int]:
    """Optimal interleaving of two chains.

    Returns the merged order as a list of job tags plus its total weighted
    completion time, minimal over all order-preserving interleavings.
    """
    merged: list[Job] = []
    sides = (iter(c1), iter(c2))
    for side, (_, _, jobs) in interleave(density_decomposition(c1), density_decomposition(c2)):
        merged.extend(islice(sides[side], jobs))
    elapsed = 0
    objective = 0
    for job in merged:
        elapsed += job.processing
        objective += job.weight * elapsed
    return [job.tag for job in merged], objective
