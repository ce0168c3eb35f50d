"""Evaluate construction orders: per-pair connection times and objective value.

Edges are built one at a time at unit speed, so the k-th edge of a sequence
completes at the sum of the first k lengths.  A pair's connection time is the
cumulative built length at the completion of the first prefix whose edge set
joins the pair; prefixes may be disconnected forests.  The report's text
format is in ``model``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import SequenceError
from .model import ConnectionReport, Instance, Objective, exact_digits
from .unionfind import UnionFind

BuildSequence = tuple[int, ...]


class Verdict(NamedTuple):
    ok: bool
    discrepancies: tuple[str, ...] = ()


@exact_digits
def evaluate_sequence(instance: Instance, seq: Sequence[int]) -> ConnectionReport:
    """Compute the report for a build sequence.

    The sequence need not span the network or even be a tree; it must consist
    of distinct valid edge ids and its edge set must connect every pair.
    """
    network = instance.network
    edges = network.edges
    m = len(edges)
    seen: set[int] = set()
    for eid in seq:
        if type(eid) is not int or not (0 <= eid < m):  # model's integer rule
            raise SequenceError(f"invalid edge id {eid!r}")
        if eid in seen:
            raise SequenceError(f"duplicate edge id {eid}")
        seen.add(eid)

    # the replay stops at the edge that joins the last pair
    uf = UnionFind(network.vertex_count)
    pending = list(range(len(instance.pairs)))
    times: list[int | None] = [None] * len(instance.pairs)
    elapsed = 0
    for eid in seq:
        u, v, c = edges[eid]
        elapsed += c
        if uf.union(u, v):  # an edge that joins nothing new connects no pair
            still = []
            for idx in pending:
                pair = instance.pairs[idx]
                if uf.connected(pair.u, pair.v):
                    times[idx] = elapsed
                else:
                    still.append(idx)
            pending = still
            if not pending:
                break
    if pending:
        missing = ", ".join(
            f"({instance.pairs[i].u}, {instance.pairs[i].v})" for i in pending
        )
        raise SequenceError(f"sequence never connects pair(s) {missing}")

    final_times = tuple(times)  # type: ignore[arg-type]
    return ConnectionReport(final_times, _objective_value(instance, final_times))


def _objective_value(instance: Instance, times: Sequence[int]) -> int:
    if instance.objective is Objective.WEIGHTED_SUM:
        return sum(p.weight * t for p, t in zip(instance.pairs, times))
    return max(t - p.due for p, t in zip(instance.pairs, times))


@exact_digits
def validate_sequence(
    instance: Instance, seq: Sequence[int], claimed: ConnectionReport
) -> Verdict:
    """Recompute the report for seq and compare exactly with the claim."""
    try:
        actual = evaluate_sequence(instance, seq)
    except SequenceError as exc:
        return Verdict(False, (str(exc),))
    problems = []
    if len(claimed.times) != len(instance.pairs):
        problems.append(
            f"claim has {len(claimed.times)} pair times, instance has {len(instance.pairs)}"
        )
    else:
        for pair, got, want in zip(instance.pairs, claimed.times, actual.times):
            if got != want:
                problems.append(
                    f"pair ({pair.u}, {pair.v}): claimed t={got}, recomputed t={want}"
                )
    if claimed.objective != actual.objective:
        problems.append(
            f"objective: claimed {claimed.objective}, recomputed {actual.objective}"
        )
    return Verdict(not problems, tuple(problems))
