"""Exact solver on trees: dynamic programming over all subtrees.

Every connected edge subset (subtree) gets an optimal build order, computed
in ascending order of its edge bitmask, so both components left by deleting
an edge (submasks, hence smaller) are solved first: for each subtree and each
candidate last edge, the orders of the two remaining components are
interleaved as a two-chain scheduling problem (one job per edge, processing
time = edge length, weight = pair weight connected when that edge completes),
then the last edge picks up the weight of every pair whose path crosses it.
The two components are obtained with O(1) mask intersections against the
edge's precomputed sides in the full tree.

The catalog generates each subtree exactly once, grown from its lowest edge
by edges of higher id only, and keeps the one-edge-smaller subtree it grew
from (the empty one for a single edge); pair weights and lengths are sums
over that single step.

A subtree's record is one plain tuple of what later merges read: its value,
the density decomposition (blocks) of its optimal job chain, its pair weight
and its last edge; the empty subtree 0 is ``(0, (), 0, -1)``.  A trial reads
both parts' records and scores the merge less L times their weights, and the
winner adds L times its own weight once, which moves no value and no tie.

The trials are a branch and bound over the same merges.  A subtree first
tries the last edge of the subtree it grew from, which wins most often, then
the other edges in ascending order; the lowest edge of least value wins
whatever the visiting order.  A later trial passes ``chains.merge_value`` the
limit its merge must stay below to win, so most walks stop early, yet each
two-sided trial still costs exactly one call.

The winner's blocks come from the two parts' blocks, interleaved and followed
by the last edge's job, through ``chains.merged_blocks``.  ``subtree_sequence``
rebuilds the build order itself once, at the end, by following the last edges
down.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Mapping, NamedTuple

from . import chains
from .errors import GuardExceededError, NetconError, SequenceError, UnsupportedInstanceError
from .evaluator import BuildSequence, evaluate_sequence
from .model import ConnectionReport, Instance, Network, Objective, RelevantPair

LEAF_BOUND = 6


class SubtreeCatalog(NamedTuple):
    """Every connected edge subset of a tree, keyed by its edge bitmask.

    ``keys`` lists every subtree's mask in ascending order.  ``growth[key]``
    is the one-edge-smaller subtree it grew from, that subtree's vertex mask
    and the vertex the new edge adds; a single edge (u, v) grows from 0, with
    mask ``1 << u`` and vertex v.  ``split`` yields the keys of the two
    components left after deleting one edge, 0 marking a component that is a
    single vertex.
    """

    keys: tuple[int, ...]
    sides: tuple[tuple[int, int], ...]
    growth: Mapping[int, tuple[int, int, int]]  # mask -> (parent mask, its vertex mask, vertex added)

    def split(self, key: int, edge_id: int) -> tuple[int, int]:
        side_u, side_v = self.sides[edge_id]
        return key & side_u, key & side_v

    @property
    def subtree_count(self) -> int:
        return len(self.keys)


# A subtree's optimal solution, as far as merges need it: (value, blocks,
# pair weight, last edge).  ``blocks`` is the density decomposition of its
# optimal job chain (one job per edge, weighted by the pairs that edge
# connects): its job counts cut the build order into consecutive runs, and it
# shares each block that did not fuse with its parts' records.
# ``subtree_sequence`` rebuilds the order itself on demand.
SubtreeRecord = tuple[int, tuple[chains.BlockSummary, ...], int, int]


def _edge_side_masks(network: Network) -> tuple[tuple[int, int], ...]:
    """For each tree edge (u, v): bitmasks of the edges on u's and v's side.
    The edges below each vertex of the rooted tree are gathered in reverse
    visit order; an edge's lower end has those on its side."""
    parent, up, _, order = network.root_forest()
    below = [0] * network.vertex_count
    for x in reversed(order[1:]):
        below[parent[x]] |= below[x] | 1 << up[x]
    full = (1 << network.edge_count) - 1
    return tuple(
        (full ^ below[v] ^ 1 << eid, below[v])
        if up[v] == eid
        else (below[u], full ^ below[u] ^ 1 << eid)
        for eid, (u, v, _) in enumerate(network.edges)
    )


def enumerate_subtrees(network: Network) -> SubtreeCatalog:
    """Catalog all connected edge subsets, each generated once from its lowest edge.

    Subtrees whose lowest edge is r grow from r alone by adding one edge at a
    time, drawn only from an extension list of edges with id above r.
    Adding the list's i-th edge passes on the edges after it plus the new
    vertex's other edges above r, so the edges before it are never offered
    again below that child (extension sets, as in Wernicke's ESU).  In a tree
    every offered edge brings exactly one new vertex, and every subtree is
    reached exactly once, from the parent recorded in ``growth`` (0 for a
    single edge).
    """
    if not network.is_tree:
        raise UnsupportedInstanceError("subtree enumeration needs a tree network")
    edges = network.edges
    incident = [[eid for _, eid in around] for around in network.adjacency]

    growth: dict[int, tuple[int, int, int]] = {}
    for root, (u, v, _) in enumerate(edges):
        key = 1 << root
        growth[key] = (0, 1 << u, v)
        extension = [e for e in incident[u] + incident[v] if e > root]
        stack = [(key, 1 << u | 1 << v, extension)]
        while stack:
            key, vmask, extension = stack.pop()
            for i, eid in enumerate(extension):
                a, b, _ = edges[eid]
                vertex = b if vmask >> a & 1 else a
                new_key = key | 1 << eid
                growth[new_key] = (key, vmask, vertex)
                later = extension[i + 1 :] + [e for e in incident[vertex] if e > root and e != eid]
                if later:
                    stack.append((new_key, vmask | 1 << vertex, later))

    return SubtreeCatalog(keys=tuple(sorted(growth)), sides=_edge_side_masks(network), growth=growth)


def pair_weight_tables(
    network: Network, pairs: Iterable[RelevantPair], catalog: SubtreeCatalog
) -> dict[int, int]:
    """Total weight of pairs lying inside each subtree, keyed by subtree mask.

    Computed incrementally: a subtree grown by one pendant vertex v gains the
    weight of every pair {v, x} with x already inside.
    """
    by_vertex: list[list[tuple[int, int]]] = [[] for _ in range(network.vertex_count)]
    for pair in pairs:
        by_vertex[pair.u].append((pair.v, pair.weight))
        by_vertex[pair.v].append((pair.u, pair.weight))

    growth = catalog.growth
    weights: dict[int, int] = {0: 0}
    for key in catalog.keys:
        parent, inside, vertex = growth[key]
        gained = sum(w for other, w in by_vertex[vertex] if inside >> other & 1)
        weights[key] = weights[parent] + gained
    return weights


def subtree_records(
    network: Network, catalog: SubtreeCatalog, weights: Mapping[int, int]
) -> dict[int, SubtreeRecord]:
    """Optimal record of every subtree, keyed by edge mask (0 maps to ``(0, (), 0, -1)``).

    Each subtree tries every edge as its last one: the two components left by
    deleting it are merged as two chains, then the edge connects every pair
    whose path crosses it.  The first trial is the parent's last edge (for a
    single edge, the edge itself), the rest follow in ascending order.  The
    lowest edge of least value wins, so an edge below the incumbent's needs a
    value no higher and one above it a lower value.  A later trial whose parts
    both carry weight passes its merge the limit that it has to stay below to
    win, and the merge stops once it reaches it.
    """
    edges = network.edges
    side_u = [u for u, _ in catalog.sides]
    side_v = [v for _, v in catalog.sides]
    growth = catalog.growth
    merge_value = chains.merge_value
    merged_blocks = chains.merged_blocks

    lengths: dict[int, int] = {0: 0}
    records: dict[int, SubtreeRecord] = {0: (0, (), 0, -1)}
    for key in catalog.keys:
        parent = growth[key][0]
        added = (key ^ parent).bit_length() - 1
        total_length = lengths[parent] + edges[added][2]
        lengths[key] = total_length

        # the parent's last edge first (a single edge tries itself): it most
        # often wins, and its value bounds the merges of the trials after it
        eid = records[parent][3] if parent else added
        best_value = None
        best_edge = -1
        probe = key ^ 1 << eid
        while True:
            value_a, blocks_a, weight_a, _ = records[key & side_u[eid]]
            value_b, blocks_b, weight_b, _ = records[key & side_v[eid]]
            # the last edge connects w_key - weight_a - weight_b at time L;
            # L * w_key, the same for every trial, is added to the winner
            shift = total_length * (weight_a + weight_b)
            # beside an empty part, a component's merge cost is its own value;
            # a merge that cannot win by the rule below may stop at the limit,
            # and one with a weightless part returns at once, needing none
            if blocks_a and blocks_b:
                value = merge_value(
                    blocks_a, blocks_b, value_a, value_b, weight_a, weight_b,
                    best_value + (eid < best_edge) + shift
                    if weight_a and weight_b and best_value is not None
                    else None,
                ) - shift
            else:
                value = value_a + value_b - shift
            # the lowest edge of least value wins, whatever the visiting order
            if best_value is None or value < best_value or value == best_value and eid < best_edge:
                best_value = value
                best_edge = eid
            if not probe:
                break
            low = probe & -probe
            probe ^= low
            eid = low.bit_length() - 1

        w_key = weights[key]
        _, blocks_a, weight_a, _ = records[key & side_u[best_edge]]
        _, blocks_b, weight_b, _ = records[key & side_v[best_edge]]
        blocks = merged_blocks(blocks_a, blocks_b, w_key - weight_a - weight_b, edges[best_edge][2])
        records[key] = (best_value + total_length * w_key, blocks, w_key, best_edge)
    return records


def subtree_sequence(
    records: Mapping[int, SubtreeRecord], catalog: SubtreeCatalog, key: int
) -> tuple[int, ...]:
    """Optimal build order of subtree ``key``, rebuilt from the records.

    The subtrees met by following last edges down from ``key`` are listed
    parents first, then rebuilt children first: each order interleaves its
    two parts block by block as the DP merged them, then adds the last edge.
    No recursion, so a path of any length rebuilds in constant stack depth.
    """
    reached: list[int] = []
    stack = [key]
    while stack:
        k = stack.pop()
        if k:
            reached.append(k)
            stack.extend(catalog.split(k, records[k][3]))
    orders: dict[int, tuple[int, ...]] = {}
    for k in reversed(reached):
        last = records[k][3]
        part_a, part_b = catalog.split(k, last)
        sides = (iter(orders.pop(part_a, ())), iter(orders.pop(part_b, ())))
        seq: list[int] = []
        for side, (_, _, jobs) in chains.interleave(records[part_a][1], records[part_b][1]):
            seq.extend(islice(sides[side], jobs))
        seq.append(last)
        orders[k] = tuple(seq)
    return orders.get(key, ())


def solve_tree(
    instance: Instance, *, force: bool = False
) -> tuple[BuildSequence, ConnectionReport]:
    """Exact optimum for a tree instance under the weighted-sum objective.

    Work grows like n^(leaves + 2).  Trees with more than ``LEAF_BOUND``
    leaves are refused unless ``force`` is set, but n is not bounded, so the
    leaf bound does not bound the work: a 6-leg spider with 20-edge legs
    (85.8M subtrees) is admitted and would run for 1-2 hours.  ROADMAP
    item 2 proposes a bound on the DP's own work instead.
    """
    network = instance.network
    if not network.is_tree:
        raise UnsupportedInstanceError("tree solver needs a tree network")
    if instance.objective is not Objective.WEIGHTED_SUM:
        raise UnsupportedInstanceError("tree solver only handles the wct objective")
    leaves = network.leaf_count
    if leaves > LEAF_BOUND and not force:
        raise GuardExceededError(
            f"tree has {leaves} leaves (bound {LEAF_BOUND}); runtime grows like "
            "n^(leaves+2), pass force=True (--force on the command line) to run anyway"
        )

    catalog = enumerate_subtrees(network)
    weights = pair_weight_tables(network, instance.pairs, catalog)
    records = subtree_records(network, catalog, weights)
    full = (1 << network.edge_count) - 1
    value = records[full][0]
    seq = subtree_sequence(records, catalog, full)
    try:
        report = evaluate_sequence(instance, seq)
    except SequenceError as exc:  # the solver built it, so the fault is the solver's
        raise NetconError(f"internal inconsistency: {exc}") from exc
    if report.objective != value:
        raise NetconError(f"internal inconsistency: dp value {value} != replay {report.objective}")
    return seq, report
