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

A subtree's record keeps only what later merges read: its value, the density
decomposition (blocks) of its optimal job chain, and its last edge.  The
blocks come from the two parts' blocks, interleaved and followed by the last
edge's job, through ``chains.append_block``.  ``subtree_sequence`` rebuilds
the build order itself once, at the end, by following the last edges down.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from . import chains
from .errors import GuardExceededError, NetconError, SequenceError, UnsupportedInstanceError
from .evaluator import BuildSequence, ConnectionReport, evaluate_sequence
from .frozen import Frozen
from .model import Instance, Network, Objective, RelevantPair

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


class SubtreeRecord(Frozen):
    """Optimal solution of one subtree, kept only as far as merges need it.

    ``blocks`` is the density decomposition of the subtree's optimal job chain
    (one job per edge, weighted by the pairs that edge connects), with
    ``start``/``end`` indexing its build order; ``last`` is the edge built
    last.  ``subtree_sequence`` rebuilds the order itself on demand.  Slots,
    not a tuple: the DP reads ``value`` and ``blocks`` at every merge, and a
    slot is read faster than a named tuple's field.
    """

    __slots__ = _fields = ("value", "blocks", "last")

    def __init__(self, value: int, blocks: tuple[chains.BlockSummary, ...], last: int) -> None:
        init = object.__setattr__
        init(self, "value", value)
        init(self, "blocks", blocks)
        init(self, "last", last)


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
) -> dict[int, SubtreeRecord | None]:
    """Optimal record of every subtree, keyed by edge mask (0 maps to None).

    Each subtree tries every edge as its last one: the two components left by
    deleting it are merged as two chains, then the edge connects every pair
    whose path crosses it.  The winner's blocks are the two parts' blocks,
    interleaved and re-based onto the merged order, then the last edge as one
    job, all folded through ``chains.append_block``.
    """
    edges = network.edges
    sides = catalog.sides
    growth = catalog.growth
    merge_value = chains.merge_value
    append_block = chains.append_block

    lengths: dict[int, int] = {0: 0}
    records: dict[int, SubtreeRecord | None] = {0: None}
    for key in catalog.keys:
        parent = growth[key][0]
        total_length = lengths[parent] + edges[(key ^ parent).bit_length() - 1][2]
        lengths[key] = total_length
        w_key = weights[key]

        best_value = None
        best_edge = -1
        best_parts = (0, 0)
        probe = key
        while probe:
            low = probe & -probe
            probe ^= low
            eid = low.bit_length() - 1
            side_u, side_v = sides[eid]
            part_a = key & side_u
            part_b = key & side_v
            rec_a = records[part_a]
            rec_b = records[part_b]
            # a lone component's merge cost is its own optimal value
            if rec_a is None:
                value = rec_b.value if rec_b else 0
            elif rec_b is None:
                value = rec_a.value
            else:
                value = merge_value(rec_a.blocks, rec_b.blocks, rec_a.value, rec_b.value)
            value += total_length * (w_key - weights[part_a] - weights[part_b])
            if best_value is None or value < best_value:
                best_value = value
                best_edge = eid
                best_parts = (part_a, part_b)

        part_a, part_b = best_parts
        blocks: list[chains.BlockSummary] = []
        at = 0
        for _, (w, p, inner, start, end) in chains.interleave(
            _blocks_of(records[part_a]), _blocks_of(records[part_b])
        ):
            append_block(blocks, (w, p, inner, at, at + end - start))
            at += end - start
        w = w_key - weights[part_a] - weights[part_b]
        c = edges[best_edge][2]
        append_block(blocks, (w, c, w * c, at, at + 1))
        records[key] = SubtreeRecord(best_value, tuple(blocks), best_edge)
    return records


def _blocks_of(record: SubtreeRecord | None) -> tuple[chains.BlockSummary, ...]:
    return record.blocks if record else ()


def subtree_sequence(
    records: Mapping[int, SubtreeRecord | None], catalog: SubtreeCatalog, key: int
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
            stack.extend(catalog.split(k, records[k].last))
    orders: dict[int, tuple[int, ...]] = {}
    for k in reversed(reached):
        record = records[k]
        part_a, part_b = catalog.split(k, record.last)
        sides = (orders.pop(part_a, ()), orders.pop(part_b, ()))
        seq: list[int] = []
        for side, (_, _, _, start, end) in chains.interleave(
            _blocks_of(records[part_a]), _blocks_of(records[part_b])
        ):
            seq.extend(sides[side][start:end])
        seq.append(record.last)
        orders[k] = tuple(seq)
    return orders.get(key, ())


def solve_tree(
    instance: Instance, *, force: bool = False
) -> tuple[BuildSequence, ConnectionReport]:
    """Exact optimum for a tree instance under the weighted-sum objective.

    Work grows like n^(leaves + 2), so trees with more than ``LEAF_BOUND``
    leaves are refused unless ``force`` is set.
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
    value = records[full].value
    seq = subtree_sequence(records, catalog, full)
    try:
        report = evaluate_sequence(instance, seq)
    except SequenceError as exc:  # the solver built it, so the fault is the solver's
        raise NetconError(f"internal inconsistency: {exc}") from exc
    if report.objective != value:
        raise NetconError(f"internal inconsistency: dp value {value} != replay {report.objective}")
    return seq, report
