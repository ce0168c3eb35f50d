"""Exact solver for few relevant pairs on general networks.

Strategy: compute all shortest-path distances (the metric closure), then
enumerate every candidate forest over the pair endpoints plus a bounded set
of extra junction vertices, score each candidate by trying all pair orders,
and map the winner back to original edges.  Any objective that never
decreases when connection times grow is supported.

A candidate forest must connect every pair, use every edge on some pair's
path, and give every non-endpoint junction degree at least 3 (a degree-2
junction could be contracted away).  At most 2r - 2 junctions are needed in
general and r - 1 when all pairs share a vertex, so candidates are found by
choosing the junction set, splitting pairs into components, and enumerating
the labeled trees of each component with the junction-degree constraint.

Junctions are drawn only from non-terminals whose degree is still at least 3
after pendant non-terminals are pruned repeatedly (``Network.kernel_degrees``).
A minimal optimal forest of the network lies inside that kernel, so each of
its junctions has kernel degree at least 3 and its contraction is still a
candidate.  A component's labeled trees depend only on how its pairs share
endpoints and on its junction count, so each such template is built once per
solve and mapped onto every junction set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterator, Mapping, Sequence

from .errors import (
    GuardExceededError,
    InvalidInstanceError,
    NetconError,
    UnsupportedInstanceError,
)
from .evaluator import BuildSequence, ConnectionReport, evaluate_sequence
from .model import Instance, Network, Objective, RelevantPair
from .unionfind import UnionFind

PAIR_BOUND = 4
PAIR_BOUND_DEPOT = 6

Edge = tuple[int, int]


@dataclass(frozen=True)
class MetricClosure:
    """All-pairs shortest distances with next-hop data for path recovery."""

    network: Network
    dist: tuple[tuple[int, ...], ...]
    next_hop: tuple[tuple[int, ...], ...]


def build_metric_closure(network: Network) -> MetricClosure:
    """Floyd-Warshall over the network; O(n^3), exact integer distances."""
    n = network.vertex_count
    # longer than any simple path, so it can only mean "no path found yet"
    unreachable = network.total_length + 1
    dist = [[unreachable] * n for _ in range(n)]
    nxt = [[-1] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
        nxt[i][i] = i
    for u, v, c in network.edges:
        dist[u][v] = c
        dist[v][u] = c
        nxt[u][v] = v
        nxt[v][u] = u
    for k in range(n):
        dist_k = dist[k]
        for i in range(n):
            dist_i = dist[i]
            d_ik = dist_i[k]
            if d_ik == unreachable:
                continue
            nxt_i = nxt[i]
            n_ik = nxt_i[k]
            for j in range(n):
                alt = d_ik + dist_k[j]
                if alt < dist_i[j]:
                    dist_i[j] = alt
                    nxt_i[j] = n_ik
    return MetricClosure(
        network=network,
        dist=tuple(tuple(row) for row in dist),
        next_hop=tuple(tuple(row) for row in nxt),
    )


def path_vertices(closure: MetricClosure, u: int, v: int) -> list[int]:
    hops = [u]
    nxt = closure.next_hop
    while u != v:
        u = nxt[u][v]
        hops.append(u)
    return hops


def extract_path(closure: MetricClosure, u: int, v: int) -> list[int]:
    """Edge ids of one shortest path between u and v in the original network."""
    if u == v:
        raise InvalidInstanceError("path endpoints must differ")
    hops = path_vertices(closure, u, v)
    index = closure.network.edge_index
    return [index[(a, b) if a < b else (b, a)] for a, b in zip(hops, hops[1:])]


@dataclass(frozen=True)
class RForest:
    """Acyclic edge set connecting every pair, with every edge on a pair path.

    Edges are canonical (u < v) vertex pairs sorted ascending; ``lengths``
    aligns with ``edges`` and carries host lengths (closure distances or
    original edge lengths).  ``pair_paths[i]`` is pair i's unique path.
    """

    host: str  # "metric_closure" or "original_graph"
    edges: tuple[Edge, ...]
    lengths: tuple[int, ...]
    pair_paths: tuple[tuple[Edge, ...], ...]

    @property
    def total_length(self) -> int:
        return sum(self.lengths)

    def length_of(self, edge: Edge) -> int:
        return self.lengths[self.edges.index(edge)]


def make_rforest(
    host: str,
    edges: Sequence[Edge],
    lengths: Mapping[Edge, int],
    pairs: Sequence[RelevantPair],
) -> RForest:
    """Build and validate a forest from an edge set; raises if not an r-forest."""
    canon = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
    paths = tuple(_forest_path(canon, p.u, p.v) for p in pairs)
    forest = RForest(
        host=host,
        edges=canon,
        lengths=tuple(lengths[e] for e in canon),
        pair_paths=paths,
    )
    validate_rforest(forest, pairs)
    return forest


def _forest_path(edges: Sequence[Edge], source: int, target: int) -> tuple[Edge, ...]:
    adjacency: dict[int, list[tuple[int, Edge]]] = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append((v, (u, v)))
        adjacency.setdefault(v, []).append((u, (u, v)))
    parent: dict[int, tuple[int, Edge] | None] = {source: None}
    stack = [source]
    while stack:
        x = stack.pop()
        if x == target:
            break
        for y, edge in adjacency.get(x, ()):
            if y not in parent:
                parent[y] = (x, edge)
                stack.append(y)
    if target not in parent:
        raise InvalidInstanceError(f"forest does not connect ({source}, {target})")
    path = []
    at = target
    while parent[at] is not None:
        at, edge = parent[at]
        path.append(edge)
    path.reverse()
    return tuple(path)


def validate_rforest(forest: RForest, pairs: Sequence[RelevantPair]) -> None:
    vertices = sorted({x for e in forest.edges for x in e})
    index = {v: i for i, v in enumerate(vertices)}
    uf = UnionFind(len(vertices))
    for u, v in forest.edges:
        if not uf.union(index[u], index[v]):
            raise InvalidInstanceError("forest contains a cycle")
    if len(forest.pair_paths) != len(pairs):
        raise InvalidInstanceError("forest pair paths do not match the pair list")
    covered: set[Edge] = set()
    for pair, path in zip(pairs, forest.pair_paths):
        endpoints = {pair.u, pair.v}
        for edge in path:
            if edge not in forest.edges:
                raise InvalidInstanceError(f"path edge {edge} not in forest")
            endpoints ^= set(edge)
        if endpoints:
            raise InvalidInstanceError(f"stored path does not join ({pair.u}, {pair.v})")
        covered.update(path)
    if covered != set(forest.edges):
        raise InvalidInstanceError("forest has an edge on no pair path")


@dataclass(frozen=True)
class ForestEvaluation:
    """Best value achievable with a forest as the essential edge set."""

    value: int
    edge_order: tuple[Edge, ...]
    pair_order: tuple[int, ...]


def evaluate_rforest(forest: RForest, instance: Instance) -> ForestEvaluation:
    """Try all pair orders, building each pair's remaining path edges in turn.

    A pair is charged at the completion of its own path block even if an
    earlier block already connected it; some order charges every pair at its
    true connection time, so the minimum over orders is exact.
    """
    length_of = dict(zip(forest.edges, forest.lengths))
    pairs = instance.pairs
    weighted = instance.objective is Objective.WEIGHTED_SUM
    best: ForestEvaluation | None = None
    for perm in itertools.permutations(range(len(pairs))):
        built: set[Edge] = set()
        order: list[Edge] = []
        elapsed = 0
        value = 0
        for step, idx in enumerate(perm):
            for edge in forest.pair_paths[idx]:
                if edge not in built:
                    built.add(edge)
                    order.append(edge)
                    elapsed += length_of[edge]
            if weighted:
                value += pairs[idx].weight * elapsed
            elif step == 0:
                value = elapsed - pairs[idx].due
            else:
                value = max(value, elapsed - pairs[idx].due)
        if best is None or value < best.value:
            best = ForestEvaluation(value, tuple(order), perm)
    assert best is not None
    return best


# --- candidate enumeration ---------------------------------------------------


def _pair_atoms(pairs: Sequence[RelevantPair]) -> list[tuple[int, ...]]:
    """Group pair indices that share a vertex (transitively); such pairs can
    never sit in different forest components."""
    uf = UnionFind(len(pairs))
    owner: dict[int, int] = {}
    for i, pair in enumerate(pairs):
        for x in pair.key:
            if x in owner:
                uf.union(owner[x], i)
            else:
                owner[x] = i
    groups: dict[int, list[int]] = {}
    for i in range(len(pairs)):
        groups.setdefault(uf.find(i), []).append(i)
    return sorted(tuple(g) for g in groups.values())


def _set_partitions(items: Sequence) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[head] + partition[i]] + partition[i + 1 :]
        yield [[head]] + partition


def _constrained_sequences(k: int, min_count: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All length k-2 sequences over 0..k-1 meeting per-symbol minimum counts."""
    length = k - 2
    deficits = list(min_count)
    total_deficit = sum(deficits)
    seq = [0] * length

    def rec(pos: int, total: int) -> Iterator[tuple[int, ...]]:
        if total > length - pos:
            return
        if pos == length:
            yield tuple(seq)
            return
        for v in range(k):
            seq[pos] = v
            if deficits[v] > 0:
                deficits[v] -= 1
                yield from rec(pos + 1, total - 1)
                deficits[v] += 1
            else:
                yield from rec(pos + 1, total)

    yield from rec(0, total_deficit)


def _decode_tree(seq: Sequence[int], k: int) -> list[tuple[int, int]]:
    """Decode a Prufer-style sequence into the edge list of a labeled tree."""
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(k) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for v in seq:
        leaf = heappop(leaves)
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1:
            heappush(leaves, v)
    a = heappop(leaves)
    b = heappop(leaves)
    edges.append((a, b) if a < b else (b, a))
    return edges


def _labeled_trees(
    min_count: Sequence[int], local_pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[list[tuple[int, int]], list[list[int]]]]:
    """Labeled trees on 0..k-1 (k = len(min_count)) where label x has degree
    at least min_count[x] + 1 and the paths between ``local_pairs`` cover
    every edge; yields (edges, each pair's path as edge ids from u to v)."""
    k = len(min_count)
    if k - 2 < sum(min_count):
        return  # not enough total degree for the minimum counts
    full = (1 << (k - 1)) - 1
    for seq in _constrained_sequences(k, min_count):
        edges = _decode_tree(seq, k)
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for eid, (a, b) in enumerate(edges):
            adjacency[a].append((b, eid))
            adjacency[b].append((a, eid))
        covered = 0
        paths = []
        for u, v in local_pairs:
            path_ids = _tree_path_ids(adjacency, u, v, k)
            for eid in path_ids:
                covered |= 1 << eid
            paths.append(path_ids)
        if covered == full:
            yield edges, paths


def _component_trees(
    vertices: tuple[int, ...],
    junctions: frozenset[int],
    component_pairs: Sequence[tuple[int, RelevantPair]],
) -> Iterator[tuple[list[Edge], dict[int, tuple[Edge, ...]]]]:
    """Labeled trees on ``vertices`` where junction degrees are >= 3 and the
    pair paths cover every edge; yields (edges, paths by pair index).

    This is one component's enumeration labelled by vertex; the solver maps
    slot templates (``_template``) instead, and tests check the two agree.
    """
    index = {v: i for i, v in enumerate(vertices)}
    minimum = [2 if v in junctions else 0 for v in vertices]
    local_pairs = [(index[p.u], index[p.v]) for _, p in component_pairs]
    for local_edges, path_ids in _labeled_trees(minimum, local_pairs):
        edges = [_global_edge(e, vertices) for e in local_edges]
        yield edges, {
            i: tuple(edges[eid] for eid in ids)
            for (i, _), ids in zip(component_pairs, path_ids)
        }


def _global_edge(local: tuple[int, int], vertices: tuple[int, ...]) -> Edge:
    a, b = vertices[local[0]], vertices[local[1]]
    return (a, b) if a < b else (b, a)


def _tree_path_ids(
    adjacency: list[list[tuple[int, int]]], source: int, target: int, k: int
) -> list[int]:
    parent: list[tuple[int, int] | None] = [None] * k
    seen = [False] * k
    seen[source] = True
    stack = [source]
    while stack:
        x = stack.pop()
        if x == target:
            break
        for y, eid in adjacency[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = (x, eid)
                stack.append(y)
    ids = []
    at = target
    while parent[at] is not None:
        at, eid = parent[at]
        ids.append(eid)
    ids.reverse()
    return ids


# One tree of a template: its edges as slot pairs flattened into bytes, and
# per pair (in group order) the bytes of its path's local edge ids, u to v.
_TemplateTree = tuple[bytes, tuple[bytes, ...]]


def _template(
    pair_slots: tuple[tuple[int, int], ...], ends: int, junctions: int
) -> list[_TemplateTree]:
    """Every tree shape of a component whose pairs join ``pair_slots``.

    Slots 0..ends-1 are the pair endpoints and the next ``junctions`` slots
    are junctions.  The shapes depend only on this slot structure, so one
    template serves every junction set a solve tries.
    """
    minimum = [0] * ends + [2] * junctions
    return [
        (bytes(itertools.chain.from_iterable(edges)), tuple(map(bytes, paths)))
        for edges, paths in _labeled_trees(minimum, pair_slots)
    ]


def enumerate_candidate_forests(
    instance: Instance,
    closure: MetricClosure,
    *,
    depot_mode: bool = False,
    max_pairs: int | None = None,
    force: bool = False,
) -> Iterator[RForest]:
    """Stream every candidate closure forest exactly once, in a fixed order.

    Junctions are the non-terminals of kernel degree >= 3.  Candidates are
    scanned by junction-set size.  Within a size, each junction set is taken
    in lexicographic order and crossed with every layout (pair partition and
    junction assignment, lexicographically), and each layout streams the
    product of its components' templates in template order.  The solver
    picks its winner by (value, edges), so the order never changes a result.
    """
    pairs = instance.pairs
    r = len(pairs)
    bound = max_pairs if max_pairs is not None else (PAIR_BOUND_DEPOT if depot_mode else PAIR_BOUND)
    if r > bound and not force:
        raise GuardExceededError(
            f"{r} pairs exceeds the bound {bound}; candidate count grows like "
            "n^(2r-2), pass force=True to run anyway"
        )
    if depot_mode and instance.common_pair_vertex() is None:
        raise UnsupportedInstanceError("depot mode needs a vertex common to all pairs")

    dist = closure.dist
    terminals = set(instance.terminals)
    degree = instance.network.kernel_degrees(terminals)
    junctions = [v for v, d in enumerate(degree) if d >= 3 and v not in terminals]
    max_junctions = (r - 1) if depot_mode else (2 * r - 2)

    atoms = _pair_atoms(pairs)
    # each partition is a list of groups; flatten atoms to pair index tuples
    flat_partitions = sorted(
        sorted(tuple(sorted(i for atom in group for i in atom)) for group in partition)
        for partition in _set_partitions(atoms)
    )
    # per partition, per group: endpoints in slot order (first appearance in
    # the group's pairs), the pairs as slot pairs, and the pair indices
    layouts = []
    for groups in flat_partitions:
        layout = []
        for group in groups:
            slot: dict[int, int] = {}
            for i in group:
                for x in pairs[i].key:
                    slot.setdefault(x, len(slot))
            pair_slots = tuple((slot[pairs[i].u], slot[pairs[i].v]) for i in group)
            layout.append((tuple(slot), pair_slots, group))
        layouts.append(layout)

    templates: dict[tuple[tuple[tuple[int, int], ...], int], list[_TemplateTree]] = {}
    for size in range(min(max_junctions, len(junctions)) + 1):
        # (endpoints, junction positions, pair indices, template) per group
        plans = []
        for layout in layouts:
            for assignment in itertools.product(range(len(layout)), repeat=size):
                plan = []
                for g, (ends, pair_slots, group) in enumerate(layout):
                    positions = tuple(p for p, owner in enumerate(assignment) if owner == g)
                    key = (pair_slots, len(positions))
                    trees = templates.get(key)
                    if trees is None:
                        trees = templates[key] = _template(pair_slots, len(ends), len(positions))
                    if not trees:
                        break
                    plan.append((ends, positions, group, trees))
                else:
                    plans.append(plan)
        for junction_set in itertools.combinations(junctions, size):
            for plan in plans:
                slot_vertices = [
                    ends + tuple(junction_set[p] for p in positions)
                    for ends, positions, _, _ in plan
                ]
                for combo in itertools.product(*(trees for _, _, _, trees in plan)):
                    edges: list[Edge] = []
                    paths: list[tuple[Edge, ...]] = [()] * r
                    for vertices, (_, _, group, _), (tree_edges, tree_paths) in zip(
                        slot_vertices, plan, combo
                    ):
                        base = len(edges)
                        slots = iter(tree_edges)
                        for a, b in zip(slots, slots):
                            x, y = vertices[a], vertices[b]
                            edges.append((x, y) if x < y else (y, x))
                        for i, ids in zip(group, tree_paths):
                            paths[i] = tuple(edges[base + eid] for eid in ids)
                    edges.sort()
                    yield RForest(
                        host="metric_closure",
                        edges=tuple(edges),
                        lengths=tuple(dist[u][v] for u, v in edges),
                        pair_paths=tuple(paths),
                    )


# --- projection and the full solve -------------------------------------------


def project_to_graph(
    forest: RForest,
    evaluation: ForestEvaluation,
    closure: MetricClosure,
    instance: Instance,
) -> tuple[RForest, ForestEvaluation]:
    """Replace closure edges by shortest paths, skipping edges that close cycles.

    Closure edges are expanded in the evaluation's build order; every original
    edge along a path is kept unless it would join two already-connected
    vertices.  Edges that end up on no pair path are pruned before the
    projected forest is re-validated and re-scored.
    """
    network = instance.network
    uf = UnionFind(network.vertex_count)
    chosen: list[int] = []
    for a, b in evaluation.edge_order:
        for eid in extract_path(closure, a, b):
            u, v, _ = network.edges[eid]
            if uf.union(u, v):
                chosen.append(eid)
    kept = tuple(
        (network.edges[eid][0], network.edges[eid][1]) for eid in chosen
    )
    paths = tuple(_forest_path(kept, p.u, p.v) for p in instance.pairs)
    covered = {edge for path in paths for edge in path}
    pruned = tuple(sorted(e for e in kept if e in covered))
    lengths = {
        (u, v): c for u, v, c in network.edges
    }
    projected = RForest(
        host="original_graph",
        edges=pruned,
        lengths=tuple(lengths[e] for e in pruned),
        pair_paths=paths,
    )
    validate_rforest(projected, instance.pairs)
    return projected, evaluate_rforest(projected, instance)


@dataclass(frozen=True)
class FixedRSolution:
    sequence: BuildSequence
    report: ConnectionReport
    metric_forest: RForest
    metric_evaluation: ForestEvaluation
    projected_forest: RForest
    projected_evaluation: ForestEvaluation


def solve_fixed_r_detailed(
    instance: Instance,
    *,
    depot_mode: bool = False,
    max_pairs: int | None = None,
    force: bool = False,
) -> FixedRSolution:
    """Full solve keeping the winning closure forest and its projection."""
    closure = build_metric_closure(instance.network)
    best_forest: RForest | None = None
    best_eval: ForestEvaluation | None = None
    for candidate in enumerate_candidate_forests(
        instance, closure, depot_mode=depot_mode, max_pairs=max_pairs, force=force
    ):
        evaluation = evaluate_rforest(candidate, instance)
        if (
            best_eval is None
            or (evaluation.value, candidate.edges) < (best_eval.value, best_forest.edges)
        ):
            best_forest = candidate
            best_eval = evaluation
    if best_forest is None:
        raise NetconError("no candidate forest found")  # unreachable on valid instances

    projected, projected_eval = project_to_graph(best_forest, best_eval, closure, instance)
    index = instance.network.edge_index
    essential = [index[e] for e in projected_eval.edge_order]
    used = set(essential)
    sequence = tuple(
        essential + [e for e in range(instance.network.edge_count) if e not in used]
    )
    report = evaluate_sequence(instance, sequence)
    if report.objective > projected_eval.value:
        raise NetconError(
            f"internal inconsistency: replay {report.objective} exceeds "
            f"forest value {projected_eval.value}"
        )
    return FixedRSolution(
        sequence=sequence,
        report=report,
        metric_forest=best_forest,
        metric_evaluation=best_eval,
        projected_forest=projected,
        projected_evaluation=projected_eval,
    )


def solve_fixed_r(
    instance: Instance,
    depot_mode: bool = False,
    *,
    max_pairs: int | None = None,
    force: bool = False,
) -> tuple[BuildSequence, ConnectionReport]:
    """Exact optimum for an instance with few pairs; any monotone objective."""
    solution = solve_fixed_r_detailed(
        instance, depot_mode=depot_mode, max_pairs=max_pairs, force=force
    )
    return solution.sequence, solution.report
