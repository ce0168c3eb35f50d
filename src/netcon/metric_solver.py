"""Exact solver for few relevant pairs on general networks.

An optimal build order first builds a forest that joins every pair (its
essential edges), serving the pairs one at a time.  Once the pair order is
fixed, each step ends at the total length of the edges on the paths of the
pairs served so far.  Both objectives find that forest with one subset DP over
the t pair endpoints on the network itself (Dreyfus and Wagner 1971).

Root a forest anywhere and let S be the endpoints below an edge: the edge lies
on pair i's path exactly when one end of pair i is in S, so under a fixed pair
order it is first needed by the earliest step that serves such a pair.  Per
endpoint set, the DP takes the best split at each vertex, then runs one
multi-source Dijkstra from those labels.  A set that separates no pair costs
nothing to carry: that is how a forest's components join.  The only distances
the DP needs are those from the pair endpoints (``build_metric_closure``), so
no all-pairs work is done.  Each DP's one optimal forest is streamed by
``enumerate_candidate_forests``.

Weighted sum (wct): an edge costs its length times the weight of the steps
from the first one that needs it.  For each of the r! pair orders the labels
are scalars (``_subset_tables``).  Work is O(r! * (3^t * n + 2^t * m log n)).

Maximum lateness (maxlat): the pairs are served by due date, which is optimal
on any forest.  A label is the vector of prefix lengths P_0..P_{r-1} built
through each step: an edge first needed at step j adds its length to
P_j..P_{r-1}, and the value is max_k(P_k - d_k).  Each table holds a Pareto set
of such vectors (multi-objective label setting, Martins 1984).  Comparing
prefix sums is exact: a later edge adds the same amount to the prefixes of
both labels, so one that is nowhere larger never does worse.  Labels worth
more than the forest that adds the pairs' shortest paths in due order are
dropped (``_lateness_tables``).  Work grows with the Pareto labels kept over
the 2^t endpoint sets.

The winner is read back from the labels as network edges, which
``_spanning_forest`` makes into a forest whose value is the DP's.  The solver
checks that by replaying it over all pair orders (``evaluate_rforest``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Iterable, Iterator, Sequence

from .errors import GuardExceededError, InvalidInstanceError, NetconError
from .evaluator import BuildSequence, ConnectionReport, evaluate_sequence
from .model import Instance, Network, Objective, RelevantPair
from .unionfind import UnionFind

PAIR_BOUND = 4
PAIR_BOUND_DEPOT = 6

Edge = tuple[int, int]


def _dijkstra(
    network: Network, labels: dict[int, int], factor: int
) -> list[int]:
    """Lowest labels from the labelled vertices along edges costing ``factor``
    times their length, for every vertex (the network is connected).
    ``labels`` is lowered in place."""
    adjacency = network.adjacency
    edges = network.edges
    heap = [(d, v) for v, d in labels.items()]
    heapify(heap)
    while heap:
        d, x = heappop(heap)
        if d != labels[x]:
            continue  # a stale entry
        for y, eid in adjacency[x]:
            alt = d + factor * edges[eid][2]
            if y not in labels or alt < labels[y]:
                labels[y] = alt
                heappush(heap, (alt, y))
    return [labels[v] for v in range(network.vertex_count)]


def _descend(
    network: Network, labels: Sequence[int], v: int, factor: int, floor: Sequence[int]
) -> tuple[list[int], int]:
    """Walk from v down ``labels`` (from ``_dijkstra`` with ``factor``) until a
    vertex x with ``labels[x] == floor[x]``; return the edge ids walked and x.

    Each step takes the first neighbour, in adjacency order, whose label plus
    the edge's cost is the current label.
    """
    adjacency = network.adjacency
    edges = network.edges
    walked = []
    while labels[v] != floor[v]:
        for y, eid in adjacency[v]:
            if labels[y] + factor * edges[eid][2] == labels[v]:
                break
        walked.append(eid)
        v = y
    return walked, v


def build_metric_closure(network: Network, sources: Iterable[int]) -> list[list[int]]:
    """Shortest distances from each source to every vertex: one Dijkstra per
    source, exact integers."""
    return [_dijkstra(network, {s: 0}, 1) for s in sources]


@dataclass(frozen=True)
class RForest:
    """Acyclic edge set connecting every pair, with every edge on a pair path.

    Edges are canonical (u < v) vertex pairs sorted ascending; ``lengths``
    aligns with ``edges``.  ``pair_paths[i]`` is pair i's unique path.  The
    solver's forests are made of network edges.
    """

    edges: tuple[Edge, ...]
    lengths: tuple[int, ...]
    pair_paths: tuple[tuple[Edge, ...], ...]


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


def _crossing(instance: Instance) -> list[int]:
    """Per endpoint set (a bit mask over ``instance.terminals``), the pairs
    with exactly one end in it (a bit mask over ``instance.pairs``): the pairs
    whose paths cross an edge with that set below it."""
    terminals = instance.terminals
    where = {x: i for i, x in enumerate(terminals)}
    ends = [0] * len(terminals)
    for i, pair in enumerate(instance.pairs):
        ends[where[pair.u]] ^= 1 << i
        ends[where[pair.v]] ^= 1 << i
    crossing = [0] * (1 << len(terminals))
    for mask in range(1, len(crossing)):
        low = mask & -mask
        crossing[mask] = crossing[mask ^ low] ^ ends[low.bit_length() - 1]
    return crossing


# --- wct: scalar labels, one DP per pair order ---------------------------------


def _subset_tables(
    network: Network, dist: Sequence[list[int]], coef: Sequence[int]
) -> tuple[list, list]:
    """Dreyfus-Wagner tables under one pair order, for endpoint sets S as bit
    masks: ``g[S][v]`` is the least cost of a tree that joins v to S, each
    edge costing coef(endpoints below it) times its length, and ``h[S][v]``
    (for two or more endpoints) the least cost of one whose root v splits S.

    A set that separates no pair costs nothing to carry (coef 0), so its ``g``
    is its best ``h`` at every vertex: that is how a forest's components join.
    """
    full = len(coef) - 1
    n = network.vertex_count
    g: list = [None] * (full + 1)
    h: list = [None] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        if mask == low:
            g[mask] = [coef[mask] * d for d in dist[low.bit_length() - 1]]
            continue
        rest = mask ^ low
        part = rest
        row = None
        # the splits low|part and rest^part, part from rest's largest proper subset down
        while part:
            part = (part - 1) & rest
            split = map(add, g[low | part], g[rest ^ part])
            row = list(split) if row is None else list(map(min, row, split))
        h[mask] = row
        if coef[mask]:
            g[mask] = _dijkstra(network, dict(enumerate(row)), coef[mask])
        else:
            g[mask] = [min(row)] * n
    return g, h


def _subset_forest(instance: Instance, dist: Sequence[list[int]]) -> tuple[int, RForest]:
    """The wct optimum over all forests and one forest that attains it;
    ``dist[i]`` holds the distances from ``instance.terminals[i]``.

    For each pair order (in ``itertools.permutations`` order), ``_subset_tables``
    prices every forest rooted at a vertex; the first order with the least
    value wins.  Its forest is read back from the labels, each choice going to
    the first candidate that attains the label: the lowest root, the first
    split, the first neighbour.

    What is read back uses no network edge twice and closes no cycle.  If it
    did, adding its edges in the order the winning pair order first needs
    them and skipping each that closes a cycle would join every pair served
    by step k with edges no longer than the DP charged through step k, and
    strictly shorter at the last step: a forest cheaper than the optimum.  So
    the edges form a network forest whose value is the DP's, which the solver
    checks by replaying it.
    """
    network = instance.network
    terminals = instance.terminals
    full = (1 << len(terminals)) - 1
    crossing = _crossing(instance)

    r = instance.pair_count
    best = None
    for perm in itertools.permutations(range(r)):
        # per set of crossing pairs: the weight of the step that serves the
        # first of them and of every later step (0 for no pairs)
        weights = (instance.pairs[i].weight for i in reversed(perm))
        suffix = list(itertools.accumulate(weights, initial=0))[::-1]
        at = [perm.index(i) for i in range(r)]
        step = [
            min((at[i] for i in range(r) if pairs >> i & 1), default=r) for pairs in range(1 << r)
        ]
        coef = [suffix[step[c]] for c in crossing]
        g, h = _subset_tables(network, dist, coef)
        value = min(h[full])
        if best is None or value < best[0]:
            best = (value, coef, g, h)
    value, coef, g, h = best

    zeros = [0] * network.vertex_count
    chosen = []
    todo = [(full, 0)]
    while todo:
        mask, v = todo.pop()
        low = mask & -mask
        if not coef[mask]:
            v = h[mask].index(min(h[mask]))
        else:
            # walk down to the vertex where the set splits (or to its endpoint)
            floor = zeros if mask == low else h[mask]
            walked, v = _descend(network, g[mask], v, coef[mask], floor)
            chosen += walked
        if mask == low:
            continue
        rest = mask ^ low
        part = rest
        while part:
            part = (part - 1) & rest
            if g[low | part][v] + g[rest ^ part][v] == h[mask][v]:
                break
        todo.append((low | part, v))
        todo.append((rest ^ part, v))
    return value, _spanning_forest(instance, chosen)


# --- maxlat: Pareto sets of prefix lengths ------------------------------------


def _dominated(kept: Sequence[tuple[int, ...]], label: tuple[int, ...]) -> bool:
    """Whether some kept label is nowhere larger than ``label``."""
    return any(all(map(le, other, label)) for other in kept)


def _pop_key(label: tuple[int, ...]) -> tuple:
    # a label that dominates another sorts and pops first
    return label[-1], label


def _pareto(labels: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The labels that no other one dominates, each once, in ``_pop_key`` order."""
    kept: list[tuple[int, ...]] = []
    for label in sorted(labels, key=_pop_key):
        if not _dominated(kept, label):
            kept.append(label)
    return kept


def _label_setting(
    network: Network, start: Sequence[list], step: int, cap: Sequence[int]
) -> list[list[tuple[int, ...]]]:
    """Per vertex, the Pareto set of the labels reached from the ``start``
    labels, an edge adding its length to the prefixes from ``step`` on.

    Labels pop by ``_pop_key``; every edge raises the last prefix, so a label
    that dominates another pops before it, and each vertex's settled labels
    are final.  Labels above ``cap`` anywhere are dropped.
    """
    adjacency = network.adjacency
    edges = network.edges
    settled: list[list[tuple[int, ...]]] = [[] for _ in start]
    heap = [(*_pop_key(label), v) for v, labels in enumerate(start) for label in labels]
    heapify(heap)
    while heap:
        _, label, x = heappop(heap)
        if _dominated(settled[x], label):
            continue
        settled[x].append(label)
        head, tail = label[:step], label[step:]
        for y, eid in adjacency[x]:
            length = edges[eid][2]
            grown = head + tuple(p + length for p in tail)
            if all(map(le, grown, cap)) and not _dominated(settled[y], grown):
                heappush(heap, (*_pop_key(grown), y))
    return settled


def _lateness_tables(
    network: Network, dist: Sequence[list[int]], first: Sequence[int], cap: Sequence[int]
) -> tuple[list, list]:
    """Pareto tables of prefix-length labels for endpoint sets S as bit masks:
    ``g[S][v]`` for trees that join v to S, and ``h[S][v]`` (for two or more
    endpoints) for those whose root v splits S.  An edge with S below it adds
    its length to the prefixes from ``first[S]`` on.

    ``first[S]`` is r for a set that separates no pair.  Such a set costs
    nothing to carry, so one Pareto set of its ``h`` over every vertex serves
    as its ``g`` at every vertex.  Every other set runs one
    ``_label_setting`` from its ``h``.  Labels above ``cap`` anywhere are
    dropped.
    """
    r = len(cap)
    full = len(first) - 1
    g: list = [None] * (full + 1)
    h: list = [None] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        step = first[mask]
        if mask == low:
            g[mask] = [[(0,) * step + (d,) * (r - step)] for d in dist[low.bit_length() - 1]]
            continue
        rest = mask ^ low
        sums: list[list] = [[] for _ in range(network.vertex_count)]
        part = rest
        # the splits low|part and rest^part, as in _subset_tables
        while part:
            part = (part - 1) & rest
            for found, left, right in zip(sums, g[low | part], g[rest ^ part]):
                for a in left:
                    for b in right:
                        label = tuple(map(add, a, b))
                        if all(map(le, label, cap)):
                            found.append(label)
        h[mask] = [_pareto(found) for found in sums]
        if step == r:
            g[mask] = [_pareto(itertools.chain.from_iterable(h[mask]))] * network.vertex_count
        else:
            g[mask] = _label_setting(network, h[mask], step, cap)
    return g, h


def _lateness_forest(instance: Instance, dist: Sequence[list[int]]) -> tuple[int, RForest]:
    """The maxlat optimum over all forests and one forest that attains it;
    ``dist`` as for ``_subset_forest``.

    Serving the pairs by due date is optimal for max lateness on any forest
    (Lawler's exchange argument): moving the pair due last to the end leaves
    it charged at the full length, like whichever pair was last, and charges
    every other pair at most as late.  So prefix k is the k-th pair by due
    date, and ``first[S]`` is the first such position of a pair S separates.
    The forest that adds the pairs' shortest paths in that order bounds the
    optimum, so a label worth more is dropped.

    The read-back takes the least (value, label) of the full set.  Then, at
    each set, it takes the lowest root (for a set that separates no pair),
    the first split, and the first neighbour in adjacency order whose label
    matches exactly.  What is read back uses no network edge twice, closes no
    cycle and has every edge on some pair's path.  If it did not, adding its edges
    by the step that first needs them and dropping each that closes a cycle
    or lies on no pair's path would join every pair served by step k within
    P_k, and strictly within the last prefix: a forest whose label dominates
    the one read back, which is in the full set's Pareto set.  So the edges
    form a network forest whose value is the DP's, which the solver checks by
    replaying it.
    """
    network = instance.network
    pairs = instance.pairs
    r = len(pairs)
    terminals = instance.terminals
    by_due = sorted(range(r), key=lambda i: pairs[i].due)
    dues = [pairs[i].due for i in by_due]
    first = [
        min((k for k, i in enumerate(by_due) if crossed >> i & 1), default=r)
        for crossed in _crossing(instance)
    ]
    where = {x: i for i, x in enumerate(terminals)}
    zeros = [0] * network.vertex_count
    built: set[int] = set()
    late = []
    for i in by_due:
        walked, _ = _descend(network, dist[where[pairs[i].u]], pairs[i].v, 1, zeros)
        built.update(walked)
        late.append(sum(network.edges[e][2] for e in built) - pairs[i].due)
    g, h = _lateness_tables(network, dist, first, [max(late) + due for due in dues])
    full = len(first) - 1
    value, label = min((max(map(sub, p, dues)), p) for p in g[full][0])

    adjacency = network.adjacency
    edges = network.edges
    chosen = []
    todo = [(full, 0, label)]
    while todo:
        mask, v, label = todo.pop()
        low = mask & -mask
        step = first[mask]
        if mask == low:
            walked, _ = _descend(network, dist[low.bit_length() - 1], v, 1, zeros)
            chosen += walked
            continue
        if step == r:
            v = next(u for u, labels in enumerate(h[mask]) if label in labels)
        while label not in h[mask][v]:
            # walk down to the vertex where the set splits
            for y, eid in adjacency[v]:
                length = edges[eid][2]
                lower = label[:step] + tuple(p - length for p in label[step:])
                if lower in g[mask][y]:
                    break
            chosen.append(eid)
            v, label = y, lower
        rest = mask ^ low
        part = rest
        while part:
            part = (part - 1) & rest
            split = next(
                (
                    (a, b)
                    for a in g[low | part][v]
                    for b in g[rest ^ part][v]
                    if tuple(map(add, a, b)) == label
                ),
                None,
            )
            if split:
                break
        todo.append((low | part, v, split[0]))
        todo.append((rest ^ part, v, split[1]))
    return value, _spanning_forest(instance, chosen)


def enumerate_candidate_forests(
    instance: Instance,
    dist: Sequence[list[int]],
    *,
    max_pairs: int | None = None,
    force: bool = False,
) -> Iterator[tuple[int, RForest]]:
    """Stream the DP's one optimal forest, as (exact value, forest):
    ``_subset_forest`` under wct and ``_lateness_forest`` under maxlat.
    ``dist[i]`` holds the distances from ``instance.terminals[i]``
    (``build_metric_closure``).

    ``max_pairs`` defaults to ``PAIR_BOUND_DEPOT`` when all pairs share a
    vertex and to ``PAIR_BOUND`` otherwise.  For t pair endpoints it caps the
    r! * 3^t work of wct and the Pareto labels over 2^t endpoint sets of
    maxlat.
    """
    r = instance.pair_count
    weighted = instance.objective is Objective.WEIGHTED_SUM
    bound = max_pairs
    if bound is None:
        bound = PAIR_BOUND if instance.common_pair_vertex() is None else PAIR_BOUND_DEPOT
    if r > bound and not force:
        work = (
            "the wct subset DP does r! * 3^t work"
            if weighted
            else "the maxlat subset DP keeps Pareto labels over 2^t endpoint sets"
        )
        raise GuardExceededError(
            f"{r} pairs exceeds the bound {bound}; {work} for t pair endpoints, "
            "pass force=True (--force on the command line) to run anyway"
        )
    yield (_subset_forest if weighted else _lateness_forest)(instance, dist)


# --- the network forest and the full solve ------------------------------------


def _forest_paths(
    vertex_count: int, edges: Sequence[tuple[int, int]], pairs: Iterable[tuple[int, int]]
) -> list[list[int]]:
    """Each pair's path in the forest ``edges`` on vertices 0..vertex_count-1,
    as edge ids from u to v.

    One traversal roots every component at its lowest vertex and records each
    vertex's parent, the edge up to it and its depth; a path then climbs from
    the deeper end until both ends meet.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
    for e, (a, b) in enumerate(edges):
        adjacency[a].append((b, e))
        adjacency[b].append((a, e))
    parent = [-1] * vertex_count
    up = [-1] * vertex_count
    depth = [0] * vertex_count
    for root in range(vertex_count):
        if parent[root] < 0:
            parent[root] = root
            reached = [root]
            for x in reached:
                for y, e in adjacency[x]:
                    if parent[y] < 0:
                        parent[y] = x
                        up[y] = e
                        depth[y] = depth[x] + 1
                        reached.append(y)
    paths = []
    for source, target in pairs:
        u, v = source, target
        head: list[int] = []
        tail: list[int] = []
        while u != v:
            if depth[u] < depth[v]:
                tail.append(up[v])
                v = parent[v]
            elif depth[u]:
                head.append(up[u])
                u = parent[u]
            else:
                raise InvalidInstanceError(f"forest does not connect ({source}, {target})")
        tail.reverse()
        paths.append(head + tail)
    return paths


def _spanning_forest(instance: Instance, edge_ids: Iterable[int]) -> RForest:
    """The network forest that adds ``edge_ids`` in turn, skipping each edge
    that would close a cycle, less the edges on no pair's path."""
    network = instance.network
    uf = UnionFind(network.vertex_count)
    kept = []
    for eid in edge_ids:
        u, v, _ = network.edges[eid]
        if uf.union(u, v):
            kept.append((u, v))
    ids = _forest_paths(network.vertex_count, kept, (p.key for p in instance.pairs))
    paths = tuple(tuple(kept[e] for e in path) for path in ids)
    covered = sorted({edge for path in paths for edge in path})
    index = network.edge_index
    return RForest(
        edges=tuple(covered),
        lengths=tuple(network.edges[index[e]][2] for e in covered),
        pair_paths=paths,
    )


def project_to_graph(forest: RForest, instance: Instance) -> ForestEvaluation:
    """Validate a winning forest and score it again over all pair orders.

    Both DPs read their forests back as network edges, so the projection onto
    the network is the identity.  It stays a separate replay while the
    benchmark's one-pair self-check counts two forest evaluations per solve.
    """
    validate_rforest(forest, instance.pairs)
    return evaluate_rforest(forest, instance)


@dataclass(frozen=True)
class FixedRSolution:
    sequence: BuildSequence
    report: ConnectionReport
    forest: RForest
    evaluation: ForestEvaluation


def solve_fixed_r_detailed(
    instance: Instance,
    *,
    max_pairs: int | None = None,
    force: bool = False,
) -> FixedRSolution:
    """Full solve keeping the winning network forest and its evaluation."""
    dist = build_metric_closure(instance.network, instance.terminals)
    ((value, forest),) = enumerate_candidate_forests(
        instance, dist, max_pairs=max_pairs, force=force
    )
    replayed = evaluate_rforest(forest, instance).value
    if replayed != value:
        raise NetconError(
            f"internal inconsistency: forest replays to {replayed}, scored {value}"
        )
    evaluation = project_to_graph(forest, instance)
    index = instance.network.edge_index
    essential = [index[e] for e in evaluation.edge_order]
    used = set(essential)
    sequence = tuple(
        essential + [e for e in range(instance.network.edge_count) if e not in used]
    )
    report = evaluate_sequence(instance, sequence)
    if report.objective > evaluation.value:
        raise NetconError(
            f"internal inconsistency: replay {report.objective} exceeds "
            f"forest value {evaluation.value}"
        )
    return FixedRSolution(sequence=sequence, report=report, forest=forest, evaluation=evaluation)


def solve_fixed_r(
    instance: Instance,
    *,
    max_pairs: int | None = None,
    force: bool = False,
) -> tuple[BuildSequence, ConnectionReport]:
    """Exact optimum for an instance with few pairs; any monotone objective."""
    solution = solve_fixed_r_detailed(instance, max_pairs=max_pairs, force=force)
    return solution.sequence, solution.report
