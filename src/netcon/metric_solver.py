"""Exact solver for few relevant pairs on general networks.

An optimal build order first builds a forest that joins every pair (its
essential edges), serving the pairs one at a time.  Once the pair order is
fixed, each step ends at the total length of the edges on the paths of the
pairs served so far.  The two objectives take two routes to that forest.

Weighted sum (wct): a subset DP over the t pair endpoints on the network
itself.  Root a forest anywhere and let S be the endpoints below an edge: the
edge lies on pair i's path exactly when one end of pair i is in S, so under a
fixed pair order it costs coef(S) times its length, coef(S) being the weight
of the steps from the first one that serves such a pair.  For each of the r!
orders a Dreyfus-Wagner recursion finds the cheapest such forest: one
Dijkstra per endpoint, then per endpoint set the best split at each vertex and
one multi-source Dijkstra from those labels.  Work is
O(r! * (3^t * n + 2^t * m log n)), with no metric closure and no candidate
scan.  The winner is read back from the labels as network edges; an optimal
read-back uses no edge twice and closes no cycle (see ``_subset_forest``), so
they form a forest of the network whose value is the DP's.

Maximum lateness (maxlat): compute all shortest-path distances (the metric
closure, one Dijkstra per vertex), then enumerate every candidate forest over
the pair endpoints plus a bounded set of extra junction vertices, score each,
and map the winner back to original edges along shortest paths.  A candidate
forest must connect every pair, use every edge on some pair's path, and give
every non-endpoint junction degree at least 3 (a degree-2 junction could be
contracted away).  A forest on t pair endpoints has at most t - 2 such
junctions: 2r - 2 in general and r - 1 when all pairs share a vertex.
Candidates are found by listing the forest shapes over endpoint and junction
slots, inserting the endpoints one at a time onto the vertices and edges of
the forest built so far (``_forest_shapes``), and placing every ordered
choice of junction vertices on each shape's junction slots.

Junctions are drawn only from non-terminals whose degree is still at least 3
after pendant non-terminals are pruned repeatedly (``Network.kernel_degrees``).
A minimal optimal forest of the network lies inside that kernel, so each of
its junctions has kernel degree at least 3 and its contraction is still a
candidate.  The shapes depend only on how the pairs share endpoints and on
the junction cap, so each is made once per solve and serves every choice of
junctions.

Scoring needs no forest objects.  Each forest shape gets one table: the edges
each step builds first when the pairs are served by due date, which is
optimal for max lateness on any forest.  Every choice of junctions is then
scored from its closure lengths alone.  ``scored_candidates`` yields every
candidate with its exact value.

``enumerate_candidate_forests`` streams the DP's one forest under wct.  Under
maxlat it builds and streams a forest with its value only when that value is
at most every value it streamed before, so every minimum-value candidate is
streamed.  The solver picks the (value, edges) minimum and replays only that
forest over all pair orders (``evaluate_rforest``), which must give the same
value, then maps it onto network edges (``project_to_graph``); a wct forest is
already made of them, so its projection is itself.

Both routes find shortest paths with one routine, ``_dijkstra``, and read a
path back from its labels with one walk, ``_descend``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush
from operator import add, sub
from typing import Callable, Iterable, Iterator, Sequence

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
    """All-pairs shortest distances: ``dist[u]`` is u's Dijkstra row."""

    network: Network
    dist: tuple[tuple[int, ...], ...]


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


def build_metric_closure(network: Network) -> MetricClosure:
    """One Dijkstra per vertex; O(n * m log n), exact integer distances."""
    return MetricClosure(
        network=network,
        dist=tuple(tuple(_dijkstra(network, {s: 0}, 1)) for s in range(network.vertex_count)),
    )


def extract_path(closure: MetricClosure, u: int, v: int) -> list[int]:
    """Edge ids of one shortest path from u to v in the original network."""
    if u == v:
        raise InvalidInstanceError("path endpoints must differ")
    zeros = [0] * closure.network.vertex_count
    walked, _ = _descend(closure.network, closure.dist[u], v, 1, zeros)
    walked.reverse()
    return walked


@dataclass(frozen=True)
class RForest:
    """Acyclic edge set connecting every pair, with every edge on a pair path.

    Edges are canonical (u < v) vertex pairs sorted ascending; ``lengths``
    aligns with ``edges``.  ``pair_paths[i]`` is pair i's unique path.  The
    wct subset DP's forest is made of network edges; each edge of a maxlat
    closure forest stands for a shortest path between its ends.
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


# --- candidate enumeration ---------------------------------------------------


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


def _forest_shapes(
    pair_slots: Sequence[tuple[int, int]], t: int, cap: int
) -> Iterator[tuple[int, list[tuple[int, int]], list[list[int]]]]:
    """Every forest shape of pairs joining the endpoint slots ``pair_slots``,
    once, with at most ``cap`` junctions: (junction count s, its edges between
    slots, each pair's path as edge ids from u to v).  The endpoints are slots
    0..t-1 and the junctions slots t..t+s-1.

    A shape joins every pair, has every edge on some pair's path and gives
    every junction degree at least 3.  The endpoints are inserted one at a
    time in BFS order over the pairs, so the partners an endpoint already has
    in the forest share one component, which it must join.  Each insertion
    makes one move: start a new component (only with no partner placed), hang
    from a vertex, subdivide an edge, hang from a new junction subdividing an
    edge, or take over a junction.  Taking the last endpoint back out undoes
    exactly one move: an isolated one goes, a leaf goes (smoothing away a
    junction it leaves with degree 2), one of degree 2 is smoothed away and
    one of higher degree becomes a junction.  So every shape is made exactly
    once.  A branch stops when its junctions exceed ``cap`` by more than the
    endpoints still to insert, each of which can take over one.
    """
    partners: list[list[int]] = [[] for _ in range(t)]
    for a, b in pair_slots:
        partners[a].append(b)
        partners[b].append(a)
    order: list[int] = []
    for root in range(t):
        if root not in order:
            reached = [root]
            for x in reached:
                reached.extend(y for y in partners[x] if y not in reached)
            order += reached

    def grow(k: int, edges: list, comp: dict[int, int], junctions: list[int]) -> Iterator:
        # comp maps each placed endpoint and live junction to its component;
        # the junction made at step k is vertex t + k
        if len(junctions) - (t - k) > cap:
            return
        if k == t:
            slot = {j: t + s for s, j in enumerate(junctions)}
            slot_edges = [(slot.get(a, a), slot.get(b, b)) for a, b in edges]
            paths = _forest_paths(t + len(junctions), slot_edges, pair_slots)
            if len(set().union(*paths)) == len(edges):
                yield len(junctions), slot_edges, paths
            return
        x = order[k]
        home = next((comp[y] for y in partners[x] if y in comp), None)
        if home is None:
            yield from grow(k + 1, edges, {**comp, x: x}, junctions)
        for v, c in comp.items():
            if home in (None, c):
                yield from grow(k + 1, edges + [(v, x)], {**comp, x: c}, junctions)
        for i, (a, b) in enumerate(edges):
            c = comp[a]
            if home in (None, c):
                before, after = edges[:i], edges[i + 1 :]
                yield from grow(k + 1, before + [(a, x), (x, b)] + after, {**comp, x: c}, junctions)
                j = t + k
                yield from grow(
                    k + 1,
                    before + [(a, j), (j, b), (j, x)] + after,
                    {**comp, j: c, x: c},
                    junctions + [j],
                )
        for j in junctions:
            c = comp[j]
            if home in (None, c):
                yield from grow(
                    k + 1,
                    [(x if a == j else a, x if b == j else b) for a, b in edges],
                    {(x if v == j else v): c for v, c in comp.items()},
                    [other for other in junctions if other != j],
                )

    yield from grow(0, [], {}, [])


def _lateness_scorer(
    by_due: Sequence[int], dues: Sequence[int], paths: Sequence[tuple[int, ...]]
) -> Callable[[Sequence[int]], int]:
    """The exact max lateness of a forest whose pair paths are ``paths``
    (edge ids), as a function of its edge lengths, when the pairs are served
    in the order ``by_due`` and are due at ``dues``.

    Serving a set of pairs builds exactly the edges on their paths, so each
    step builds the edges of its pair's path that no earlier step built.
    """
    built: set[int] = set()
    blocks = []
    for i in by_due:
        block = tuple(e for e in paths[i] if e not in built)
        built.update(block)
        blocks.append(block)

    def max_lateness(lengths: Sequence[int]) -> int:
        spent = [sum(map(lengths.__getitem__, block)) for block in blocks]
        return max(map(sub, itertools.accumulate(spent), dues))

    return max_lateness


def _closure_forest(
    vertices: tuple[int, ...],
    slot_edges: Sequence[tuple[int, int]],
    paths: Sequence[tuple[int, ...]],
    lengths: Sequence[int],
) -> RForest:
    edges = []
    for a, b in slot_edges:
        x, y = vertices[a], vertices[b]
        edges.append((x, y) if x < y else (y, x))
    order = sorted(range(len(edges)), key=edges.__getitem__)
    return RForest(
        edges=tuple(edges[e] for e in order),
        lengths=tuple(lengths[e] for e in order),
        pair_paths=tuple(tuple(edges[e] for e in ids) for ids in paths),
    )


def scored_candidates(
    instance: Instance, closure: MetricClosure
) -> Iterator[tuple[int, Callable[[], RForest]]]:
    """Every candidate closure forest of a maxlat instance exactly once, as
    its exact value (what ``evaluate_rforest`` gives) and a function that
    builds the forest.

    Junctions are the non-terminals of kernel degree >= 3, at most t - 2 of
    them for t pair endpoints (no shape has more).  Candidates are scanned by
    forest shape, as ``_forest_shapes`` makes them, so no shape is kept.  Each
    shape gets one scorer (``_lateness_scorer``), which then scores every
    ordered choice of junctions for its junction slots from closure lengths
    alone.
    """
    if instance.objective is not Objective.MAX_LATENESS:
        raise UnsupportedInstanceError("the candidate scan scores maxlat; wct uses the subset DP")
    pairs = instance.pairs
    r = len(pairs)
    dist = closure.dist
    terminals = instance.terminals
    degree = instance.network.kernel_degrees(terminals)
    junctions = [v for v, d in enumerate(degree) if d >= 3 and v not in terminals]
    slot = {x: i for i, x in enumerate(terminals)}
    pair_slots = [(slot[p.u], slot[p.v]) for p in pairs]
    cap = min(len(terminals) - 2, len(junctions))
    # Serving the pairs by due date is optimal for max lateness on any forest
    # (Lawler's exchange argument): moving the pair due last to the end leaves
    # it charged at the full length, like whichever pair was last, and charges
    # every other pair at most as late.
    by_due = sorted(range(r), key=lambda i: pairs[i].due)
    dues = tuple(pairs[i].due for i in by_due)
    for size, slot_edges, paths in _forest_shapes(pair_slots, len(terminals), cap):
        score = _lateness_scorer(by_due, dues, paths)
        for placed in itertools.permutations(junctions, size):
            vertices = terminals + placed
            lengths = [dist[vertices[a]][vertices[b]] for a, b in slot_edges]
            yield score(lengths), partial(_closure_forest, vertices, slot_edges, paths, lengths)


# --- wct: a subset DP over the pair endpoints ---------------------------------


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


def _subset_forest(instance: Instance) -> tuple[int, RForest]:
    """The wct optimum over all forests and one forest that attains it.

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
    where = {x: i for i, x in enumerate(terminals)}
    # per endpoint set: the pairs with exactly one end in it, whose paths are
    # exactly those crossing an edge with that set below it
    ends = [0] * len(terminals)
    for i, pair in enumerate(instance.pairs):
        ends[where[pair.u]] ^= 1 << i
        ends[where[pair.v]] ^= 1 << i
    crossing = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        crossing[mask] = crossing[mask ^ low] ^ ends[low.bit_length() - 1]
    dist = [_dijkstra(network, {s: 0}, 1) for s in terminals]

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


def enumerate_candidate_forests(
    instance: Instance,
    closure: MetricClosure | None = None,
    *,
    max_pairs: int | None = None,
    force: bool = False,
) -> Iterator[tuple[int, RForest]]:
    """Stream the forests that can still win, as (exact value, forest).

    Under wct this is the subset DP's one optimal forest (``_subset_forest``),
    and ``closure`` is not used.  Under maxlat a candidate of
    ``scored_candidates`` is built and streamed only when its value is at
    most that of every forest streamed before it, so every candidate of
    minimum value is streamed.  The solver picks its winner by (value,
    edges), so dropping the others never changes a result.

    ``max_pairs`` defaults to ``PAIR_BOUND_DEPOT`` when all pairs share a
    vertex and to ``PAIR_BOUND`` otherwise.  It caps the DP's r! * 3^t work
    under wct and the scan's n^(t-2) candidates under maxlat, for t pair
    endpoints.
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
            else "the maxlat candidate count grows like n^(t-2)"
        )
        raise GuardExceededError(
            f"{r} pairs exceeds the bound {bound}; {work} for t pair endpoints, "
            "pass force=True (--force on the command line) to run anyway"
        )

    if weighted:
        yield _subset_forest(instance)
        return
    best = None
    for value, build in scored_candidates(instance, closure):
        if best is None or value <= best:
            best = value
            yield value, build()


# --- projection and the full solve -------------------------------------------


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


def project_to_graph(
    forest: RForest,
    evaluation: ForestEvaluation,
    route: Callable[[int, int], Sequence[int]],
    instance: Instance,
) -> tuple[RForest, ForestEvaluation]:
    """Replace forest edges by the network paths ``route(u, v)`` gives (edge
    ids), skipping edges that close cycles.

    Forest edges are expanded in the evaluation's build order; every original
    edge along a path is kept unless it would join two already-connected
    vertices.  Edges that end up on no pair path are pruned before the
    projected forest is re-validated and re-scored.
    """
    projected = _spanning_forest(
        instance, (eid for a, b in evaluation.edge_order for eid in route(a, b))
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
    max_pairs: int | None = None,
    force: bool = False,
) -> FixedRSolution:
    """Full solve keeping the winning forest and its projection.

    Under wct the winner is the subset DP's network forest, each of whose
    edges is routed to itself; under maxlat it is a closure forest, whose
    edges are routed along the closure's shortest paths.
    """
    weighted = instance.objective is Objective.WEIGHTED_SUM
    closure = None if weighted else build_metric_closure(instance.network)
    streamed = enumerate_candidate_forests(
        instance, closure, max_pairs=max_pairs, force=force
    )
    best = min(streamed, key=lambda item: (item[0], item[1].edges), default=None)
    if best is None:
        raise NetconError("no candidate forest found")  # unreachable on valid instances
    value, best_forest = best
    best_eval = evaluate_rforest(best_forest, instance)
    if best_eval.value != value:
        raise NetconError(
            f"internal inconsistency: forest replays to {best_eval.value}, "
            f"scored {value}"
        )

    index = instance.network.edge_index
    if weighted:
        route = lambda a, b: (index[a, b],)
    else:
        route = partial(extract_path, closure)
    projected, projected_eval = project_to_graph(best_forest, best_eval, route, instance)
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
    *,
    max_pairs: int | None = None,
    force: bool = False,
) -> tuple[BuildSequence, ConnectionReport]:
    """Exact optimum for an instance with few pairs; any monotone objective."""
    solution = solve_fixed_r_detailed(instance, max_pairs=max_pairs, force=force)
    return solution.sequence, solution.report
