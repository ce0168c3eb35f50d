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
Candidates are found by choosing the junction set, splitting pairs into
components, and enumerating the labeled trees of each component with the
junction-degree constraint.

Junctions are drawn only from non-terminals whose degree is still at least 3
after pendant non-terminals are pruned repeatedly (``Network.kernel_degrees``).
A minimal optimal forest of the network lies inside that kernel, so each of
its junctions has kernel degree at least 3 and its contraction is still a
candidate.  A component's labeled trees depend only on how its pairs share
endpoints and on its junction count, so each such template is built once per
solve and mapped onto every junction set.

Scoring needs no forest objects.  Each forest shape (one combination of a
layout's templates) gets one table: the edges each step builds first when the
pairs are served by due date, which is optimal for max lateness on any
forest.  Every junction set is then scored from its closure lengths alone.
``scored_candidates`` yields every candidate with its exact value.

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


def _covered_tree(
    seq: Sequence[int], k: int, parity: Sequence[int]
) -> tuple[list[tuple[int, int]], list[int], list[int], list[int]] | None:
    """Decode a Prufer-style sequence into a labeled tree, or return None as
    soon as an edge lies on no pair's path.

    ``parity[x]`` has bit i set when label x is an endpoint of pair i.  A leaf
    is popped only after everything behind it, so it carries the XOR of its
    side of the tree, and the edge it leaves by is on pair i's path exactly
    when bit i of that XOR is set.  Returns the edges and, per label, its
    parent, the id of the edge up to it and that edge's side XOR (0 at the
    root, the label left last).
    """
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(k) if degree[v] == 1]
    heapify(leaves)
    side = list(parity)
    parent = [0] * k
    up_edge = [0] * k
    up_side = [0] * k
    edges = []
    for v in seq:
        leaf = heappop(leaves)
        if not side[leaf]:
            return None
        parent[leaf] = v
        up_edge[leaf] = len(edges)
        up_side[leaf] = side[leaf]
        side[v] ^= side[leaf]
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1:
            heappush(leaves, v)
    a = heappop(leaves)
    b = heappop(leaves)
    if not side[a]:
        return None
    parent[a] = b
    up_edge[a] = len(edges)
    up_side[a] = side[a]
    edges.append((a, b) if a < b else (b, a))
    return edges, parent, up_edge, up_side


def _labeled_trees(
    min_count: Sequence[int], local_pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[list[tuple[int, int]], list[list[int]]]]:
    """Labeled trees on 0..k-1 (k = len(min_count)) where label x has degree
    at least min_count[x] + 1 and the paths between ``local_pairs`` cover
    every edge; yields (edges, each pair's path as edge ids from u to v)."""
    k = len(min_count)
    if k - 2 < sum(min_count):
        return  # not enough total degree for the minimum counts
    parity = [0] * k
    for i, (u, v) in enumerate(local_pairs):
        parity[u] ^= 1 << i
        parity[v] ^= 1 << i
    for seq in _constrained_sequences(k, min_count):
        tree = _covered_tree(seq, k, parity)
        if tree is None:
            continue
        edges, parent, up_edge, up_side = tree
        paths = []
        for i, (u, v) in enumerate(local_pairs):
            # climb from each end while the edge above is on the pair's path;
            # both climbs stop where the ends' branches meet
            bit = 1 << i
            head = []
            while up_side[u] & bit:
                head.append(up_edge[u])
                u = parent[u]
            tail = []
            while up_side[v] & bit:
                tail.append(up_edge[v])
                v = parent[v]
            tail.reverse()
            paths.append(head + tail)
        yield edges, paths


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


def _layouts(pairs: Sequence[RelevantPair]) -> list[tuple[tuple[int, ...], list[tuple]]]:
    """Per partition of the pairs into components, lexicographically: every
    endpoint in slot order, and per component its endpoint count, its pairs
    as slot pairs and their pair indices.  A component's endpoints take the
    next slots in order of first appearance in its pairs."""
    atoms = _pair_atoms(pairs)
    # each partition is a list of groups; flatten atoms to pair index tuples
    flat_partitions = sorted(
        sorted(tuple(sorted(i for atom in group for i in atom)) for group in partition)
        for partition in _set_partitions(atoms)
    )
    layouts = []
    for groups in flat_partitions:
        ends: list[int] = []
        components = []
        for group in groups:
            slot: dict[int, int] = {}
            for i in group:
                for x in pairs[i].key:
                    slot.setdefault(x, len(slot))
            pair_slots = tuple((slot[pairs[i].u], slot[pairs[i].v]) for i in group)
            components.append((len(slot), pair_slots, group))
            ends.extend(slot)
        layouts.append((tuple(ends), components))
    return layouts


def _forest_shapes(
    ends: int, components: list[tuple], size: int, r: int, templates: dict
) -> Iterator[tuple[list[tuple[int, int]], list[tuple[int, ...]]]]:
    """Every forest shape of a layout with ``size`` junctions, as its edges
    between slots and each pair's path as edge ids.

    The layout's ``ends`` endpoints take slots 0..ends-1 and the junction
    set's vertices the slots after them.  Junctions are assigned to
    components lexicographically, and each assignment streams the product of
    its components' templates, which ``templates`` keeps for the whole solve.
    """
    for assignment in itertools.product(range(len(components)), repeat=size):
        # per component: its slots' layout slots, pair indices and template
        plan = []
        base = 0
        for g, (end_count, pair_slots, group) in enumerate(components):
            positions = tuple(p for p, owner in enumerate(assignment) if owner == g)
            key = (pair_slots, len(positions))
            trees = templates.get(key)
            if trees is None:
                trees = templates[key] = _template(pair_slots, end_count, len(positions))
            if not trees:
                break
            slots = tuple(range(base, base + end_count))
            plan.append((slots + tuple(ends + p for p in positions), group, trees))
            base += end_count
        else:
            for combo in itertools.product(*(trees for _, _, trees in plan)):
                slot_edges: list[tuple[int, int]] = []
                paths: list[tuple[int, ...]] = [()] * r
                for (slots, group, _), (tree_edges, tree_paths) in zip(plan, combo):
                    offset = len(slot_edges)
                    flat = iter(tree_edges)
                    slot_edges.extend((slots[a], slots[b]) for a, b in zip(flat, flat))
                    for i, ids in zip(group, tree_paths):
                        paths[i] = tuple(offset + e for e in ids)
                yield slot_edges, paths


def scored_candidates(
    instance: Instance, closure: MetricClosure
) -> Iterator[tuple[int, Callable[[], RForest]]]:
    """Every candidate closure forest of a maxlat instance exactly once, as
    its exact value (what ``evaluate_rforest`` gives) and a function that
    builds the forest.

    Junctions are the non-terminals of kernel degree >= 3, at most t - 2 of
    them for t pair endpoints (no layout has a shape with more).  Candidates
    are scanned by junction-set size, then by layout and forest shape (see
    ``_forest_shapes``).  Each shape gets one scorer (``_lateness_scorer``),
    which then scores every junction set, lexicographically, from closure
    lengths alone.
    """
    if instance.objective is not Objective.MAX_LATENESS:
        raise UnsupportedInstanceError("the candidate scan scores maxlat; wct uses the subset DP")
    pairs = instance.pairs
    r = len(pairs)
    dist = closure.dist
    terminals = set(instance.terminals)
    degree = instance.network.kernel_degrees(terminals)
    junctions = [v for v, d in enumerate(degree) if d >= 3 and v not in terminals]
    max_junctions = len(instance.terminals) - 2
    # Serving the pairs by due date is optimal for max lateness on any forest
    # (Lawler's exchange argument): moving the pair due last to the end leaves
    # it charged at the full length, like whichever pair was last, and charges
    # every other pair at most as late.
    by_due = sorted(range(r), key=lambda i: pairs[i].due)
    dues = tuple(pairs[i].due for i in by_due)
    layouts = _layouts(pairs)
    templates: dict[tuple[tuple[tuple[int, int], ...], int], list[_TemplateTree]] = {}
    for size in range(min(max_junctions, len(junctions)) + 1):
        for ends, components in layouts:
            for slot_edges, paths in _forest_shapes(len(ends), components, size, r, templates):
                score = _lateness_scorer(by_due, dues, paths)
                for junction_set in itertools.combinations(junctions, size):
                    vertices = ends + junction_set
                    lengths = [dist[vertices[a]][vertices[b]] for a, b in slot_edges]
                    yield score(lengths), partial(
                        _closure_forest, vertices, slot_edges, paths, lengths
                    )


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
    paths = tuple(_forest_path(kept, p.u, p.v) for p in instance.pairs)
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
