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
nothing to carry: that is how a forest's components join.  Every DP, bound
and read-back takes its endpoints as one frame (``_Endpoints``), which also
states why each DP is rooted at the last endpoint.  The only distances
the DP needs are those from the pair endpoints (``build_metric_closure``),
and each of those rows is computed on demand: only when it is read, and for
a pair's shortest path only until the pair's far end is settled, a search
that a later full read resumes.  So no all-pairs work is done, and a row
nothing reads (under wct, the last endpoint's) is never computed.  Each DP's
one optimal forest is streamed by ``enumerate_candidate_forests``.

Weighted sum (wct): an edge costs its length times the weight of the steps
from the first one that needs it, so each pair order has its own DP, with
scalar labels (``_subset_tables``).  The orders are searched under a bound
(Held and Karp 1962): step k of any order has built a forest joining the
pairs served by then, so sum_k w_k * SF(P_k) bounds an order from below, with
SF the least Steiner forest from one more DP with every coefficient 1.  The
pairs' shortest paths, joined into one forest and priced in its best order,
bound the optimum from above.  An order runs its DP only when its bound is
below the best value so far (the upper bound + 1 before any), with its tables
capped there; a later order loses a tie, so the winner and its forest are
those of the first order with the least value.  Work is at most r! DPs,
O(r! * (3^(t-1) * n + 2^(t-1) * m log n)); from three pairs on, the bound
skips most of them.

Maximum lateness (maxlat): the pairs are served by due date, which is optimal
on any forest.  Let P_k be the first k+1 pairs by due date and d_k the due
date of the last of them.  Any schedule joins all of P_k no earlier than
SF(P_k), the least length of a forest joining them, and the one of P_k it
joins last is due no later than d_k; so max_k(SF(P_k) - d_k) bounds the
optimum from below, and SF(P_k) is at least the longest distance between
the ends of a pair of P_k.  ``_lateness_bound`` tries to meet that bound,
cheapest first: with the pairs' shortest paths in due order against the
distances alone, then against SF of the prefix where that forest is latest
(one scalar subset DP with coefficient 1 on the endpoint sets that separate a
pair of the prefix, spreading only costs that can still end below the
forest's length there), then with that least forest followed by the later
pairs' shortest paths.

Only when the bound falls short does the Pareto DP run, and it looks only
for a forest that beats the better of the two the bound tried.  A label is
the vector of prefix lengths P_0..P_{r-1} built through each step: an edge
first needed at step j adds its length to P_j..P_{r-1}, and the value is
max_k(P_k - d_k).  Each table holds a Pareto set of such vectors
(multi-objective label setting, Martins 1984).  Comparing prefix sums is
exact: a later edge adds the same amount to the prefixes of both labels, so
one that is nowhere larger never does worse.  A label is dropped once the
paths the rest of any forest must still hold make it too late
(``_room``), and a set with no label left is skipped.  Each label is one
int (``_Packing``), so a sum or a comparison of two is one integer
operation.  Work grows with the Pareto labels kept over the 2^(t-1)
endpoint sets without the root.

Every subset DP, and the Steiner-forest partition over sets of pairs, splits
a set in one order (``_splits``): the part with the set's lowest member
first, the other part's subsets from the largest down.  Both DPs read
their winner back from the tables with one walk (``_read_back``), from the
last endpoint and the set of all the others down, each choice going to the
first candidate that attains the label: a set that separates no pair takes
the lowest root whose ``h`` holds the label; any other set walks down to
the vertex where it splits, each step to the first neighbour in adjacency
order whose ``g`` holds the label less the edge's cost; a split is the
first one in that order, with the first two labels that sum to the label;
and a single endpoint walks its own distance row.  So that order decides
which of two tied forests is read back.  A root, step or split that no
candidate attains is a fault of the solver's own tables: it raises
``NetconError`` (exit 4 on the command line).  The edge ids read back use
no edge twice, close no cycle and each lie on a pair's path.  If they did not, adding them by the
step that first needs them and dropping each that closes a cycle or lies on
no pair's path would join every pair served by step k with no more length
through step k, and with less at the last step: a cheaper forest under wct,
and under maxlat one whose label dominates the one read back, which is in
the Pareto set.  So they are the forest, kept as its pair paths.  The solver
builds it in the pair order the DP optimised (``evaluate_rforest``) to the
DP's value, then checks that its build sequence replays to exactly that
value.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from itertools import compress, count, repeat
from operator import add, lshift, lt, or_, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import GuardExceededError, NetconError, SequenceError
from .evaluator import BuildSequence, _objective_value, evaluate_sequence
from .model import ConnectionReport, Instance, Network, Objective
from .unionfind import UnionFind

ENDPOINT_BOUND = 8
PAIR_BOUND = 6


def _dijkstra(
    network: Network,
    labels: list[float],
    factor: int,
    below: Sequence[float],
    heap: list[tuple[float, int]] | None = None,
    stop: int = -1,
) -> list[float]:
    """Lowest labels from the labelled vertices along edges costing ``factor``
    times their length, for every vertex (the network is connected), keeping
    each vertex v's label only once it is below ``below[v]``: those labels
    come out exact, and every other one stays as given or lowered, at least
    ``below[v]``.  ``labels`` holds one label per vertex (``inf`` for none),
    is lowered in place and returned; the search starts from the vertices
    whose label is below ``below``.

    A search can be cut short and resumed: given ``heap``, it goes on from
    those (label, vertex) entries, which it pops and pushes in place, and it
    returns once the vertex ``stop`` is popped.  At that point every vertex
    closer than ``stop`` is popped with its exact label, and every label not
    popped is at least the least label left in ``heap``."""
    adjacency = network.adjacency
    edges = network.edges
    if heap is None:
        heap = list(compress(zip(labels, count()), map(lt, labels, below)))
        heapify(heap)
    while heap:
        d, x = heappop(heap)
        if d != labels[x]:
            continue  # a stale entry
        for y, eid in adjacency[x]:
            alt = d + factor * edges[eid][2]
            if alt < labels[y] and alt < below[y]:
                labels[y] = alt
                heappush(heap, (alt, y))
        if x == stop:
            break
    return labels


def _descend(network: Network, dist: Sequence[int], v: int) -> list[int]:
    """The edge ids of a shortest path from v down the distance row ``dist``
    (from ``DistanceRows``) to its source.

    Each step takes the first neighbour, in adjacency order, whose distance
    plus the edge's length is the current distance.  A row settled only as
    far as v (``DistanceRows.through``) gives the same walk: every neighbour
    closer than the current vertex is settled with its exact distance, and
    every other label is at least v's distance, so it never fits.
    """
    adjacency = network.adjacency
    edges = network.edges
    walked = []
    while dist[v]:
        for y, eid in adjacency[v]:
            if dist[y] + edges[eid][2] == dist[v]:
                break
        walked.append(eid)
        v = y
    return walked


class DistanceRows(Sequence):
    """Shortest distances from each of some sources to every vertex: row i
    holds those from the i-th source, as exact integers.  A row is computed
    (one ``_dijkstra``) only when it is read, and ``through`` settles it only
    as far as one vertex; a later read resumes that same search, whose final
    labels are the distances."""

    __slots__ = ("network", "_rows", "_unbounded")

    def __init__(self, network: Network, rows: list[tuple[list, list]], unbounded: list) -> None:
        self.network = network
        self._rows = rows  # per source: its labels and the heap its search resumes from
        self._unbounded = unbounded

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int) -> list[float]:
        labels, heap = self._rows[index]
        if heap:
            _dijkstra(self.network, labels, 1, self._unbounded, heap)
        return labels

    def through(self, index: int, v: int) -> list[float]:
        """Row ``index`` settled at least as far as vertex v: exact at v and
        at every vertex closer to the source, and at least v's distance
        everywhere else.  A label no larger than every one the search has
        yet to pop is already exact (the search's own invariant)."""
        labels, heap = self._rows[index]
        if heap and labels[v] > heap[0][0]:
            _dijkstra(self.network, labels, 1, self._unbounded, heap, v)
        return labels

    def select(self, indices: Iterable[int]) -> DistanceRows:
        """The rows at ``indices``, in that order, sharing their searches
        with these."""
        return DistanceRows(self.network, [self._rows[i] for i in indices], self._unbounded)


def build_metric_closure(network: Network, sources: Iterable[int]) -> DistanceRows:
    """Shortest distances from each source to every vertex, as exact
    integers: one Dijkstra per source, run only as far as the rows are read
    (``DistanceRows``)."""
    unbounded = [math.inf] * network.vertex_count
    rows = []
    for s in sources:
        labels = unbounded.copy()
        labels[s] = 0
        rows.append((labels, [(0, s)]))
    return DistanceRows(network, rows, unbounded)


class _Endpoints(NamedTuple):
    """The endpoints of some pairs, as every subset DP, bound and read-back
    of this module takes them: endpoint i is bit i of an endpoint set.

    Each DP is rooted at the last endpoint, ``root``.  An edge lies on the
    paths of the pairs that its endpoint set separates, a set separates the
    same pairs as the set of the other endpoints, and every coefficient
    depends only on the pairs a set separates (or is 1 throughout).  So an
    edge costs the same with the endpoints on either side of it below it, and
    a forest rooted at ``root`` is a tree joining ``root`` to the set ``full``
    of every other endpoint, priced at ``g[full][root]``: only the sets
    1..``full``, those without the root, are tabled."""

    ends: tuple[int, ...]  # ascending
    rows: DistanceRows  # rows[i]: the distances from ends[i]
    root: int  # the last endpoint
    full: int  # the set of every endpoint but the root
    spans: list[tuple[int, int, int]]  # per pair: its u's and v's index in ends, their distance


def _endpoints(instance: Instance, dist: DistanceRows, order: Iterable[int]) -> _Endpoints:
    """The frame of the pairs of ``instance.pairs`` in ``order``, with their
    spans in that order, each from its u's row settled only as far as its v;
    ``dist[i]`` holds the distances from ``instance.terminals[i]``, and the
    frame's rows share those searches."""
    keys = [instance.pairs[i].key for i in order]
    ends = tuple(sorted({x for key in keys for x in key}))
    rows = dist
    if len(ends) < len(instance.terminals):
        kept = set(ends)
        rows = dist.select(i for i, x in enumerate(instance.terminals) if x in kept)
    where = {x: i for i, x in enumerate(ends)}
    spans = [(where[u], where[v], rows.through(where[u], v)[v]) for u, v in keys]
    return _Endpoints(ends, rows, ends[-1], (1 << (len(ends) - 1)) - 1, spans)


def _shortest_paths(ends: _Endpoints) -> list[list[int]]:
    """Per pair of the frame, in its order, the edge ids of its shortest path
    that ``_descend`` walks, from its v to its u, down its u's row settled
    only as far as v."""
    network = ends.rows.network
    return [
        _descend(network, ends.rows.through(a, ends.ends[b]), ends.ends[b])
        for a, b, _ in ends.spans
    ]


# A forest joining every pair: per pair in ``instance.pairs`` order, its
# unique path as network edge ids from its u to its v.
Forest = tuple[tuple[int, ...], ...]
# A DP's result: its exact value, the order of ``instance.pairs`` it
# optimised, and its forest's network edge ids.
Optimum = tuple[int, tuple[int, ...], list[int]]


class ForestEvaluation(NamedTuple):
    """A forest built pair by pair in one pair order: its value and build order."""

    value: int
    edge_order: tuple[int, ...]  # edge ids


def evaluate_rforest(forest: Forest, instance: Instance, order: Sequence[int]) -> ForestEvaluation:
    """Build each pair's path edges not yet built, pair by pair in ``order``.

    A pair is charged at the completion of its own path block even if an
    earlier block already connected it, which is how the DP charges it; in the
    DP's own order that is the DP's value.
    """
    edges = instance.network.edges
    built: dict[int, None] = {}  # edge ids in build order
    times = [0] * len(forest)
    elapsed = 0
    for idx in order:
        for eid in forest[idx]:
            if eid not in built:
                built[eid] = None
                elapsed += edges[eid][2]
        times[idx] = elapsed
    return ForestEvaluation(_objective_value(instance, times), tuple(built))


def _crossing(ends: _Endpoints) -> list[int]:
    """Per endpoint set the frame ``ends`` tables (0..``full``), the pairs with
    exactly one end in it (a bit mask over the frame's pairs, in its order):
    the pairs whose paths cross an edge with that set below it."""
    own = [0] * len(ends.ends)
    for i, (a, b, _) in enumerate(ends.spans):
        own[a] ^= 1 << i
        own[b] ^= 1 << i
    crossing = [0] * (ends.full + 1)
    for mask in range(1, len(crossing)):
        low = mask & -mask
        crossing[mask] = crossing[mask ^ low] ^ own[low.bit_length() - 1]
    return crossing


def _first_steps(crossing: Sequence[int], order: Sequence[int]) -> list[int]:
    """Per endpoint set, the first position in the pair order ``order`` of a
    pair that the set separates, or r for none; ``crossing`` from
    ``_crossing``.  The positions are tabled once per set of pairs."""
    r = len(order)
    at = [order.index(i) for i in range(r)]
    step = [min((at[i] for i in range(r) if pairs >> i & 1), default=r) for pairs in range(1 << r)]
    return [step[c] for c in crossing]


def _order_coefficients(
    instance: Instance, crossing: Sequence[int], order: Sequence[int]
) -> list[int]:
    """Per endpoint set, the wct cost of an edge with it below, per unit of
    length, when the pairs are served in ``order``: the weight of the step
    that first needs the edge and of every later step (0 for a set that
    separates no pair); ``crossing`` from ``_crossing``."""
    weights = (instance.pairs[i].weight for i in reversed(order))
    suffix = list(itertools.accumulate(weights, initial=0))[::-1]
    return [suffix[step] for step in _first_steps(crossing, order)]


def _needs(ends: _Endpoints, mask: int) -> Iterator[list[int]]:
    """Per step (a pair of the frame ``ends``, in its order), per vertex v: at
    least the length that the rest of any forest holds on the paths of the
    pairs served by then, once a tree that hangs from it at v alone joins v
    to the endpoint set ``mask``.

    The rest holds a path from v to the far end of each pair the set
    separates, and the whole path of each pair with no end in the set.  Paths
    overlap, so it holds at least the longest.
    """
    need = [0] * ends.rows.network.vertex_count
    for a, b, span in ends.spans:
        inside = (mask >> a & 1) + (mask >> b & 1)
        if inside == 0:
            need = list(map(max, need, repeat(span)))
        elif inside == 1:
            need = list(map(max, need, ends.rows[a if mask >> b & 1 else b]))
        yield need


def _splits(mask: int) -> Iterator[tuple[int, int]]:
    """The two-part splits of the set ``mask`` (two or more members, as a bit
    mask): the part with its lowest member first, the other part's subsets
    from the largest down.  Every subset DP and its read-back split in this
    one order, and the read-back's first fit decides which tied forest wins."""
    low = mask & -mask
    rest = mask ^ low
    part = rest
    while part:
        part = (part - 1) & rest
        yield low | part, rest ^ part


def _read_back(
    ends: _Endpoints,
    g: Sequence,
    h: Sequence,
    unit: Sequence[int],
    held: Callable[[object], Sequence[int]],
    label: int,
) -> list[int]:
    """The edge ids of one forest in the subset tables ``g`` and ``h`` over
    the frame ``ends`` that joins its root to its set ``full`` at ``label``,
    a label ``g[full][root]`` holds: the scalar tables of ``_subset_tables``
    or the Pareto tables of ``_lateness_tables``.

    ``held`` gives the labels one table entry holds (its one cost, or its
    Pareto set), and an edge with the endpoint set S below it adds its length
    times ``unit[S]`` to a label (0 for a set that separates no pair, where
    the root is ignored).  The choices it makes, and why the edges are a
    forest, are in the module docstring.  A label that no root, step or split
    attains is a solver fault, not a bad input.
    """
    network = ends.rows.network
    adjacency = network.adjacency
    edges = network.edges
    chosen = []
    todo = [(ends.full, ends.root, label)]
    while todo:
        mask, v, label = todo.pop()
        low = mask & -mask
        if mask == low:
            chosen += _descend(network, ends.rows[low.bit_length() - 1], v)
            continue
        if not unit[mask]:
            v = next((u for u, entry in enumerate(h[mask]) if label in held(entry)), None)
            if v is None:
                raise NetconError(f"internal inconsistency: read-back finds no root of {label}")
        while label not in held(h[mask][v]):
            # walk down to the vertex where the set splits
            for y, eid in adjacency[v]:
                lower = label - edges[eid][2] * unit[mask]
                if lower in held(g[mask][y]):
                    break
            else:
                raise NetconError(f"internal inconsistency: read-back finds no step from {v}")
            chosen.append(eid)
            v, label = y, lower
        for one, other in _splits(mask):
            right = held(g[other][v])
            left = [a for a in held(g[one][v]) if label - a in right]
            if left:
                break
        else:
            raise NetconError(f"internal inconsistency: read-back finds no split at {v}")
        todo.append((one, v, left[0]))
        todo.append((other, v, label - left[0]))
    return chosen


def _one_label(cost: int) -> tuple[int]:
    """The labels of a scalar table entry: its one cost."""
    return (cost,)


# --- scalar labels: Steiner forests, and wct with one DP per pair order tried ---


def _subset_tables(
    ends: _Endpoints, coef: Sequence[int], limit: float = math.inf, needs: bool = False
) -> tuple[list, list]:
    """Dreyfus-Wagner tables under one pair order, for the endpoint sets S
    the frame ``ends`` tables, as bit masks: ``g[S][v]`` is the least cost of
    a tree that joins v to S, each edge costing coef(endpoints below it)
    times its length, and ``h[S][v]`` (for two or more endpoints) the least
    cost of one whose root v splits S.

    A set that separates no pair costs nothing to carry (coef 0), so its ``g``
    is its best ``h`` at every vertex: that is how a forest's components join.

    Only what can end below ``limit`` is spread (``_dijkstra``): a cost at v,
    plus, with ``needs``, at least what the rest of a forest through v holds
    on the paths of the frame's pairs (the last of ``_needs``; for
    coefficients 0 and 1 only).  Each entry that can is exact, and each other
    one is still the cost of some tree, so the least forest comes out exact
    when it is below ``limit`` and at least ``limit`` otherwise.  Without
    ``needs`` that holds at every entry: one whose least cost is below
    ``limit`` is exact, and every other one is at least ``limit``.
    """
    network = ends.rows.network
    n = network.vertex_count
    g: list = [None] * (ends.full + 1)
    h: list = [None] * (ends.full + 1)
    for mask in range(1, ends.full + 1):
        low = mask & -mask
        if mask == low:
            g[mask] = [coef[mask] * d for d in ends.rows[low.bit_length() - 1]]
            continue
        # per vertex, the least sum over the set's splits (one split has nothing to compare)
        splits = [map(add, g[one], g[other]) for one, other in _splits(mask)]
        h[mask] = row = list(map(min, *splits) if len(splits) > 1 else splits[0])
        if coef[mask]:
            below = [limit] * n
            if needs:
                *_, need = _needs(ends, mask)
                below = list(map(sub, below, need))
            g[mask] = _dijkstra(network, list(row), coef[mask], below)  # a copy: h[mask] keeps row
        else:
            g[mask] = [min(row)] * n
    return g, h


def _grown_forest(
    instance: Instance, walks: Iterable[Iterable[int]]
) -> tuple[list[int], dict[int, int]]:
    """The forest of the edge ids in ``walks``, taken in turn, less each edge
    that closes a cycle and then each that lies on no pair's path: its edge
    ids, and per set of pairs (a bit mask over ``instance.pairs``) the length
    of its edges that lie on the paths of exactly that set (for ``_built``).

    An edge lies on the paths of the pairs with exactly one end below it in
    the rooted forest.
    """
    network = instance.network
    edges = network.edges
    joined = UnionFind(network.vertex_count)
    kept = [e for e in itertools.chain.from_iterable(walks) if joined.union(*edges[e][:2])]
    parent, up, _, order = network.root_forest(kept)
    below = [0] * network.vertex_count  # per vertex: the pairs with one end below it
    for i, pair in enumerate(instance.pairs):
        below[pair.u] ^= 1 << i
        below[pair.v] ^= 1 << i
    for x in reversed(order):  # children first
        if up[x] >= 0:
            below[parent[x]] ^= below[x]
    used = []
    lengths: dict[int, int] = {}
    for x in order:
        if up[x] >= 0 and below[x]:
            used.append(up[x])
            lengths[below[x]] = lengths.get(below[x], 0) + edges[up[x]][2]
    return used, lengths


def _built(lengths: dict[int, int], served: int) -> int:
    """The length of a ``_grown_forest`` forest on the paths of the pairs in
    ``served``: in any pair order, what is built once those pairs are."""
    return sum(length for on, length in lengths.items() if on & served)


def _prefixes(order: Iterable[int]) -> list[int]:
    """The sets of pairs served through each step of the pair order
    ``order``, as bit masks."""
    return list(itertools.accumulate((1 << i for i in order), or_))


def _steiner_forests(ends: _Endpoints) -> list[int]:
    """Per set of the frame's pairs (a bit mask, in its order), SF: the least
    length of a forest that joins each pair of the set.

    One ``_subset_tables`` run with every coefficient 1 prices the least
    tree ST(S) that joins each endpoint set S: the least ``g[S]`` for a set
    without the root, ``g[S][root]`` for S and the root.  SF(P) is then the
    best partition of P into groups, each priced at ST of its endpoints: a
    3^r convolution over the sets of pairs.
    """
    g, _ = _subset_tables(ends, [1] * (ends.full + 1))
    own = [1 << a | 1 << b for a, b, _ in ends.spans]
    sets = [0] * (1 << len(own))  # per set of pairs: its endpoints, by _crossing's recurrence
    trees = [0] * len(sets)  # per set of pairs: ST of its endpoints
    forests = [0] * len(sets)
    for pairs in range(1, len(sets)):
        low = pairs & -pairs
        sets[pairs] = mask = sets[pairs ^ low] | own[low.bit_length() - 1]
        trees[pairs] = g[mask & ends.full][ends.root] if mask > ends.full else min(g[mask])
        # one tree, or the group with the lowest pair and then the rest as a forest
        splits = (trees[one] + forests[other] for one, other in _splits(pairs))
        forests[pairs] = min([trees[pairs], *splits])
    return forests


def _order_tables(instance: Instance, ends: _Endpoints) -> tuple[list[int], list[int]]:
    """Two tables over the sets of pairs (bit masks over ``instance.pairs``)
    from which ``_subset_forest`` prices the pair orders; ``ends`` the frame
    of every pair, in ``instance.pairs`` order.

    ``reach[P]``: the length on the paths of P of the pairs' shortest paths
    joined into one forest (``_grown_forest``).  ``forests[P]``: SF(P), the
    least length of a forest joining each pair of P, from
    ``_steiner_forests`` for three or more pairs.  Two pairs have only two
    orders, and both share SF of the two; there the longest distance
    between the ends of a pair of P bounds SF(P) from below at no cost.
    """
    r = instance.pair_count
    _, lengths = _grown_forest(instance, _shortest_paths(ends))
    reach = [_built(lengths, served) for served in range(1 << r)]
    if r >= 3:
        return reach, _steiner_forests(ends)
    spans = [span for _, _, span in ends.spans]
    forests = [
        max((spans[i] for i in range(r) if served >> i & 1), default=0) for served in range(1 << r)
    ]
    return reach, forests


def _subset_forest(instance: Instance, dist: DistanceRows) -> Optimum:
    """The wct optimum over all forests, the pair order and one forest that
    attain it; ``dist[i]`` holds the distances from ``instance.terminals[i]``.

    For a pair order, ``_subset_tables`` over the frame of every pair prices
    the least forest at ``g[full][root]`` (``_Endpoints``).  A set that
    separates no pair is free to carry, and those join the forest's
    components.  The first order (in ``itertools.permutations`` order) with
    the least value wins, and its forest is read back (``_read_back``).

    The orders are searched under a bound (Held and Karp 1962), each order
    pi priced from a table of ``_order_tables`` at sum_k w_{pi_k} *
    table[P_k], with P_k = {pi_0..pi_k}.  Upper bound UB: served in order
    pi, step k has built the shortest paths' forest's length on the paths of
    P_k, so its price over ``reach`` is a forest's value, and UB is the
    least of those.  Lower bound LB(pi): its price over ``forests``, since
    whatever the forest, step k has built one joining every pair of P_k.
    Each order's LB is priced in the search loop, and it runs its DP only
    when LB is below the limit: UB + 1 before any order has a value, then
    the best value so far, since a later order loses a tie.  Its tables are
    capped at that limit, and its value counts only when below it.  That is
    at most r! DPs; from three pairs on, the bound skips most of them.

    The answer is the one a DP for every order gives.  No skipped order can
    beat the winner or tie it ahead of it.  Capped tables are exact below the
    limit and at least the limit elsewhere, and the read-back only meets
    labels at most the winner's value, which is below it; so each first
    candidate that attains a label is the one the uncapped tables give.
    """
    r = instance.pair_count
    ends = _endpoints(instance, dist, range(r))
    crossing = _crossing(ends)
    reach, forests = _order_tables(instance, ends)
    weights = [pair.weight for pair in instance.pairs]

    def price(table: Sequence[int], perm: Sequence[int]) -> int:
        return sum(weights[i] * table[served] for i, served in zip(perm, _prefixes(perm)))

    limit = min(price(reach, perm) for perm in itertools.permutations(range(r))) + 1
    best = None
    for perm in itertools.permutations(range(r)):
        if price(forests, perm) >= limit:
            continue
        coef = _order_coefficients(instance, crossing, perm)
        g, h = _subset_tables(ends, coef, limit)
        value = g[ends.full][ends.root]
        if value < limit:
            limit = value
            best = (perm, coef, g, h)
    order, coef, g, h = best
    return limit, order, _read_back(ends, g, h, coef, _one_label, limit)


# --- maxlat: Pareto sets of prefix lengths ------------------------------------


class _Packing(NamedTuple):
    """A label of r prefix lengths as one int: prefix k in the ``width`` bits
    from bit k * width, the top one of them a guard kept clear.

    Every prefix stays below 2^(width - 2), so adding two labels, or an
    edge's length to a label, never carries into a guard.  Then a is nowhere
    larger than b exactly when ``(b | guards) - a`` keeps every guard.  The
    last prefix is the most significant, so a label that dominates another
    is the smaller int.
    """

    width: int
    units: tuple[int, ...]  # per step s: 1 in each prefix from s on
    guards: int

    @classmethod
    def fitting(cls, r: int, top: int) -> _Packing:
        """The packing of r prefixes that each stay at most ``top``."""
        width = max(top, 1).bit_length() + 2
        units = tuple(sum(1 << width * k for k in range(step, r)) for step in range(r + 1))
        return cls(width, units, units[0] << width - 1)

    def pack(self, prefixes: Sequence[int]) -> int:
        return sum(p << self.width * k for k, p in enumerate(prefixes))

    def unpack(self, label: int) -> list[int]:
        ones = (1 << self.width) - 1
        return [label >> self.width * k & ones for k in range(len(self.units) - 1)]


def _dominated(kept: Sequence[int], label: int, guards: int) -> bool:
    """Whether some kept label is nowhere larger than ``label``."""
    label |= guards
    for other in kept:
        if (label - other) & guards == guards:
            return True
    return False


def _pareto(labels: Iterable[int], guards: int) -> list[int]:
    """The labels that no other one dominates, each once, in increasing order."""
    kept: list[int] = []
    for label in sorted(labels):
        if not _dominated(kept, label, guards):
            kept.append(label)
    return kept


def _label_setting(
    network: Network, start: Sequence[list[int]], unit: int, room: Sequence[int | None], guards: int
) -> list[list[int]]:
    """Per vertex, the Pareto set of the labels reached from the ``start``
    labels, an edge adding its length times ``unit`` (its length to each
    prefix from its step on).

    Labels pop in increasing order; every edge raises the last prefix, so a
    label that dominates another pops before it, and each vertex's settled
    labels are final.  A label above its vertex's ``room`` (guards set; None
    for no room) anywhere is dropped.
    """
    adjacency = network.adjacency
    edges = network.edges
    settled: list[list[int]] = [[] for _ in start]
    heap = [(label, v) for v, labels in enumerate(start) for label in labels]
    heapify(heap)
    while heap:
        label, x = heappop(heap)
        if _dominated(settled[x], label, guards):
            continue
        settled[x].append(label)
        for y, eid in adjacency[x]:
            limit = room[y]
            grown = label + edges[eid][2] * unit
            if limit is None or (limit - grown) & guards != guards:
                continue
            if not _dominated(settled[y], grown, guards):
                heappush(heap, (grown, y))
    return settled


def _room(ends: _Endpoints, mask: int, cap: Sequence[int], packing: _Packing) -> list[int | None]:
    """Per vertex v, ``cap`` less what the rest of any forest adds at least
    to each prefix once a tree joins v to the endpoint set ``mask`` of the
    frame ``ends`` (``_needs``): packed, with the guards set, or None where
    that leaves a prefix below 0."""
    total = [0] * ends.rows.network.vertex_count
    for k, (need, limit) in enumerate(zip(_needs(ends, mask), cap)):
        # past limit + 1, a prefix has no room whatever it needs
        clamped = map(min, need, repeat(limit + 1))
        total = list(map(add, total, map(lshift, clamped, repeat(packing.width * k))))
    guards = packing.guards
    left = map(sub, repeat(packing.pack(cap) | guards), total)
    return [x if x & guards == guards else None for x in left]


def _lateness_tables(
    ends: _Endpoints, first: Sequence[int], cap: Sequence[int]
) -> tuple[list, list, _Packing]:
    """Pareto tables of prefix-length labels for the endpoint sets S the
    frame ``ends`` tables, as bit masks: ``g[S][v]`` for trees that join v to
    S, and ``h[S][v]`` (for two or more endpoints) for those whose root v
    splits S, with their ``_Packing``.  An edge with S below it adds its
    length to the prefixes from ``first[S]`` on.

    ``first[S]`` is r for a set that separates no pair.  Such a set costs
    nothing to carry, so one Pareto set of its ``h`` over every vertex serves
    as its ``g`` at every vertex.  Every other set runs one
    ``_label_setting`` from its ``h``.  A label that no forest within ``cap``
    can grow from is dropped (``_room``, the frame's pairs one per step), and
    a set with no label left is skipped.
    """
    network = ends.rows.network
    r = len(cap)
    top = max(*cap, *(length for _, _, length in network.edges))
    packing = _Packing.fitting(r, top)
    guards = packing.guards
    g: list = [None] * (ends.full + 1)
    h: list = [None] * (ends.full + 1)
    for mask in range(1, ends.full + 1):
        low = mask & -mask
        step = first[mask]
        if mask == low:
            # a path of length d adds d to each prefix from step on
            unit = packing.units[step]
            room = _room(ends, mask, cap, packing)
            g[mask] = [
                [d * unit]
                if limit is not None and d <= top and (limit - d * unit) & guards == guards
                else []
                for d, limit in zip(ends.rows[low.bit_length() - 1], room)
            ]
            continue
        # the splits, less those with a side that no label is left in
        splits = [(one, other) for one, other in _splits(mask) if any(g[one]) and any(g[other])]
        if not splits:
            h[mask] = g[mask] = [[]] * network.vertex_count
            continue
        room = _room(ends, mask, cap, packing)
        sums: list[list[int]] = [[] for _ in range(network.vertex_count)]
        for one, other in splits:
            for found, left, right, limit in zip(sums, g[one], g[other], room):
                if limit is None:
                    continue
                for a in left:
                    for b in right:
                        if (limit - a - b) & guards == guards:
                            found.append(a + b)
        h[mask] = [_pareto(found, guards) if len(found) > 1 else found for found in sums]
        if not any(h[mask]):
            g[mask] = h[mask]
        elif step == r:
            kept = _pareto(itertools.chain.from_iterable(h[mask]), guards)
            g[mask] = [kept] * network.vertex_count
        else:
            g[mask] = _label_setting(network, h[mask], packing.units[step], room, guards)
    return g, h, packing


def _lateness_bound(
    instance: Instance, ends: _Endpoints, by_due: Sequence[int]
) -> tuple[int, list[int], bool]:
    """The best of up to two forests tried against the Steiner-forest lower
    bound on the maxlat optimum, with the pairs served in the order
    ``by_due``: its value, its edge ids, and whether the bound proves it
    optimal; ``ends`` the frame of every pair, in that order.

    Let P_k be the first k+1 pairs by due date, d_k the due date of the last
    of them, and SF(P_k) the least length of a forest joining them.  Any
    schedule joins all of P_k no earlier than SF(P_k), and the one of P_k it
    joins last is due no later than d_k, so max_k(SF(P_k) - d_k) bounds the
    optimum from below.  SF(P_k) is at least the longest distance between
    the ends of a pair of P_k, which bounds it for free.  Two forests are
    tried against the bound, cheapest first:

    1. The pairs' shortest paths in due order.  It is optimal if it is worth
       the free bound.
    2. Otherwise let k be the first prefix at which it reaches its value.
       One scalar ``_subset_tables`` run over the frame of P_k, with
       coefficient 1 for each endpoint set that separates a pair of P_k and 0
       for the rest, gives SF(P_k) at ``g[full][root]``.  If SF(P_k) - d_k
       meets the forest's value, it is optimal.
    3. Otherwise the least forest joining P_k (``_read_back``) and then
       the shortest paths of the later pairs in due order.  It is optimal if
       it is worth the raised bound.
    """
    pairs = instance.pairs
    dues = [pairs[i].due for i in by_due]
    walks = _shortest_paths(ends)
    steps = _prefixes(by_due)
    used, lengths = _grown_forest(instance, walks)
    built = [_built(lengths, served) for served in steps]
    lateness = list(map(sub, built, dues))
    value = max(lateness)
    longest = itertools.accumulate((span for _, _, span in ends.spans), max)
    lower = max(map(sub, longest, dues))
    if value == lower:
        return value, used, True
    k = lateness.index(value)
    prefix = _endpoints(instance, ends.rows, by_due[: k + 1])
    coef = [1 if pairs_crossed else 0 for pairs_crossed in _crossing(prefix)]
    # a forest joining P_k is no longer than the shortest paths' prefix k, so
    # only costs below that one decide whether it is the least
    g, h = _subset_tables(prefix, coef, built[k], needs=True)
    least = g[prefix.full][prefix.root]
    lower = max(lower, min(least, built[k]) - dues[k])
    if value == lower:
        return value, used, True
    walks[: k + 1] = [_read_back(prefix, g, h, coef, _one_label, least)]
    steiner, lengths = _grown_forest(instance, walks)
    steiner_value = max(_built(lengths, served) - due for served, due in zip(steps, dues))
    if steiner_value < value:
        return steiner_value, steiner, steiner_value == lower
    return value, used, False


def _lateness_forest(instance: Instance, dist: DistanceRows) -> Optimum:
    """The maxlat optimum over all forests, the pair order (by due date) and
    one forest that attain it; ``dist`` as for ``_subset_forest``.

    Serving the pairs by due date is optimal for max lateness on any forest
    (Lawler's exchange argument): moving the pair due last to the end leaves
    it charged at the full length, like whichever pair was last, and charges
    every other pair at most as late.  So prefix k is the k-th pair by due
    date.  ``_lateness_bound`` proves most optima with a Steiner-forest lower
    bound.  Only when it falls short do the Pareto tables run, over the frame
    of every pair in due order, with ``first[S]`` the first such position of
    a pair S separates.  The tables look only for a forest that beats the
    better one the bound tried: a label worth as much or more is dropped, and
    when none is left at ``g[full][root]`` that forest is optimal.  Otherwise
    the forest of the least (value, label) there is read back
    (``_read_back``).
    """
    pairs = instance.pairs
    r = len(pairs)
    by_due = tuple(sorted(range(r), key=lambda i: pairs[i].due))
    ends = _endpoints(instance, dist, by_due)
    bound, best, proven = _lateness_bound(instance, ends, by_due)
    if proven:
        return bound, by_due, best
    dues = [pairs[i].due for i in by_due]
    first = _first_steps(_crossing(ends), range(r))  # the frame's pairs are in due order
    cap = [bound - 1 + due for due in dues]
    g, h, packing = _lateness_tables(ends, first, cap)
    labels = g[ends.full][ends.root]
    if not labels:  # no forest beats the better one the bound tried
        return bound, by_due, best
    value, label = min((max(map(sub, packing.unpack(p), dues)), p) for p in labels)
    unit = [packing.units[step] for step in first]
    chosen = _read_back(ends, g, h, unit, lambda labels: labels, label)
    return value, by_due, chosen


def enumerate_candidate_forests(
    instance: Instance, dist: DistanceRows
) -> Iterator[tuple[int, tuple[int, ...], Forest]]:
    """Stream the DP's one optimal forest, as (exact value, pair order, forest):
    ``_subset_forest`` under wct and ``_lateness_forest`` under maxlat, with
    the edge ids they read back kept as pair paths (``_forest_paths``).
    ``dist[i]`` holds the distances from ``instance.terminals[i]``
    (``build_metric_closure``).  It guards nothing: ``solve_fixed_r`` does.
    """
    solve = _subset_forest if instance.objective is Objective.WEIGHTED_SUM else _lateness_forest
    value, order, kept = solve(instance, dist)
    yield value, order, _forest_paths(instance.network, kept, (p.key for p in instance.pairs))


# --- the network forest and the full solve ------------------------------------


def _forest_paths(
    network: Network, kept: Iterable[int], pairs: Iterable[tuple[int, int]]
) -> Forest:
    """Each pair's path in the forest of the edge ids ``kept``, as edge ids
    from u to v: a climb from the deeper end until both ends meet, over
    ``Network.root_forest``.  A pair the forest does not join is a solver
    fault, not a bad input."""
    parent, up, depth, _ = network.root_forest(kept)
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
                raise NetconError(
                    f"internal inconsistency: forest does not connect ({source}, {target})"
                )
        tail.reverse()
        paths.append(tuple(head + tail))
    return tuple(paths)


def project_to_graph(forest: Forest, instance: Instance, order: Sequence[int]) -> ForestEvaluation:
    """Build a winning forest of edge ids again in the DP's pair ``order``;
    the solve's build sequence must replay to exactly the value returned.

    Both DPs read their forests back as network edge ids, so the projection
    onto the network is the identity.  It stays a separate replay while the
    benchmark's one-pair self-check counts two forest evaluations per solve.
    """
    return evaluate_rforest(forest, instance, order)


def solve_fixed_r(
    instance: Instance, *, force: bool = False
) -> tuple[BuildSequence, ConnectionReport]:
    """Exact optimum for an instance with few pairs; any monotone objective.

    Unless ``force`` is set, an instance with more than ``ENDPOINT_BOUND``
    pair endpoints or more than ``PAIR_BOUND`` pairs is refused before any
    distance is computed.  For t endpoints and r pairs, wct runs up to r!
    subset DPs of 3^(t-1) * n work (its bounds skip most, but pricing the r!
    orders is itself r! * r work), and maxlat keeps Pareto labels over the
    2^(t-1) endpoint sets.  Both bounds come from the sweep in
    ``SWEEP_fixed_r_guard.json``: within them every swept forced solve, on
    random graphs of up to 100 vertices, stayed under its budget of 1 s.
    """
    if not force and (len(instance.terminals) > ENDPOINT_BOUND or instance.pair_count > PAIR_BOUND):
        work = (
            "the wct solver runs up to r! subset DPs of 3^(t-1) * n work"
            if instance.objective is Objective.WEIGHTED_SUM
            else "the maxlat subset DP keeps Pareto labels over 2^(t-1) endpoint sets"
        )
        raise GuardExceededError(
            f"t = {len(instance.terminals)} pair endpoints and r = {instance.pair_count} pairs "
            f"exceed the bounds t <= {ENDPOINT_BOUND} and r <= {PAIR_BOUND}; {work}, "
            "pass force=True (--force on the command line) to run anyway"
        )
    dist = build_metric_closure(instance.network, instance.terminals)
    ((value, order, forest),) = enumerate_candidate_forests(instance, dist)
    replayed = evaluate_rforest(forest, instance, order).value
    if replayed != value:
        raise NetconError(
            f"internal inconsistency: forest replays to {replayed}, scored {value}"
        )
    evaluation = project_to_graph(forest, instance, order)
    essential = evaluation.edge_order
    used = set(essential)
    sequence = essential + tuple(e for e in range(instance.network.edge_count) if e not in used)
    try:
        report = evaluate_sequence(instance, sequence)
    except SequenceError as exc:  # the solver built it, so the fault is the solver's
        raise NetconError(f"internal inconsistency: {exc}") from exc
    if report.objective != evaluation.value:
        raise NetconError(
            f"internal inconsistency: replay {report.objective} != "
            f"forest value {evaluation.value}"
        )
    return sequence, report
