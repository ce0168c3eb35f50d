"""Instance model, text formats, generators, and the linear-arrangement reduction.

The instance file format is line oriented, whitespace separated, with ``#``
starting a comment anywhere on a line:

    netcon 1
    objective wct          (or: maxlat)
    vertices <n>
    edge <u> <v> <length>
    pair <u> <v> <weight> [<due>]

A companion format describes inputs for the star reduction (``.ola`` files):

    ola 1
    vertices <n>
    threshold <K>
    edge <u> <v>

The constructors normalize: edges and pairs are oriented (u, v) with u < v
and sorted, as the canonical writer emits them, so
``parse_instance(write_instance(x)) == x``.  They also run every instance
rule, each written once here.  The parsers check only the file syntax and
prefix whatever a constructor raises with the line it came from, so the
library and the files give the same messages.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from math import isqrt
from typing import Iterable, Sequence

from .errors import InstanceFormatError, InvalidInstanceError


class Objective(enum.Enum):
    WEIGHTED_SUM = "wct"
    MAX_LATENESS = "maxlat"


# --- instance rules --------------------------------------------------------

# The one integer rule: every integer of an instance is exactly an ``int``.
# ``type(x) is int`` rejects ``bool``, which ``isinstance(True, int)`` admits.


def _invalid(message: str, name: str, index: int | None = None) -> InvalidInstanceError:
    """An error naming what broke a rule, by its directive in the text formats
    (and the edge's or pair's position), so a parser can report its line."""
    exc = InvalidInstanceError(message)
    exc.where = (name, index)
    return exc


def _as_objective(value: "Objective | str") -> Objective:
    if isinstance(value, Objective):
        return value
    try:
        return Objective(value)
    except ValueError:
        raise _invalid(f"objective must be 'wct' or 'maxlat', got {value!r}", "objective") from None


def _check_vertex_count(n) -> None:
    if type(n) is not int or n < 1:
        raise _invalid(f"vertex count must be a positive integer, got {n!r}", "vertices")


def _ends(what: str, u, v) -> tuple[int, int]:
    """An edge's or a pair's endpoints: distinct integers, oriented u < v."""
    if not (type(u) is type(v) is int):
        raise InvalidInstanceError(f"{what} endpoints must be integers, got ({u!r}, {v!r})")
    if u == v:
        raise InvalidInstanceError(f"{what} ({u}, {v}) is a self-loop")
    return (u, v) if u < v else (v, u)


def _add_key(what: str, key: tuple[int, int], n: int, seen: set) -> None:
    """Admit an oriented edge or pair: both ends in 0..n-1, not seen before."""
    u, v = key
    if u < 0 or v >= n:
        raise InvalidInstanceError(f"{what} ({u}, {v}) has an endpoint out of range 0..{n - 1}")
    if key in seen:
        raise InvalidInstanceError(f"duplicate {what} ({u}, {v})")
    seen.add(key)


def _edge_list(edges, n: int, arity: int) -> tuple:
    """Checked edges, oriented u < v and sorted: (u, v, length) for a
    network (arity 3), (u, v) for an arrangement input (arity 2)."""
    seen: set[tuple[int, int]] = set()
    out = []
    for index, edge in enumerate(edges):
        try:
            if len(edge) != arity:
                raise InvalidInstanceError(f"edge must have {arity} fields, got {edge!r}")
            key = _ends("edge", edge[0], edge[1])
            if arity == 3 and not (type(edge[2]) is int and edge[2] >= 1):
                raise InvalidInstanceError(
                    f"non-integer or non-positive edge length {edge[2]!r} on edge {key}"
                )
            _add_key("edge", key, n, seen)
            out.append(key if arity == 2 else (*key, edge[2]))
        except InvalidInstanceError as exc:
            raise _invalid(str(exc), "edge", index) from None
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class Network:
    """Connected undirected network with positive integer edge lengths.

    Vertices are 0..vertex_count-1.  Edges are stored canonically: each
    endpoint pair oriented with u < v and the list sorted by (u, v).  Edge
    ids used throughout the package are positions in ``edges``.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        _check_vertex_count(self.vertex_count)
        object.__setattr__(self, "edges", _edge_list(self.edges, self.vertex_count, 3))
        if not self._is_connected():
            raise InvalidInstanceError("network is not connected")

    def _is_connected(self) -> bool:
        if self.vertex_count > len(self.edges) + 1:
            return False  # fewer than n - 1 edges; decided before any per-vertex list
        parent = self.root_forest()[0]
        return all(parent[x] != x for x in range(1, self.vertex_count))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: tuple of (neighbor, edge id)."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v, _) in enumerate(self.edges):
            out[u].append((v, i))
            out[v].append((u, i))
        return tuple(tuple(a) for a in out)

    def root_forest(self, kept: Iterable[int] | None = None) -> tuple[list[int], ...]:
        """Root each component of the edge ids ``kept`` (every edge when None)
        at its lowest vertex, by one breadth-first traversal.  Returns each
        vertex's parent (a root is its own), the edge id up to it (-1 at a
        root), its depth, and the vertices in visit order, parents first."""
        n = self.vertex_count
        adjacency = self.adjacency
        keep = range(len(self.edges)) if kept is None else set(kept)
        parent, up, depth = [-1] * n, [-1] * n, [0] * n
        order: list[int] = []
        for root in range(n):
            if parent[root] < 0:
                parent[root] = root
                reached = [root]
                for x in reached:
                    for y, e in adjacency[x]:
                        if parent[y] < 0 and e in keep:
                            parent[y], up[y], depth[y] = x, e, depth[x] + 1
                            reached.append(y)
                order += reached
        return parent, up, depth, order

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == self.vertex_count - 1

    @property
    def leaf_count(self) -> int:
        return sum(1 for d in self.degrees if d == 1)


@dataclass(frozen=True)
class RelevantPair:
    """Weighted vertex pair whose connection time enters the objective."""

    u: int
    v: int
    weight: int
    due: int | None = None

    def __post_init__(self):
        u, v = _ends("pair", self.u, self.v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if type(self.weight) is not int or self.weight < 1:
            raise InvalidInstanceError(
                f"non-integer or non-positive pair weight {self.weight!r} on pair ({u}, {v})"
            )
        if self.due is not None and type(self.due) is not int:
            raise InvalidInstanceError(
                f"pair ({u}, {v}) due date must be an integer, got {self.due!r}"
            )

    @property
    def key(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class Instance:
    """A network, relevant pairs, and the objective to minimize."""

    network: Network
    pairs: tuple[RelevantPair, ...]
    objective: Objective = Objective.WEIGHTED_SUM

    def __post_init__(self):
        objective = _as_objective(self.objective)
        pairs = tuple(self.pairs)
        if not pairs:
            raise InvalidInstanceError("instance has no relevant pairs")
        n = self.network.vertex_count
        maxlat = objective is Objective.MAX_LATENESS
        seen: set[tuple[int, int]] = set()
        for index, pair in enumerate(pairs):
            try:
                if not isinstance(pair, RelevantPair):
                    raise InvalidInstanceError(f"pair must be a RelevantPair, got {pair!r}")
                _add_key("pair", pair.key, n, seen)
                if (pair.due is None) == maxlat:
                    raise InvalidInstanceError(
                        f"{'missing' if maxlat else 'stray'} due date for pair"
                        f" ({pair.u}, {pair.v}) under the {objective.value} objective"
                    )
            except InvalidInstanceError as exc:
                raise _invalid(str(exc), "pair", index) from None
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "pairs", tuple(sorted(pairs, key=lambda p: p.key)))

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    @cached_property
    def terminals(self) -> tuple[int, ...]:
        return tuple(sorted({x for p in self.pairs for x in p.key}))

    def common_pair_vertex(self) -> int | None:
        """Smallest vertex shared by every pair, or None."""
        shared = set(self.pairs[0].key)
        for pair in self.pairs[1:]:
            shared &= set(pair.key)
        return min(shared) if shared else None


@dataclass(frozen=True)
class OlaInput:
    """Simple graph plus threshold for the linear-arrangement reduction."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    threshold: int

    def __post_init__(self):
        _check_vertex_count(self.vertex_count)
        if type(self.threshold) is not int or self.threshold < 0:
            raise _invalid(
                f"threshold must be a non-negative integer, got {self.threshold!r}", "threshold"
            )
        object.__setattr__(self, "edges", _edge_list(self.edges, self.vertex_count, 2))


# --- text format -----------------------------------------------------------


def _parse_int(token: str, what: str, lineno: int) -> int:
    """The one integer-token rule of every text format: ASCII ``-?[0-9]+``.
    Plain ``int()`` would also take ``1_0``, ``+3`` and non-ASCII digits."""
    digits = token[1:] if token[:1] == "-" else token
    if digits.isdigit() and digits.isascii():
        return int(token)
    raise InstanceFormatError(f"{what} must be an integer, got {token!r}", lineno)


def _content_lines(text: str) -> Iterable[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _build(cls, lines: dict, line: int | None, *args):
    """``cls(*args)``, with the line of whatever it rejects.  ``lines`` maps a
    directive to its line, or a repeated directive to its items' lines; an
    error naming no directive gets ``line``."""
    try:
        return cls(*args)
    except InvalidInstanceError as exc:
        name, index = getattr(exc, "where", (None, None))
        where = lines.get(name, line)
        raise InstanceFormatError(str(exc), where if index is None else where[index]) from None


_SINGLETONS = {
    "objective": "objective wct|maxlat", "vertices": "vertices <n>", "threshold": "threshold <K>"
}


def _singleton(tokens: list[str], lineno: int, lines: dict, values: dict) -> None:
    keyword = tokens[0]
    if keyword in lines:
        raise InstanceFormatError(f"duplicate {keyword} line", lineno)
    if len(tokens) != 2:
        raise InstanceFormatError(f"expected '{_SINGLETONS[keyword]}'", lineno)
    lines[keyword], values[keyword] = lineno, tokens[1]


def _require(lines: dict, *keywords: str) -> None:
    for keyword in keywords:
        if keyword not in lines:
            raise InstanceFormatError(f"missing {keyword} line")


_PAIR_FIELDS = ("pair endpoint", "pair endpoint", "pair weight", "pair due date")


def parse_instance(text: str) -> Instance:
    """Parse instance text, reporting violations with their line number."""
    header_seen = False
    lines: dict = {"edge": [], "pair": []}
    values: dict[str, str] = {}
    edges: list[tuple[int, int, int]] = []
    pairs: list[RelevantPair] = []

    for lineno, tokens in _content_lines(text):
        keyword = tokens[0]
        if not header_seen:
            if tokens != ["netcon", "1"]:
                raise InstanceFormatError("expected header 'netcon 1'", lineno)
            header_seen = True
        elif keyword in ("objective", "vertices"):
            _singleton(tokens, lineno, lines, values)
        elif keyword == "edge":
            if "vertices" not in lines:
                raise InstanceFormatError("edge line before vertices line", lineno)
            if len(tokens) != 4:
                raise InstanceFormatError("expected 'edge <u> <v> <length>'", lineno)
            edges.append((
                _parse_int(tokens[1], "edge endpoint", lineno),
                _parse_int(tokens[2], "edge endpoint", lineno),
                _parse_int(tokens[3], "edge length", lineno),
            ))
            lines["edge"].append(lineno)
        elif keyword == "pair":
            if "vertices" not in lines:
                raise InstanceFormatError("pair line before vertices line", lineno)
            if "objective" not in lines:
                raise InstanceFormatError("pair line before objective line", lineno)
            if len(tokens) not in (4, 5):
                raise InstanceFormatError("expected 'pair <u> <v> <weight> [<due>]'", lineno)
            fields = [_parse_int(t, what, lineno) for t, what in zip(tokens[1:], _PAIR_FIELDS)]
            pairs.append(_build(RelevantPair, {}, lineno, *fields))
            lines["pair"].append(lineno)
        else:
            raise InstanceFormatError(f"unknown directive {keyword!r}", lineno)

    if not header_seen:
        raise InstanceFormatError("missing 'netcon 1' header")
    _require(lines, "objective", "vertices")
    vertices = _parse_int(values["vertices"], "vertex count", lines["vertices"])
    network = _build(Network, lines, lines["vertices"], vertices, tuple(edges))
    return _build(Instance, lines, None, network, tuple(pairs), values["objective"])


def write_instance(instance: Instance) -> str:
    """Canonical text for an instance; inverse of parse_instance."""
    lines = [
        "netcon 1",
        f"objective {instance.objective.value}",
        f"vertices {instance.network.vertex_count}",
    ]
    for u, v, c in instance.network.edges:
        lines.append(f"edge {u} {v} {c}")
    for pair in instance.pairs:
        line = f"pair {pair.u} {pair.v} {pair.weight}"
        if instance.objective is Objective.MAX_LATENESS:
            line += f" {pair.due}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_ola_input(text: str) -> OlaInput:
    """Parse arrangement-input text, reporting violations with their line number."""
    header_seen = False
    lines: dict = {"edge": []}
    values: dict[str, str] = {}
    edges: list[tuple[int, int]] = []
    for lineno, tokens in _content_lines(text):
        if not header_seen:
            if tokens != ["ola", "1"]:
                raise InstanceFormatError("expected header 'ola 1'", lineno)
            header_seen = True
        elif tokens[0] in ("vertices", "threshold"):
            _singleton(tokens, lineno, lines, values)
        elif tokens[0] == "edge" and len(tokens) == 3:
            edges.append(
                (_parse_int(tokens[1], "edge endpoint", lineno),
                 _parse_int(tokens[2], "edge endpoint", lineno))
            )
            lines["edge"].append(lineno)
        else:
            raise InstanceFormatError(f"malformed line {' '.join(tokens)!r}", lineno)
    if not header_seen:
        raise InstanceFormatError("missing 'ola 1' header")
    _require(lines, "vertices", "threshold")
    vertices = _parse_int(values["vertices"], "vertex count", lines["vertices"])
    threshold = _parse_int(values["threshold"], "threshold", lines["threshold"])
    return _build(OlaInput, lines, None, vertices, tuple(edges), threshold)


def write_ola_input(ola: OlaInput) -> str:
    lines = ["ola 1", f"vertices {ola.vertex_count}", f"threshold {ola.threshold}"]
    lines.extend(f"edge {u} {v}" for u, v in ola.edges)
    return "\n".join(lines) + "\n"


# --- generators ------------------------------------------------------------

GENERATOR_KINDS = ("random_tree", "star", "path", "random_graph")


def _pair_rank(n: int, u: int, v: int) -> int:
    """The index of (u, v), u < v, in the list of all pairs of 0..n-1 that
    runs over u, then v, in ascending order."""
    return u * (2 * n - u - 1) // 2 + v - u - 1


def _pair_at(n: int, rank: int) -> tuple[int, int]:
    """The pair at ``rank`` in that list, without building it."""
    back = n * (n - 1) // 2 - 1 - rank  # counted from the end, whose rows hold 1, 2, ... pairs
    row = (isqrt(8 * back + 1) - 1) // 2
    return n - 2 - row, n - 1 - back + row * (row + 1) // 2


def generate(
    kind: str,
    n: int,
    *,
    seed: int = 0,
    edge_count: int | None = None,
    pair_count: int | None = None,
    pairs: Sequence[tuple] | None = None,
    length_range: tuple[int, int] = (1, 10),
    weight_range: tuple[int, int] = (1, 5),
    due_range: tuple[int, int] = (0, 50),
    objective: "Objective | str" = Objective.WEIGHTED_SUM,
) -> Instance:
    """Deterministically generate a valid instance.

    ``pairs`` gives explicit (u, v, weight[, due]) tuples; otherwise
    ``pair_count`` pairs (default 1) are sampled from the seeded RNG.  The
    numbers, each bound of each range included, follow the one integer rule.
    """
    objective = _as_objective(objective)
    if kind not in GENERATOR_KINDS:
        raise InvalidInstanceError(f"unknown generator kind {kind!r}")
    ranges = {"length_range": length_range, "weight_range": weight_range, "due_range": due_range}
    numbers = {"n": n, "seed": seed, "edge_count": edge_count, "pair_count": pair_count}
    for name, bounds in ranges.items():
        if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2):
            raise InvalidInstanceError(f"{name} must be a (low, high) pair, got {bounds!r}")
        numbers[f"{name}[0]"], numbers[f"{name}[1]"] = bounds
    for name, value in numbers.items():
        if type(value) is not int and not (value is None and name.endswith("_count")):
            raise InvalidInstanceError(f"{name} must be an integer, got {value!r}")
    if n < 2:
        raise InvalidInstanceError("generator needs at least 2 vertices")
    lo, hi = length_range
    if not (1 <= lo <= hi):
        raise InvalidInstanceError(f"bad length range {length_range}")
    max_edges = n * (n - 1) // 2
    rng = random.Random(seed)

    if kind == "path":
        skeleton = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        skeleton = [(0, i) for i in range(1, n)]
    elif kind == "random_tree":
        skeleton = [(rng.randrange(v), v) for v in range(1, n)]
    else:
        skeleton = [(rng.randrange(v), v) for v in range(1, n)]
        if edge_count is None:
            edge_count = min(2 * (n - 1), max_edges)
        if not (n - 1 <= edge_count <= max_edges):
            raise InvalidInstanceError(
                f"random_graph edge count must lie in [{n - 1}, {max_edges}]"
            )
        # sample ranks among the pairs off the skeleton, then skip the
        # skeleton's ranks: the same draws as sampling the list of those pairs
        taken = sorted(_pair_rank(n, u, v) for u, v in skeleton)
        free_before = [rank - i for i, rank in enumerate(taken)]
        for k in rng.sample(range(max_edges - (n - 1)), edge_count - (n - 1)):
            skeleton.append(_pair_at(n, k + bisect_right(free_before, k)))
    if kind != "random_graph" and edge_count not in (None, n - 1):
        raise InvalidInstanceError(f"{kind} generator always has n-1 edges")

    edges = tuple((u, v, rng.randint(lo, hi)) for u, v in skeleton)
    network = Network(n, edges)

    if pairs is not None:
        chosen = [RelevantPair(*fields) for fields in pairs]
    else:
        count = 1 if pair_count is None else pair_count
        if not (1 <= count <= max_edges):
            raise InvalidInstanceError(f"pair count must lie in [1, {max_edges}]")
        wlo, whi = weight_range
        if not (1 <= wlo <= whi):
            raise InvalidInstanceError(f"bad weight range {weight_range}")
        if objective is Objective.MAX_LATENESS and due_range[0] > due_range[1]:
            raise InvalidInstanceError(f"bad due range {due_range}")
        chosen = []
        for u, v in map(partial(_pair_at, n), rng.sample(range(max_edges), count)):
            due = rng.randint(*due_range) if objective is Objective.MAX_LATENESS else None
            chosen.append(RelevantPair(u, v, rng.randint(wlo, whi), due))
    return Instance(network, tuple(chosen), objective)


def reduce_ola(ola: OlaInput) -> tuple[Instance, int]:
    """Map a linear-arrangement question to a star instance plus threshold.

    The star has center 0 and one unit edge per input vertex v (mapped to
    v + 1).  Center pairs get weight |V| - deg(v), at least 1 in a simple
    graph, and each input edge becomes a leaf pair of weight 2.  The returned
    threshold is |V|^2 (|V| + 1) / 2 + K: the instance optimum is at most the
    threshold exactly when the arrangement question is a yes-instance.
    """
    nv = ola.vertex_count
    degree = [0] * nv
    for u, v in ola.edges:
        degree[u] += 1
        degree[v] += 1
    star_edges = tuple((0, i + 1, 1) for i in range(nv))
    pairs = [RelevantPair(0, i + 1, nv - degree[i]) for i in range(nv)]
    pairs.extend(RelevantPair(u + 1, v + 1, 2) for u, v in ola.edges)
    instance = Instance(Network(nv + 1, star_edges), tuple(pairs), Objective.WEIGHTED_SUM)
    threshold = nv * nv * (nv + 1) // 2 + ola.threshold
    return instance, threshold
