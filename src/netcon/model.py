"""Instance model, text formats, generators, and the linear-arrangement reduction.

The instance file format is line oriented, whitespace separated, with ``#``
starting a comment anywhere on a line:

    netcon 1
    objective wct          (or: maxlat)
    vertices <n>
    edge <u> <v> <length>
    pair <u> <v> <weight> [<due>]

``due`` is required for every pair exactly when the objective is ``maxlat``.
The canonical writer orients every edge and pair as (u, v) with u < v and
emits edges, then pairs, in sorted order; instances are normalized the same
way on construction, so ``parse_instance(write_instance(x)) == x``.

A companion format describes inputs for the star reduction (``.ola`` files):

    ola 1
    vertices <n>
    threshold <K>
    edge <u> <v>
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InstanceFormatError, InvalidInstanceError


class Objective(enum.Enum):
    WEIGHTED_SUM = "wct"
    MAX_LATENESS = "maxlat"


def _as_objective(value: "Objective | str") -> Objective:
    if isinstance(value, Objective):
        return value
    try:
        return Objective(value)
    except ValueError:
        raise InvalidInstanceError(f"unknown objective {value!r}") from None


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
        n = self.vertex_count
        if not isinstance(n, int) or n < 1:
            raise InvalidInstanceError("vertex count must be a positive integer")
        normalized = []
        seen = set()
        for edge in self.edges:
            if len(edge) != 3:
                raise InvalidInstanceError(f"edge must be (u, v, length), got {edge!r}")
            u, v, c = edge
            if not (isinstance(u, int) and isinstance(v, int) and isinstance(c, int)):
                raise InvalidInstanceError(f"edge fields must be integers: {edge!r}")
            if u == v:
                raise InvalidInstanceError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstanceError(f"edge ({u}, {v}) endpoint out of range")
            if c < 1:
                raise InvalidInstanceError(f"edge ({u}, {v}) has non-positive length {c}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InvalidInstanceError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            normalized.append((u, v, c))
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))
        if not self._is_connected():
            raise InvalidInstanceError("network is not connected")

    def _is_connected(self) -> bool:
        n = self.vertex_count
        if n == 1:
            return True
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v, _ in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            x = stack.pop()
            for y in neighbors[x]:
                if not seen[y]:
                    seen[y] = True
                    count += 1
                    stack.append(y)
        return count == n

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {(u, v): i for i, (u, v, _) in enumerate(self.edges)}

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex: tuple of (neighbor, edge id)."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v, _) in enumerate(self.edges):
            out[u].append((v, i))
            out[v].append((u, i))
        return tuple(tuple(a) for a in out)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == self.vertex_count - 1

    @property
    def leaf_count(self) -> int:
        return sum(1 for d in self.degrees if d == 1)

    @property
    def total_length(self) -> int:
        return sum(c for _, _, c in self.edges)

    def kernel_degrees(self, keep: Iterable[int]) -> list[int]:
        """Degrees after repeatedly deleting degree-1 vertices not in ``keep``.

        Deleted vertices read 0.  No path between two kept vertices passes
        through a deleted one, so every forest joining kept vertices lies in
        what remains.
        """
        keep = set(keep)
        degree = list(self.degrees)
        pendant = [v for v, d in enumerate(degree) if d == 1 and v not in keep]
        while pendant:
            v = pendant.pop()
            degree[v] = 0
            for y, _ in self.adjacency[v]:
                if degree[y]:
                    degree[y] -= 1
                    if degree[y] == 1 and y not in keep:
                        pendant.append(y)
        return degree


@dataclass(frozen=True)
class RelevantPair:
    """Weighted vertex pair whose connection time enters the objective."""

    u: int
    v: int
    weight: int
    due: int | None = None

    def __post_init__(self):
        if not (isinstance(self.u, int) and isinstance(self.v, int)):
            raise InvalidInstanceError("pair endpoints must be integers")
        if self.u == self.v:
            raise InvalidInstanceError(f"pair endpoints coincide at vertex {self.u}")
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)
        if not isinstance(self.weight, int) or self.weight < 1:
            raise InvalidInstanceError(
                f"pair ({self.u}, {self.v}) has non-positive weight {self.weight}"
            )
        if self.due is not None and not isinstance(self.due, int):
            raise InvalidInstanceError(f"pair ({self.u}, {self.v}) due date must be an integer")

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
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs, key=lambda p: p.key)))
        object.__setattr__(self, "objective", _as_objective(self.objective))
        if not self.pairs:
            raise InvalidInstanceError("instance must have at least one relevant pair")
        n = self.network.vertex_count
        seen = set()
        for pair in self.pairs:
            if pair.v >= n:
                raise InvalidInstanceError(f"pair ({pair.u}, {pair.v}) endpoint out of range")
            if pair.key in seen:
                raise InvalidInstanceError(f"duplicate pair ({pair.u}, {pair.v})")
            seen.add(pair.key)
            if self.objective is Objective.MAX_LATENESS and pair.due is None:
                raise InvalidInstanceError(
                    f"pair ({pair.u}, {pair.v}) needs a due date under the maxlat objective"
                )
            if self.objective is Objective.WEIGHTED_SUM and pair.due is not None:
                raise InvalidInstanceError(
                    f"pair ({pair.u}, {pair.v}) carries a due date but the objective is wct"
                )

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
        n = self.vertex_count
        if not isinstance(n, int) or n < 1:
            raise InvalidInstanceError("vertex count must be a positive integer")
        if not isinstance(self.threshold, int) or self.threshold < 0:
            raise InvalidInstanceError("threshold must be a non-negative integer")
        normalized = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise InvalidInstanceError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstanceError(f"edge ({u}, {v}) endpoint out of range")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InvalidInstanceError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            normalized.append((u, v))
        normalized.sort()
        object.__setattr__(self, "edges", tuple(normalized))


# --- text format -----------------------------------------------------------


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InstanceFormatError(f"{what} must be an integer, got {token!r}", lineno) from None


def _content_lines(text: str) -> Iterable[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_instance(text: str) -> Instance:
    """Parse instance text, reporting violations with their line number."""
    header_seen = False
    objective: Objective | None = None
    vertices: int | None = None
    vertices_line = 0
    edges: list[tuple[int, int, int]] = []
    edge_keys: set[tuple[int, int]] = set()
    pairs: list[RelevantPair] = []
    pair_keys: set[tuple[int, int]] = set()

    for lineno, tokens in _content_lines(text):
        keyword = tokens[0]
        if not header_seen:
            if tokens != ["netcon", "1"]:
                raise InstanceFormatError("expected header 'netcon 1'", lineno)
            header_seen = True
        elif keyword == "objective":
            if objective is not None:
                raise InstanceFormatError("duplicate objective line", lineno)
            if len(tokens) != 2 or tokens[1] not in ("wct", "maxlat"):
                raise InstanceFormatError("objective must be 'wct' or 'maxlat'", lineno)
            objective = Objective(tokens[1])
        elif keyword == "vertices":
            if vertices is not None:
                raise InstanceFormatError("duplicate vertices line", lineno)
            if len(tokens) != 2:
                raise InstanceFormatError("expected 'vertices <n>'", lineno)
            vertices = _parse_int(tokens[1], "vertex count", lineno)
            if vertices < 1:
                raise InstanceFormatError("vertex count must be positive", lineno)
            vertices_line = lineno
        elif keyword == "edge":
            if vertices is None:
                raise InstanceFormatError("edge line before vertices line", lineno)
            if len(tokens) != 4:
                raise InstanceFormatError("expected 'edge <u> <v> <length>'", lineno)
            u = _parse_int(tokens[1], "edge endpoint", lineno)
            v = _parse_int(tokens[2], "edge endpoint", lineno)
            c = _parse_int(tokens[3], "edge length", lineno)
            if u == v:
                raise InstanceFormatError(f"self-loop at vertex {u}", lineno)
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise InstanceFormatError(f"edge endpoint out of range 0..{vertices - 1}", lineno)
            if c < 1:
                raise InstanceFormatError(f"non-positive edge length {c}", lineno)
            key = (min(u, v), max(u, v))
            if key in edge_keys:
                raise InstanceFormatError(f"duplicate edge ({key[0]}, {key[1]})", lineno)
            edge_keys.add(key)
            edges.append((key[0], key[1], c))
        elif keyword == "pair":
            if vertices is None:
                raise InstanceFormatError("pair line before vertices line", lineno)
            if objective is None:
                raise InstanceFormatError("pair line before objective line", lineno)
            want = 5 if objective is Objective.MAX_LATENESS else 4
            if len(tokens) != want:
                if objective is Objective.MAX_LATENESS and len(tokens) == 4:
                    raise InstanceFormatError("missing due date under maxlat objective", lineno)
                raise InstanceFormatError(
                    "expected 'pair <u> <v> <weight>'"
                    + (" with a due date" if want == 5 else ""),
                    lineno,
                )
            u = _parse_int(tokens[1], "pair endpoint", lineno)
            v = _parse_int(tokens[2], "pair endpoint", lineno)
            w = _parse_int(tokens[3], "pair weight", lineno)
            due = _parse_int(tokens[4], "pair due date", lineno) if want == 5 else None
            if u == v:
                raise InstanceFormatError(f"pair endpoints coincide at vertex {u}", lineno)
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise InstanceFormatError(f"pair endpoint out of range 0..{vertices - 1}", lineno)
            if w < 1:
                raise InstanceFormatError(f"non-positive pair weight {w}", lineno)
            key = (min(u, v), max(u, v))
            if key in pair_keys:
                raise InstanceFormatError(f"duplicate pair ({key[0]}, {key[1]})", lineno)
            pair_keys.add(key)
            pairs.append(RelevantPair(key[0], key[1], w, due))
        else:
            raise InstanceFormatError(f"unknown directive {keyword!r}", lineno)

    if not header_seen:
        raise InstanceFormatError("missing 'netcon 1' header")
    if objective is None:
        raise InstanceFormatError("missing objective line")
    if vertices is None:
        raise InstanceFormatError("missing vertices line")
    if not pairs:
        raise InstanceFormatError("instance has no relevant pairs")

    try:
        network = Network(vertices, tuple(edges))
    except InvalidInstanceError as exc:
        raise InstanceFormatError(str(exc), vertices_line) from None
    return Instance(network, tuple(pairs), objective)


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
    header_seen = False
    vertices: int | None = None
    threshold: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, tokens in _content_lines(text):
        if not header_seen:
            if tokens != ["ola", "1"]:
                raise InstanceFormatError("expected header 'ola 1'", lineno)
            header_seen = True
        elif tokens[0] == "vertices" and len(tokens) == 2:
            vertices = _parse_int(tokens[1], "vertex count", lineno)
        elif tokens[0] == "threshold" and len(tokens) == 2:
            threshold = _parse_int(tokens[1], "threshold", lineno)
        elif tokens[0] == "edge" and len(tokens) == 3:
            edges.append(
                (_parse_int(tokens[1], "edge endpoint", lineno),
                 _parse_int(tokens[2], "edge endpoint", lineno))
            )
        else:
            raise InstanceFormatError(f"malformed line {' '.join(tokens)!r}", lineno)
    if not header_seen:
        raise InstanceFormatError("missing 'ola 1' header")
    if vertices is None:
        raise InstanceFormatError("missing vertices line")
    if threshold is None:
        raise InstanceFormatError("missing threshold line")
    try:
        return OlaInput(vertices, tuple(edges), threshold)
    except InvalidInstanceError as exc:
        raise InstanceFormatError(str(exc)) from None


def write_ola_input(ola: OlaInput) -> str:
    lines = ["ola 1", f"vertices {ola.vertex_count}", f"threshold {ola.threshold}"]
    lines.extend(f"edge {u} {v}" for u, v in ola.edges)
    return "\n".join(lines) + "\n"


# --- generators ------------------------------------------------------------

GENERATOR_KINDS = ("random_tree", "star", "path", "random_graph")


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
    ``pair_count`` pairs (default 1) are sampled from the seeded RNG.
    """
    objective = _as_objective(objective)
    if kind not in GENERATOR_KINDS:
        raise InvalidInstanceError(f"unknown generator kind {kind!r}")
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
        present = {(min(u, v), max(u, v)) for u, v in skeleton}
        candidates = [
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
        ]
        skeleton.extend(rng.sample(candidates, edge_count - (n - 1)))
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
        population = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = []
        for u, v in rng.sample(population, count):
            due = rng.randint(*due_range) if objective is Objective.MAX_LATENESS else None
            chosen.append(RelevantPair(u, v, rng.randint(wlo, whi), due))
    return Instance(network, tuple(chosen), objective)


def reduce_ola(ola: OlaInput) -> tuple[Instance, int]:
    """Map a linear-arrangement question to a star instance plus threshold.

    The star has center 0 and one unit edge per input vertex v (mapped to
    v + 1).  Center pairs get weight |V| - deg(v) (skipped if zero) and each
    input edge becomes a leaf pair of weight 2.  The returned threshold is
    |V|^2 (|V| + 1) / 2 + K: the instance optimum is at most the threshold
    exactly when the arrangement question is a yes-instance.
    """
    nv = ola.vertex_count
    degree = [0] * nv
    for u, v in ola.edges:
        degree[u] += 1
        degree[v] += 1
    star_edges = tuple((0, i + 1, 1) for i in range(nv))
    pairs = [
        RelevantPair(0, i + 1, nv - degree[i])
        for i in range(nv)
        if nv - degree[i] > 0
    ]
    pairs.extend(RelevantPair(u + 1, v + 1, 2) for u, v in ola.edges)
    instance = Instance(Network(nv + 1, star_edges), tuple(pairs), Objective.WEIGHTED_SUM)
    threshold = nv * nv * (nv + 1) // 2 + ola.threshold
    return instance, threshold
