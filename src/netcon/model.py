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

Two formats carry results.  A connection report (``format_report``) is one
``pair <u> <v> t=<time>`` line per pair in canonical order, then a final
``objective <value>`` line.  A solution (``format_solution``, what ``netcon
solve`` prints) is the report followed by a ``sequence`` line and one edge id
per line; ``parse_solution`` reads it back against its instance.

The constructors normalize: edges and pairs are oriented (u, v) with u < v
and sorted, as the canonical writer emits them, so
``parse_instance(write_instance(x)) == x``.  They also run every instance
rule, each written once here.  A broken rule raises once, through
``_invalid``, naming its directive in the text formats and the edge's or
pair's position.  The parsers check only the file syntax, and ``_build``
prefixes what a constructor raises with the line that directive and position
came from, so the library and the files give the same messages.

The types are ``frozen.Frozen`` classes: each ``__init__`` runs the rules on
its arguments and stores the normalized values, and no attribute can be
assigned afterwards, so every value that exists has passed them.  Equality
and hashing read the fields alone, not what the constructor caches beside
them (a network's adjacency and rooting, an instance's terminals).
"""

from __future__ import annotations

import enum
import random
import sys
from bisect import bisect_right
from functools import partial, wraps
from math import isqrt
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import InstanceFormatError, InvalidInstanceError
from .frozen import Frozen


class Objective(enum.Enum):
    WEIGHTED_SUM = "wct"
    MAX_LATENESS = "maxlat"


# CPython caps int-string conversions at 4300 digits by default (3.10.7 on)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def exact_digits(fn):
    """``fn`` with the int-string digit limit lifted while it runs, so that
    numbers of any length are read, printed and named in messages exactly;
    the process's own limit is put back afterwards, however ``fn`` ends.
    The value types' constructors, every reader and writer of the text
    formats, the evaluator and ``cli.main`` run this way."""

    @wraps(fn)
    def call(*args, **kwargs):
        limit = _digit_limit()
        if not limit:  # already lifted, or no limit in this Python
            return fn(*args, **kwargs)
        sys.set_int_max_str_digits(0)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(limit)

    return call


# --- instance rules --------------------------------------------------------

# The one integer rule: every integer of an instance is exactly an ``int``.
# ``type(x) is int`` rejects ``bool``, which ``isinstance(True, int)`` admits.


def _invalid(message: str, name: str | None, index: int | None = None) -> InvalidInstanceError:
    """An error naming what broke a rule, by its directive in the text formats
    (and the edge's or pair's position), so a parser can report its line;
    ``None`` when no one line breaks the rule."""
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


def _ends(what: str, u, v, index: int | None = None) -> tuple[int, int]:
    """An edge's or a pair's endpoints: distinct integers, oriented u < v."""
    if not (type(u) is type(v) is int):
        raise _invalid(f"{what} endpoints must be integers, got ({u!r}, {v!r})", what, index)
    if u == v:
        raise _invalid(f"{what} ({u}, {v}) is a self-loop", what, index)
    return (u, v) if u < v else (v, u)


def _add_key(what: str, key: tuple[int, int], n: int, seen: set, index: int) -> None:
    """Admit an oriented edge or pair: both ends in 0..n-1, not seen before."""
    u, v = key
    if u < 0 or v >= n:
        raise _invalid(f"{what} ({u}, {v}) has an endpoint out of range 0..{n - 1}", what, index)
    if key in seen:
        raise _invalid(f"duplicate {what} ({u}, {v})", what, index)
    seen.add(key)


def _edge_list(edges, n: int, arity: int) -> tuple:
    """Checked edges, oriented u < v and sorted: (u, v, length) for a
    network (arity 3), (u, v) for an arrangement input (arity 2).  A tuple
    that keeps every rule, as the parsers and generators build them, is
    admitted inline; any other edge goes through every rule in turn, so the
    first one it breaks is the one reported."""
    seen: set[tuple[int, int]] = set()
    out = []
    for index, edge in enumerate(edges):
        if type(edge) is tuple and len(edge) == arity:
            u, v, length = edge if arity == 3 else (*edge, 1)
            if type(u) is int and type(v) is int and type(length) is int:
                if u > v:
                    u, v = v, u
                key = (u, v)
                if 0 <= u < v < n and length >= 1 and key not in seen:
                    seen.add(key)
                    out.append((u, v, length) if arity == 3 else key)
                    continue
        if not isinstance(edge, Sequence) or len(edge) != arity:
            raise _invalid(f"edge must have {arity} fields, got {edge!r}", "edge", index)
        key = _ends("edge", edge[0], edge[1], index)
        if arity == 3 and not (type(edge[2]) is int and edge[2] >= 1):
            raise _invalid(
                f"non-integer or non-positive edge length {edge[2]!r} on edge {key}", "edge", index
            )
        _add_key("edge", key, n, seen, index)
        out.append(key if arity == 2 else (*key, edge[2]))
    out.sort()
    return tuple(out)


def _root(adjacency: Sequence[Sequence[tuple[int, int]]]) -> tuple[list[int], ...]:
    """Root each component of the graph ``adjacency`` (per vertex, its
    neighbours and the edge ids to them) at its lowest vertex, by one
    breadth-first traversal; see ``root_forest``."""
    n = len(adjacency)
    parent, up, depth = [-1] * n, [-1] * n, [0] * n
    order: list[int] = []
    for root in range(n):
        if parent[root] < 0:
            parent[root] = root
            reached = [root]
            for x in reached:
                for y, e in adjacency[x]:
                    if parent[y] < 0:
                        parent[y], up[y], depth[y] = x, e, depth[x] + 1
                        reached.append(y)
            order += reached
    return parent, up, depth, order


class Network(Frozen):
    """Connected undirected network with positive integer edge lengths.

    Vertices are 0..vertex_count-1.  Edges are stored canonically: each
    endpoint pair oriented with u < v and the list sorted by (u, v).  Edge
    ids used throughout the package are positions in ``edges``.  The
    constructor also builds ``adjacency`` and the full rooting, which
    decides connectivity and is what ``root_forest()`` returns.
    """

    __slots__ = ("vertex_count", "edges", "adjacency", "_rooting")
    _fields = ("vertex_count", "edges")

    @exact_digits
    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, int]]) -> None:
        _check_vertex_count(vertex_count)
        edges = _edge_list(edges, vertex_count, 3)
        if vertex_count > len(edges) + 1:  # fewer than n - 1 edges: no traversal needed
            raise _invalid("network is not connected", "vertices")
        around: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        for i, (u, v, _) in enumerate(edges):
            around[u].append((v, i))
            around[v].append((u, i))
        adjacency = tuple(map(tuple, around))
        rooting = _root(adjacency)
        if rooting[1].count(-1) > 1:  # a second root starts a second component
            raise _invalid("network is not connected", "vertices")
        init = object.__setattr__
        init(self, "vertex_count", vertex_count)
        init(self, "edges", edges)
        init(self, "adjacency", adjacency)  # per vertex: tuple of (neighbor, edge id)
        init(self, "_rooting", tuple(map(tuple, rooting)))

    def root_forest(self, kept: Iterable[int] | None = None) -> tuple[Sequence[int], ...]:
        """Root each component of the edge ids ``kept`` (every edge when None)
        at its lowest vertex, by one breadth-first traversal.  Returns each
        vertex's parent (a root is its own), the edge id up to it (-1 at a
        root), its depth, and the vertices in visit order, parents first.
        Every edge gives the rooting made at construction; otherwise only
        the kept edges are walked, each vertex's in id order, as it meets
        them in ``adjacency``."""
        if kept is None:
            return self._rooting
        around: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for e in sorted(kept):
            u, v, _ = self.edges[e]
            around[u].append((v, e))
            around[v].append((u, e))
        return _root(around)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == self.vertex_count - 1

    @property
    def leaf_count(self) -> int:
        return sum(1 for around in self.adjacency if len(around) == 1)


class RelevantPair(Frozen):
    """Weighted vertex pair whose connection time enters the objective."""

    __slots__ = _fields = ("u", "v", "weight", "due")

    @exact_digits
    def __init__(self, u: int, v: int, weight: int, due: int | None = None) -> None:
        u, v = _ends("pair", u, v)
        if type(weight) is not int or weight < 1:
            raise _invalid(
                f"non-integer or non-positive pair weight {weight!r} on pair ({u}, {v})", "pair"
            )
        if due is not None and type(due) is not int:
            raise _invalid(f"pair ({u}, {v}) due date must be an integer, got {due!r}", "pair")
        init = object.__setattr__
        init(self, "u", u)
        init(self, "v", v)
        init(self, "weight", weight)
        init(self, "due", due)

    @property
    def key(self) -> tuple[int, int]:
        return (self.u, self.v)


_BY_ENDS = attrgetter("u", "v")


class Instance(Frozen):
    """A network, relevant pairs, and the objective to minimize.

    ``terminals`` lists every pair endpoint once, ascending."""

    __slots__ = ("network", "pairs", "objective", "terminals")
    _fields = ("network", "pairs", "objective")

    @exact_digits
    def __init__(
        self,
        network: Network,
        pairs: Iterable[RelevantPair],
        objective: "Objective | str" = Objective.WEIGHTED_SUM,
    ) -> None:
        if not isinstance(network, Network):
            raise _invalid(f"network must be a Network, got {network!r}", None)
        objective = _as_objective(objective)
        pairs = tuple(pairs)
        if not pairs:
            raise _invalid("instance has no relevant pairs", None)
        maxlat = objective is Objective.MAX_LATENESS
        seen: set[tuple[int, int]] = set()
        for index, pair in enumerate(pairs):
            if not isinstance(pair, RelevantPair):
                raise _invalid(f"pair must be a RelevantPair, got {pair!r}", "pair", index)
            _add_key("pair", pair.key, network.vertex_count, seen, index)
            if (pair.due is None) == maxlat:
                raise _invalid(
                    f"{'missing' if maxlat else 'stray'} due date for pair"
                    f" ({pair.u}, {pair.v}) under the {objective.value} objective", "pair", index
                )
        init = object.__setattr__
        init(self, "network", network)
        init(self, "pairs", tuple(sorted(pairs, key=_BY_ENDS)))
        init(self, "objective", objective)
        init(self, "terminals", tuple(sorted({x for key in seen for x in key})))

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    def common_pair_vertex(self) -> int | None:
        """Smallest vertex shared by every pair, or None."""
        shared = set(self.pairs[0].key)
        for pair in self.pairs[1:]:
            shared &= set(pair.key)
        return min(shared) if shared else None


class OlaInput(Frozen):
    """Simple graph plus threshold for the linear-arrangement reduction."""

    __slots__ = _fields = ("vertex_count", "edges", "threshold")

    @exact_digits
    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]], threshold: int) -> None:
        _check_vertex_count(vertex_count)
        if type(threshold) is not int or threshold < 0:
            raise _invalid(
                f"threshold must be a non-negative integer, got {threshold!r}", "threshold"
            )
        init = object.__setattr__
        init(self, "vertex_count", vertex_count)
        init(self, "edges", _edge_list(edges, vertex_count, 2))
        init(self, "threshold", threshold)


# --- text format -----------------------------------------------------------

def _parse_int(token: str, what: str, lineno: int) -> int:
    """The one integer-token rule of every text format: ASCII ``-?[0-9]+``.
    Plain ``int()`` would also take ``1_0``, ``+3`` and non-ASCII digits."""
    digits = token[1:] if token[:1] == "-" else token
    if digits.isdigit() and digits.isascii():
        return int(token)
    raise InstanceFormatError(f"{what} must be an integer, got {token!r}", lineno)


def _content_lines(text: str) -> Iterable[tuple[int, list[str]]]:
    r"""Each line's tokens, comment dropped, with the line's number.  Lines
    end at ``\n`` alone (``str.splitlines`` would also end one at a form
    feed or a Unicode separator); a ``\r`` before it is whitespace."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.partition("#")[0].split()
        if tokens:
            yield lineno, tokens


def _build(cls, lines: dict, *args):
    """``cls(*args)``, with the line of whatever it rejects.  ``lines`` maps a
    directive to its line, or a repeated directive to its items' lines; an
    error naming no directive gets no line."""
    try:
        return cls(*args)
    except InvalidInstanceError as exc:
        name, index = exc.where
        line = lines.get(name)
        raise InstanceFormatError(str(exc), line if index is None else line[index]) from None


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


@exact_digits
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
        elif keyword == "edge":  # most lines: tested first
            if "vertices" not in lines:
                raise InstanceFormatError("edge line before vertices line", lineno)
            if len(tokens) != 4:
                raise InstanceFormatError("expected 'edge <u> <v> <length>'", lineno)
            _, u, v, length = tokens
            digits = u + v + length
            if digits.isdigit() and digits.isascii():  # all three pass _parse_int
                edges.append((int(u), int(v), int(length)))
            else:
                edges.append((
                    _parse_int(u, "edge endpoint", lineno),
                    _parse_int(v, "edge endpoint", lineno),
                    _parse_int(length, "edge length", lineno),
                ))
            lines["edge"].append(lineno)
        elif keyword in ("objective", "vertices"):
            _singleton(tokens, lineno, lines, values)
        elif keyword == "pair":
            if "vertices" not in lines:
                raise InstanceFormatError("pair line before vertices line", lineno)
            if "objective" not in lines:
                raise InstanceFormatError("pair line before objective line", lineno)
            if len(tokens) not in (4, 5):
                raise InstanceFormatError("expected 'pair <u> <v> <weight> [<due>]'", lineno)
            digits = "".join(tokens[1:])
            if digits.isdigit() and digits.isascii():  # as for an edge line
                fields = list(map(int, tokens[1:]))
            else:
                fields = [_parse_int(t, what, lineno) for t, what in zip(tokens[1:], _PAIR_FIELDS)]
            pairs.append(_build(RelevantPair, {"pair": lineno}, *fields))
            lines["pair"].append(lineno)
        else:
            raise InstanceFormatError(f"unknown directive {keyword!r}", lineno)

    if not header_seen:
        raise InstanceFormatError("missing 'netcon 1' header")
    _require(lines, "objective", "vertices")
    vertices = _parse_int(values["vertices"], "vertex count", lines["vertices"])
    network = _build(Network, lines, vertices, tuple(edges))
    return _build(Instance, lines, network, tuple(pairs), values["objective"])


@exact_digits
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


@exact_digits
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
    return _build(OlaInput, lines, vertices, tuple(edges), threshold)


@exact_digits
def write_ola_input(ola: OlaInput) -> str:
    lines = ["ola 1", f"vertices {ola.vertex_count}", f"threshold {ola.threshold}"]
    lines.extend(f"edge {u} {v}" for u, v in ola.edges)
    return "\n".join(lines) + "\n"


class ConnectionReport(NamedTuple):
    """Connection time per pair (aligned with instance.pairs) and objective."""

    times: tuple[int, ...]
    objective: int


@exact_digits
def format_report(instance: Instance, report: ConnectionReport) -> str:
    lines = [
        f"pair {pair.u} {pair.v} t={t}"
        for pair, t in zip(instance.pairs, report.times)
    ]
    lines.append(f"objective {report.objective}")
    return "\n".join(lines) + "\n"


def format_solution(instance: Instance, report: ConnectionReport, seq: Sequence[int]) -> str:
    lines = [format_report(instance, report).rstrip("\n"), "sequence"]
    lines.extend(str(eid) for eid in seq)
    return "\n".join(lines) + "\n"


@exact_digits
def parse_solution(instance: Instance, text: str) -> tuple[ConnectionReport, tuple[int, ...]]:
    """Read a solve-format solution file back into a claim and a sequence."""
    times: dict[tuple[int, int], int] = {}
    objective: int | None = None
    seq: list[int] = []
    in_sequence = False
    for lineno, tokens in _content_lines(text):
        if in_sequence:
            if len(tokens) != 1:
                raise InstanceFormatError("expected one edge id per line", lineno)
            seq.append(_parse_int(tokens[0], "edge id", lineno))
        elif tokens[0] == "pair" and len(tokens) == 4 and tokens[3].startswith("t="):
            u = _parse_int(tokens[1], "pair endpoint", lineno)
            v = _parse_int(tokens[2], "pair endpoint", lineno)
            key = (min(u, v), max(u, v))
            if key in times:
                raise InstanceFormatError(f"duplicate pair line for {key}", lineno)
            times[key] = _parse_int(tokens[3][2:], "connection time", lineno)
        elif tokens[0] == "objective" and len(tokens) == 2:
            if objective is not None:
                raise InstanceFormatError("duplicate objective line", lineno)
            objective = _parse_int(tokens[1], "objective", lineno)
        elif tokens == ["sequence"]:
            in_sequence = True
        else:
            raise InstanceFormatError(f"unexpected line {' '.join(tokens)!r}", lineno)
    if objective is None:
        raise InstanceFormatError("solution has no objective line")
    if not in_sequence:
        raise InstanceFormatError("solution has no sequence section")
    ordered = []
    for pair in instance.pairs:
        if pair.key not in times:
            raise InstanceFormatError(f"solution misses pair ({pair.u}, {pair.v})")
        ordered.append(times.pop(pair.key))
    if times:
        extra = next(iter(times))
        raise InstanceFormatError(f"solution reports unknown pair {extra}")
    return ConnectionReport(tuple(ordered), objective), tuple(seq)


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
