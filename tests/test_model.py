import os
import pathlib
import pickle
import random
import subprocess
import sys
import threading
import tracemalloc

import pytest

import netcon
from netcon import (
    ConnectionReport,
    Instance,
    InstanceFormatError,
    InvalidInstanceError,
    Job,
    Network,
    Objective,
    OlaInput,
    RelevantPair,
    SequenceError,
    Verdict,
    evaluate_sequence,
    generate,
    parse_instance,
    parse_ola_input,
    reduce_ola,
    solve_fixed_r,
    subset_dp,
    validate_sequence,
    write_instance,
    write_ola_input,
)
from netcon.cli import format_solution, parse_solution
from netcon.model import exact_digits
from netcon.unionfind import UnionFind

MINIMAL = """\
netcon 1
objective wct
vertices 2
edge 0 1 4
pair 0 1 2
"""

PATH4 = """\
netcon 1
objective wct
vertices 4
edge 0 1 1
edge 1 2 2
edge 2 3 3
pair 0 3 2
pair 1 2 5
"""


def test_parse_minimal_instance():
    inst = parse_instance(MINIMAL)
    assert inst.network.vertex_count == 2
    assert inst.network.edges == ((0, 1, 4),)
    assert inst.pairs == (RelevantPair(0, 1, 2),)
    assert inst.objective is Objective.WEIGHTED_SUM


def test_parse_accepts_comments_and_blank_lines():
    text = "# a comment\nnetcon 1\n\nobjective wct  # inline\nvertices 2\nedge 0 1 4\npair 0 1 2\n"
    assert parse_instance(text) == parse_instance(MINIMAL)


def test_round_trip_is_identity_on_canonical_text():
    assert write_instance(parse_instance(PATH4)) == PATH4
    inst = parse_instance(PATH4)
    assert parse_instance(write_instance(inst)) == inst


def test_writer_orients_and_sorts_edges():
    net = Network(4, ((3, 1, 2), (1, 0, 1), (2, 1, 5)))
    assert net.edges == ((0, 1, 1), (1, 2, 5), (1, 3, 2))
    inst = Instance(net, (RelevantPair(3, 0, 1),))
    assert "edge 1 3 2" in write_instance(inst)
    assert "pair 0 3 1" in write_instance(inst)


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("edge 0 0 5", "self-loop"),
        ("edge 0 1 0", "non-positive edge length"),
        ("edge 0 1 2\nedge 1 0 3", "duplicate edge"),
        ("edge 0 1 2\npair 0 1 0", "non-positive pair weight"),
        ("edge 0 1 2\npair 0 1 1\npair 1 0 2", "duplicate pair"),
        ("edge 0 1 x", "must be an integer"),
        ("edge 0 5 1", "out of range"),
        ("bogus 1 2", "unknown directive"),
        # int() takes these; the one integer-token rule is ASCII -?[0-9]+
        ("edge 0 1 1_0", "must be an integer"),
        ("edge 0 1 +3", "must be an integer"),
        ("edge 0 1 \u0663", "must be an integer"),
    ],
)
def test_parse_errors_carry_line_numbers(line, fragment):
    text = f"netcon 1\nobjective wct\nvertices 2\n{line}\npair 0 1 1\n"
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_parse_rejects_disconnected_network():
    text = "netcon 1\nobjective wct\nvertices 4\nedge 0 1 1\nedge 2 3 1\npair 0 1 1\n"
    with pytest.raises(InstanceFormatError, match="not connected"):
        parse_instance(text)


def test_parse_due_date_rules():
    with_due = "netcon 1\nobjective maxlat\nvertices 2\nedge 0 1 4\npair 0 1 2 7\n"
    inst = parse_instance(with_due)
    assert inst.pairs[0].due == 7
    missing = with_due.replace("pair 0 1 2 7", "pair 0 1 2")
    with pytest.raises(InstanceFormatError, match="missing due date"):
        parse_instance(missing)
    stray = MINIMAL.replace("pair 0 1 2", "pair 0 1 2 7")
    with pytest.raises(InstanceFormatError):
        parse_instance(stray)


def test_parse_requires_header_and_sections():
    with pytest.raises(InstanceFormatError, match="header"):
        parse_instance("vertices 2\n")
    with pytest.raises(InstanceFormatError, match="objective"):
        parse_instance("netcon 1\nvertices 2\nedge 0 1 1\n")
    with pytest.raises(InstanceFormatError, match="no relevant pairs"):
        parse_instance("netcon 1\nobjective wct\nvertices 2\nedge 0 1 1\n")


def test_round_trip_fixpoint_on_random_instances():
    rng = random.Random(5)
    for _ in range(100):
        kind = rng.choice(("random_tree", "star", "path", "random_graph"))
        n = rng.randint(2, 10)
        inst = generate(
            kind,
            n,
            seed=rng.randrange(1 << 30),
            pair_count=rng.randint(1, n * (n - 1) // 2),
            objective=rng.choice(("wct", "maxlat")),
        )
        assert parse_instance(write_instance(inst)) == inst


def test_generate_path_with_explicit_pair():
    inst = generate("path", 3, length_range=(1, 1), pairs=[(0, 2, 1)])
    assert inst.network.edges == ((0, 1, 1), (1, 2, 1))
    assert inst.pairs == (RelevantPair(0, 2, 1),)


def test_generate_star_shape():
    inst = generate("star", 4, length_range=(1, 1), pairs=[(1, 2, 1)])
    assert inst.network.edges == ((0, 1, 1), (0, 2, 1), (0, 3, 1))
    assert len(inst.network.adjacency[0]) == 3


def test_generate_is_deterministic_per_seed():
    a = generate("random_tree", 9, seed=7, pair_count=4)
    b = generate("random_tree", 9, seed=7, pair_count=4)
    assert a == b
    c = generate("random_tree", 9, seed=8, pair_count=4)
    assert a != c


def test_generate_validates_params():
    with pytest.raises(InvalidInstanceError):
        generate("random_graph", 4, edge_count=2)  # below n - 1
    with pytest.raises(InvalidInstanceError):
        generate("random_graph", 4, edge_count=7)  # above n(n-1)/2
    with pytest.raises(InvalidInstanceError):
        generate("path", 4, pair_count=0)
    with pytest.raises(InvalidInstanceError):
        generate("blob", 4)


def _generate_from_lists(kind, n, seed, edge_count, pair_count, objective):
    """What ``generate`` draws with default ranges, sampling the edges and the
    pairs from lists of every vertex pair."""
    rng = random.Random(seed)
    if kind == "path":
        skeleton = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        skeleton = [(0, i) for i in range(1, n)]
    else:
        skeleton = [(rng.randrange(v), v) for v in range(1, n)]
    every = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "random_graph":
        off = [pair for pair in every if pair not in set(skeleton)]
        skeleton += rng.sample(off, edge_count - (n - 1))
    edges = tuple((u, v, rng.randint(1, 10)) for u, v in skeleton)
    pairs = []
    for u, v in rng.sample(every, pair_count):
        due = rng.randint(0, 50) if objective == "maxlat" else None
        pairs.append(RelevantPair(u, v, rng.randint(1, 5), due))
    return Instance(Network(n, edges), tuple(pairs), objective)


@pytest.mark.parametrize(
    "args, params, name",
    [
        (("path", 2.5), {}, "n"),
        (("path", 4), {"seed": None}, "seed"),
        (("path", 4), {"seed": 1.0}, "seed"),
        (("random_graph", 5), {"edge_count": 6.0}, "edge_count"),
        (("path", 4), {"pair_count": True}, "pair_count"),
        (("path", 4), {"length_range": (1.5, 3)}, r"length_range\[0\]"),
        (("path", 4), {"weight_range": (1, False)}, r"weight_range\[1\]"),
        (("path", 4), {"due_range": (0, "9")}, r"due_range\[1\]"),
        (("path", 4), {"length_range": 3}, "length_range must be a"),
    ],
    ids=["n", "seed-none", "seed-float", "edge-count", "pair-count-bool", "length-range",
         "weight-range", "due-range", "range-shape"],
)
def test_generate_applies_the_integer_rule_to_its_parameters(args, params, name):
    with pytest.raises(InvalidInstanceError, match=f"^{name}"):
        generate(*args, **params)


def test_generate_draws_as_if_from_lists_of_every_vertex_pair():
    rng = random.Random(131)
    for _ in range(300):
        n = rng.randint(2, 30)
        kind = rng.choice(("path", "star", "random_tree", "random_graph"))
        most = n * (n - 1) // 2
        edge_count = rng.randint(n - 1, most) if kind == "random_graph" else None
        args = (kind, n, rng.randrange(1 << 30), edge_count, rng.randint(1, min(most, 6)))
        objective = rng.choice(("wct", "maxlat"))
        got = generate(*args[:2], seed=args[2], edge_count=args[3], pair_count=args[4], objective=objective)
        assert write_instance(got) == write_instance(_generate_from_lists(*args, objective))


def test_generate_builds_no_list_of_every_vertex_pair():
    tracemalloc.start()
    try:
        generate("path", 1000, pair_count=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_generate_rejects_an_inverted_due_range_when_it_draws_dues():
    with pytest.raises(InvalidInstanceError, match="bad due range"):
        generate("random_graph", 6, pair_count=2, objective="maxlat", due_range=(50, 0))
    # no due dates are drawn under wct or for explicit pairs
    assert generate("random_graph", 6, pair_count=2, due_range=(50, 0)).pair_count == 2
    explicit = generate("path", 4, pairs=[(0, 3, 1, 7)], objective="maxlat", due_range=(50, 0))
    assert explicit.pairs[0].due == 7


def test_generators_always_produce_valid_instances():
    # constructors re-validate every invariant, so surviving them is the check
    rng = random.Random(99)
    kinds = ("random_tree", "star", "path", "random_graph")
    for trial in range(1000):
        n = rng.randint(2, 12)
        inst = generate(
            kinds[trial % 4],
            n,
            seed=trial,
            pair_count=rng.randint(1, n * (n - 1) // 2),
            objective="maxlat" if trial % 5 == 0 else "wct",
        )
        assert inst.network.vertex_count == n
        assert parse_instance(write_instance(inst)) == inst


def test_reduce_ola_triangle():
    instance, threshold = reduce_ola(OlaInput(3, ((0, 1), (0, 2), (1, 2)), 4))
    assert threshold == 22
    assert instance.network.edges == ((0, 1, 1), (0, 2, 1), (0, 3, 1))
    center = [p for p in instance.pairs if p.u == 0]
    leaf = [p for p in instance.pairs if p.u != 0]
    assert [p.weight for p in center] == [1, 1, 1]
    assert [p.weight for p in leaf] == [2, 2, 2]
    assert subset_dp(instance)[0] == 22


def test_reduce_ola_edgeless_graph():
    instance, threshold = reduce_ola(OlaInput(2, (), 0))
    assert threshold == 6
    assert [p.weight for p in instance.pairs] == [2, 2]
    assert subset_dp(instance)[0] == 6  # optimum meets the threshold exactly


def test_reduce_ola_equivalence_small():
    # arrangement optimum + |V|^2(|V|+1)/2 = reduced-star optimum, |V| <= 4
    import itertools

    for n in range(1, 5):
        vertex_pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(vertex_pairs)):
            edges = tuple(vertex_pairs[i] for i in range(len(vertex_pairs)) if mask >> i & 1)
            best = min(
                sum(abs(perm[u] - perm[v]) for u, v in edges)
                for perm in itertools.permutations(range(1, n + 1))
            )
            instance, _ = reduce_ola(OlaInput(n, edges, 0))
            assert subset_dp(instance)[0] == best + n * n * (n + 1) // 2


def test_too_few_edges_are_refused_before_any_per_vertex_work():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInstanceError, match="not connected"):
            Network(10**6, ((0, 1, 1),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enough_edges_but_a_vertex_cut_off_is_not_connected():
    # n - 1 edges or more pass the edge-count refusal, so the traversal decides
    for n, edges in ((4, ((0, 1), (0, 2), (1, 2))), (5, ((1, 2), (1, 3), (1, 4), (2, 3)))):
        with pytest.raises(InvalidInstanceError, match="not connected"):
            Network(n, tuple((u, v, 1) for u, v in edges))
    assert Network(3, ((0, 2, 1), (1, 2, 1))).is_tree


def test_network_invariants():
    with pytest.raises(InvalidInstanceError):
        Network(2, ((0, 0, 1),))
    with pytest.raises(InvalidInstanceError):
        Network(3, ((0, 1, 1),))  # vertex 2 unreachable
    with pytest.raises(InvalidInstanceError):
        Network(2, ((0, 1, 1), (1, 0, 2)))
    assert Network(1, ()).is_tree  # zero edges, one vertex
    # isinstance(True, int) holds, but a bool is no integer of an instance
    for build in (
        lambda: Network(3, ((False, True, True), (1, 2, 1))),
        lambda: Network(2, ((0, 1, True),)),
        lambda: Network(True, ()),
        lambda: RelevantPair(False, 2, True),
        lambda: RelevantPair(0, 2, 1, due=False),
    ):
        with pytest.raises(InvalidInstanceError, match="integer"):
            build()


def test_root_forest_roots_each_component_at_its_lowest_vertex():
    rng = random.Random(151)
    for trial in range(60):
        n = rng.randint(2, 12)
        edge_count = rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))
        net = generate("random_graph", n, seed=trial, edge_count=edge_count).network
        every = list(range(net.edge_count))
        for kept in (None, rng.sample(every, rng.randint(0, len(every)))):
            parent, up, depth, order = net.root_forest(kept)
            allowed = set(every if kept is None else kept)
            assert sorted(order) == list(range(n))
            uf = UnionFind(n)
            for e in allowed:
                uf.union(*net.edges[e][:2])
            lowest = {}
            for x in range(n):
                lowest.setdefault(uf.find(x), x)
            at = {x: i for i, x in enumerate(order)}
            for x in range(n):
                if parent[x] == x:
                    assert (up[x], depth[x]) == (-1, 0)
                    assert lowest[uf.find(x)] == x
                else:
                    assert up[x] in allowed
                    assert set(net.edges[up[x]][:2]) == {x, parent[x]}
                    assert depth[x] == depth[parent[x]] + 1
                    assert at[parent[x]] < at[x]


def test_root_forest_walks_the_kept_edges_as_the_full_adjacency_meets_them():
    # the rooting of a kept edge list is the one a traversal of the full
    # adjacency gives when it skips every edge not kept, cycles and repeats included
    def filtered(net, kept):
        n = net.vertex_count
        parent, up, depth, order = [-1] * n, [-1] * n, [0] * n, []
        for root in range(n):
            if parent[root] < 0:
                parent[root] = root
                reached = [root]
                for x in reached:
                    for y, e in net.adjacency[x]:
                        if parent[y] < 0 and e in kept:
                            parent[y], up[y], depth[y] = x, e, depth[x] + 1
                            reached.append(y)
                order += reached
        return parent, up, depth, order

    rng = random.Random(157)
    for trial in range(80):
        n = rng.randint(2, 12)
        edge_count = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        net = generate("random_graph", n, seed=trial, edge_count=edge_count).network
        kept = rng.choices(range(net.edge_count), k=rng.randint(0, 2 * net.edge_count))
        assert tuple(net.root_forest(kept)) == filtered(net, set(kept))


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_numbers_past_the_int_string_digit_limit_stay_exact_in_the_library():
    # a 5000-digit length, weight and due date, past the 4300 digits Python
    # converts by default, without the command line lifting that limit
    length, weight, due = 10**4999 + 7, 2 * 10**4999 + 1, -(3 * 10**4999 + 11)
    limit = _digit_limit()
    network = Network(3, ((0, 1, length), (1, 2, 1), (0, 2, length + 5)))
    for pair, objective, want in (
        (RelevantPair(0, 2, weight), "wct", weight * (length + 1)),
        (RelevantPair(0, 2, weight, due), "maxlat", length + 1 - due),
    ):
        inst = Instance(network, (pair,), objective)
        text = write_instance(inst)
        assert len(text) > 3 * 5000
        assert parse_instance(text) == inst
        assert write_instance(parse_instance(text)) == text
        seq, report = solve_fixed_r(inst)
        assert report.objective == want
        # the report is printed and read back exactly too
        assert parse_solution(inst, format_solution(inst, report, seq)) == (report, seq)
        assert _digit_limit() == limit
    ola = OlaInput(2, ((0, 1),), 10**5000)
    assert parse_ola_input(write_ola_input(ola)) == ola
    # the limit is put back also when the call raises
    with pytest.raises(InstanceFormatError, match="must be an integer"):
        parse_instance(text.replace(" 1 ", " 1x ", 1))
    assert _digit_limit() == limit


HUGE = 10**5000  # 5,001 digits, past the 4300 that Python prints by default
HUGE_TEXT = "1" + "0" * 5000  # written out, since str(HUGE) itself would raise
PATH3 = Instance(Network(3, ((0, 1, 1), (1, 2, 2))), (RelevantPair(0, 2, 1),))
# a path with a 5000-digit length: a claim of time HUGE for its pair is wrong
LONG_PATH = Instance(Network(3, ((0, 1, 10**4999 + 7), (1, 2, 1))), (RelevantPair(0, 2, 1),))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Network(2, ((HUGE, HUGE, 1),)), InvalidInstanceError),
        (lambda: Network(2, ((0, 1, -HUGE),)), InvalidInstanceError),
        (lambda: Network(-HUGE, ()), InvalidInstanceError),
        (lambda: RelevantPair(0, 1, -HUGE), InvalidInstanceError),
        (lambda: Instance(PATH3.network, (RelevantPair(0, HUGE, 1),)), InvalidInstanceError),
        (lambda: OlaInput(3, (), -HUGE), InvalidInstanceError),
        (lambda: Job(-HUGE, 1), ValueError),
        (lambda: evaluate_sequence(PATH3, (HUGE,)), SequenceError),
        (lambda: validate_sequence(LONG_PATH, (0, 1), ConnectionReport((HUGE,), HUGE)), None),
    ],
    ids=[
        "self-loop", "negative-length", "negative-vertex-count", "negative-weight",
        "pair-out-of-range", "negative-threshold", "negative-processing", "edge-id", "claimed-time",
    ],
)
def test_a_message_names_an_integer_past_the_digit_limit_in_full(call, error):
    limit = _digit_limit()
    if error is None:  # a wrong claim is a verdict, not an error
        verdict = call()
        assert isinstance(verdict, Verdict) and not verdict.ok
        message = "\n".join(verdict.discrepancies)
    else:
        with pytest.raises(error) as caught:
            call()
        message = str(caught.value)
    assert HUGE_TEXT in message
    assert _digit_limit() == limit



@pytest.mark.skipif(not _digit_limit(), reason="this Python has no int-string digit limit")
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the digit limit is process-wide: a thread leaving a wrapped call puts it back "
    "while another thread is still inside one",
)
def test_a_wrapped_call_keeps_the_digit_limit_lifted_while_another_thread_leaves_one():
    # B lifts the limit and waits inside its call; A enters its own call, finds
    # the limit lifted and leaves it; B leaves, putting the limit back, while A,
    # still inside, prints a 5001-digit number
    b_inside, a_inside, b_left, a_printed = (threading.Event() for _ in range(4))
    printed = []

    @exact_digits
    def b_call():
        b_inside.set()
        a_inside.wait(5)

    @exact_digits
    def a_call():
        a_inside.set()
        b_left.wait(5)
        return str(HUGE)

    def run_b():
        b_call()
        b_left.set()

    def run_a():
        b_inside.wait(5)
        try:
            printed.append(a_call())
        except ValueError as exc:
            printed.append(exc)
        a_printed.set()

    limit = _digit_limit()
    threads = [threading.Thread(target=run_b), threading.Thread(target=run_a)]
    for thread in threads:
        thread.start()
    assert a_printed.wait(10)
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert _digit_limit() == limit
    assert printed == [HUGE_TEXT]

def test_instance_rejects_out_of_range_pair_endpoints():
    # the library guard matches the parser's: both ends must lie in 0..n-1
    net = Network(3, ((0, 1, 1), (1, 2, 2)))
    with pytest.raises(InvalidInstanceError, match="out of range"):
        Instance(net, (RelevantPair(-1, 2, 1),))
    with pytest.raises(InvalidInstanceError, match="out of range"):
        Instance(net, (RelevantPair(0, 3, 1),))


def test_instance_rejects_a_pair_that_is_not_a_relevant_pair():
    # tagged with the pair's position, like every other pair rule
    net = Network(3, ((0, 1, 1), (1, 2, 2)))
    with pytest.raises(InvalidInstanceError, match=r"RelevantPair, got \(0, 2, 1\)") as caught:
        Instance(net, (RelevantPair(0, 1, 1), (0, 2, 1)))
    assert caught.value.where == ("pair", 1)


def test_instance_rejects_a_network_that_is_not_a_network():
    with pytest.raises(InvalidInstanceError, match=r"Network, got 'x'"):
        Instance("x", (RelevantPair(0, 1, 1),))


def test_ola_input_invariants():
    with pytest.raises(InvalidInstanceError):
        OlaInput(2, ((0, 0),), 1)
    with pytest.raises(InvalidInstanceError):
        OlaInput(2, ((0, 1), (1, 0)), 1)
    ola = OlaInput(3, ((2, 0), (1, 0)), 0)
    assert ola.edges == ((0, 1), (0, 2))
    for vertices, edges, threshold in ((True, (), 0), (2, ((False, True),), 0), (2, (), False)):
        with pytest.raises(InvalidInstanceError, match="integer"):
            OlaInput(vertices, edges, threshold)


@pytest.mark.parametrize("edge", [(0, 1.5), (0, "1"), (0, 1, 2)])
def test_ola_input_rejects_a_malformed_edge(edge):
    with pytest.raises(InvalidInstanceError):
        OlaInput(3, (edge,), 0)


@pytest.mark.parametrize(
    "build, edge, index",
    [
        (lambda edges: Network(2, edges), 5, 0),
        (lambda edges: Network(2, edges), None, 0),
        (lambda edges: OlaInput(2, edges, 0), {0, 1}, 0),
        (lambda edges: Network(3, [(0, 1, 1)] + edges), 5, 1),
    ],
    ids=["int", "none", "ola-set", "after-a-good-edge"],
)
def test_an_edge_that_is_not_a_sequence_is_refused_with_its_place(build, edge, index):
    with pytest.raises(InvalidInstanceError) as caught:
        build([edge])
    assert repr(edge) in str(caught.value)
    assert caught.value.where == ("edge", index)


@pytest.mark.parametrize(
    "vertices, threshold, edges, line",
    [
        (3, 1, [(0, 1), (2, 2)], 5),
        (3, 1, [(0, 3)], 4),
        (3, 1, [(0, 1), (1, 0)], 5),
        (3, -1, [(0, 1)], 3),
        (0, 1, [], 2),
    ],
)
def test_parse_ola_errors_carry_line_numbers(vertices, threshold, edges, line):
    text = "".join(
        [f"ola 1\nvertices {vertices}\nthreshold {threshold}\n"]
        + [f"edge {u} {v}\n" for u, v in edges]
    )
    with pytest.raises(InvalidInstanceError) as library:
        OlaInput(vertices, tuple(edges), threshold)
    with pytest.raises(InstanceFormatError) as parsed:
        parse_ola_input(text)
    assert str(parsed.value) == f"line {line}: {library.value}"


PATH3_EDGES = [(0, 1, 1), (1, 2, 1)]


@pytest.mark.parametrize(
    "objective, edges, pairs, line",
    [
        ("wct", PATH3_EDGES + [(2, 2, 1)], [(0, 2, 1)], 6),
        ("wct", PATH3_EDGES + [(0, 3, 1)], [(0, 2, 1)], 6),
        ("wct", PATH3_EDGES + [(-1, 2, 1)], [(0, 2, 1)], 6),
        ("wct", PATH3_EDGES + [(0, 2, 0)], [(0, 2, 1)], 6),
        ("wct", PATH3_EDGES + [(2, 1, 4)], [(0, 2, 1)], 6),
        ("wct", PATH3_EDGES, [(0, 2, 1), (1, 1, 1)], 7),
        ("wct", PATH3_EDGES, [(0, 2, 1), (0, 3, 1)], 7),
        ("wct", PATH3_EDGES, [(0, 2, 1), (0, 1, 0)], 7),
        ("wct", PATH3_EDGES, [(0, 2, 1), (2, 0, 3)], 7),
        ("wct", PATH3_EDGES, [(0, 2, 1), (0, 1, 1, 4)], 7),
        ("maxlat", PATH3_EDGES, [(0, 2, 1, 4), (0, 1, 1)], 7),
    ],
)
def test_parser_and_constructors_give_the_same_message(objective, edges, pairs, line):
    text = "".join(
        [f"netcon 1\nobjective {objective}\nvertices 3\n"]
        + ["edge " + " ".join(map(str, e)) + "\n" for e in edges]
        + ["pair " + " ".join(map(str, p)) + "\n" for p in pairs]
    )
    with pytest.raises(InvalidInstanceError) as library:
        Instance(Network(3, tuple(edges)), tuple(RelevantPair(*p) for p in pairs), objective)
    with pytest.raises(InstanceFormatError) as parsed:
        parse_instance(text)
    assert str(parsed.value) == f"line {line}: {library.value}"



@pytest.mark.parametrize(
    "lines, line",
    [
        (["vertices 3", "vertices 2", "threshold 1"], 3),
        (["vertices 3", "threshold 1", "threshold 9"], 4),
    ],
)
def test_parse_ola_rejects_a_repeated_line(lines, line):
    text = "\n".join(["ola 1", *lines, "edge 0 1"]) + "\n"
    with pytest.raises(InstanceFormatError, match=f"line {line}: duplicate"):
        parse_ola_input(text)


def test_instance_helpers():
    inst = parse_instance(PATH4)
    assert inst.terminals == (0, 1, 2, 3)
    assert inst.common_pair_vertex() is None
    depot = Instance(inst.network, (RelevantPair(0, 1, 1), RelevantPair(0, 3, 1)))
    assert depot.common_pair_vertex() == 0


# str.splitlines() also ends a line at each of these; the text formats end one at "\n" alone
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("mark", NOT_LINE_ENDS, ids=[hex(ord(c)) for c in NOT_LINE_ENDS])
def test_line_numbers_count_only_newlines(mark):
    text = f"netcon 1\nobjective wct{mark}\nvertices 2\nedge 0 1 1\npair 0 1 x\n"
    with pytest.raises(InstanceFormatError, match="^line 5: pair weight must be an integer"):
        parse_instance(text)
    ola = f"ola 1\nvertices 2{mark}\nthreshold 0\nedge 0 x\n"
    with pytest.raises(InstanceFormatError, match="^line 4: edge endpoint must be an integer"):
        parse_ola_input(ola)
    instance = parse_instance(MINIMAL)
    solution = f"pair 0 1 t=4{mark}\nobjective 8\nsequence\nx\n"
    with pytest.raises(InstanceFormatError, match="^line 4: edge id must be an integer"):
        parse_solution(instance, solution)


def test_crlf_line_ends_still_parse_with_the_same_line_numbers():
    assert parse_instance(PATH4.replace("\n", "\r\n")) == parse_instance(PATH4)
    with pytest.raises(InstanceFormatError, match="^line 6: "):
        parse_instance(PATH4.replace("edge 2 3 3", "edge 2 3 x").replace("\n", "\r\n"))


def _public_values():
    """Per public value type: a builder (called twice, for two equal values)
    and a value of the same type with one field changed."""
    network = Network(3, ((0, 1, 2), (1, 2, 3)))
    return [
        (lambda: Network(3, ((1, 0, 2), (1, 2, 3))), Network(3, ((0, 1, 2), (1, 2, 4)))),
        (lambda: RelevantPair(2, 0, 1, 5), RelevantPair(0, 2, 1, 6)),
        (lambda: Instance(network, (RelevantPair(0, 2, 1),)), Instance(network, (RelevantPair(0, 1, 1),))),
        (lambda: OlaInput(3, ((1, 0),), 2), OlaInput(3, ((0, 1),), 3)),
        (lambda: Job(2, 3, "t"), Job(2, 4, "t")),
        (lambda: ConnectionReport((1, 2), 3), ConnectionReport((1, 2), 4)),
        (lambda: Verdict(True), Verdict(False)),
    ]


@pytest.mark.parametrize(
    "build, other", _public_values(), ids=[type(other).__name__ for _, other in _public_values()]
)
def test_public_value_types_are_immutable_values(build, other):
    value, twin = build(), build()
    assert value is not twin
    assert value == twin and hash(value) == hash(twin)
    assert value != other and type(other) is type(value)
    assert pickle.loads(pickle.dumps(value)) == value
    name = type(value).__name__
    assert repr(value).startswith(f"{name}(")
    assert all(value != rival for _, rival in _public_values() if type(rival) is not type(value))
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == twin


def test_every_public_value_type_is_covered():
    covered = {type(other) for _, other in _public_values()}
    assert covered == {Network, RelevantPair, Instance, OlaInput, Job, ConnectionReport, Verdict}


def test_texts_read_back_to_equal_values():
    rng = random.Random(23)
    for objective in ("wct", "maxlat"):
        for kind in ("path", "random_graph"):
            inst = generate(kind, 7, seed=rng.randrange(1 << 30), pair_count=4, objective=objective)
            again = parse_instance(write_instance(inst))
            assert again == inst and hash(again) == hash(inst)
    ola = OlaInput(4, ((2, 0), (1, 3), (0, 1)), 5)
    assert parse_ola_input(write_ola_input(ola)) == ola


def test_an_edge_given_as_a_list_is_admitted_as_its_tuple():
    as_lists = Network(3, ([2, 1, 4], [0, 1, 2]))
    assert as_lists == Network(3, ((1, 2, 4), (0, 1, 2)))
    assert as_lists.edges == ((0, 1, 2), (1, 2, 4))
    assert OlaInput(3, ([1, 0],), 0).edges == ((0, 1),)


def test_importing_the_package_and_its_cli_imports_no_dataclasses():
    # in a fresh interpreter, so no earlier import in this process counts
    src = str(pathlib.Path(netcon.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; before = 'dataclasses' in sys.modules; import netcon, netcon.cli; "
        "print(before, 'dataclasses' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    before, after = done.stdout.split()
    if before == "True":
        pytest.skip("this interpreter imports dataclasses before netcon")
    assert after == "False"
