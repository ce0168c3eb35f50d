import random
import tracemalloc

import pytest

from netcon import (
    Instance,
    InstanceFormatError,
    InvalidInstanceError,
    Network,
    Objective,
    OlaInput,
    RelevantPair,
    generate,
    parse_instance,
    parse_ola_input,
    reduce_ola,
    subset_dp,
    write_instance,
)

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
    assert inst.network.degrees[0] == 3


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


def test_network_invariants():
    with pytest.raises(InvalidInstanceError):
        Network(2, ((0, 0, 1),))
    with pytest.raises(InvalidInstanceError):
        Network(3, ((0, 1, 1),))  # vertex 2 unreachable
    with pytest.raises(InvalidInstanceError):
        Network(2, ((0, 1, 1), (1, 0, 2)))
    assert Network(1, ()).is_tree  # zero edges, one vertex


def test_instance_rejects_out_of_range_pair_endpoints():
    # the library guard matches the parser's: both ends must lie in 0..n-1
    net = Network(3, ((0, 1, 1), (1, 2, 2)))
    with pytest.raises(InvalidInstanceError, match="out of range"):
        Instance(net, (RelevantPair(-1, 2, 1),))
    with pytest.raises(InvalidInstanceError, match="out of range"):
        Instance(net, (RelevantPair(0, 3, 1),))


def test_ola_input_invariants():
    with pytest.raises(InvalidInstanceError):
        OlaInput(2, ((0, 0),), 1)
    with pytest.raises(InvalidInstanceError):
        OlaInput(2, ((0, 1), (1, 0)), 1)
    ola = OlaInput(3, ((2, 0), (1, 0)), 0)
    assert ola.edges == ((0, 1), (0, 2))


@pytest.mark.parametrize("edge", [(0, 1.5), (0, "1"), (0, 1, 2)])
def test_ola_input_rejects_a_malformed_edge(edge):
    with pytest.raises(InvalidInstanceError):
        OlaInput(3, (edge,), 0)


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
