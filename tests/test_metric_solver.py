import dataclasses
import random
from collections import Counter

import pytest

from netcon import (
    GuardExceededError,
    Instance,
    InvalidInstanceError,
    Network,
    RelevantPair,
    evaluate_sequence,
    generate,
    permutation_oracle,
    solve_fixed_r,
    solve_tree,
    subset_dp,
)
import netcon.metric_solver
from netcon.metric_solver import (
    _descend,
    _spanning_forest,
    build_metric_closure,
    enumerate_candidate_forests,
    evaluate_rforest,
    project_to_graph,
    solve_fixed_r_detailed,
    validate_rforest,
)


def _inst(edges, pairs, objective="wct"):
    n = max(x for e in edges for x in e[:2]) + 1
    return Instance(Network(n, tuple(edges)), tuple(RelevantPair(*p) for p in pairs), objective)


SQUARE = _inst(
    [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)],
    [(0, 2, 2), (1, 3, 1)],
)


def _as_maxlat(inst):
    """The same network and pairs under maxlat; a pair with no due date is due at 0."""
    pairs = tuple(dataclasses.replace(p, due=p.due or 0) for p in inst.pairs)
    return Instance(inst.network, pairs, "maxlat")


def _stream(inst):
    return enumerate_candidate_forests(inst, build_metric_closure(inst.network, inst.terminals))


def _brute_shortest(net, source, target):
    best = None
    edges = net.edges

    def walk(at, seen, length):
        nonlocal best
        if at == target:
            best = length if best is None else min(best, length)
            return
        for y, eid in net.adjacency[at]:
            if y not in seen:
                walk(y, seen | {y}, length + edges[eid][2])

    walk(source, {source}, 0)
    return best


def test_closure_prefers_detour_over_long_edge():
    net = Network(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))
    dist = build_metric_closure(net, [0, 2])
    assert dist[0][2] == 2
    assert dist[1][0] == 2  # the row of source 2


def test_closure_on_tree_equals_path_lengths():
    inst = generate("random_tree", 8, seed=4, pair_count=1)
    dist = build_metric_closure(inst.network, range(8))
    for u in range(8):
        for v in range(8):
            if u != v:
                assert dist[u][v] == _brute_shortest(inst.network, u, v)


def test_closure_matches_exhaustive_path_enumeration():
    rng = random.Random(51)
    for _ in range(15):
        n = rng.randint(2, 8)
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            edge_count=rng.randint(n - 1, n * (n - 1) // 2),
            pair_count=1,
        )
        dist = build_metric_closure(inst.network, range(n))
        for u in range(n):
            assert dist[u][u] == 0
            for v in range(u + 1, n):
                want = _brute_shortest(inst.network, u, v)
                assert dist[u][v] == want
                assert dist[v][u] == want


def _walk(network, dist, u, v):
    """Edge ids of the shortest path from v down to u that ``_descend`` walks
    along u's distance row."""
    walked, end = _descend(network, dist[u], v, 1, [0] * network.vertex_count)
    assert end == u
    return walked


def test_extract_path_examples():
    net = Network(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))
    dist = build_metric_closure(net, range(3))
    assert _walk(net, dist, 0, 1) == [0]  # the direct edge is shortest
    assert _walk(net, dist, 0, 2) == [2, 0]  # detour via vertex 1
    assert _walk(net, dist, 2, 0) == [0, 2]


def test_extract_path_matches_distance_on_random_queries():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(3, 9)
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            edge_count=rng.randint(n - 1, n * (n - 1) // 2),
            pair_count=1,
        )
        dist = build_metric_closure(inst.network, range(n))
        for _ in range(10):
            u, v = rng.sample(range(n), 2)
            path = _walk(inst.network, dist, u, v)
            assert sum(inst.network.edges[e][2] for e in path) == dist[u][v]
            assert len(set(path)) == len(path)
            at = v  # the ids chain from v to u
            for e in path:
                a, b, _ = inst.network.edges[e]
                assert at in (a, b)
                at = a + b - at
            assert at == u


def test_candidates_on_terminal_path():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1), (0, 2, 1)])
    for twin in (inst, _as_maxlat(inst)):
        ((_, forest),) = _stream(twin)
        assert forest.edges == ((0, 1), (1, 2))
        assert forest.pair_paths == (((0, 1),), ((0, 1), (1, 2)))


def test_candidates_are_valid_unique_and_junctions_have_degree_3():
    # the stream holds one forest; a vertex of it that ends no pair lies
    # inside a path (degree 2) or is a junction (degree 3 or more)
    rng = random.Random(59)
    junctions = 0
    for _ in range(40):
        n = rng.randint(4, 8)
        objective = rng.choice(("wct", "maxlat"))
        inst = generate("random_graph", n, seed=rng.randrange(1 << 30), pair_count=3, objective=objective)
        ((_, forest),) = _stream(inst)
        validate_rforest(forest, inst.pairs)
        degree = Counter(x for e in forest.edges for x in e)
        inner = [d for x, d in degree.items() if x not in inst.terminals]
        assert all(d >= 2 for d in inner)
        junctions += any(d >= 3 for d in inner)
    assert junctions >= 3


def test_disjoint_pairs_allow_two_component_forest():
    # pairs (0, 1) and (2, 3) on the square: its opposite edges serve them
    inst = _inst(SQUARE.network.edges, [(0, 1, 2), (2, 3, 1)])
    for twin in (inst, _as_maxlat(inst)):
        ((value, forest),) = _stream(twin)
        assert forest.edges == ((0, 1), (2, 3))
        assert value == subset_dp(twin)[0]


def test_evaluate_rforest_weighted_sum():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1), (0, 2, 1)])
    forest = _spanning_forest(inst, [0, 1])
    assert forest.edges == ((0, 1), (1, 2))
    evaluation = evaluate_rforest(forest, inst)
    assert evaluation.value == 3  # serve (0,1) first: 1 + 2; other order gives 4
    assert evaluation.pair_order == (0, 1)
    replay = evaluate_sequence(inst, [inst.network.edge_index[e] for e in evaluation.edge_order])
    assert replay.objective == evaluation.value


def test_evaluate_rforest_single_pair():
    inst = _inst([(0, 1, 4)], [(0, 1, 3)])
    assert evaluate_rforest(_spanning_forest(inst, [0]), inst).value == 12


def test_evaluate_rforest_max_lateness():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1, 1), (0, 2, 1, 2)], "maxlat")
    assert evaluate_rforest(_spanning_forest(inst, [0, 1]), inst).value == 0


def test_projection_identity_when_closure_edge_is_direct():
    inst = _inst([(0, 1, 4)], [(0, 1, 3)])
    ((_, forest),) = _stream(inst)
    assert forest.edges == ((0, 1),)
    assert project_to_graph(forest, inst) == evaluate_rforest(forest, inst)


def test_projection_never_increases_value_on_random_instances():
    # both DPs give network forests, so the projection rescores them unchanged
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(3, 7)
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            pair_count=2,
            objective=rng.choice(("wct", "maxlat")),
        )
        ((value, forest),) = _stream(inst)
        validate_rforest(forest, inst.pairs)
        _assert_network_forest(forest, inst)
        assert project_to_graph(forest, inst).value == value


def test_solve_square():
    seq, report = solve_fixed_r(SQUARE)
    assert report.objective == 7
    assert sorted(seq) == [0, 1, 2, 3]
    assert evaluate_sequence(SQUARE, seq) == report


def test_solve_single_pair_is_shortest_path():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(2, 8)
        inst = generate(
            "random_graph", n, seed=rng.randrange(1 << 30), pair_count=1, weight_range=(1, 9)
        )
        pair = inst.pairs[0]
        (row,) = build_metric_closure(inst.network, [pair.u])
        _, report = solve_fixed_r(inst)
        assert report.objective == pair.weight * row[pair.v]


def test_matches_tree_solver_on_trees():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(3, 8)
        inst = generate("random_tree", n, seed=rng.randrange(1 << 30), pair_count=rng.randint(2, 3))
        _, tree_report = solve_tree(inst, force=True)
        _, metric_report = solve_fixed_r(inst)
        assert metric_report.objective == tree_report.objective


def test_matches_subset_dp_on_random_graphs():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(3, 7)
        m_max = n * (n - 1) // 2
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            edge_count=rng.randint(n - 1, min(12, m_max)),
            pair_count=rng.choice((2, 3)) if m_max >= 3 else 2,
        )
        _, report = solve_fixed_r(inst)
        assert report.objective == subset_dp(inst)[0]


def test_shared_vertex_pairs_match_subset_dp():
    rng = random.Random(79)
    for _ in range(15):
        n = rng.randint(3, 8)
        base = generate("random_graph", n, seed=rng.randrange(1 << 30), pair_count=1)
        depot = rng.randrange(n)
        others = rng.sample([v for v in range(n) if v != depot], min(3, n - 1))
        pairs = tuple(
            RelevantPair(min(depot, v), max(depot, v), rng.randint(1, 5)) for v in others
        )
        inst = Instance(base.network, pairs)
        assert inst.common_pair_vertex() == depot
        _, report = solve_fixed_r(inst)
        assert report.objective == subset_dp(inst)[0]


def test_max_lateness_all_zero_dues_is_makespan_of_last_pair():
    edges = [(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 4)]
    inst = _inst(edges, [(0, 2, 1, 0), (1, 3, 2, 0)], "maxlat")
    _, report = solve_fixed_r(inst)
    assert report.objective == max(report.times)
    assert evaluate_sequence(inst, solve_fixed_r(inst)[0]) == report
    assert report.objective == subset_dp(inst)[0]


def test_matches_subset_dp_on_random_maxlat_instances():
    rng = random.Random(89)
    for _ in range(30):
        n = rng.randint(3, 7)
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            pair_count=2,
            objective="maxlat",
            due_range=(0, 15),
        )
        _, report = solve_fixed_r(inst)
        assert report.objective == subset_dp(inst)[0]


def test_pair_guard():
    net = generate("random_graph", 8, seed=5, pair_count=1).network
    pairs = tuple(RelevantPair(u, v, 1) for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    inst = Instance(net, pairs)
    with pytest.raises(GuardExceededError, match=r"wct subset DP does r! \* 3\^t work"):
        solve_fixed_r(inst)
    with pytest.raises(GuardExceededError, match=r"maxlat subset DP keeps Pareto labels over 2\^t"):
        solve_fixed_r(_as_maxlat(inst))
    depot_pairs = tuple(RelevantPair(0, v, 1) for v in range(1, 6))
    depot_inst = Instance(net, depot_pairs)
    # five pairs sharing vertex 0 fit under the wider depot bound
    _, report = solve_fixed_r(depot_inst)
    assert report.objective == subset_dp(depot_inst)[0]
    # an explicit bound overrides the default either way
    with pytest.raises(GuardExceededError):
        solve_fixed_r(depot_inst, max_pairs=4)
    assert solve_fixed_r(inst, max_pairs=5)[1].objective == subset_dp(inst)[0]


def _assert_network_forest(forest, inst):
    """The forest's edges are network edges with their network lengths, and
    every vertex of it that ends no pair has degree at least 2."""
    network = inst.network
    index = network.edge_index
    assert set(forest.edges) <= set(index)
    assert forest.lengths == tuple(network.edges[index[e]][2] for e in forest.edges)
    degree = Counter(x for e in forest.edges for x in e)
    assert all(d >= 2 for x, d in degree.items() if x not in inst.terminals)


def test_wct_needs_no_closure_and_no_scan(monkeypatch):
    # the only single-source Dijkstra runs start at the pair endpoints, once each
    inst = _inst(
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (3, 4, 1), (4, 5, 2), (2, 5, 1)],
        [(0, 2, 2), (1, 3, 1)],
    )
    sources = []
    original = netcon.metric_solver._dijkstra

    def recorded(network, labels, factor):
        if len(labels) == 1:
            sources.extend(labels)
        return original(network, labels, factor)

    monkeypatch.setattr(netcon.metric_solver, "_dijkstra", recorded)
    for twin, want in ((inst, 7), (_as_maxlat(inst), 3)):
        sources.clear()
        solution = solve_fixed_r_detailed(twin)
        assert sorted(sources) == [0, 1, 2, 3]
        assert solution.report.objective == solution.evaluation.value == want
        _assert_network_forest(solution.forest, twin)


def test_spanning_forest_paths_run_from_u_to_v():
    # edge ids 2, 3, 1 build 1-2, 2-3, 0-3; edge 0 (0-1) would close a cycle
    forest = _spanning_forest(SQUARE, [2, 3, 1, 0])
    assert forest.edges == ((0, 3), (1, 2), (2, 3))
    assert forest.pair_paths == (((0, 3), (2, 3)), ((1, 2), (2, 3)))
    with pytest.raises(InvalidInstanceError, match=r"does not connect \(1, 3\)"):
        _spanning_forest(SQUARE, [0, 2])


def test_solution_is_deterministic():
    first = solve_fixed_r_detailed(SQUARE)
    second = solve_fixed_r_detailed(SQUARE)
    assert first.sequence == second.sequence
    assert first.forest.edges == second.forest.edges


def _pendant_junction_instance():
    # square of terminals 0-3; vertex 4 hangs off 0 and has degree 3 only
    # through its two pendant non-terminal leaves 5 and 6
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 4, 1), (4, 5, 1), (4, 6, 1)]
    return _inst(edges, [(0, 2, 2), (1, 3, 1)])


def test_pendant_only_neighbours_never_make_a_junction():
    inst = _pendant_junction_instance()
    assert inst.network.degrees[4] == 3
    for twin in (inst, _as_maxlat(inst)):
        solution = solve_fixed_r_detailed(twin)
        assert 4 not in {x for e in solution.forest.edges for x in e}
        assert solution.report.objective == subset_dp(twin)[0]


def _pendant_and_chain_instance(rng, objective, depot):
    """A small random core with pendant trees hung on it and edges split
    into degree-2 chains; pairs may end anywhere, pendants included."""
    core = rng.randint(3, 4)
    edges = {}
    for v in range(1, core):
        edges[(rng.randrange(v), v)] = rng.randint(1, 6)
    for _ in range(rng.randint(0, 2)):
        u, v = sorted(rng.sample(range(core), 2))
        edges.setdefault((u, v), rng.randint(1, 6))
    n = core
    for (u, v) in rng.sample(sorted(edges), min(2, len(edges))):
        # split u-v into a chain u-x-v
        length = edges.pop((u, v))
        edges[(u, n)] = rng.randint(1, 6)
        edges[(n, v) if n < v else (v, n)] = length
        n += 1
    for _ in range(rng.randint(1, 3)):
        edges[(rng.randrange(n), n)] = rng.randint(1, 6)
        n += 1
    network = Network(n, tuple((u, v, c) for (u, v), c in edges.items()))
    r = rng.randint(1, 3)
    if depot:
        hub = rng.randrange(n)
        ends = [(hub, x) for x in rng.sample([x for x in range(n) if x != hub], r)]
    else:
        population = [(u, v) for u in range(n) for v in range(u + 1, n)]
        ends = rng.sample(population, r)
    pairs = tuple(
        RelevantPair(u, v, rng.randint(1, 5), rng.randint(0, 20) if objective == "maxlat" else None)
        for u, v in ends
    )
    return Instance(network, pairs, objective)


@pytest.mark.parametrize(
    "objective, depot", [("wct", False), ("maxlat", False), ("wct", True), ("maxlat", True)]
)
def test_pendant_and_chain_graphs_match_the_oracles(objective, depot):
    rng = random.Random(f"kernel/{objective}/{depot}")
    permutation_checked = 0
    for _ in range(25):
        inst = _pendant_and_chain_instance(rng, objective, depot)
        _, report = solve_fixed_r(inst)
        assert report.objective == subset_dp(inst)[0]
        if inst.network.edge_count <= 7:
            assert report.objective == permutation_oracle(inst)
            permutation_checked += 1
    assert permutation_checked >= 3


def _stream_instance(rng, objective, depot):
    n = rng.randint(4, 7)
    r = rng.randint(1, 3)
    if depot:
        hub, *others = rng.sample(range(n), r + 1)
        ends = [(hub, x) for x in others]
    else:
        ends = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], r)
    pairs = [
        (u, v, rng.randint(1, 5)) + ((rng.randint(0, 30),) if objective == "maxlat" else ())
        for u, v in ends
    ]
    return generate(
        "random_graph",
        n,
        seed=rng.randrange(1 << 30),
        edge_count=rng.randint(n - 1, n * (n - 1) // 2),
        pairs=pairs,
        objective=objective,
    )


@pytest.mark.parametrize(
    "objective, depot", [("wct", False), ("maxlat", False), ("wct", True), ("maxlat", True)]
)
def test_stream_is_one_optimal_network_forest(objective, depot):
    rng = random.Random(f"stream/{objective}/{depot}")
    with_junctions = oracle_checked = 0
    for _ in range(20):
        inst = _stream_instance(rng, objective, depot)
        ((value, forest),) = _stream(inst)
        assert value == evaluate_rforest(forest, inst).value
        validate_rforest(forest, inst.pairs)
        _assert_network_forest(forest, inst)
        terminals = set(inst.terminals)
        with_junctions += any(x not in terminals for e in forest.edges for x in e)
        if inst.network.edge_count <= 12:
            assert value == subset_dp(inst)[0]
            oracle_checked += 1
        assert solve_fixed_r_detailed(inst).forest == forest
    assert with_junctions >= 3
    assert oracle_checked >= 10


def test_two_pairs_with_distinct_ends_can_need_two_junctions():
    # an H: pairs (0, 1) and (2, 3) meet only along the bar 4-5
    inst = _inst([(0, 4, 1), (2, 4, 1), (4, 5, 1), (1, 5, 1), (3, 5, 1)], [(0, 1, 1), (2, 3, 1)])
    assert inst.terminals == (0, 1, 2, 3)
    for twin in (inst, _as_maxlat(inst)):
        forest = solve_fixed_r_detailed(twin).forest
        assert {x for e in forest.edges for x in e} == {0, 1, 2, 3, 4, 5}
        assert solve_fixed_r(twin)[1].objective == subset_dp(twin)[0]


def test_solve_replays_only_the_winner_and_its_projection(monkeypatch):
    inst = _inst(
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)], [(0, 2, 2, 2), (1, 3, 1, 4)], "maxlat"
    )
    calls = []
    original = netcon.metric_solver.evaluate_rforest

    def counted(forest, instance):
        calls.append(forest)
        return original(forest, instance)

    monkeypatch.setattr(netcon.metric_solver, "evaluate_rforest", counted)
    solution = solve_fixed_r_detailed(inst)
    assert calls == [solution.forest, solution.forest]


def _oracle_instance(rng, n, r, shared, lengths, max_edges, due=None):
    """A random graph with r pairs: a wct instance, or a maxlat one whose due
    dates ``due()`` draws."""
    if shared:
        # pairs among r + 1 endpoints, so some ends are shared
        ends = rng.sample(range(n), min(n, r + 1))
        pairs = rng.sample([(u, v) for u in ends for v in ends if u < v], r)
    else:
        flat = rng.sample(range(n), 2 * r)
        pairs = list(zip(flat[::2], flat[1::2]))
    return generate(
        "random_graph",
        n,
        seed=rng.randrange(1 << 30),
        edge_count=rng.randint(n - 1, min(max_edges, n * (n - 1) // 2)),
        pairs=[(min(p), max(p), rng.randint(1, 9)) + (() if due is None else (due(),)) for p in pairs],
        length_range=lengths,
        objective="wct" if due is None else "maxlat",
    )


def _check_against_subset_dp(inst, force=False):
    solution = solve_fixed_r_detailed(inst, force=force)
    want = subset_dp(inst, force=True)[0]
    assert solution.evaluation.value == solution.report.objective == want
    assert evaluate_sequence(inst, solution.sequence) == solution.report


def test_wct_subset_dp_matches_the_edge_subset_oracle():
    rng = random.Random(107)
    shared = 0
    for trial in range(150):
        n = rng.randint(3, 8)
        with_shared = rng.random() < 0.4
        r = rng.randint(1, min(4, n * (n - 1) // 2, n - 1 if with_shared else n // 2))
        inst = _oracle_instance(rng, n, r, with_shared, rng.choice([(1, 3), (1, 20)]), 13)
        shared += len(inst.terminals) < 2 * r
        _check_against_subset_dp(inst)
    assert shared >= 40


def test_wct_subset_dp_reaches_four_general_pairs_on_nine_vertices():
    rng = random.Random(109)
    for _ in range(4):
        inst = _oracle_instance(rng, 9, 4, False, (1, 20), 16)
        assert len(inst.terminals) == 8
        _check_against_subset_dp(inst)


def _due_dates(rng):
    """Due dates spread out, all tied, or near -10^18 and 10^18."""
    kind = rng.randrange(3)
    if kind == 0:
        return lambda: rng.randint(0, 40)
    if kind == 1:
        tied = rng.randint(0, 40)
        return lambda: tied
    return lambda: rng.choice((-(10**18), 10**18)) + rng.randint(0, 40)


def test_maxlat_dp_matches_the_edge_subset_oracle(monkeypatch):
    # the forest read back keeps every edge it reads: none twice, none that
    # closes a cycle and none on no pair's path
    original = netcon.metric_solver._spanning_forest

    def exact(instance, edge_ids):
        forest = original(instance, edge_ids)
        assert len(forest.edges) == len(edge_ids)
        return forest

    monkeypatch.setattr(netcon.metric_solver, "_spanning_forest", exact)
    # the second pair's due date leaves slack: a read-back that routes it over
    # 1-2 closes a cycle with the first pair's edges
    _check_against_subset_dp(
        _inst([(0, 1, 2), (0, 2, 2), (1, 2, 2), (2, 3, 2)], [(1, 3, 4, 4), (2, 3, 2, 24)], "maxlat")
    )
    rng = random.Random(113)
    shared = unit = 0
    for trial in range(160):
        n = rng.randint(3, 9)
        with_shared = rng.random() < 0.4
        r = rng.randint(1, min(5, n * (n - 1) // 2, n - 1 if with_shared else n // 2))
        lengths = rng.choice([(1, 1), (1, 3), (1, 20)])
        inst = _oracle_instance(rng, n, r, with_shared, lengths, 13, _due_dates(rng))
        shared += len(inst.terminals) < 2 * r
        unit += lengths == (1, 1)
        _check_against_subset_dp(inst, force=True)
    assert shared >= 40 and unit >= 40


def test_maxlat_dp_reaches_four_general_pairs_on_nine_vertices():
    rng = random.Random(127)
    for _ in range(2):
        inst = _oracle_instance(rng, 9, 4, False, (1, 20), 16, _due_dates(rng))
        assert len(inst.terminals) == 8
        _check_against_subset_dp(inst)


def test_maxlat_dp_reaches_six_depot_pairs():
    rng = random.Random(137)
    for _ in range(2):
        hub, *others = rng.sample(range(10), 7)
        inst = generate(
            "random_graph",
            10,
            seed=rng.randrange(1 << 30),
            edge_count=rng.randint(12, 16),
            pairs=[(min(hub, x), max(hub, x), rng.randint(1, 9), rng.randint(0, 60)) for x in others],
            length_range=(1, 20),
            objective="maxlat",
        )
        assert inst.common_pair_vertex() == hub
        _check_against_subset_dp(inst)
