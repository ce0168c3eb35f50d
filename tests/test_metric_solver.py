import random

import pytest

from netcon import (
    GuardExceededError,
    Instance,
    Network,
    RelevantPair,
    UnsupportedInstanceError,
    build_metric_closure,
    enumerate_candidate_forests,
    evaluate_rforest,
    evaluate_sequence,
    extract_path,
    generate,
    permutation_oracle,
    project_to_graph,
    solve_fixed_r,
    solve_fixed_r_detailed,
    solve_tree,
    subset_dp,
)
from netcon.metric_solver import _component_trees, _template, validate_rforest


def _inst(edges, pairs, objective="wct"):
    n = max(x for e in edges for x in e[:2]) + 1
    return Instance(Network(n, tuple(edges)), tuple(RelevantPair(*p) for p in pairs), objective)


SQUARE = _inst(
    [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)],
    [(0, 2, 2), (1, 3, 1)],
)


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
    closure = build_metric_closure(net)
    assert closure.dist[0][2] == 2
    assert closure.dist[2][0] == 2


def test_closure_on_tree_equals_path_lengths():
    inst = generate("random_tree", 8, seed=4, pair_count=1)
    closure = build_metric_closure(inst.network)
    for u in range(8):
        for v in range(8):
            if u != v:
                assert closure.dist[u][v] == _brute_shortest(inst.network, u, v)


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
        closure = build_metric_closure(inst.network)
        for u in range(n):
            assert closure.dist[u][u] == 0
            for v in range(u + 1, n):
                want = _brute_shortest(inst.network, u, v)
                assert closure.dist[u][v] == want
                assert closure.dist[v][u] == want


def test_extract_path_examples():
    net = Network(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))
    closure = build_metric_closure(net)
    assert extract_path(closure, 0, 1) == [0]  # the direct edge is shortest
    assert extract_path(closure, 0, 2) == [0, 2]  # detour via vertex 1


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
        closure = build_metric_closure(inst.network)
        for _ in range(10):
            u, v = rng.sample(range(n), 2)
            path = extract_path(closure, u, v)
            assert sum(inst.network.edges[e][2] for e in path) == closure.dist[u][v]
            assert len(set(path)) == len(path)


def test_candidates_on_terminal_path():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1), (0, 2, 1)])
    closure = build_metric_closure(inst.network)
    candidates = list(enumerate_candidate_forests(inst, closure))
    assert [c.edges for c in candidates] == [
        ((0, 1), (0, 2)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 2)),
    ]


def test_disjoint_pairs_allow_two_component_forest():
    closure = build_metric_closure(SQUARE.network)
    candidates = [c.edges for c in enumerate_candidate_forests(SQUARE, closure)]
    assert ((0, 2), (1, 3)) in candidates


def test_candidates_are_valid_unique_and_junctions_have_degree_3():
    rng = random.Random(59)
    for _ in range(10):
        n = rng.randint(3, 7)
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            pair_count=min(2, n * (n - 1) // 2),
        )
        closure = build_metric_closure(inst.network)
        seen = set()
        terminals = set(inst.terminals)
        for forest in enumerate_candidate_forests(inst, closure):
            validate_rforest(forest, inst.pairs)
            assert forest.edges not in seen
            seen.add(forest.edges)
            degree = {}
            for u, v in forest.edges:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            for vertex, d in degree.items():
                if vertex not in terminals:
                    assert d >= 3
        assert seen


def test_evaluate_rforest_weighted_sum():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1), (0, 2, 1)])
    closure = build_metric_closure(inst.network)
    forest = [
        c for c in enumerate_candidate_forests(inst, closure) if c.edges == ((0, 1), (1, 2))
    ][0]
    evaluation = evaluate_rforest(forest, inst)
    assert evaluation.value == 3  # serve (0,1) first: 1 + 2; other order gives 4
    assert evaluation.pair_order == (0, 1)
    replay = evaluate_sequence(inst, [inst.network.edge_index[e] for e in evaluation.edge_order])
    assert replay.objective == evaluation.value


def test_evaluate_rforest_single_pair():
    inst = _inst([(0, 1, 4)], [(0, 1, 3)])
    closure = build_metric_closure(inst.network)
    forest = next(enumerate_candidate_forests(inst, closure))
    assert evaluate_rforest(forest, inst).value == 12


def test_evaluate_rforest_max_lateness():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1, 1), (0, 2, 1, 2)], "maxlat")
    closure = build_metric_closure(inst.network)
    forest = [
        c for c in enumerate_candidate_forests(inst, closure) if c.edges == ((0, 1), (1, 2))
    ][0]
    assert evaluate_rforest(forest, inst).value == 0


def test_metric_evaluations_replay_exactly_on_the_closure_network():
    # materialize the closure as a complete network and rebuild each winner's
    # order there: the replayed objective must reproduce the charged value
    rng = random.Random(83)
    for _ in range(10):
        n = rng.randint(3, 6)
        inst = generate("random_graph", n, seed=rng.randrange(1 << 30), pair_count=2)
        closure = build_metric_closure(inst.network)
        complete = Network(
            n,
            tuple(
                (u, v, closure.dist[u][v]) for u in range(n) for v in range(u + 1, n)
            ),
        )
        closure_inst = Instance(complete, inst.pairs)
        for forest in enumerate_candidate_forests(inst, closure):
            evaluation = evaluate_rforest(forest, inst)
            seq = [complete.edge_index[e] for e in evaluation.edge_order]
            assert evaluate_sequence(closure_inst, seq).objective == evaluation.value


def test_projection_identity_when_closure_edge_is_direct():
    inst = _inst([(0, 1, 4)], [(0, 1, 3)])
    closure = build_metric_closure(inst.network)
    forest = next(enumerate_candidate_forests(inst, closure))
    evaluation = evaluate_rforest(forest, inst)
    projected, projected_eval = project_to_graph(forest, evaluation, closure, inst)
    assert projected.edges == forest.edges
    assert projected_eval.value == evaluation.value


def test_projection_square_trace():
    closure = build_metric_closure(SQUARE.network)
    forest = [
        c for c in enumerate_candidate_forests(SQUARE, closure) if c.edges == ((0, 2), (1, 3))
    ][0]
    evaluation = evaluate_rforest(forest, SQUARE)
    assert evaluation.value == 8
    projected, projected_eval = project_to_graph(forest, evaluation, closure, SQUARE)
    # (0,2) expands to 0-1-2; (1,3) walks 1-0-3, reusing (0,1) and adding (0,3)
    assert projected.edges == ((0, 1), (0, 3), (1, 2))
    assert projected_eval.value <= evaluation.value


def test_projection_never_increases_value_on_random_instances():
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
        closure = build_metric_closure(inst.network)
        for forest in enumerate_candidate_forests(inst, closure):
            evaluation = evaluate_rforest(forest, inst)
            projected, projected_eval = project_to_graph(forest, evaluation, closure, inst)
            validate_rforest(projected, inst.pairs)
            assert projected_eval.value <= evaluation.value


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
        closure = build_metric_closure(inst.network)
        pair = inst.pairs[0]
        _, report = solve_fixed_r(inst)
        assert report.objective == pair.weight * closure.dist[pair.u][pair.v]


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


def test_depot_mode_agrees_with_general_mode():
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
        _, general = solve_fixed_r(inst)
        _, depot_report = solve_fixed_r(inst, depot_mode=True)
        assert general.objective == depot_report.objective


def test_depot_mode_requires_common_vertex():
    with pytest.raises(UnsupportedInstanceError):
        solve_fixed_r(SQUARE, depot_mode=True)


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
    with pytest.raises(GuardExceededError):
        solve_fixed_r(inst)
    depot_pairs = tuple(RelevantPair(0, v, 1) for v in range(1, 6))
    depot_inst = Instance(net, depot_pairs)
    # five pairs sharing vertex 0 fit under the wider depot bound
    _, report = solve_fixed_r(depot_inst, depot_mode=True)
    assert report.objective == subset_dp(depot_inst)[0]


def test_solution_is_deterministic():
    first = solve_fixed_r_detailed(SQUARE)
    second = solve_fixed_r_detailed(SQUARE)
    assert first.sequence == second.sequence
    assert first.metric_forest.edges == second.metric_forest.edges


def _map_template(trees, vertices, group):
    """Map slot templates onto vertices: (sorted edges, paths by pair index)."""
    out = []
    for tree_edges, tree_paths in trees:
        edges = []
        for a, b in zip(tree_edges[::2], tree_edges[1::2]):
            x, y = vertices[a], vertices[b]
            edges.append((x, y) if x < y else (y, x))
        paths = {i: tuple(edges[eid] for eid in ids) for i, ids in zip(group, tree_paths)}
        out.append((tuple(sorted(edges)), tuple(sorted(paths.items()))))
    return out


def test_templates_map_to_the_direct_component_trees():
    rng = random.Random(97)
    checked = 0
    for _ in range(60):
        n = 12
        count = rng.randint(1, 3)
        population = [(u, v) for u in range(n) for v in range(u + 1, n)]
        group_pairs = [
            (i, RelevantPair(u, v, 1)) for i, (u, v) in enumerate(rng.sample(population, count))
        ]
        ends = sorted({x for _, p in group_pairs for x in p.key})
        others = [v for v in range(n) if v not in ends]
        junctions = rng.sample(others, rng.randint(0, min(3, 2 * count - 2)))
        # any slot order works, not only first appearance
        slot_ends = rng.sample(ends, len(ends))
        slot_junctions = rng.sample(junctions, len(junctions))
        slot = {v: i for i, v in enumerate(slot_ends)}
        pair_slots = tuple((slot[p.u], slot[p.v]) for _, p in group_pairs)
        trees = _template(pair_slots, len(ends), len(junctions))
        mapped = _map_template(trees, slot_ends + slot_junctions, [i for i, _ in group_pairs])
        direct = [
            (tuple(sorted(edges)), tuple(sorted(paths.items())))
            for edges, paths in _component_trees(
                tuple(sorted(ends + junctions)), frozenset(junctions), group_pairs
            )
        ]
        assert len(mapped) == len(set(mapped))
        assert set(mapped) == set(direct)
        checked += bool(direct)
    assert checked > 20


def _pendant_junction_instance():
    # square of terminals 0-3; vertex 4 hangs off 0 and has degree 3 only
    # through its two pendant non-terminal leaves 5 and 6
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 4, 1), (4, 5, 1), (4, 6, 1)]
    return _inst(edges, [(0, 2, 2), (1, 3, 1)])


def test_kernel_degrees_prune_pendant_non_terminals():
    inst = _pendant_junction_instance()
    assert inst.network.degrees[4] == 3
    assert inst.network.kernel_degrees(inst.terminals) == [2, 2, 2, 2, 0, 0, 0]
    # a kept vertex is never pruned, even when pendant
    assert inst.network.kernel_degrees([0, 1, 2, 3, 5]) == [3, 2, 2, 2, 2, 1, 0]


def test_pendant_only_neighbours_never_make_a_junction():
    inst = _pendant_junction_instance()
    closure = build_metric_closure(inst.network)
    candidates = list(enumerate_candidate_forests(inst, closure))
    assert candidates
    assert all(4 not in {x for e in c.edges for x in e} for c in candidates)
    assert solve_fixed_r(inst)[1].objective == subset_dp(inst)[0]


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
        _, report = solve_fixed_r(inst, depot_mode=depot)
        assert report.objective == subset_dp(inst)[0]
        if inst.network.edge_count <= 7:
            assert report.objective == permutation_oracle(inst)
            permutation_checked += 1
    assert permutation_checked >= 3
