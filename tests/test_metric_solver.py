import dataclasses
import itertools
import random
from collections import Counter
from functools import partial

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
    _forest_shapes,
    _spanning_forest,
    build_metric_closure,
    enumerate_candidate_forests,
    evaluate_rforest,
    extract_path,
    project_to_graph,
    scored_candidates,
    solve_fixed_r_detailed,
    validate_rforest,
)
from netcon.unionfind import UnionFind


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


def _all_candidates(inst, closure):
    """Every candidate forest of the pairs, in order: the full listing that
    ``enumerate_candidate_forests`` filters down to the forests that can win
    under maxlat.  Only maxlat is scanned, but the forests do not depend on
    the objective, so a wct instance is listed as its maxlat twin."""
    return [build() for _, build in scored_candidates(_as_maxlat(inst), closure)]


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
            at = u  # the ids chain from u to v
            for e in path:
                a, b, _ = inst.network.edges[e]
                assert at in (a, b)
                at = a + b - at
            assert at == v


def test_candidates_on_terminal_path():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1), (0, 2, 1)])
    closure = build_metric_closure(inst.network)
    candidates = _all_candidates(inst, closure)
    assert [c.edges for c in candidates] == [
        ((0, 1), (0, 2)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 2)),
    ]


def test_disjoint_pairs_allow_two_component_forest():
    closure = build_metric_closure(SQUARE.network)
    candidates = [c.edges for c in _all_candidates(SQUARE, closure)]
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
        for forest in _all_candidates(inst, closure):
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
        c for c in _all_candidates(inst, closure) if c.edges == ((0, 1), (1, 2))
    ][0]
    evaluation = evaluate_rforest(forest, inst)
    assert evaluation.value == 3  # serve (0,1) first: 1 + 2; other order gives 4
    assert evaluation.pair_order == (0, 1)
    replay = evaluate_sequence(inst, [inst.network.edge_index[e] for e in evaluation.edge_order])
    assert replay.objective == evaluation.value


def test_evaluate_rforest_single_pair():
    inst = _inst([(0, 1, 4)], [(0, 1, 3)])
    closure = build_metric_closure(inst.network)
    (forest,) = _all_candidates(inst, closure)
    assert evaluate_rforest(forest, inst).value == 12


def test_evaluate_rforest_max_lateness():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1, 1), (0, 2, 1, 2)], "maxlat")
    closure = build_metric_closure(inst.network)
    forest = [
        c for c in _all_candidates(inst, closure) if c.edges == ((0, 1), (1, 2))
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
        for forest in _all_candidates(inst, closure):
            evaluation = evaluate_rforest(forest, inst)
            seq = [complete.edge_index[e] for e in evaluation.edge_order]
            assert evaluate_sequence(closure_inst, seq).objective == evaluation.value


def test_projection_identity_when_closure_edge_is_direct():
    inst = _inst([(0, 1, 4)], [(0, 1, 3)])
    closure = build_metric_closure(inst.network)
    (forest,) = _all_candidates(inst, closure)
    evaluation = evaluate_rforest(forest, inst)
    route = partial(extract_path, closure)
    projected, projected_eval = project_to_graph(forest, evaluation, route, inst)
    assert projected.edges == forest.edges
    assert projected_eval.value == evaluation.value


def test_projection_square_trace():
    closure = build_metric_closure(SQUARE.network)
    forest = [
        c for c in _all_candidates(SQUARE, closure) if c.edges == ((0, 2), (1, 3))
    ][0]
    evaluation = evaluate_rforest(forest, SQUARE)
    assert evaluation.value == 8
    route = partial(extract_path, closure)
    projected, projected_eval = project_to_graph(forest, evaluation, route, SQUARE)
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
        for forest in _all_candidates(inst, closure):
            evaluation = evaluate_rforest(forest, inst)
            route = partial(extract_path, closure)
            projected, projected_eval = project_to_graph(forest, evaluation, route, inst)
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
    with pytest.raises(GuardExceededError, match=r"maxlat candidate count grows like n\^\(t-2\)"):
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
    def forbidden(*args, **kwargs):
        raise AssertionError("the wct route called the closure or the scan")

    monkeypatch.setattr(netcon.metric_solver, "build_metric_closure", forbidden)
    monkeypatch.setattr(netcon.metric_solver, "scored_candidates", forbidden)
    solution = solve_fixed_r_detailed(SQUARE)
    assert solution.report.objective == solution.metric_evaluation.value == 7
    # the DP's forest is made of network edges, so it projects onto itself
    _assert_network_forest(solution.metric_forest, SQUARE)
    assert solution.projected_forest == solution.metric_forest


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
    assert first.metric_forest.edges == second.metric_forest.edges


def _tree_path(edges, source, target):
    """Edges of the path from source to target in a tree, in walking order."""
    def walk(at, came_from):
        if at == target:
            return []
        for edge in edges:
            if at in edge and edge != came_from:
                rest = walk(edge[0] + edge[1] - at, edge)
                if rest is not None:
                    return [edge] + rest
        return None

    return tuple(walk(source, None))


def _brute_force_shapes(pair_slots, t, junctions):
    """Forest shapes on endpoint slots 0..t-1 plus ``junctions`` junction
    slots, as (sorted edges, each pair's path in walking order), found by
    trying every edge subset: keep the forests that join every pair, have
    every edge on a pair's path and give every junction degree >= 3."""
    n = t + junctions
    slots = [(a, b) for a in range(n) for b in range(a + 1, n)]
    atoms = UnionFind(t)
    groups = t - sum(atoms.union(a, b) for a, b in pair_slots)
    found = set()
    # a forest joining every pair has no more components than the pairs have
    # groups of shared endpoints
    for size in range(n - groups, n):
        for edges in itertools.combinations(slots, size):
            degree = [0] * n
            for a, b in edges:
                degree[a] += 1
                degree[b] += 1
            if min(degree[t:], default=3) < 3:
                continue
            uf = UnionFind(n)
            if not all(uf.union(a, b) for a, b in edges):
                continue  # a cycle
            if not all(uf.connected(a, b) for a, b in pair_slots):
                continue
            paths = tuple(_tree_path(edges, a, b) for a, b in pair_slots)
            if {edge for path in paths for edge in path} == set(edges):
                found.add((edges, paths))
    return found


def test_forest_shapes_match_a_brute_force_over_edge_subsets():
    rng = random.Random(97)
    checked = 0
    for _ in range(40):
        t = rng.randint(2, 5)
        population = list(itertools.combinations(range(t), 2))
        pair_slots = []
        while {x for pair in pair_slots for x in pair} != set(range(t)):
            pair_slots = rng.sample(population, rng.randint(1, min(4, len(population))))
            rng.shuffle(pair_slots)
        labelled = []
        for size, slot_edges, paths in _forest_shapes(pair_slots, t, 2):
            # every way to label the shape's junction slots
            for labels in itertools.permutations(range(t, t + size)):
                name = list(range(t)) + list(labels)
                edges = [tuple(sorted((name[a], name[b]))) for a, b in slot_edges]
                labelled.append(
                    (tuple(sorted(edges)), tuple(tuple(edges[e] for e in path) for path in paths))
                )
        direct = set()
        for junctions in range(3):
            direct |= _brute_force_shapes(pair_slots, t, junctions)
        assert len(labelled) == len(set(labelled))
        assert set(labelled) == direct
        checked += any(x >= t for edges, _ in direct for edge in edges for x in edge)
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
    candidates = _all_candidates(inst, closure)
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
def test_stream_keeps_every_minimum_and_never_a_worse_value(objective, depot):
    rng = random.Random(f"stream/{objective}/{depot}")
    with_junctions = oracle_checked = 0
    for _ in range(20):
        inst = _stream_instance(rng, objective, depot)
        closure = build_metric_closure(inst.network)
        if objective == "wct":
            listing = [(evaluate_rforest(f, inst).value, f) for f in _all_candidates(inst, closure)]
        else:
            listing = [(value, build()) for value, build in scored_candidates(inst, closure)]
            for value, forest in listing:
                assert value == evaluate_rforest(forest, inst).value
        terminals = set(inst.terminals)
        with_junctions += any(x not in terminals for _, f in listing for e in f.edges for x in e)
        low = min(value for value, _ in listing)
        if objective == "wct":
            # the stream is the subset DP's one forest, optimal over the listing
            ((value, forest),) = enumerate_candidate_forests(inst)
            assert value == evaluate_rforest(forest, inst).value == low
            if inst.network.edge_count <= 12:
                assert value == subset_dp(inst)[0]
                oracle_checked += 1
            validate_rforest(forest, inst.pairs)
            _assert_network_forest(forest, inst)
            solution = solve_fixed_r_detailed(inst)
            assert solution.metric_forest == forest
            assert solution.projected_forest == solution.metric_forest
            continue
        stream = list(enumerate_candidate_forests(inst, closure))
        values = [value for value, _ in stream]
        assert values == [evaluate_rforest(f, inst).value for _, f in stream]
        assert all(v <= min(values[:i]) for i, v in enumerate(values) if i)
        assert {f.edges for value, f in listing if value == low} <= {f.edges for _, f in stream}
        want = min((value, f.edges) for value, f in listing)[1]
        assert solve_fixed_r_detailed(inst).metric_forest.edges == want
    assert with_junctions >= 3
    assert oracle_checked >= 10 or objective == "maxlat"


def test_no_forest_shape_has_more_than_t_minus_2_junctions():
    # pairs drawn among few vertices, so endpoints are often shared
    rng = random.Random(101)
    shared = 0
    for _ in range(100):
        ends = rng.sample(range(20), rng.randint(2, 6))
        population = [(u, v) for u in ends for v in ends if u < v]
        pairs = rng.sample(population, rng.randint(1, min(4, len(population))))
        slot = {x: i for i, x in enumerate(sorted({x for pair in pairs for x in pair}))}
        t = len(slot)
        shared += t < 2 * len(pairs)
        # a cap of t - 1 would let a shape with t - 1 junctions through
        shapes = _forest_shapes([(slot[u], slot[v]) for u, v in pairs], t, t - 1)
        assert all(size <= t - 2 for size, _, _ in shapes)
    assert shared > 30


def test_two_pairs_with_distinct_ends_can_need_two_junctions():
    # an H: pairs (0, 1) and (2, 3) meet only along the bar 4-5
    inst = _inst([(0, 4, 1), (2, 4, 1), (4, 5, 1), (1, 5, 1), (3, 5, 1)], [(0, 1, 1), (2, 3, 1)])
    assert inst.terminals == (0, 1, 2, 3)
    assert any(size == 2 for size, _, _ in _forest_shapes([(0, 1), (2, 3)], 4, 2))
    forest = solve_fixed_r_detailed(inst).metric_forest
    assert {x for e in forest.edges for x in e} == {0, 1, 2, 3, 4, 5}
    assert solve_fixed_r(inst)[1].objective == subset_dp(inst)[0]


def test_solve_replays_only_the_winner_and_its_projection(monkeypatch):
    inst = _inst(
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)], [(0, 2, 2, 2), (1, 3, 1, 4)], "maxlat"
    )
    closure = build_metric_closure(inst.network)
    assert len(list(enumerate_candidate_forests(inst, closure))) > 1  # tied forests
    calls = []
    original = netcon.metric_solver.evaluate_rforest

    def counted(forest, instance):
        calls.append(forest)
        return original(forest, instance)

    monkeypatch.setattr(netcon.metric_solver, "evaluate_rforest", counted)
    solution = solve_fixed_r_detailed(inst)
    assert calls == [solution.metric_forest, solution.projected_forest]


def _oracle_instance(rng, n, r, shared, lengths, max_edges):
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
        pairs=[(min(p), max(p), rng.randint(1, 9)) for p in pairs],
        length_range=lengths,
    )


def _check_against_subset_dp(inst):
    solution = solve_fixed_r_detailed(inst)
    want = subset_dp(inst)[0]
    assert solution.metric_evaluation.value == solution.report.objective == want
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
