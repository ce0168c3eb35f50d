import importlib.util
import itertools
import json
import math
import operator
import pathlib
import random
from collections import Counter

import pytest

from netcon import (
    GuardExceededError,
    Instance,
    InvalidInstanceError,
    NetconError,
    Network,
    Objective,
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
    ENDPOINT_BOUND,
    PAIR_BOUND,
    _descend,
    _forest_paths,
    build_metric_closure,
    enumerate_candidate_forests,
    evaluate_rforest,
    project_to_graph,
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
    pairs = tuple(RelevantPair(p.u, p.v, p.weight, p.due or 0) for p in inst.pairs)
    return Instance(inst.network, pairs, "maxlat")


def _stream(inst):
    return enumerate_candidate_forests(inst, build_metric_closure(inst.network, inst.terminals))


def _forest_edges(forest):
    """The edge ids of a forest: the union of its pair paths."""
    return {e for path in forest for e in path}


def _forest_vertices(forest, inst):
    return [x for e in _forest_edges(forest) for x in inst.network.edges[e][:2]]


def _assert_acyclic(network, ids):
    """No id repeats and none closes a cycle."""
    uf = UnionFind(network.vertex_count)
    assert all(uf.union(*network.edges[e][:2]) for e in ids)


def _assert_forest(forest, inst):
    """``forest`` holds one path per pair, each a chain of distinct network
    edge ids from its pair's u to its v; their union is acyclic; and every
    vertex of it that ends no pair has degree at least 2."""
    edges = inst.network.edges
    _assert_acyclic(inst.network, _forest_edges(forest))
    assert len(forest) == inst.pair_count
    for pair, path in zip(inst.pairs, forest):
        assert len(set(path)) == len(path)
        at = pair.u
        for e in path:
            a, b, _ = edges[e]
            assert at in (a, b)
            at = a + b - at
        assert at == pair.v
    degree = Counter(_forest_vertices(forest, inst))
    assert all(d >= 2 for x, d in degree.items() if x not in inst.terminals)


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
    walked = _descend(network, dist[u], v)
    end = v
    for e in walked:
        a, b, _ = network.edges[e]
        assert end in (a, b)
        end = b if end == a else a
    assert end == u
    return walked


@pytest.mark.parametrize("lengths", [(1, 2), (1, 30)], ids=["tie-prone", "spread"])
def test_a_row_settled_through_a_target_walks_as_the_full_row(lengths):
    # for every source and target: the row settled only as far as the target
    # gives the full row's distance there and the same _descend edge ids; a
    # row read in full afterwards, after any number of partial reads, equals
    # a fresh _dijkstra row
    ms = netcon.metric_solver
    rng = random.Random(181)
    for _ in range(25):
        n = rng.randint(2, 10)
        network = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            edge_count=rng.randint(n - 1, min(3 * n, n * (n - 1) // 2)),
            length_range=lengths,
            pair_count=1,
        ).network
        unbounded = [math.inf] * n
        fresh = [ms._dijkstra(network, [0 if x == s else math.inf for x in range(n)], 1, unbounded)
                 for s in range(n)]
        for s in range(n):
            shared = build_metric_closure(network, [s])
            for v in rng.sample(range(n), n):
                alone = build_metric_closure(network, [s])
                for rows in (alone, shared):
                    row = rows.through(0, v)
                    assert row[v] == fresh[s][v]
                    assert _descend(network, row, v) == _descend(network, fresh[s], v)
                assert alone[0] == fresh[s]  # resumed from where it stopped
            assert shared[0] == fresh[s]


def test_descend_walk_examples():
    net = Network(3, ((0, 1, 1), (1, 2, 1), (0, 2, 3)))
    dist = build_metric_closure(net, range(3))
    assert _walk(net, dist, 0, 1) == [0]  # the direct edge is shortest
    assert _walk(net, dist, 0, 2) == [2, 0]  # detour via vertex 1
    assert _walk(net, dist, 2, 0) == [0, 2]


def test_descend_walk_matches_distance_on_random_queries():
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


def test_streamed_forest_on_terminal_path():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1), (0, 2, 1)])
    for twin in (inst, _as_maxlat(inst)):
        ((_, order, forest),) = _stream(twin)
        assert (order, forest) == ((0, 1), ((0,), (0, 1)))


def test_streamed_forest_has_no_dangling_non_terminal_and_can_branch():
    # the stream holds one forest; a vertex of it that ends no pair lies
    # inside a path (degree 2) or is a junction (degree 3 or more)
    rng = random.Random(59)
    junctions = 0
    for _ in range(40):
        n = rng.randint(4, 8)
        objective = rng.choice(("wct", "maxlat"))
        inst = generate("random_graph", n, seed=rng.randrange(1 << 30), pair_count=3, objective=objective)
        ((_, _, forest),) = _stream(inst)
        _assert_forest(forest, inst)
        degree = Counter(_forest_vertices(forest, inst))
        inner = [d for x, d in degree.items() if x not in inst.terminals]
        assert all(d >= 2 for d in inner)
        junctions += any(d >= 3 for d in inner)
    assert junctions >= 3


def test_disjoint_pairs_allow_two_component_forest():
    # pairs (0, 1) and (2, 3) on the square: its opposite edges 0 and 3 serve them
    inst = _inst(SQUARE.network.edges, [(0, 1, 2), (2, 3, 1)])
    for twin in (inst, _as_maxlat(inst)):
        ((value, _, forest),) = _stream(twin)
        assert forest == ((0,), (3,))
        assert value == subset_dp(twin)[0]


def test_evaluate_rforest_weighted_sum():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1), (0, 2, 1)])
    evaluation = evaluate_rforest(((0,), (0, 1)), inst, (0, 1))
    assert evaluation.value == 3  # serve (0,1) first: 1 + 2
    assert evaluation.edge_order == (0, 1)
    assert evaluate_sequence(inst, evaluation.edge_order).objective == evaluation.value
    # the other order charges (0,1) only when its own block completes: 2 + 2
    assert tuple(evaluate_rforest(((0,), (0, 1)), inst, (1, 0))) == (4, (0, 1))


def test_evaluate_rforest_single_pair():
    inst = _inst([(0, 1, 4)], [(0, 1, 3)])
    assert evaluate_rforest(((0,),), inst, (0,)).value == 12


def test_evaluate_rforest_max_lateness():
    inst = _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1, 1), (0, 2, 1, 2)], "maxlat")
    assert evaluate_rforest(((0,), (0, 1)), inst, (0, 1)).value == 0
    assert evaluate_rforest(((0,), (0, 1)), inst, (1, 0)).value == 1


def test_projection_equals_the_forest_replay_on_a_single_edge():
    inst = _inst([(0, 1, 4)], [(0, 1, 3)])
    ((_, order, forest),) = _stream(inst)
    assert (order, forest) == ((0,), ((0,),))
    assert project_to_graph(forest, inst, order) == evaluate_rforest(forest, inst, order)


def test_projection_keeps_the_value_on_random_instances():
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
        ((value, order, forest),) = _stream(inst)
        _assert_forest(forest, inst)
        assert project_to_graph(forest, inst, order).value == value


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
    net = generate("random_graph", PAIR_BOUND + 2, seed=5, pair_count=1).network
    # one pair past the pair bound, the endpoints within theirs
    pairs = tuple(RelevantPair(v, v + 1, 1) for v in range(PAIR_BOUND + 1))
    inst = Instance(net, pairs)
    assert len(inst.terminals) <= ENDPOINT_BOUND
    wct_work = r"wct solver runs up to r! subset DPs of 3\^\(t-1\) \* n work"
    with pytest.raises(GuardExceededError, match=wct_work):
        solve_fixed_r(inst)
    maxlat_work = r"maxlat subset DP keeps Pareto labels over 2\^\(t-1\)"
    with pytest.raises(GuardExceededError, match=maxlat_work):
        solve_fixed_r(_as_maxlat(inst))
    depot_pairs = tuple(RelevantPair(0, v, 1) for v in range(1, 6))
    depot_inst = Instance(net, depot_pairs)
    # five pairs sharing vertex 0 are solved; a shared vertex widens no bound
    _, report = solve_fixed_r(depot_inst)
    assert report.objective == subset_dp(depot_inst)[0]
    with pytest.raises(GuardExceededError, match=f"r <= {PAIR_BOUND};"):
        solve_fixed_r(Instance(net, tuple(RelevantPair(0, v, 1) for v in range(1, PAIR_BOUND + 2))))
    # force is the one way past either bound
    assert solve_fixed_r(inst, force=True)[1].objective == subset_dp(inst)[0]


def test_the_committed_sweep_picks_the_enforced_bounds():
    root = pathlib.Path(__file__).resolve().parent.parent
    script = root / "scripts" / "fixed_r_guard_sweep.py"
    spec = importlib.util.spec_from_file_location("fixed_r_guard_sweep", script)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    recorded = json.loads((root / "SWEEP_fixed_r_guard.json").read_text())
    chosen = (recorded["chosen"]["ENDPOINT_BOUND"], recorded["chosen"]["PAIR_BOUND"])
    assert sweep._bounds(recorded["cells"]) == chosen == (ENDPOINT_BOUND, PAIR_BOUND)
    assert sorted(recorded["worst_admitted_s"]) == ["maxlat", "wct"]
    assert all(worst <= recorded["budget_s"] for worst in recorded["worst_admitted_s"].values())


def test_dijkstra_runs_only_from_pair_endpoints(monkeypatch):
    # the only single-source Dijkstra runs start at the pair endpoints, once
    # each: a row settled only as far as one vertex resumes its own search
    inst = _inst(
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (3, 4, 1), (4, 5, 2), (2, 5, 1)],
        [(0, 2, 2), (1, 3, 1)],
    )
    sources = []
    original = netcon.metric_solver._dijkstra

    def recorded(network, labels, factor, below, *resume):
        # a single-source run labels its source 0 and every other vertex inf
        finite = [v for v, label in enumerate(labels) if label != math.inf]
        if len(finite) == 1 and labels[finite[0]] == 0:
            sources.extend(finite)
        return original(network, labels, factor, below, *resume)

    monkeypatch.setattr(netcon.metric_solver, "_dijkstra", recorded)
    # wct never reads the last endpoint's row, so its search never starts
    for twin, want, started in ((inst, 7, [0, 1, 2]), (_as_maxlat(inst), 3, [0, 1, 2, 3])):
        sources.clear()
        _, report = solve_fixed_r(twin)
        assert sorted(sources) == started
        assert report.objective == want
        ((value, order, forest),) = _stream(twin)
        assert evaluate_rforest(forest, twin, order).value == value == want
        _assert_forest(forest, twin)


def _keys(inst):
    return [p.key for p in inst.pairs]


def test_forest_paths_run_from_u_to_v():
    # edge ids 2, 3, 1 join 1-2, 2-3 and 0-3
    assert _forest_paths(SQUARE.network, [2, 3, 1], _keys(SQUARE)) == ((1, 3), (2, 3))
    # a forest that leaves a pair apart is a solver fault, not a bad input
    with pytest.raises(NetconError, match=r"does not connect \(1, 3\)") as caught:
        _forest_paths(SQUARE.network, [0, 2], _keys(SQUARE))
    assert not isinstance(caught.value, InvalidInstanceError)


def test_forest_paths_of_any_edge_list_are_a_forest_of_pair_paths():
    # ``Network.root_forest`` spans whatever list it gets, cycles and all
    rng = random.Random(139)
    for _ in range(60):
        n = rng.randint(3, 9)
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            edge_count=rng.randint(n - 1, n * (n - 1) // 2),
            pair_count=rng.randint(1, 3),
        )
        ids = list(range(inst.network.edge_count))
        rng.shuffle(ids)
        _assert_forest(_forest_paths(inst.network, ids, _keys(inst)), inst)


def _check_read_backs(monkeypatch, cases, count):
    """Solve ``count`` random instances per (objective, depot) case and check
    that the edge ids the DP reads back repeat none, close no cycle and each
    lie on a returned pair path, which replay to the DP's value; return the
    values."""
    read_backs = []
    original = netcon.metric_solver._forest_paths

    def captured(network, kept, pairs):
        read_backs.append(kept)
        return original(network, kept, pairs)

    monkeypatch.setattr(netcon.metric_solver, "_forest_paths", captured)
    values = []
    for objective, depot in cases:
        rng = random.Random(f"read-back/{objective}/{depot}")
        for _ in range(count):
            inst = _stream_instance(rng, objective, depot)
            read_backs.clear()
            ((value, order, forest),) = _stream(inst)
            (kept,) = read_backs
            _assert_acyclic(inst.network, kept)
            assert set(kept) == _forest_edges(forest)
            _assert_forest(forest, inst)
            assert evaluate_rforest(forest, inst, order).value == value
            values.append(value)
    return values


def test_every_read_back_is_the_forest(monkeypatch):
    cases = [("wct", False), ("maxlat", False), ("wct", True), ("maxlat", True)]
    assert len(_check_read_backs(monkeypatch, cases, 12)) == 48


def test_every_pareto_read_back_is_the_forest(monkeypatch):
    # a bound that proves nothing and is one worse than the forest it tried
    # leaves that forest within the Pareto DP's cap, so on every maxlat case
    # the Pareto DP runs and its forest is read back from its tables
    original = netcon.metric_solver._lateness_bound
    bounds = []

    def unproven(*args):
        value, kept, _ = original(*args)
        bounds.append(value + 1)
        return value + 1, kept, False

    monkeypatch.setattr(netcon.metric_solver, "_lateness_bound", unproven)
    values = _check_read_backs(monkeypatch, [("maxlat", False), ("maxlat", True)], 12)
    assert len(values) == len(bounds) == 24
    assert all(map(operator.lt, values, bounds))


@pytest.mark.parametrize("fault", ["root", "step", "split"])
def test_a_label_the_tables_do_not_attain_is_a_read_back_fault(fault):
    # each of the read-back's three searches raises a solver fault instead of
    # reading past its end or walking on
    ms = netcon.metric_solver
    inst = generate("random_graph", 9, seed=3, edge_count=14, pair_count=3)
    dist = build_metric_closure(inst.network, inst.terminals)
    unit = [1] * (1 << len(inst.terminals))
    full = len(unit) - 1
    # tables over every endpoint set, read back from vertex 0
    ends = ms._endpoints(inst, dist, range(inst.pair_count))._replace(full=full, root=0)
    g, h = ms._subset_tables(ends, unit)
    label = g[full][0] - 1  # below every tree that joins vertex 0 to all endpoints
    if fault == "root":  # a set that separates no pair: no vertex's h holds the label
        unit = [0] * len(unit)
        label = min(h[full]) - 1
    elif fault == "split":  # vertex 0's h claims the label, but no split sums to it
        h[full][0] = label
    with pytest.raises(NetconError, match=f"^internal inconsistency: read-back finds no {fault} "):
        ms._read_back(ends, g, h, unit, ms._one_label, label)


def test_solution_is_deterministic():
    assert solve_fixed_r(SQUARE) == solve_fixed_r(SQUARE)
    assert list(_stream(SQUARE)) == list(_stream(SQUARE))


def _pendant_junction_instance():
    # square of terminals 0-3; vertex 4 hangs off 0 and has degree 3 only
    # through its two pendant non-terminal leaves 5 and 6
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 4, 1), (4, 5, 1), (4, 6, 1)]
    return _inst(edges, [(0, 2, 2), (1, 3, 1)])


def test_pendant_only_neighbours_never_make_a_junction():
    inst = _pendant_junction_instance()
    assert len(inst.network.adjacency[4]) == 3
    for twin in (inst, _as_maxlat(inst)):
        ((_, _, forest),) = _stream(twin)
        assert 4 not in _forest_vertices(forest, twin)
        assert solve_fixed_r(twin)[1].objective == subset_dp(twin)[0]


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
        ((value, order, forest),) = _stream(inst)
        assert value == evaluate_rforest(forest, inst, order).value
        _assert_forest(forest, inst)
        terminals = set(inst.terminals)
        with_junctions += any(x not in terminals for x in _forest_vertices(forest, inst))
        if inst.network.edge_count <= 12:
            assert value == subset_dp(inst)[0]
            oracle_checked += 1
        assert solve_fixed_r(inst)[1].objective == value
    assert with_junctions >= 3
    assert oracle_checked >= 10


def test_two_pairs_with_distinct_ends_can_need_two_junctions():
    # an H: pairs (0, 1) and (2, 3) meet only along the bar 4-5
    inst = _inst([(0, 4, 1), (2, 4, 1), (4, 5, 1), (1, 5, 1), (3, 5, 1)], [(0, 1, 1), (2, 3, 1)])
    assert inst.terminals == (0, 1, 2, 3)
    for twin in (inst, _as_maxlat(inst)):
        ((_, _, forest),) = _stream(twin)
        assert set(_forest_vertices(forest, twin)) == {0, 1, 2, 3, 4, 5}
        assert solve_fixed_r(twin)[1].objective == subset_dp(twin)[0]


def test_solve_replays_only_the_winner_and_its_projection(monkeypatch):
    # once directly and once through its projection, each in the one order
    inst = _inst(
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)], [(0, 2, 2, 4), (1, 3, 1, 2)], "maxlat"
    )
    ((_, order, winner),) = _stream(inst)
    assert order == (1, 0)  # by due date
    calls = []
    original = netcon.metric_solver.evaluate_rforest

    def counted(forest, instance, order):
        calls.append((forest, order))
        return original(forest, instance, order)

    monkeypatch.setattr(netcon.metric_solver, "evaluate_rforest", counted)
    solve_fixed_r(inst)
    assert calls == [(winner, order), (winner, order)]


def _replay_every_order(forest, inst):
    """The r! reference: per pair order, in ``itertools.permutations`` order,
    the forest built pair by pair in it, each pair charged when its own path's
    edges are all built; yields (value, order, edge ids in build order)."""
    edges = inst.network.edges
    for perm in itertools.permutations(range(inst.pair_count)):
        built = []
        elapsed = 0
        times = {}
        for idx in perm:
            for e in forest[idx]:
                if e not in built:
                    built.append(e)
                    elapsed += edges[e][2]
            times[idx] = elapsed
        if inst.objective is Objective.WEIGHTED_SUM:
            value = sum(inst.pairs[i].weight * t for i, t in times.items())
        else:
            value = max(t - inst.pairs[i].due for i, t in times.items())
        yield value, perm, tuple(built)


@pytest.mark.parametrize(
    "objective, depot", [("wct", False), ("maxlat", False), ("wct", True), ("maxlat", True)]
)
def test_the_dp_order_is_optimal_on_its_forest_against_every_order(objective, depot):
    # the one-order replay reaches the least block-charged value over all r!
    # orders; under wct the DP's order is the first that does, so the build
    # order is the one the r! replay picks
    rng = random.Random(f"orders/{objective}/{depot}")
    several = 0
    for _ in range(16):
        inst = _stream_instance(rng, objective, depot)
        ((value, order, forest),) = _stream(inst)
        replays = list(_replay_every_order(forest, inst))
        least = min(v for v, _, _ in replays)
        evaluation = evaluate_rforest(forest, inst, order)
        assert evaluation.value == value == least
        if objective == "wct":
            first = next(replay for replay in replays if replay[0] == least)
            assert (order, evaluation.edge_order) == first[1:]
        several += inst.pair_count >= 3
    assert several >= 3


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
    sequence, report = solve_fixed_r(inst, force=force)
    assert report.objective == subset_dp(inst, force=True)[0]
    assert evaluate_sequence(inst, sequence) == report


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
    # closes a cycle (the rooting skips it) and none on no pair's path
    original = netcon.metric_solver._forest_paths

    def exact(network, kept, pairs):
        forest = original(network, kept, pairs)
        assert len(_forest_edges(forest)) == len(kept)
        return forest

    monkeypatch.setattr(netcon.metric_solver, "_forest_paths", exact)
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


@pytest.mark.parametrize("objective", ["wct", "maxlat"])
def test_shared_endpoints_past_the_old_pair_bound_match_the_oracle(objective):
    # five or six pairs over four to eight endpoints, none common to all pairs:
    # the old guard refused more than four such pairs, the new one solves them
    rng = random.Random(f"newly-admitted/{objective}")
    for trial in range(16):
        r = 5 + trial % 2
        t = rng.randint(4, 8)
        n = rng.randint(max(t, 6), 9)
        ends = rng.sample(range(n), t)
        keys = {frozenset(ends[i : i + 2]) for i in range(0, t - 1, 2)}
        keys |= {frozenset((ends[-1], ends[0]))} if t % 2 else set()
        while len(keys) < r:
            keys.add(frozenset(rng.sample(ends, 2)))
        due = _due_dates(rng) if objective == "maxlat" else None
        pairs = [
            tuple(sorted(k)) + (rng.randint(1, 9),) + (() if due is None else (due(),))
            for k in sorted(keys, key=sorted)
        ]
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            edge_count=rng.randint(n - 1, min(16 if trial < 2 else 14, n * (n - 1) // 2)),
            pairs=pairs,
            length_range=rng.choice([(1, 2), (1, 20)]),
            objective=objective,
        )
        assert len(inst.terminals) == t < 2 * r and inst.common_pair_vertex() is None
        _check_against_subset_dp(inst)


# --- maxlat: the Steiner-forest bound proves most optima ------------------------

# a 4-cycle: the pairs' shortest paths give 8, the least forest joining both
# pairs gives 7, and the bound max_k(SF(P_k) - d_k) is only 6
_BOUND_MISS = _inst(
    [(0, 1, 5), (0, 2, 2), (1, 3, 3), (2, 3, 2)], [(0, 1, 1, 0), (0, 3, 1, 1)], "maxlat"
)
# two least forests join both pairs (20): the one read back routes pair (0, 2)
# the long way, 0-1-3-2, and only the Pareto DP finds the other one, which
# joins it by 16 (optimum 12 against 16)
_DP_BEATS_THE_BOUND = _inst(
    [(0, 1, 7), (1, 2, 9), (1, 3, 9), (2, 3, 4)], [(0, 2, 6, 4), (1, 3, 2, 9)], "maxlat"
)
BOUND_CASES = {
    # the pair due first is the latest: its shortest path is optimal
    "step 1": (_inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1, 0), (1, 2, 1, 10)], "maxlat"), 1, {}),
    # the latest pair's shortest path is the whole forest: no forest joins it sooner
    "step 1, later pair": (
        _inst([(0, 1, 1), (1, 2, 1)], [(0, 1, 1, 0), (0, 2, 1, 0)], "maxlat"),
        2,
        {},
    ),
    # the shortest paths already make a least forest for the prefix that is latest
    "step 2": (
        _inst([(0, 1, 1), (1, 2, 1), (2, 3, 1)], [(0, 1, 1, 0), (2, 3, 1, 0)], "maxlat"),
        2,
        {"_subset_tables": 1},
    ),
    # the direct edges 0-1 and 0-2 (10) lose to the star through 3 (9)
    "step 3": (
        _inst(
            [(0, 1, 5), (0, 2, 5), (0, 3, 3), (1, 3, 3), (2, 3, 3)],
            [(0, 1, 1, 0), (0, 2, 1, 0)],
            "maxlat",
        ),
        9,
        {"_subset_tables": 1, "_read_back": 1},
    ),
    # the Pareto DP finds no forest below the least one (7) and keeps it
    "pareto dp": (_BOUND_MISS, 7, {"_subset_tables": 1, "_read_back": 1, "_lateness_tables": 1}),
    # the Pareto DP finds a forest below both that the bound tried
    "pareto dp, better forest": (
        _DP_BEATS_THE_BOUND,
        12,
        {"_subset_tables": 1, "_read_back": 2, "_lateness_tables": 1},
    ),
}


def _count_bound_calls(monkeypatch):
    """Count the scalar DP runs, Steiner-forest read-backs and Pareto DP runs,
    and record each cap the Pareto DP gets."""
    calls = Counter()
    caps = []
    for name in ("_subset_tables", "_read_back", "_lateness_tables"):
        original = getattr(netcon.metric_solver, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            if _name == "_lateness_tables":
                caps.append(list(args[2]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(netcon.metric_solver, name, counted)
    return calls, caps


@pytest.mark.parametrize("case", list(BOUND_CASES))
def test_each_proof_step_and_the_fallback_against_the_oracle(monkeypatch, case):
    inst, optimum, ran = BOUND_CASES[case]
    assert subset_dp(inst)[0] == optimum
    calls, _ = _count_bound_calls(monkeypatch)
    ((value, order, forest),) = _stream(inst)
    assert dict(calls) == ran
    assert value == optimum == evaluate_rforest(forest, inst, order).value
    _assert_forest(forest, inst)
    _check_against_subset_dp(inst)


def test_the_pareto_dp_runs_only_on_a_miss_capped_by_the_better_forest(monkeypatch):
    calls, caps = _count_bound_calls(monkeypatch)
    for case, (inst, _, ran) in BOUND_CASES.items():
        solve_fixed_r(inst)
        assert calls.pop("_lateness_tables", 0) == ran.get("_lateness_tables", 0), case
    # the labels must beat the better forest tried: the least forest joining
    # both pairs of _BOUND_MISS (worth 7: pair (0, 1), due 0, joined at 7), not
    # the shortest paths (8 = 9 - 1 at pair (0, 3)); the shortest paths of
    # _DP_BEATS_THE_BOUND (16 at pair (0, 2), due 4), not its least forest
    assert caps == [[6 + 0, 6 + 1], [15 + 4, 15 + 9]]
    dist = build_metric_closure(_BOUND_MISS.network, _BOUND_MISS.terminals)
    ends = netcon.metric_solver._endpoints(_BOUND_MISS, dist, (0, 1))
    value, kept, proven = netcon.metric_solver._lateness_bound(_BOUND_MISS, ends, (0, 1))
    assert (value, proven) == (7, False)
    forest = _forest_paths(_BOUND_MISS.network, kept, _keys(_BOUND_MISS))
    assert evaluate_rforest(forest, _BOUND_MISS, (0, 1)).value == 7


def test_the_pareto_dp_alone_matches_the_oracle(monkeypatch):
    # with the bound proving nothing, the Pareto DP runs on every instance and
    # must beat the bound's forest or find nothing better than it
    original = netcon.metric_solver._lateness_bound
    bounds = []

    def unproven(*args):
        value, kept, _ = original(*args)
        bounds.append(value)
        return value, kept, False

    monkeypatch.setattr(netcon.metric_solver, "_lateness_bound", unproven)
    rng = random.Random(151)
    outcomes = Counter()
    for trial in range(240):
        n = rng.randint(3, 8)
        with_shared = rng.random() < 0.4
        r = rng.randint(1, min(4, n * (n - 1) // 2, n - 1 if with_shared else n // 2))
        lengths = rng.choice([(1, 1), (1, 3), (1, 20)])
        inst = _oracle_instance(rng, n, r, with_shared, lengths, 12, _due_dates(rng))
        bounds.clear()
        _check_against_subset_dp(inst, force=True)
        outcomes[subset_dp(inst, force=True)[0] < bounds[0]] += 1
    assert outcomes[False] >= 100


def test_room_is_the_cap_less_what_the_rest_of_a_forest_must_add():
    # path 0-1-2-3 of unit edges, terminals 0-3 (their own indices); step 0
    # serves pair (0, 3), step 1 pair (1, 2)
    inst = _inst([(0, 1, 1), (1, 2, 1), (2, 3, 1)], [(0, 3, 1, 0), (1, 2, 1, 0)], "maxlat")
    ends = netcon.metric_solver._endpoints(inst, _closure(inst), (0, 1))
    assert ends.spans == [(0, 3, 3), (1, 2, 1)]
    packing = netcon.metric_solver._Packing.fitting(2, 20)
    room = netcon.metric_solver._room(ends, 0b0001, [10, 20], packing)
    # a tree joining v to endpoint 0: the rest still joins v to 3 by step 0,
    # and also 1 to 2 by step 1
    unpacked = [packing.unpack(x ^ packing.guards) for x in room]
    assert unpacked == [[7, 17], [8, 18], [9, 19], [10, 19]]
    # no room where the rest alone is already later than the cap
    tight = netcon.metric_solver._room(ends, 0b0001, [2, 20], packing)
    assert tight[0] is None
    assert packing.unpack(tight[1] ^ packing.guards) == [0, 18]


def test_packed_labels_add_and_compare_prefix_by_prefix():
    packing = netcon.metric_solver._Packing.fitting(3, 40)
    a, b = packing.pack([1, 5, 9]), packing.pack([2, 5, 30])
    assert packing.unpack(a + b) == [3, 10, 39]
    assert packing.unpack(a + 4 * packing.units[1]) == [1, 9, 13]
    guards = packing.guards
    assert netcon.metric_solver._dominated([a], b, guards)
    assert not netcon.metric_solver._dominated([b], a, guards)
    assert not netcon.metric_solver._dominated([packing.pack([0, 6, 9])], a, guards)
    assert netcon.metric_solver._pareto([b, a, a, packing.pack([0, 6, 9])], guards) == sorted(
        [a, packing.pack([0, 6, 9])]
    )


def test_grown_forest_drops_edges_that_close_a_cycle_or_join_no_pair():
    # pair (0, 2) takes 0-1-2; pair (0, 4) then walks 0-3-2-4, where 3-2
    # closes a cycle, which leaves 0-3 on no pair's path
    inst = _inst(
        [(0, 1, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1)],  # edge ids 0-4
        [(0, 2, 1, 0), (0, 4, 1, 5)],
        "maxlat",
    )
    used, lengths = netcon.metric_solver._grown_forest(inst, [[0, 2], [1, 3, 4]])
    assert sorted(used) == [0, 2, 4]
    # 0-1-2 lies on both pairs' paths, 2-4 on pair (0, 4)'s alone
    assert lengths == {0b11: 2, 0b10: 1}
    assert [netcon.metric_solver._built(lengths, served) for served in range(4)] == [0, 2, 3, 3]


def _steiner_forest_lengths(inst, by_due):
    """By brute force over edge subsets: per k, the least length of edges that
    join the first k + 1 pairs of ``by_due``."""
    edges = inst.network.edges
    pairs = [inst.pairs[i] for i in by_due]
    best = [None] * len(pairs)
    for mask in range(1 << len(edges)):
        uf = UnionFind(inst.network.vertex_count)
        length = 0
        for e, (u, v, c) in enumerate(edges):
            if mask >> e & 1:
                uf.union(u, v)
                length += c
        joined = 0
        while joined < len(pairs) and uf.connected(pairs[joined].u, pairs[joined].v):
            joined += 1
        # a set that joins a longer prefix joins every shorter one
        for k in range(joined):
            if best[k] is None or length < best[k]:
                best[k] = length
    return best


def test_the_bound_brackets_the_optimum_on_random_maxlat_graphs(monkeypatch):
    # max_k(SF(P_k) - d_k) <= optimum <= the bound's forest, and a proved
    # forest meets the lower bound
    calls, _ = _count_bound_calls(monkeypatch)
    rng = random.Random(149)
    proved = Counter()
    depots = shared = 0
    for trial in range(320):
        n = rng.randint(3, 8)
        if trial % 4 == 0 and n >= 4:
            hub, *others = rng.sample(range(n), rng.randint(3, n - 1) if n > 4 else 3)
            inst = generate(
                "random_graph",
                n,
                seed=rng.randrange(1 << 30),
                edge_count=rng.randint(n - 1, min(10, n * (n - 1) // 2)),
                pairs=[(min(hub, x), max(hub, x), 1, rng.randint(0, 40)) for x in others],
                length_range=(1, 20),
                objective="maxlat",
            )
            depots += 1
        else:
            with_shared = rng.random() < 0.4
            r = rng.randint(1, min(4, n * (n - 1) // 2, n - 1 if with_shared else n // 2))
            inst = _oracle_instance(rng, n, r, with_shared, (1, 20), 10, _due_dates(rng))
        shared += len(inst.terminals) < 2 * inst.pair_count
        by_due = tuple(sorted(range(inst.pair_count), key=lambda i: inst.pairs[i].due))
        dues = [inst.pairs[i].due for i in by_due]
        lower = max(map(operator.sub, _steiner_forest_lengths(inst, by_due), dues))
        optimum = subset_dp(inst, force=True)[0]
        dist = build_metric_closure(inst.network, inst.terminals)
        calls.clear()
        ends = netcon.metric_solver._endpoints(inst, dist, by_due)
        upper, kept, proven = netcon.metric_solver._lateness_bound(inst, ends, by_due)
        assert lower <= optimum <= upper
        forest = _forest_paths(inst.network, kept, _keys(inst))
        assert evaluate_rforest(forest, inst, by_due).value == upper
        if proven:
            assert upper == lower
        proved[(calls["_subset_tables"], calls["_read_back"], proven)] += 1
        _check_against_subset_dp(inst, force=True)
    assert depots >= 60 and shared >= 60
    # step 1, step 2, step 3 and a miss each happen; the free bound from the
    # pairs' own distances leaves few misses
    assert all(proved[key] >= 10 for key in ((0, 0, True), (1, 0, True), (1, 1, True)))
    assert proved[(1, 1, False)] >= 5


# --- wct: pair orders searched under a Held-Karp bound --------------------------


def _tie_prone_instance(rng, n, r, depot=False, max_edges=16, weights=(1, 2)):
    """A random wct graph with r pairs and lengths 1-3, so that forests and
    pair orders often tie; at a depot every pair shares one vertex."""
    if depot:
        hub, *others = rng.sample(range(n), r + 1)
        ends = [(hub, x) for x in others]
    else:
        flat = rng.sample(range(n), 2 * r)
        ends = list(zip(flat[::2], flat[1::2]))
    return generate(
        "random_graph",
        n,
        seed=rng.randrange(1 << 30),
        edge_count=rng.randint(n - 1, min(max_edges, n * (n - 1) // 2)),
        pairs=[(min(p), max(p), rng.randint(*weights)) for p in ends],
        length_range=(1, 3),
    )


def _closure(inst):
    return build_metric_closure(inst.network, inst.terminals)


def _frame(inst, dist):
    """The frame of every pair, in ``inst.pairs`` order, as the wct solver
    takes it."""
    return netcon.metric_solver._endpoints(inst, dist, range(inst.pair_count))


def _all_distances(inst):
    """By Floyd-Warshall: the distance between every two vertices."""
    n = inst.network.vertex_count
    d = [[0 if u == v else math.inf for v in range(n)] for u in range(n)]
    for u, v, c in inst.network.edges:
        d[u][v] = d[v][u] = min(d[u][v], c)
    for k, u, v in itertools.product(range(n), repeat=3):
        d[u][v] = min(d[u][v], d[u][k] + d[k][v])
    return d


def test_a_prefix_frame_holds_its_own_rows_root_spans_and_crossings():
    ms = netcon.metric_solver
    rng = random.Random(197)
    whole = Counter()
    for trial in range(30):
        n = rng.randint(4, 9)
        r = rng.randint(1, min(5, n * (n - 1) // 2))
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            edge_count=rng.randint(n - 1, min(16, n * (n - 1) // 2)),
            pair_count=r,
        )
        dist = _closure(inst)
        between = _all_distances(inst)
        order = rng.sample(range(r), r)
        for k in range(1, r + 1):
            keys = [inst.pairs[i].key for i in order[:k]]
            want = sorted({x for key in keys for x in key})
            ends = ms._endpoints(inst, dist, order[:k])
            assert list(ends.ends) == want and ends.root == want[-1]
            whole[ends.rows is dist] += 1
            assert (ends.rows is dist) == (want == list(inst.terminals))
            assert [(want[a], want[b], span) for a, b, span in ends.spans] == [
                (u, v, between[u][v]) for u, v in keys
            ]
            fresh = build_metric_closure(inst.network, want)
            assert [ends.rows[i] for i in range(len(want))] == [fresh[i] for i in range(len(want))]
            # per set of endpoints without the root: the pairs with exactly one end in it
            rooted = itertools.product((False, True), repeat=len(want) - 1)
            crossed = [
                sum(1 << i for i, (u, v) in enumerate(keys) if (u in side) != (v in side))
                for side in ({x for x, on in zip(want, flags[::-1]) if on} for flags in rooted)
            ]
            assert ms._crossing(ends) == crossed
    assert whole[True] >= 30 and whole[False] >= 30


def _order_dp(inst, dist, perm, limit=math.inf):
    """One pair order's subset DP over every endpoint set: its coefficients
    and tables."""
    ms = netcon.metric_solver
    ends = _frame(inst, dist)._replace(full=(1 << len(inst.terminals)) - 1)
    coef = ms._order_coefficients(inst, ms._crossing(ends), perm)
    return coef, *ms._subset_tables(ends, coef, limit)


def _rooted_order_dp(inst, dist, perm, limit=math.inf):
    """One pair order's subset DP rooted at the last endpoint q, as the
    solver runs it: its coefficients, its tables over the sets without q, and
    its frame."""
    ms = netcon.metric_solver
    ends = _frame(inst, dist)
    coef = ms._order_coefficients(inst, ms._crossing(ends), perm)
    g, h = ms._subset_tables(ends, coef, limit)
    return coef, g, h, ends


def _every_order_forest(inst, dist):
    """The exhaustive reference: an uncapped rooted DP for every pair order,
    and the edge ids of the forest read back from the first order with the
    least value."""
    best = None
    for perm in itertools.permutations(range(inst.pair_count)):
        coef, g, h, ends = _rooted_order_dp(inst, dist, perm)
        value = g[ends.full][ends.root]
        if best is None or value < best[0]:
            best = (value, perm, coef, g, h, ends)
    value, perm, coef, g, h, ends = best
    ms = netcon.metric_solver
    return value, perm, ms._read_back(ends, g, h, coef, ms._one_label, value)


def test_a_dp_rooted_at_the_last_endpoint_prices_the_least_forest():
    # for every pair order, g[others][q] of the rooted tables is the least
    # h[all endpoints] of the tables over every endpoint set, uncapped; capped
    # at any limit, both are that value below the limit and at least it
    # otherwise
    rng = random.Random(191)
    seen = Counter()
    for trial in range(40):
        depot = trial % 3 == 0
        r = rng.randint(2 if depot else 1, 4)
        n = rng.randint(r + 1 if depot else 2 * r, 9)
        inst = _tie_prone_instance(rng, n, r, depot, weights=(1, 9))
        seen["shared"] += len(inst.terminals) < 2 * r
        dist = _closure(inst)
        for perm in itertools.permutations(range(r)):
            _, _, h = _order_dp(inst, dist, perm)
            _, g, _, ends = _rooted_order_dp(inst, dist, perm)
            top, q = ends.full, ends.root
            value = min(h[-1])
            assert g[top][q] == value
            for limit in (rng.randint(1, value), value, value + 1):
                _, _, capped_h = _order_dp(inst, dist, perm, limit)
                _, capped_g, _, _ = _rooted_order_dp(inst, dist, perm, limit)
                rooted, everywhere = capped_g[top][q], min(capped_h[-1])
                seen[value < limit] += 1
                if value < limit:
                    assert rooted == everywhere == value
                else:
                    assert rooted >= limit and everywhere >= limit
    assert seen["shared"] >= 10 and seen[True] >= 200 and seen[False] >= 400


def _count_order_dps(monkeypatch):
    calls = Counter()
    original = netcon.metric_solver._subset_tables

    def counted(*args):
        calls["_subset_tables"] += 1
        return original(*args)

    monkeypatch.setattr(netcon.metric_solver, "_subset_tables", counted)
    return calls


def test_the_pruned_order_search_matches_a_dp_for_every_order(monkeypatch):
    # same value, same winning order (the first of those tied) and the same
    # forest, read back from capped tables
    calls = _count_order_dps(monkeypatch)
    rng = random.Random(163)
    counts = ((2, 10), (3, 10), (4, 6))
    cases = [(rng.randint(2 * r, 9), r, False) for r, count in counts for _ in range(count)]
    cases += [(rng.randint(r + 1, 9), r, True) for r in (2, 3, 4) for _ in range(6)]
    cases += [(8, 5, True)] * 3 + [(7, 6, True)]
    oracle = orders = 0
    for n, r, depot in cases:
        inst = _tie_prone_instance(rng, n, r, depot, max_edges=14 if r < 5 else 16)
        dist = _closure(inst)
        want = _every_order_forest(inst, dist)
        calls.clear()
        assert netcon.metric_solver._subset_forest(inst, dist) == want
        orders += calls["_subset_tables"]
        if inst.network.edge_count <= 16:
            _check_against_subset_dp(inst, force=True)
            oracle += 1
    assert oracle >= 45
    # the bound skips most orders: 24 of them at four pairs, 720 at six
    assert orders < sum(math.factorial(r) for _, r, _ in cases) // 4


def test_capped_tables_are_exact_below_the_limit_and_at_least_it_elsewhere():
    # an entry whose uncapped value is below the limit keeps it, and every
    # other entry is at least the limit: the wct read-back and maxlat's
    # Steiner-forest step both rest on this
    rng = random.Random(167)
    seen = Counter()
    for _ in range(40):
        n = rng.randint(4, 9)
        r = rng.randint(2, min(4, n // 2))
        inst = _tie_prone_instance(rng, n, r, weights=(1, 9))
        dist = _closure(inst)
        perm = tuple(rng.sample(range(r), r))
        coef, g, h = _order_dp(inst, dist, perm)
        value = min(h[-1])
        for limit in (rng.randint(1, value), value, value + 1):
            _, capped_g, capped_h = _order_dp(inst, dist, perm, limit)
            for exact, capped in zip(g + h, capped_g + capped_h):
                if exact is None:
                    assert capped is None
                    continue
                for want, got in zip(exact, capped):
                    seen[want < limit] += 1
                    assert got == want if want < limit else got >= limit
    assert seen[True] >= 1000 and seen[False] >= 1000


def _least_forests(inst):
    """By brute force over edge subsets: per set of pairs (a bit mask over
    ``inst.pairs``), the least length of edges that join each pair of it."""
    edges = inst.network.edges
    r = inst.pair_count
    best = [0] + [None] * ((1 << r) - 1)
    for mask in range(1 << len(edges)):
        uf = UnionFind(inst.network.vertex_count)
        length = 0
        for e, (u, v, c) in enumerate(edges):
            if mask >> e & 1:
                uf.union(u, v)
                length += c
        joined = sum(1 << i for i, p in enumerate(inst.pairs) if uf.connected(p.u, p.v))
        for pairs in range(1, 1 << r):
            if pairs & joined == pairs and (best[pairs] is None or length < best[pairs]):
                best[pairs] = length
    return best


def _least_tree(inst, pairs):
    """By brute force: the least length of one connected edge set joining
    every endpoint of the pairs in the bit mask ``pairs``."""
    edges = inst.network.edges
    first, *ends = {x for i, p in enumerate(inst.pairs) if pairs >> i & 1 for x in p.key}
    best = None
    for mask in range(1 << len(edges)):
        uf = UnionFind(inst.network.vertex_count)
        length = 0
        for e, (u, v, c) in enumerate(edges):
            if mask >> e & 1:
                uf.union(u, v)
                length += c
        if all(uf.connected(first, x) for x in ends) and (best is None or length < best):
            best = length
    return best


def test_steiner_forests_match_the_least_edge_sets():
    rng = random.Random(173)
    split = 0
    for trial in range(60):
        n = rng.randint(4, 8)
        depot = trial % 3 == 0
        r = rng.randint(1, min(4, n - 1 if depot else n // 2))
        inst = _tie_prone_instance(rng, n, r, depot, max_edges=10)
        forests = netcon.metric_solver._steiner_forests(_frame(inst, _closure(inst)))
        assert forests == _least_forests(inst)
        # sometimes a forest of two or more trees is cheaper than any one tree
        split += any(forests[pairs] < _least_tree(inst, pairs) for pairs in range(1, 1 << r))
    assert split >= 5


def test_order_tables_bracket_each_order_and_the_optimum():
    # priced as the search prices an order, sum_k w_{pi_k} * table[P_k]:
    # LB(pi) over forests <= the DP value of pi, and the optimum <= UB, the
    # least price over reach
    rng = random.Random(179)
    skipped = 0
    for trial in range(48):
        depot = trial % 4 == 0
        r = 1 + trial % 4 if not depot else rng.randint(2, 5)
        n = rng.randint(r + 1 if depot else 2 * r, 9)
        inst = _tie_prone_instance(rng, n, r, depot, weights=(1, 9))
        dist = _closure(inst)
        reach, forests = netcon.metric_solver._order_tables(inst, _frame(inst, dist))

        def price(table, perm):
            steps = itertools.accumulate((1 << i for i in perm), operator.or_)
            return sum(inst.pairs[i].weight * table[served] for i, served in zip(perm, steps))

        perms = list(itertools.permutations(range(r)))
        upper = min(price(reach, perm) for perm in perms)
        lowers = [price(forests, perm) for perm in perms]
        values = [min(_order_dp(inst, dist, perm)[2][-1]) for perm in perms]
        assert all(lower <= value for lower, value in zip(lowers, values))
        optimum = min(values)
        assert optimum <= upper
        skipped += sum(lower > upper for lower in lowers)
    assert skipped >= 50


def test_six_depot_pairs_run_few_of_the_720_order_dps(monkeypatch):
    # six pairs at a depot (seven endpoints) are within both bounds; force changes nothing
    calls = _count_order_dps(monkeypatch)
    rng = random.Random(181)
    for _ in range(3):
        inst = _tie_prone_instance(rng, 12, 6, True, max_edges=24, weights=(1, 9))
        assert inst.common_pair_vertex() is not None
        solve_fixed_r(inst, force=True)
    # one Steiner-forest DP per solve and the order DPs the bound leaves
    assert 3 < calls["_subset_tables"] < 3 * 720 // 20
