import inspect
import random
import sys
from fractions import Fraction

import pytest

import netcon.chains
import netcon.model
from netcon import (
    GuardExceededError,
    Instance,
    Network,
    OlaInput,
    RelevantPair,
    UnsupportedInstanceError,
    evaluate_sequence,
    generate,
    reduce_ola,
    solve_tree,
    subset_dp,
    write_instance,
)
from netcon.chains import block_summaries
from netcon.cli import main
from netcon.tree_solver import (
    _edge_side_masks,
    enumerate_subtrees,
    pair_weight_tables,
    subtree_records,
    subtree_sequence,
)


def _inst(edges, pairs, objective="wct"):
    n = max(x for e in edges for x in e[:2]) + 1
    return Instance(Network(n, tuple(edges)), tuple(RelevantPair(*p) for p in pairs), objective)


PATH3 = _inst([(0, 1, 1), (1, 2, 2)], [(0, 1, 3), (1, 2, 1), (0, 2, 1)])


def _by_size(catalog):
    """The catalog's keys grouped by edge count: entry p lists the p-edge
    subtrees in ascending order (entry 0 is empty)."""
    sizes = [bin(key).count("1") for key in catalog.keys]
    return tuple(
        tuple(key for key, size in zip(catalog.keys, sizes) if size == p)
        for p in range(max(sizes, default=0) + 1)
    )


def _vertex_mask(catalog, key):
    """A subtree's vertex set, from its growth step: the parent's vertices
    plus the one the last edge adds."""
    _, inside, vertex = catalog.growth[key]
    return inside | 1 << vertex


def _edge_vertices(net, key):
    """A subtree's vertex set, from its edges."""
    vertices = 0
    for e in range(net.edge_count):
        if key >> e & 1:
            u, v, _ = net.edges[e]
            vertices |= 1 << u | 1 << v
    return vertices


def test_enumerate_path_subtrees():
    catalog = enumerate_subtrees(PATH3.network)
    assert catalog.subtree_count == 3
    assert catalog.keys == (0b01, 0b10, 0b11)
    assert _by_size(catalog)[1] == (0b01, 0b10)
    assert _by_size(catalog)[2] == (0b11,)


def test_enumerate_star_subtrees():
    star = Network(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    catalog = enumerate_subtrees(star)
    assert catalog.subtree_count == 7  # 3 singles + 3 pairs + the full star
    assert [len(level) for level in _by_size(catalog)[1:]] == [3, 3, 1]


def test_enumerate_single_edge():
    assert enumerate_subtrees(Network(2, ((0, 1, 9),))).subtree_count == 1


def _catalog_test_networks():
    """Random trees, stars with 7-9 leaves and 3-leg spiders, n <= 10.

    Vertices are relabelled at random, so edge ids (sorted by endpoints) come
    in no particular order along the tree.
    """
    rng = random.Random(43)
    shapes = [[(rng.randrange(v), v) for v in range(1, rng.randint(2, 10))] for _ in range(30)]
    shapes += [[(0, v) for v in range(1, leaves + 1)] for leaves in (7, 8, 9)]
    shapes += [[(0 if v <= 3 else v - 3, v) for v in range(1, n)] for n in (4, 5, 7, 8, 10)]
    for shape in shapes:
        label = list(range(len(shape) + 1))
        rng.shuffle(label)
        yield Network(len(label), tuple((label[u], label[v], 1) for u, v in shape))


def test_enumerate_generates_each_subtree_once_from_a_smaller_one():
    for net in _catalog_test_networks():
        catalog = enumerate_subtrees(net)
        m = net.edge_count
        expected = [[] for _ in range(m + 1)]
        vertex_masks = {}
        for mask in range(1, 1 << m):
            vertices = _edge_vertices(net, mask)
            size = bin(mask).count("1")
            if size == bin(vertices).count("1") - 1:  # connected in a tree
                expected[size].append(mask)
                vertex_masks[mask] = vertices
        # each subtree exactly once, in ascending order, so also at its size
        assert catalog.keys == tuple(sorted(vertex_masks))
        assert _by_size(catalog) == tuple(map(tuple, expected))
        assert {key: _vertex_mask(catalog, key) for key in catalog.keys} == vertex_masks
        assert set(catalog.growth) == set(vertex_masks)
        for key, (parent, inside, vertex) in catalog.growth.items():
            assert parent in (0,) + _by_size(catalog)[bin(key).count("1") - 1]
            assert parent & key == parent
            assert not inside >> vertex & 1
            assert inside == (_vertex_mask(catalog, parent) if parent else inside & -inside)
            assert inside | 1 << vertex == vertex_masks[key]


def test_keys_come_after_their_split_parts_and_growth_rebuilds_vertices():
    for net in _catalog_test_networks():
        catalog = enumerate_subtrees(net)
        position = {key: i for i, key in enumerate(catalog.keys)}
        for key in catalog.keys:
            for e in range(net.edge_count):
                if key >> e & 1:
                    for part in catalog.split(key, e):
                        assert part == 0 or position[part] < position[key]
            # one-edge subtrees grow from 0 too
            parent, inside, vertex = catalog.growth[key]
            assert parent == 0 or position[parent] < position[key]
            assert inside | 1 << vertex == _edge_vertices(net, key)


def _reachable_edges(net, start, blocked):
    """Bitmask of the edges reachable from ``start`` without crossing ``blocked``."""
    mask = 0
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y, eid in net.adjacency[x]:
            if eid != blocked and y not in seen:
                seen.add(y)
                mask |= 1 << eid
                stack.append(y)
    return mask


def test_edge_side_masks_match_a_walk_from_each_end():
    rng = random.Random(149)
    shapes = [[(rng.randrange(v), v) for v in range(1, rng.randint(2, 12))] for _ in range(40)]
    shapes += [[(0, v) for v in range(1, n)] for n in (2, 3, 7, 12)]
    shapes += [[(v - 1, v) for v in range(1, n)] for n in (2, 3, 7, 12)]
    for shape in shapes:
        label = list(range(len(shape) + 1))
        rng.shuffle(label)
        net = Network(len(label), tuple((label[u], label[v], 1) for u, v in shape))
        want = tuple(
            (_reachable_edges(net, u, eid), _reachable_edges(net, v, eid))
            for eid, (u, v, _) in enumerate(net.edges)
        )
        assert _edge_side_masks(net) == want


def test_split_marks_single_vertices_as_empty():
    catalog = enumerate_subtrees(PATH3.network)
    assert catalog.split(0b11, 1) == (0b01, 0)
    assert catalog.split(0b11, 0) == (0, 0b10)
    assert catalog.split(0b01, 0) == (0, 0)


def test_pair_weight_tables_on_path():
    catalog = enumerate_subtrees(PATH3.network)
    weights = pair_weight_tables(PATH3.network, PATH3.pairs, catalog)
    assert weights[0b01] == 3
    assert weights[0b10] == 1
    assert weights[0b11] == 5


def test_pair_weight_table_properties():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 8)
        inst = generate("random_tree", n, seed=rng.randrange(1 << 30), pair_count=rng.randint(1, 4))
        catalog = enumerate_subtrees(inst.network)
        weights = pair_weight_tables(inst.network, inst.pairs, catalog)
        full = (1 << inst.network.edge_count) - 1
        assert weights[full] == sum(p.weight for p in inst.pairs)
        # brute check on every subtree
        for key in catalog.keys:
            vmask = _vertex_mask(catalog, key)
            want = sum(p.weight for p in inst.pairs if vmask >> p.u & 1 and vmask >> p.v & 1)
            assert weights[key] == want


def test_crossing_weights_on_path():
    # the pairs whose path uses an edge: inside the subtree, in neither component
    catalog = enumerate_subtrees(PATH3.network)
    weights = pair_weight_tables(PATH3.network, PATH3.pairs, catalog)

    def crossing(key, edge_id):
        part_a, part_b = catalog.split(key, edge_id)
        return weights[key] - weights[part_a] - weights[part_b]

    assert crossing(0b11, 0) == 4  # pairs (0,1) and (0,2)
    assert crossing(0b11, 1) == 2  # pairs (1,2) and (0,2)
    assert crossing(0b01, 0) == 3


def test_subtree_records_on_path3():
    catalog = enumerate_subtrees(PATH3.network)
    weights = pair_weight_tables(PATH3.network, PATH3.pairs, catalog)
    records = subtree_records(PATH3.network, catalog, weights)
    assert records[0] == (0, (), 0, -1)
    value, blocks, weight, last = records[0b01]
    assert (value, last) == (3, 0)  # length 1 times weight 3
    assert blocks == block_summaries((1,), (3,))
    assert weight == 3
    value, _, _, last = records[0b10]
    assert (value, last) == (2, 1)
    # ending with edge 1 costs 9, ending with edge 0 would cost 14
    value, blocks, weight, last = records[0b11]
    assert (value, last) == (9, 1)
    assert blocks == block_summaries((1, 2), (3, 2))  # edge 0 connects 3, edge 1 then 2
    assert weight == 5
    orders = [subtree_sequence(records, catalog, key) for key in (0b01, 0b10, 0b11)]
    assert orders == [(0,), (1,), (0, 1)]
    assert evaluate_sequence(PATH3, (1, 0)).objective == 14


def _merge_count_instances():
    """Random spiders with 2-4 legs and random trees, n <= 12, random pairs."""
    rng = random.Random(47)
    for _ in range(12):
        n = rng.randint(4, 12)
        legs = rng.randint(2, 4)
        edges = []
        for v in range(1, n):
            edges.append((0 if v <= legs else v - legs, v, rng.randint(1, 5)))
        pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], rng.randint(1, 5))
        yield _inst(edges, [(u, v, rng.randint(1, 4)) for u, v in pairs])
    for _ in range(12):
        n = rng.randint(2, 12)
        yield generate("random_tree", n, seed=rng.randrange(1 << 30), pair_count=rng.randint(1, n - 1))


def test_subtree_records_merges_once_per_two_sided_trial(monkeypatch):
    # every last-edge trial with two non-empty parts costs one merge_value
    # call; a trial with an empty part is priced without one
    original = netcon.chains.merge_value
    calls = []

    def counted(s1, s2, own1, own2, weight1, weight2, limit=None):
        assert s1 and s2
        calls.append(1)
        return original(s1, s2, own1, own2, weight1, weight2, limit)

    monkeypatch.setattr(netcon.chains, "merge_value", counted)
    for inst in _merge_count_instances():
        catalog = enumerate_subtrees(inst.network)
        weights = pair_weight_tables(inst.network, inst.pairs, catalog)
        expected = 0
        for key in catalog.keys:
            for eid in range(inst.network.edge_count):
                if key >> eid & 1:
                    part_a, part_b = catalog.split(key, eid)
                    expected += bool(part_a and part_b)
        calls.clear()
        subtree_records(inst.network, catalog, weights)
        assert len(calls) == expected


def _ascending_records(network, catalog, weights):
    """The subtree DP with the plain trial loop: every edge in ascending order,
    each merge priced exactly, the first edge of least value kept."""
    edges = network.edges
    lengths = {0: 0}
    records = {0: (0, (), 0, -1)}
    for key in catalog.keys:
        parent = catalog.growth[key][0]
        total_length = lengths[parent] + edges[(key ^ parent).bit_length() - 1][2]
        lengths[key] = total_length
        best_value = None
        best_edge = -1
        for eid in range(network.edge_count):
            if not key >> eid & 1:
                continue
            part_a, part_b = catalog.split(key, eid)
            value_a, blocks_a, weight_a, _ = records[part_a]
            value_b, blocks_b, weight_b, _ = records[part_b]
            if blocks_a and blocks_b:
                value = netcon.chains.merge_value(blocks_a, blocks_b, value_a, value_b, weight_a, weight_b)
            else:
                value = value_a + value_b
            value -= total_length * (weight_a + weight_b)
            if best_value is None or value < best_value:
                best_value = value
                best_edge = eid
        w_key = weights[key]
        part_a, part_b = catalog.split(key, best_edge)
        _, blocks_a, weight_a, _ = records[part_a]
        _, blocks_b, weight_b, _ = records[part_b]
        blocks = netcon.chains.merged_blocks(blocks_a, blocks_b, w_key - weight_a - weight_b, edges[best_edge][2])
        records[key] = (best_value + total_length * w_key, blocks, w_key, best_edge)
    return records


def _tie_prone_instances():
    """Random trees and spiders with lengths and weights 1-2, so trials tie often."""
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(2, 9)
        yield generate(
            "random_tree", n, seed=rng.randrange(1 << 30), pair_count=rng.randint(1, n * (n - 1) // 2),
            length_range=(1, 2), weight_range=(1, 2),
        )
    for _ in range(60):
        n = rng.randint(4, 11)
        legs = rng.randint(2, 4)
        edges = [(0 if v <= legs else v - legs, v, rng.randint(1, 2)) for v in range(1, n)]
        pairs = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], rng.randint(1, n + 2))
        yield _inst(edges, [(u, v, rng.randint(1, 2)) for u, v in pairs])


def test_trial_order_and_limits_keep_the_ascending_scan_records():
    # starting from the parent's last edge, with limits on the merges, picks
    # the same record for every subtree as trying each edge in ascending order
    for inst in _tie_prone_instances():
        catalog = enumerate_subtrees(inst.network)
        weights = pair_weight_tables(inst.network, inst.pairs, catalog)
        records = subtree_records(inst.network, catalog, weights)
        assert records == _ascending_records(inst.network, catalog, weights)
        # the walk's stopping rule reads pair weights as block weight sums
        for _, blocks, weight, _ in records.values():
            assert weight == sum(w for w, _, _ in blocks)


def test_solve_path3():
    seq, report = solve_tree(PATH3)
    assert seq == (0, 1)
    assert report.objective == 9


def test_deep_path_rebuilds_without_recursion():
    # with one pair joining the ends, ties make every subtree's last edge its
    # first, so the rebuild follows a chain of m subtrees; it must not need
    # a stack frame per level
    m = 100
    inst = generate("path", m + 1, pairs=[(0, m, 3)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        seq, report = solve_tree(inst)
    finally:
        sys.setrecursionlimit(limit)
    assert seq == tuple(reversed(range(m)))
    assert report.objective == evaluate_sequence(inst, seq).objective == 3 * sum(c for _, _, c in inst.network.edges)


def test_solve_reduced_star():
    instance, threshold = reduce_ola(OlaInput(3, ((0, 1), (0, 2), (1, 2)), 4))
    _, report = solve_tree(instance)
    assert report.objective == 22 == threshold


def _tree_path_length(net, source, target):
    parent = {source: (None, 0)}
    stack = [source]
    while stack:
        x = stack.pop()
        for y, eid in net.adjacency[x]:
            if y not in parent:
                parent[y] = (x, net.edges[eid][2])
                stack.append(y)
    total = 0
    at = target
    while parent[at][0] is not None:
        at, c = parent[at]
        total += c
    return total


def test_single_pair_costs_weighted_path_length():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(2, 9)
        inst = generate(
            "random_tree", n, seed=rng.randrange(1 << 30), pair_count=1, weight_range=(1, 5)
        )
        pair = inst.pairs[0]
        _, solved = solve_tree(inst, force=True)
        assert solved.objective == pair.weight * _tree_path_length(inst.network, pair.u, pair.v)


def test_matches_subset_dp_on_random_trees():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 8)
        inst = generate(
            "random_tree",
            n,
            seed=rng.randrange(1 << 30),
            pair_count=rng.randint(1, min(6, n * (n - 1) // 2)),
        )
        seq, report = solve_tree(inst, force=True)
        assert report.objective == subset_dp(inst)[0]
        assert evaluate_sequence(inst, seq).objective == report.objective


def test_record_consistency():
    # audit the solver's own records: every subtree's rebuilt order, the
    # weights its edges connect, its blocks and value, against a replay and
    # the subset-DP oracle
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(3, 7)
        inst = generate("random_tree", n, seed=rng.randrange(1 << 30), pair_count=3)
        net = inst.network
        catalog = enumerate_subtrees(net)
        weights = pair_weight_tables(net, inst.pairs, catalog)
        records = subtree_records(net, catalog, weights)
        assert records[0] == (0, (), 0, -1)
        for key in catalog.keys:
            value, blocks, weight, last = records[key]
            assert weight == weights[key]
            seq = subtree_sequence(records, catalog, key)
            assert sorted(seq) == [e for e in range(net.edge_count) if key >> e & 1]
            assert seq[-1] == last
            ps = tuple(net.edges[e][2] for e in seq)
            vmask = _vertex_mask(catalog, key)
            inner = [p for p in inst.pairs if vmask >> p.u & 1 and vmask >> p.v & 1]
            if not inner:
                assert weights[key] == 0
                assert blocks == block_summaries(ps, (0,) * len(seq))
                assert value == 0
                continue
            sub = Instance(net, tuple(inner))
            report = evaluate_sequence(sub, seq)
            # connect[i] is the weight first connected when seq[i] completes
            done = 0
            connect = []
            for c in ps:
                done += c
                times = zip(sub.pairs, report.times)
                connect.append(sum(p.weight for p, t in times if t == done))
            assert sum(connect) == weights[key]
            assert blocks == block_summaries(ps, connect)
            assert report.objective == value == subset_dp(sub)[0]
        full = (1 << net.edge_count) - 1
        _, report = solve_tree(inst, force=True)
        assert records[full][0] == report.objective


def test_wspt_on_depot_star():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(3, 8)
        lengths = [rng.randint(1, 9) for _ in range(n - 1)]
        net = Network(n, tuple((0, i + 1, lengths[i]) for i in range(n - 1)))
        pairs = tuple(RelevantPair(0, i + 1, rng.randint(1, 9)) for i in range(n - 1))
        inst = Instance(net, pairs)
        _, report = solve_tree(inst, force=True)
        by_edge = {(p.u, p.v): p.weight for p in pairs}
        order = sorted(
            range(n - 1),
            key=lambda e: (-Fraction(by_edge[(0, e + 1)], lengths[e]), e),
        )
        assert report.objective == evaluate_sequence(inst, order).objective


def test_argmin_invariant_under_weight_scaling():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(3, 7)
        inst = generate("random_tree", n, seed=rng.randrange(1 << 30), pair_count=3)
        seq, report = solve_tree(inst, force=True)
        scaled = Instance(
            inst.network,
            tuple(RelevantPair(p.u, p.v, 11 * p.weight) for p in inst.pairs),
        )
        seq11, report11 = solve_tree(scaled, force=True)
        assert seq11 == seq
        assert report11.objective == 11 * report.objective


def test_rejects_non_tree_and_maxlat():
    square = _inst([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)], [(0, 2, 1)])
    with pytest.raises(UnsupportedInstanceError):
        solve_tree(square)
    with pytest.raises(UnsupportedInstanceError, match="^subtree enumeration needs a tree network$"):
        enumerate_subtrees(square.network)
    lateness = _inst([(0, 1, 1)], [(0, 1, 1, 5)], "maxlat")
    with pytest.raises(UnsupportedInstanceError):
        solve_tree(lateness)


def test_leaf_guard():
    star = generate("star", 9, pair_count=3)  # 8 leaves
    with pytest.raises(GuardExceededError):
        solve_tree(star)
    assert solve_tree(star, force=True)[1].objective == subset_dp(star)[0]


def test_a_tree_solve_roots_the_network_once(monkeypatch, tmp_path, capsys):
    # the rooting made when the network is built decides connectivity and
    # gives the tree solver its edge sides; nothing roots every edge again
    full = []
    original = netcon.model._root

    def counting(adjacency):  # no tree solve roots a forest of kept edges either
        full.append(len(adjacency))
        return original(adjacency)

    monkeypatch.setattr(netcon.model, "_root", counting)
    instance = generate("path", 9, seed=2, pair_count=4)
    assert full == [9]
    solve_tree(instance)
    assert full == [9]
    path = tmp_path / "path9.ncn"
    path.write_text(write_instance(instance))
    assert main(["solve", "--backend", "tree", str(path)]) == 0
    assert "objective" in capsys.readouterr().out
    assert full == [9, 9]  # the file's network, read back once
