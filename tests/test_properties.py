"""Invariances the objectives guarantee, checked at values far past 2^60.

Shifting every due date by s moves the maximum lateness by exactly -s, and
scaling every length by k scales every connection time, and so the weighted
sum, by k; scaling the due dates by k as well scales the maximum lateness by
k.  Scaling every pair weight by k scales the weighted sum by k and keeps the
build order of both solvers, and the weights play no part in the maximum
lateness, so under maxlat any other weights give the same fixed-r solve.
None of these may depend on how large the numbers get.  Renaming the vertices changes no objective, and the shortest-path
distances the fixed-r DPs start from are the graph's (checked against scipy).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from netcon import (
    Instance,
    Network,
    RelevantPair,
    evaluate_sequence,
    generate,
    solve_fixed_r,
    solve_tree,
    subset_dp,
)
from netcon.metric_solver import build_metric_closure

BIG_SHIFTS = st.sampled_from([1 << 61, 1 << 63, -(1 << 61)])
SEEDS = st.integers(0, 1 << 30)


def _small_graph(seed, objective):
    return generate(
        "random_graph", 6, seed=seed, edge_count=8, pair_count=2, objective=objective
    )


def _shift_dues(instance, shift):
    pairs = tuple(RelevantPair(p.u, p.v, p.weight, p.due + shift) for p in instance.pairs)
    return Instance(instance.network, pairs, instance.objective)


def _scale_lengths(instance, k):
    edges = tuple((u, v, c * k) for u, v, c in instance.network.edges)
    return Instance(Network(instance.network.vertex_count, edges), instance.pairs, instance.objective)


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, shift=BIG_SHIFTS)
def test_due_date_shift_moves_maxlat_by_minus_the_shift(seed, shift):
    inst = _small_graph(seed, "maxlat")
    shifted = _shift_dues(inst, shift)
    want = subset_dp(inst)[0]
    assert subset_dp(shifted)[0] == want - shift
    seq, report = solve_fixed_r(shifted)
    assert report.objective == want - shift
    assert evaluate_sequence(shifted, seq) == report


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 1 << 62))
def test_length_scaling_scales_wct(seed, k):
    inst = _small_graph(seed, "wct")
    scaled = _scale_lengths(inst, k)
    want = solve_fixed_r(inst)[1].objective
    assert solve_fixed_r(scaled)[1].objective == k * want
    assert subset_dp(scaled)[0] == k * want


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 1 << 62))
def test_length_and_due_scaling_scales_maxlat(seed, k):
    inst = _small_graph(seed, "maxlat")
    pairs = tuple(RelevantPair(p.u, p.v, p.weight, p.due * k) for p in inst.pairs)
    scaled = _scale_lengths(Instance(inst.network, pairs, inst.objective), k)
    want = subset_dp(inst)[0]
    assert solve_fixed_r(inst)[1].objective == want
    seq, report = solve_fixed_r(scaled)
    assert report.objective == k * want
    assert evaluate_sequence(scaled, seq) == report
    assert subset_dp(scaled)[0] == k * want


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 1 << 62))
def test_length_scaling_scales_wct_on_trees(seed, k):
    inst = generate("random_tree", 7, seed=seed, pair_count=3)
    want = solve_tree(inst)[1].objective
    assert solve_tree(_scale_lengths(inst, k))[1].objective == k * want


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 1 << 62))
def test_weight_scaling_scales_the_tree_optimum_and_keeps_its_order(seed, k):
    # small lengths and weights tie many trials; scaled, every trial's value
    # is k times as large, so the merge limits must pick the same edges
    inst = generate("random_tree", 8, seed=seed, pair_count=5, length_range=(1, 2), weight_range=(1, 2))
    pairs = tuple(RelevantPair(p.u, p.v, p.weight * k) for p in inst.pairs)
    seq, report = solve_tree(inst, force=True)
    scaled_seq, scaled_report = solve_tree(Instance(inst.network, pairs), force=True)
    assert scaled_report.objective == k * report.objective
    assert scaled_seq == seq


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, n=st.integers(4, 9), r=st.integers(1, 4), k=st.integers(1, 1 << 62))
def test_weight_scaling_scales_the_fixed_r_optimum_and_keeps_its_sequence(seed, n, r, k):
    inst = generate("random_graph", n, seed=seed, pair_count=r)
    pairs = tuple(RelevantPair(p.u, p.v, p.weight * k) for p in inst.pairs)
    seq, report = solve_fixed_r(inst)
    scaled_seq, scaled_report = solve_fixed_r(Instance(inst.network, pairs))
    assert scaled_report.objective == k * report.objective
    assert scaled_seq == seq


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, n=st.integers(4, 9), r=st.integers(1, 4), data=st.data())
def test_pair_weights_change_no_maxlat_solve(seed, n, r, data):
    inst = generate("random_graph", n, seed=seed, pair_count=r, objective="maxlat")
    weights = data.draw(st.lists(st.integers(1, 1 << 62), min_size=r, max_size=r))
    pairs = tuple(RelevantPair(p.u, p.v, w, p.due) for p, w in zip(inst.pairs, weights))
    assert solve_fixed_r(Instance(inst.network, pairs, inst.objective)) == solve_fixed_r(inst)


def test_fixed_r_handles_a_2_pow_60_edge():
    network = Network(3, ((0, 1, 1 << 60), (1, 2, 1)))
    inst = Instance(network, (RelevantPair(0, 2, 3),))
    seq, report = solve_fixed_r(inst)
    assert report.objective == 3 * ((1 << 60) + 1)
    assert sorted(seq) == [0, 1]
    # the distances the DPs start from stay exact past 2^60
    assert list(build_metric_closure(network, [0])) == [[0, 1 << 60, (1 << 60) + 1]]
    maxlat = Instance(network, (RelevantPair(0, 2, 3, 7),), "maxlat")
    seq, report = solve_fixed_r(maxlat)
    assert report.objective == (1 << 60) + 1 - 7
    assert sorted(seq) == [0, 1]


def _relabel(instance, perm):
    edges = tuple((perm[u], perm[v], c) for u, v, c in instance.network.edges)
    pairs = tuple(RelevantPair(perm[p.u], perm[p.v], p.weight, p.due) for p in instance.pairs)
    return Instance(Network(instance.network.vertex_count, edges), pairs, instance.objective)


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, perm=st.permutations(range(7)))
def test_relabelling_vertices_keeps_the_tree_optimum(seed, perm):
    inst = generate("random_tree", 7, seed=seed, pair_count=3)
    relabelled = _relabel(inst, perm)
    want = solve_tree(inst)[1].objective
    assert solve_tree(relabelled)[1].objective == want
    assert subset_dp(relabelled)[0] == want


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, perm=st.permutations(range(6)), objective=st.sampled_from(["wct", "maxlat"]))
def test_relabelling_vertices_keeps_the_fixed_r_optimum(seed, perm, objective):
    inst = _small_graph(seed, objective)
    relabelled = _relabel(inst, perm)
    want = subset_dp(inst)[0]
    seq, report = solve_fixed_r(relabelled)
    assert report.objective == want
    assert evaluate_sequence(relabelled, seq) == report
    assert subset_dp(relabelled)[0] == want


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, n=st.integers(2, 12), extra=st.integers(0, 20))
def test_closure_distances_match_scipy(seed, n, extra):
    edge_count = min(n - 1 + extra, n * (n - 1) // 2)
    network = generate(
        "random_graph", n, seed=seed, edge_count=edge_count, length_range=(1, 1000)
    ).network
    rows = [u for u, _, _ in network.edges]
    cols = [v for _, v, _ in network.edges]
    lengths = [c for _, _, c in network.edges]
    graph = csr_matrix((lengths, (rows, cols)), shape=(n, n))
    want = shortest_path(graph, directed=False)
    dist = build_metric_closure(network, range(n))
    assert list(dist) == [[int(d) for d in row] for row in want]
