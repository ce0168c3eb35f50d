import itertools
import random
import tracemalloc

import pytest

from netcon import (
    GuardExceededError,
    Instance,
    Job,
    Network,
    RelevantPair,
    evaluate_sequence,
    generate,
    interleaving_oracle,
    permutation_oracle,
    solve_tree,
    subset_dp,
)


def _inst(edges, pairs, objective="wct"):
    n = max(x for e in edges for x in e[:2]) + 1
    return Instance(Network(n, tuple(edges)), tuple(RelevantPair(*p) for p in pairs), objective)


def test_single_edge():
    inst = _inst([(0, 1, 5)], [(0, 1, 2)])
    assert subset_dp(inst) == (10, (0,))
    assert permutation_oracle(inst) == 10


def test_three_vertex_path():
    inst = _inst([(0, 1, 1), (1, 2, 2)], [(0, 1, 3), (1, 2, 1), (0, 2, 1)])
    value, seq = subset_dp(inst)
    assert value == 9
    assert permutation_oracle(inst) == 9
    assert evaluate_sequence(inst, seq).objective == 9


def test_single_pair_is_a_shortest_path():
    inst = _inst([(0, 1, 1), (1, 2, 1), (0, 2, 3)], [(0, 2, 1)])
    value, seq = subset_dp(inst)
    assert value == 2
    assert evaluate_sequence(inst, seq).objective == 2
    assert len(seq) == 3  # an order of every edge: (0, 2) after the pair has joined


def test_sequence_always_replays_to_the_dp_value():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(2, 6)
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            pair_count=rng.randint(1, min(3, n * (n - 1) // 2)),
            objective=rng.choice(("wct", "maxlat")),
        )
        value, seq = subset_dp(inst)
        assert sorted(seq) == list(range(inst.network.edge_count))
        assert evaluate_sequence(inst, seq).objective == value


def test_oracles_agree_on_random_instances():
    # both objectives on the same draws of graphs; maxlat pairs get due dates 0-50
    rng = random.Random(43)
    objectives = set()
    for _ in range(100):
        n = rng.randint(2, 5)
        m_max = n * (n - 1) // 2
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            edge_count=rng.randint(n - 1, min(7, m_max)),
            pair_count=rng.randint(1, min(3, m_max)),
            objective=rng.choice(("wct", "maxlat")),
        )
        objectives.add(inst.objective.value)
        assert subset_dp(inst)[0] == permutation_oracle(inst)
    assert objectives == {"wct", "maxlat"}


def test_objective_invariant_under_relabeling():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(3, 6)
        inst = generate("random_graph", n, seed=rng.randrange(1 << 30), pair_count=2)
        relabel = list(range(n))
        rng.shuffle(relabel)
        edges = tuple((relabel[u], relabel[v], c) for u, v, c in inst.network.edges)
        pairs = tuple(
            RelevantPair(relabel[p.u], relabel[p.v], p.weight) for p in inst.pairs
        )
        shuffled = Instance(Network(n, edges), pairs)
        assert subset_dp(inst)[0] == subset_dp(shuffled)[0]


def test_max_lateness_subset_dp():
    inst = _inst([(0, 1, 4), (1, 2, 1)], [(0, 1, 1, 3), (0, 2, 2, 9)], "maxlat")
    value, seq = subset_dp(inst)
    assert value == evaluate_sequence(inst, seq).objective
    assert value == permutation_oracle(inst)


def test_interleaving_oracle_basics():
    c2 = [Job(2, 5), Job(1, 1)]
    # one empty chain: cost of the other in its own order
    assert interleaving_oracle([], c2) == 5 * 2 + 1 * 3
    assert interleaving_oracle([Job(1, 3)], [Job(2, 1)]) == 6
    assert interleaving_oracle([], []) == 0


def test_guards_raise_without_force():
    big = generate("path", 11, pair_count=2)  # 10 edges
    with pytest.raises(GuardExceededError, match="force"):
        permutation_oracle(big)
    with pytest.raises(GuardExceededError, match="limited to 22 edges.*force"):
        subset_dp(generate("path", 24, pair_count=2))
    assert subset_dp(big, force=True) == subset_dp(big)
    with pytest.raises(GuardExceededError, match="limited to 14 jobs.*force"):
        interleaving_oracle([Job(1, 1)] * 10, [Job(1, 1)] * 10)


@pytest.mark.parametrize("objective", ["wct", "maxlat"])
def test_subset_dp_tables_grow_with_the_edges_not_the_pairs(objective):
    # a 7-edge star with 20 pairs: 2^7 edge subsets, where a table per pair
    # set would hold 2^20 entries (8 MB of list alone)
    rng = random.Random(f"star-pairs/{objective}")
    keys = rng.sample(list(itertools.combinations(range(8), 2)), 20)
    due = (lambda: (rng.randint(0, 30),)) if objective == "maxlat" else tuple
    pairs = tuple(RelevantPair(u, v, rng.randint(1, 9), *due()) for u, v in keys)
    star = Instance(Network(8, tuple((0, v, rng.randint(1, 9)) for v in range(1, 8))), pairs, objective)
    tracemalloc.start()
    try:
        value, seq = subset_dp(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert value == evaluate_sequence(star, seq).objective
    if objective == "wct":
        assert value == solve_tree(star, force=True)[1].objective
    else:
        assert value == permutation_oracle(star)
