import itertools
import random

import pytest

from netcon import (
    ConnectionReport,
    Instance,
    Network,
    RelevantPair,
    SequenceError,
    evaluate_sequence,
    format_report,
    generate,
    permutation_oracle,
    validate_sequence,
)
from netcon.unionfind import UnionFind


def _inst(edges, pairs, objective="wct"):
    n = max(x for e in edges for x in e[:2]) + 1
    return Instance(Network(n, tuple(edges)), tuple(RelevantPair(*p) for p in pairs), objective)


PATH3 = _inst([(0, 1, 1), (1, 2, 2)], [(0, 1, 3), (1, 2, 1), (0, 2, 1)])


def test_single_edge():
    inst = _inst([(0, 1, 5)], [(0, 1, 2)])
    report = evaluate_sequence(inst, (0,))
    assert report.times == (5,)
    assert report.objective == 10


def test_path_orders():
    assert evaluate_sequence(PATH3, (0, 1)) == ConnectionReport((1, 3, 3), 9)
    assert evaluate_sequence(PATH3, (1, 0)).objective == 14


def test_pair_connects_only_when_whole_path_exists():
    inst = _inst([(0, 1, 1), (0, 2, 1), (0, 3, 1)], [(1, 2, 1)])
    report = evaluate_sequence(inst, (2, 0, 1))  # far edge first
    assert report.times == (3,)


def test_disconnected_prefixes_are_fine():
    # two separate components meet only at the last edge
    inst = _inst([(0, 1, 1), (1, 2, 1), (2, 3, 1)], [(0, 3, 1)])
    report = evaluate_sequence(inst, (0, 2, 1))
    assert report.times == (3,)


def test_max_lateness_objective():
    inst = _inst([(0, 1, 4), (1, 2, 1)], [(0, 1, 1, 3), (0, 2, 2, 9)], "maxlat")
    report = evaluate_sequence(inst, (0, 1))
    assert report.times == (4, 5)
    assert report.objective == max(4 - 3, 5 - 9)


def test_sequence_errors():
    with pytest.raises(SequenceError, match="duplicate"):
        evaluate_sequence(PATH3, (0, 0))
    with pytest.raises(SequenceError, match="invalid edge id"):
        evaluate_sequence(PATH3, (7,))
    # a bool is no edge id, though isinstance(True, int) holds
    with pytest.raises(SequenceError, match="invalid edge id True"):
        evaluate_sequence(PATH3, (True, False))
    with pytest.raises(SequenceError, match="never connects"):
        evaluate_sequence(PATH3, (0,))


def test_partial_sequences_allowed_when_pairs_connect():
    inst = _inst([(0, 1, 1), (1, 2, 2), (2, 3, 5)], [(0, 2, 1)])
    assert evaluate_sequence(inst, (0, 1)).times == (3,)


def test_validate_accepts_correct_report():
    report = evaluate_sequence(PATH3, (0, 1))
    assert validate_sequence(PATH3, (0, 1), report).ok


def test_validate_rejects_off_by_one_and_names_pair():
    report = evaluate_sequence(PATH3, (0, 1))
    tampered = ConnectionReport((report.times[0] + 1,) + report.times[1:], report.objective)
    verdict = validate_sequence(PATH3, (0, 1), tampered)
    assert not verdict.ok
    assert any("pair (0, 1)" in d for d in verdict.discrepancies)


def test_validate_rejects_a_claim_with_the_wrong_number_of_pair_times():
    report = evaluate_sequence(PATH3, (0, 1))
    verdict = validate_sequence(PATH3, (0, 1), ConnectionReport(report.times[:2], report.objective))
    assert verdict == (False, ("claim has 2 pair times, instance has 3",))


def test_validate_rejects_bad_sequence():
    report = evaluate_sequence(PATH3, (0, 1))
    verdict = validate_sequence(PATH3, (0,), report)
    assert not verdict.ok


def test_validate_self_checks_on_random_instances():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 8)
        inst = generate(
            "random_graph",
            n,
            seed=rng.randrange(1 << 30),
            pair_count=rng.randint(1, min(3, n * (n - 1) // 2)),
        )
        seq = list(range(inst.network.edge_count))
        rng.shuffle(seq)
        report = evaluate_sequence(inst, seq)
        assert validate_sequence(inst, seq, report).ok


def test_monotonicity_and_total_length_bound():
    rng = random.Random(23)
    for _ in range(50):
        inst = generate("random_tree", rng.randint(3, 8), seed=rng.randrange(1 << 30), pair_count=2)
        m = inst.network.edge_count
        seq = list(range(m))
        rng.shuffle(seq)
        report = evaluate_sequence(inst, seq)
        total = sum(c for _, _, c in inst.network.edges)
        assert all(t <= total for t in report.times)
        # times of pairs settled in a prefix never change when the tail grows
        for cut in range(1, m):
            try:
                partial = evaluate_sequence(inst, seq[:cut])
            except SequenceError:
                continue
            assert partial.times == report.times


def test_connection_is_order_free_within_a_prefix():
    inst = PATH3
    for prefix in ((0,), (1,), (0, 1)):
        verdicts = set()
        for perm in itertools.permutations(prefix):
            try:
                evaluate_sequence(inst, perm)
                verdicts.add(True)
            except SequenceError:
                verdicts.add(False)
        assert len(verdicts) == 1


def test_every_sequence_bounded_below_by_oracle():
    rng = random.Random(37)
    for _ in range(20):
        inst = generate("random_graph", rng.randint(3, 5), seed=rng.randrange(1 << 30), pair_count=2)
        best = permutation_oracle(inst)
        for _ in range(10):
            seq = list(range(inst.network.edge_count))
            rng.shuffle(seq)
            assert evaluate_sequence(inst, seq).objective >= best


def test_report_text_format():
    report = evaluate_sequence(PATH3, (0, 1))
    text = format_report(PATH3, report)
    assert text.splitlines() == [
        "pair 0 1 t=1",
        "pair 0 2 t=3",
        "pair 1 2 t=3",
        "objective 9",
    ]


def test_ids_after_the_last_join_are_still_checked():
    # the one pair is joined by edge 0; every id after it is still checked
    inst = _inst([(0, 1, 1), (1, 2, 2), (0, 2, 5)], [(0, 1, 1)])
    assert evaluate_sequence(inst, (0, 1, 2)).times == (1,)
    for tail, message in (
        ((7,), "invalid edge id 7"),
        ((-1,), "invalid edge id -1"),
        ((True,), "invalid edge id True"),
        ((0,), "duplicate edge id 0"),
        ((2, 1, 2), "duplicate edge id 2"),
    ):
        with pytest.raises(SequenceError, match=message):
            evaluate_sequence(inst, (0, *tail))


def _full_replay(instance, seq):
    """Each pair's time by a union-find replay over the whole sequence."""
    joined = UnionFind(instance.network.vertex_count)
    times = [None] * instance.pair_count
    elapsed = 0
    for eid in seq:
        u, v, length = instance.network.edges[eid]
        elapsed += length
        joined.union(u, v)
        for i, pair in enumerate(instance.pairs):
            if times[i] is None and joined.connected(pair.u, pair.v):
                times[i] = elapsed
    return tuple(times)


def test_replay_times_match_a_full_union_find_replay():
    rng = random.Random(163)
    for trial in range(150):
        n = rng.randint(2, 10)
        inst = generate(
            "random_graph",
            n,
            seed=trial,
            edge_count=rng.randint(n - 1, n * (n - 1) // 2),
            pair_count=rng.randint(1, min(4, n * (n - 1) // 2)),
            objective=rng.choice(["wct", "maxlat"]),
        )
        seq = rng.sample(range(inst.network.edge_count), inst.network.edge_count)
        times = _full_replay(inst, seq)
        assert evaluate_sequence(inst, seq).times == times
        # a prefix cut anywhere after the edge that joins the last pair
        elapsed = list(itertools.accumulate(inst.network.edges[e][2] for e in seq))
        last = elapsed.index(max(times))
        assert evaluate_sequence(inst, seq[: rng.randint(last + 1, len(seq))]).times == times
