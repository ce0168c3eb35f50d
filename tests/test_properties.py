"""Invariances the objectives guarantee, checked at values far past 2^60.

Shifting every due date by s moves the maximum lateness by exactly -s, and
scaling every length by k scales every connection time, and so the weighted
sum, by k.  Neither may depend on how large the numbers get.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

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

BIG_SHIFTS = st.sampled_from([1 << 61, 1 << 63, -(1 << 61)])
SEEDS = st.integers(0, 1 << 30)


def _small_graph(seed, objective):
    return generate(
        "random_graph", 6, seed=seed, edge_count=8, pair_count=2, objective=objective
    )


def _shift_dues(instance, shift):
    pairs = tuple(dataclasses.replace(p, due=p.due + shift) for p in instance.pairs)
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


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, k=st.integers(1, 1 << 62))
def test_length_scaling_scales_wct_on_trees(seed, k):
    inst = generate("random_tree", 7, seed=seed, pair_count=3)
    want = solve_tree(inst)[1].objective
    assert solve_tree(_scale_lengths(inst, k))[1].objective == k * want


def test_fixed_r_handles_a_2_pow_60_edge():
    inst = Instance(Network(3, ((0, 1, 1 << 60), (1, 2, 1))), (RelevantPair(0, 2, 3),))
    seq, report = solve_fixed_r(inst)
    assert report.objective == 3 * ((1 << 60) + 1)
    assert sorted(seq) == [0, 1]
