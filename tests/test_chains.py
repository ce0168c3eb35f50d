import random
from fractions import Fraction
from itertools import accumulate, islice

import pytest

from netcon import Job, density_decomposition, interleaving_oracle, merge_two_chains
from netcon.chains import block_summaries, interleave, merge_value, merged_blocks


def jobs(*pw):
    return [Job(p, w) for p, w in pw]


def test_job_validation():
    with pytest.raises(ValueError):
        Job(0, 1)
    with pytest.raises(ValueError):
        Job(1, -1)
    # one integer rule throughout: a bool is not an integer
    with pytest.raises(ValueError):
        Job(True, 0)
    with pytest.raises(ValueError):
        Job(1, False)
    Job(1, 0)  # zero weights are legal


def test_empty_chain_decomposes_to_nothing():
    assert density_decomposition([]) == []


def test_rising_weights_fuse_into_one_block():
    blocks = density_decomposition(jobs((1, 1), (1, 3)))
    assert len(blocks) == 1
    assert blocks[0][:2] == (4, 2)  # (weight, processing)


def test_falling_weights_split():
    blocks = density_decomposition(jobs((1, 3), (1, 1)))
    assert [b[:2] for b in blocks] == [(3, 1), (1, 1)]
    assert Fraction(*blocks[0][:2]) == Fraction(3)


def test_equal_density_segments_fuse_into_longest_block():
    blocks = density_decomposition(jobs((1, 2), (2, 4), (3, 6)))
    assert len(blocks) == 1
    assert blocks[0][2] == 3  # jobs


def _brute_decomposition_ok(chain):
    blocks = density_decomposition(chain)
    # running offsets: each block covers the next ``jobs`` jobs of the chain
    starts = list(accumulate((n for _, _, n in blocks), initial=0))
    assert all(n >= 1 for _, _, n in blocks) and starts[-1] == len(chain)
    assert [j for a, b in zip(starts, starts[1:]) for j in chain[a:b]] == list(chain)
    densities = [Fraction(w, p) for w, p, _ in blocks]
    assert densities == sorted(set(densities), reverse=True)
    for start, density in zip(starts, densities):
        x = y = 0
        for job in chain[start:]:
            x += job.processing
            y += job.weight
            assert Fraction(y, x) <= density


def test_decomposition_property_random():
    rng = random.Random(3)
    for _ in range(200):
        chain = jobs(*[(rng.randint(1, 9), rng.randint(0, 9)) for _ in range(rng.randint(0, 12))])
        _brute_decomposition_ok(chain)


def _summaries(chain):
    return block_summaries([j.processing for j in chain], [j.weight for j in chain])


def test_merged_blocks_decompose_the_interleaving_then_the_job():
    # weights 0..2 over lengths 1..3 tie densities across the two chains often
    rng = random.Random(61)
    ties = 0
    for _ in range(400):
        c1, c2 = (
            jobs(*[(rng.randint(1, 3), rng.randint(0, 2)) for _ in range(rng.randint(0, 6))]) for _ in range(2)
        )
        weight, processing = rng.randint(0, 2), rng.randint(1, 3)
        s1, s2 = _summaries(c1), _summaries(c2)
        ties += any(w1 * p2 == w2 * p1 for w1, p1, _ in s1 for w2, p2, _ in s2)
        sides = (iter(c1), iter(c2))
        order = [job for side, (_, _, n) in interleave(s1, s2) for job in islice(sides[side], n)]
        blocks = merged_blocks(s1, s2, weight, processing)
        assert blocks == _summaries(order + [Job(processing, weight)])
        assert all(n >= 1 for _, _, n in blocks)
        assert sum(n for _, _, n in blocks) == len(c1) + len(c2) + 1
        assert all(w1 * p2 > w2 * p1 for (w1, p1, _), (w2, p2, _) in zip(blocks, blocks[1:]))
    assert ties >= 50  # cross-chain fuses are exercised, not just possible


def test_merged_blocks_share_the_blocks_that_do_not_fuse():
    s1 = _summaries(jobs((1, 5), (2, 3), (1, 1)))
    blocks = merged_blocks(s1, (), 0, 1)  # a weightless job fuses with no weighted block
    assert blocks[:3] == s1 and all(a is b for a, b in zip(blocks, s1))
    assert blocks[3] == (0, 1, 1)


def test_merge_single_chain_passthrough():
    order, objective = merge_two_chains([Job(1, 3, "a")], [])
    assert order == ["a"]
    assert objective == 3


def test_merge_two_singletons():
    order, objective = merge_two_chains([Job(1, 3, "a")], [Job(2, 1, "b")])
    assert order == ["a", "b"]
    assert objective == 6  # reverse order would cost 11


def test_merge_rho_tie_prefers_first_chain():
    c1 = [Job(2, 1, "x"), Job(1, 5, "y")]
    c2 = [Job(1, 2, "z")]
    order, objective = merge_two_chains(c1, c2)
    assert order == ["x", "y", "z"]
    assert objective == 25
    assert interleaving_oracle(c1, c2) == 25


def test_wspt_degeneration_on_singletons():
    first = [Job(2, 3, "hi")]  # density 3/2
    second = [Job(3, 4, "lo")]  # density 4/3 < 3/2
    order, _ = merge_two_chains(first, second)
    assert order == ["hi", "lo"]
    tie1, tie2 = [Job(2, 3, "c1")], [Job(4, 6, "c2")]
    assert merge_two_chains(tie1, tie2)[0] == ["c1", "c2"]


def test_merge_matches_interleaving_oracle_random():
    rng = random.Random(17)
    for _ in range(200):
        total = rng.randint(0, 12)
        split = rng.randint(0, total)
        c1 = [Job(rng.randint(1, 9), rng.randint(0, 9), ("a", i)) for i in range(split)]
        c2 = [Job(rng.randint(1, 9), rng.randint(0, 9), ("b", i)) for i in range(total - split)]
        order, objective = merge_two_chains(c1, c2)
        assert objective == interleaving_oracle(c1, c2)
        # the emitted order preserves both chains and realizes the objective
        assert [t for t in order if t[0] == "a"] == [j.tag for j in c1]
        assert [t for t in order if t[0] == "b"] == [j.tag for j in c2]


def test_merge_value_agrees_with_expanded_walk():
    rng = random.Random(29)
    for _ in range(200):
        c1 = jobs(*[(rng.randint(1, 9), rng.randint(0, 9)) for _ in range(rng.randint(0, 8))])
        c2 = jobs(*[(rng.randint(1, 9), rng.randint(0, 9)) for _ in range(rng.randint(0, 8))])
        assert _merge_value(c1, c2) == merge_two_chains(c1, c2)[1]


def _merge_value(c1, c2):
    """``merge_value`` on two job chains, each with its objective run alone and
    its total weight."""
    s1, s2 = _summaries(c1), _summaries(c2)
    own1, own2 = merge_two_chains(c1, [])[1], merge_two_chains(c2, [])[1]
    return merge_value(s1, s2, own1, own2, sum(j.weight for j in c1), sum(j.weight for j in c2))


def _chain(rng, kind):
    """A short chain that is empty, weightless, weighted then weightless, or weighted."""
    size = rng.randint(1, 3)
    zeros = [(rng.randint(1, 3), 0) for _ in range(size)]
    # weights 0..2 over lengths 1..3 make equal densities across the chains common
    weighted = [(rng.randint(1, 3), rng.randint(0, 2)) for _ in range(size)]
    weighted[0] = (weighted[0][0], rng.randint(1, 2))
    return jobs(*{"empty": [], "zero": zeros, "zero_tail": weighted + zeros, "weighted": weighted}[kind])


@pytest.mark.parametrize("kind2", ["empty", "zero", "zero_tail", "weighted"])
@pytest.mark.parametrize("kind1", ["empty", "zero", "zero_tail", "weighted"])
def test_merge_value_with_weightless_chains(kind1, kind2):
    """A zero-weight first block means the chain carries no weight at all.

    Block densities fall strictly and weights are non-negative, so such a
    chain is that one block; ``merge_value`` then returns the other chain's
    own objective without a walk, which must equal the optimal interleaving.
    """
    rng = random.Random(f"{kind1}/{kind2}")
    for _ in range(40):
        c1, c2 = _chain(rng, kind1), _chain(rng, kind2)
        for chain in (c1, c2):
            blocks = density_decomposition(chain)
            if blocks and blocks[0][0] == 0:
                assert len(blocks) == 1 and not any(j.weight for j in chain)
        assert _merge_value(c1, c2) == merge_two_chains(c1, c2)[1] == interleaving_oracle(c1, c2)
        assert _merge_value(c2, c1) == _merge_value(c1, c2)


def test_merge_value_on_density_ties():
    # equal densities on both sides, weightless tails included
    for c1, c2 in [
        (jobs((2, 4)), jobs((1, 2))),
        (jobs((2, 4), (1, 0)), jobs((1, 2), (3, 0))),
        (jobs((1, 1), (2, 0)), jobs((3, 3))),
        (jobs((1, 0)), jobs((2, 0), (1, 0))),
    ]:
        assert _merge_value(c1, c2) == merge_two_chains(c1, c2)[1] == interleaving_oracle(c1, c2)


def test_scaling_weights_preserves_order():
    rng = random.Random(31)
    for _ in range(50):
        c1 = [Job(rng.randint(1, 9), rng.randint(0, 9), i) for i in range(rng.randint(0, 6))]
        c2 = [Job(rng.randint(1, 9), rng.randint(0, 9), 100 + i) for i in range(rng.randint(0, 6))]
        order, objective = merge_two_chains(c1, c2)
        scaled1 = [Job(j.processing, 7 * j.weight, j.tag) for j in c1]
        scaled2 = [Job(j.processing, 7 * j.weight, j.tag) for j in c2]
        order7, objective7 = merge_two_chains(scaled1, scaled2)
        assert order7 == order
        assert objective7 == 7 * objective


def _limit_cases():
    """Chains with zero weights, density ties and numbers up to 2^62."""
    rng = random.Random(53)
    for _ in range(300):
        top = rng.choice([2, 9, 1 << 62])
        # small numbers tie densities across the chains; huge ones exercise exact arithmetic
        pick = lambda lo: rng.choice([lo, 1, 2, top, rng.randint(lo, top)])
        c1, c2 = (
            jobs(*[(pick(1), pick(0) * rng.randint(0, 1)) for _ in range(rng.randint(0, 6))])
            for _ in range(2)
        )
        yield c1, c2


def test_merge_value_limit_contract():
    # below the limit the result is the exact objective; otherwise it is any
    # value no less than the limit, and ``None`` means no limit at all
    for c1, c2 in _limit_cases():
        s1, s2 = _summaries(c1), _summaries(c2)
        args = (s1, s2, merge_two_chains(c1, [])[1], merge_two_chains(c2, [])[1])
        weights = (sum(w for w, _, _ in s1), sum(w for w, _, _ in s2))
        assert weights == (sum(j.weight for j in c1), sum(j.weight for j in c2))
        objective = merge_two_chains(c1, c2)[1]
        assert merge_value(*args, *weights) == merge_value(*args, *weights, None) == objective
        for above in (1, 2, objective + 1, 1 << 63):
            assert merge_value(*args, *weights, objective + above) == objective
        own = args[2] + args[3]
        for limit in {objective, objective - 1, own + 1, own, own - 1, objective // 2, 0, -(1 << 62)}:
            if limit <= objective:
                assert merge_value(*args, *weights, limit) >= limit
