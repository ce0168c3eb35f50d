"""Acceptance suite: runs every criterion at full scale and prints a line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``netcon selftest``)
to see the per-criterion PASS/FAIL lines.
"""

import pytest

from netcon import selftest


def _report(result):
    print(result.line())
    return result


@pytest.fixture(scope="module")
def fixed_r_results():
    # criteria 2 and 6 share one sweep over the same instances
    return selftest.criterion_fixed_r_exactness()


def test_criterion_1_tree_exactness():
    result = _report(selftest.criterion_tree_exactness())
    assert result.passed, result.detail
    assert result.seconds < 60


def test_criterion_2_fixed_r_exactness(fixed_r_results):
    result = _report(fixed_r_results[0])
    assert result.passed, result.detail
    assert result.seconds < 120


def test_criterion_3_merge_optimality():
    result = _report(selftest.criterion_merge_optimality())
    assert result.passed, result.detail
    assert result.seconds < 30


def test_criterion_4_density_decomposition():
    result = _report(selftest.criterion_density_decomposition())
    assert result.passed, result.detail
    assert result.seconds < 10


def test_criterion_5_reduction_identity():
    result = _report(selftest.criterion_reduction_identity())
    assert result.passed, result.detail
    assert result.seconds < 60


def test_criterion_6_replay_equals_forest_optimum(fixed_r_results):
    result = _report(fixed_r_results[1])
    assert result.passed, result.detail


def test_criterion_7_budget_runs():
    result = _report(selftest.criterion_budget_runs())
    assert result.passed, result.detail


def test_criterion_8_determinism():
    result = _report(selftest.criterion_determinism())
    assert result.passed, result.detail
