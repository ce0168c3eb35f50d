"""Self-checks of the benchmark: layer counters, time accounting, inputs, pins.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
from math import comb

import pytest

import layers
import netcon
import worker
import workloads


def traced_solve(tmp_path, instance, *flags):
    path = tmp_path / "case.ncn"
    case = workloads.Case("test", netcon.write_instance(instance), flags)
    path.write_text(case.text)
    job = worker.Prepared(case, str(path), instance, None, None)
    tracer = layers.Tracer()
    code, text, _ = tracer.trace(lambda: worker.solve(job))
    assert code == 0, text
    return tracer


@pytest.mark.parametrize("m", [3, 5, 9, 12])
def test_path_counters_match_closed_forms(tmp_path, m):
    tracer = traced_solve(tmp_path, netcon.generate("path", m + 1, seed=m, pair_count=2))
    got = tracer.solves[0].counters()
    assert got["tree_solver.subtrees"] == m * (m + 1) // 2
    assert got["chains.merge_value_calls"] == comb(m, 3)


def test_one_pair_gives_one_candidate_scored_twice(tmp_path):
    instance = netcon.generate("random_graph", 9, seed=3, edge_count=15, pair_count=1)
    got = traced_solve(tmp_path, instance).solves[0].counters()
    assert got["metric_solver.candidates"] == 1
    assert got["metric_solver.evaluations"] == 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_add_up_to_the_traced_solve(tmp_path, workload):
    case = workloads.build(workload, 0, 0)
    tracer = traced_solve(tmp_path, netcon.parse_instance(case.text), *case.flags)
    stats = tracer.solves[0]
    assert stats.total > 0
    assert abs(stats.unaccounted()) <= 1e-9 + 1e-6 * stats.total
    assert sum(layers.split(tracer.solves).values()) == pytest.approx(1.0)
    names = {name for _, name, _, _, _ in tracer.spans}
    backend = layers.TREE if workload.startswith("tree") else layers.METRIC
    assert {layers.OUTER, "model.parse", "cli.format", backend, layers.REPLAY} <= names


def test_tracer_puts_the_original_functions_back(tmp_path):
    before = [getattr(module, attr) for module, attr, _, _ in layers.PATCHES]
    traced_solve(tmp_path, netcon.generate("path", 6, seed=1, pair_count=2))
    assert [getattr(module, attr) for module, attr, _, _ in layers.PATCHES] == before


def test_self_check_cases_carry_the_closed_forms():
    (path, path_counters), (single, single_counters) = workloads.self_check_cases()
    m = netcon.parse_instance(path.text).network.edge_count
    assert path_counters == {"tree_solver.subtrees": comb(m + 1, 2), "chains.merge_value_calls": comb(m, 3)}
    assert netcon.parse_instance(single.text).pair_count == 1
    assert single_counters == {"metric_solver.candidates": 1, "metric_solver.evaluations": 2}


def test_same_seed_gives_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.cases(workload, 7) == workloads.cases(workload, 7)
        assert workloads.cases(workload, 7) != workloads.cases(workload, 8)


def test_every_pool_instance_is_pinned():
    pins = json.loads((worker.BENCH / "pins.json").read_text())
    keys = set()
    for workload in workloads.WORKLOADS:
        for i in range(len(workloads.strata(workload))):
            for v in range(workloads.VARIANTS):
                case = workloads.build(workload, i, v)
                assert pins[case.key][0] == case.digest, case.key
                keys.add(case.key)
    keys |= {case.key for case, _ in workloads.self_check_cases()}
    assert keys == set(pins)


def test_tree_workloads_route_to_the_tree_backend():
    for workload in ("tree-sparse", "tree-dense"):
        for case in workloads.cases(workload, 0):
            instance = netcon.parse_instance(case.text)
            assert instance.network.is_tree and instance.objective is netcon.Objective.WEIGHTED_SUM
            assert instance.network.leaf_count <= netcon.tree_solver.LEAF_BOUND
    for case in workloads.cases("tree-dense", 0):
        instance = netcon.parse_instance(case.text)
        assert len(instance.terminals) == instance.network.vertex_count


def test_check_rejects_a_wrong_objective(tmp_path):
    case = workloads.self_check_cases()[0][0]
    path = tmp_path / "p.ncn"
    path.write_text(case.text)
    instance = netcon.parse_instance(case.text)
    code, text, _ = worker.solve(worker.Prepared(case, str(path), instance, None, None))
    pinned = json.loads((worker.BENCH / "pins.json").read_text())[case.key][1]
    assert worker.check(worker.Prepared(case, str(path), instance, pinned, None), code, text) is None
    wrong = worker.Prepared(case, str(path), instance, pinned - 1, None)
    assert "pinned" in worker.check(wrong, code, text)
    tampered = text.replace(f"objective {pinned}", f"objective {pinned - 1}")
    assert "replay" in worker.check(wrong, code, tampered)


def test_a_layer_the_program_lost_is_skipped(tmp_path, monkeypatch):
    lost = (netcon.chains, "no_such_function", "chains.lost", "leaf")
    monkeypatch.setattr(layers, "PATCHES", layers.PATCHES + (lost,))
    tracer = traced_solve(tmp_path, netcon.generate("path", 6, seed=1, pair_count=2))
    assert layers.missing() == ["netcon.chains.no_such_function"]
    assert tracer.solves[0].calls["chains.lost"] == 0
