"""The top-level ``netcon`` namespace is the documented API, and nothing more.

Solver internals (catalogs, records, closures, forests) stay importable from
their submodules but are not re-exported.
"""

import re
from pathlib import Path

import netcon

PUBLIC = [
    "BuildSequence",
    "Chain",
    "ConnectionReport",
    "GuardExceededError",
    "Instance",
    "InstanceFormatError",
    "InvalidInstanceError",
    "Job",
    "NetconError",
    "Network",
    "Objective",
    "OlaInput",
    "RelevantPair",
    "SequenceError",
    "UnsupportedInstanceError",
    "Verdict",
    "density_decomposition",
    "evaluate_sequence",
    "format_report",
    "generate",
    "interleaving_oracle",
    "merge_two_chains",
    "parse_instance",
    "parse_ola_input",
    "permutation_oracle",
    "reduce_ola",
    "solve_fixed_r",
    "solve_tree",
    "subset_dp",
    "validate_sequence",
    "write_instance",
    "write_ola_input",
]

INTERNAL = [
    "DensityBlock",
    "ForestEvaluation",
    "RForest",
    "SubtreeCatalog",
    "SubtreeRecord",
    "build_metric_closure",
    "crossing_weight",
    "enumerate_candidate_forests",
    "enumerate_subtrees",
    "evaluate_rforest",
    "merge_for_edge",
    "pair_weight_tables",
    "project_to_graph",
    "solve_fixed_r_detailed",
]


def test_all_is_the_documented_surface():
    assert sorted(netcon.__all__) == PUBLIC


def test_readme_lists_the_exported_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("exports exactly these names")
    listed = readme[start : readme.index("\n\n", readme.index("\n- ", start))]
    assert sorted(set(re.findall(r"`(\w+)`", listed))) == PUBLIC


def test_every_exported_name_resolves():
    for name in netcon.__all__:
        assert getattr(netcon, name) is not None, name


def test_internals_are_not_top_level():
    for name in INTERNAL:
        assert not hasattr(netcon, name), name


def test_internals_live_in_their_submodules():
    from netcon import metric_solver, tree_solver

    assert callable(tree_solver.subtree_records)
    assert callable(metric_solver.solve_fixed_r_detailed)
    assert not hasattr(tree_solver, "merge_for_edge")
    assert not hasattr(tree_solver, "crossing_weight")
    assert not hasattr(netcon.chains, "DensityBlock")
