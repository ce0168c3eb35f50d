"""The top-level ``netcon`` namespace is the documented API, and nothing more.

Solver internals (catalogs, records, closures, forests) stay importable from
their submodules but are not re-exported.
"""

import ast
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
    assert callable(metric_solver.evaluate_rforest)
    for gone in ("RForest", "FixedRSolution", "solve_fixed_r_detailed", "_spanning_forest"):
        assert not hasattr(metric_solver, gone), gone
    assert not hasattr(tree_solver, "merge_for_edge")
    assert not hasattr(tree_solver, "crossing_weight")
    assert not hasattr(netcon.chains, "DensityBlock")


def test_each_text_format_has_one_definition():
    from netcon import cli, evaluator, model

    assert cli.parse_solution is model.parse_solution
    assert cli.format_solution is model.format_solution
    assert evaluator.ConnectionReport is model.ConnectionReport
    assert netcon.format_report is model.format_report


def test_only_model_uses_the_text_format_helpers():
    helpers = {"_content_lines", "_parse_int"}
    for path in sorted(Path(netcon.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert not helpers & {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.Attribute):
                assert node.attr not in helpers, path.name


def test_each_instance_rule_error_is_raised_once_through_invalid():
    # every rule error is built by _invalid with its directive and position,
    # and only _build catches one, to add its line; generate's parameter
    # errors are not instance rules and name no directive
    catchers, builders = set(), set()
    tree = ast.parse((Path(netcon.__file__).parent / "model.py").read_text())
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {name.id for name in ast.walk(node.type) if isinstance(name, ast.Name)}
                if "InvalidInstanceError" in caught:
                    catchers.add(top.name)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id == "InvalidInstanceError":
                    builders.add(top.name)
    assert catchers == {"_build"}
    assert builders == {"_invalid", "generate"}
