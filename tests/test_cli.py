import argparse
import itertools
import pathlib
import re
import sys

import pytest

import netcon.metric_solver
import netcon.tree_solver
from netcon import (
    GuardExceededError,
    Instance,
    NetconError,
    Network,
    RelevantPair,
    cli,
    generate,
    parse_instance,
    selftest,
    solve_fixed_r,
    solve_tree,
    subset_dp,
    write_instance,
)
from netcon.metric_solver import ENDPOINT_BOUND, PAIR_BOUND
from netcon.oracle import PERMUTATION_EDGE_LIMIT, SUBSET_EDGE_LIMIT
from netcon.tree_solver import LEAF_BOUND

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# objectives frozen from the subset-dp oracle
FIXTURE_OBJECTIVES = {
    "path3.ncn": 9,
    "square.ncn": 7,
    "square_maxlat.ncn": 0,
    "star_ola.ncn": 22,
    "tree8.ncn": 36,
    "spider3.ncn": 341,
    "graph7.ncn": 18,
    "maxlat_step3.ncn": 9,
    "maxlat_pareto.ncn": 12,
}


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _fixed_r_admits(instance):
    # the rule solve_fixed_r checks first (its exit 3 cases are tested below)
    return len(instance.terminals) <= ENDPOINT_BOUND and instance.pair_count <= PAIR_BOUND


def _golden_runs():
    """Every fixture under ``auto``, and under ``fixed-r`` where its guard admits it."""
    runs = []
    for path in sorted(FIXTURES.glob("*.ncn")):
        runs.append((path.stem, "auto"))
        if _fixed_r_admits(parse_instance(path.read_text())):
            runs.append((path.stem, "fixed-r"))
    return runs


@pytest.mark.parametrize("name, backend", _golden_runs())
def test_solve_output_matches_the_golden_file(capsys, name, backend):
    # tests/fixtures/<name>.<backend>.out holds the exact stdout of the solve
    status, out, err = run(capsys, "solve", "--backend", backend, str(FIXTURES / f"{name}.ncn"))
    assert status == 0, err
    assert out == (FIXTURES / f"{name}.{backend}.out").read_text()


def test_every_golden_file_is_checked():
    checked = {f"{name}.{backend}.out" for name, backend in _golden_runs()}
    assert {path.name for path in FIXTURES.glob("*.out")} == checked


def test_solve_path3_reports_objective(capsys):
    status, out, _ = run(capsys, "solve", "--backend", "tree", str(FIXTURES / "path3.ncn"))
    assert status == 0
    assert "objective 9" in out.splitlines()
    assert "sequence" in out.splitlines()


@pytest.mark.parametrize("name, want", sorted(FIXTURE_OBJECTIVES.items()))
def test_fixture_objectives(capsys, name, want):
    status, out, _ = run(capsys, "solve", str(FIXTURES / name))
    assert status == 0
    assert f"objective {want}" in out.splitlines()


@pytest.mark.parametrize("name", sorted(FIXTURE_OBJECTIVES))
def test_solve_then_validate_round_trips(capsys, tmp_path, name):
    solution = tmp_path / "solution.txt"
    status, _, _ = run(capsys, "solve", str(FIXTURES / name), "-o", str(solution))
    assert status == 0
    status, out, _ = run(capsys, "validate", str(FIXTURES / name), str(solution))
    assert status == 0
    assert "ok" in out


def test_solve_to_an_unwritable_path_prints_nothing(capsys, tmp_path):
    # the output file is written before stdout, so a usage error leaves stdout empty
    target = tmp_path / "missing" / "square.out"
    status, out, err = run(capsys, "solve", str(FIXTURES / "square.ncn"), "-o", str(target))
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


def test_validate_rejects_tampered_sequence(capsys, tmp_path):
    solution = tmp_path / "solution.txt"
    run(capsys, "solve", str(FIXTURES / "path3.ncn"), "-o", str(solution))
    text = solution.read_text().splitlines()
    body, seq = text[: text.index("sequence") + 1], text[text.index("sequence") + 1 :]
    solution.write_text("\n".join(body + seq[::-1]) + "\n")
    status, out, _ = run(capsys, "validate", str(FIXTURES / "path3.ncn"), str(solution))
    assert status == 1
    assert "pair" in out


def test_validate_rejects_tampered_objective(capsys, tmp_path):
    solution = tmp_path / "solution.txt"
    run(capsys, "solve", str(FIXTURES / "square.ncn"), "-o", str(solution))
    solution.write_text(solution.read_text().replace("objective 7", "objective 6"))
    status, out, _ = run(capsys, "validate", str(FIXTURES / "square.ncn"), str(solution))
    assert status == 1
    assert "objective" in out


def test_validate_rejects_a_second_objective_line(capsys, tmp_path):
    solution = tmp_path / "solution.txt"
    run(capsys, "solve", str(FIXTURES / "square.ncn"), "-o", str(solution))
    lines = solution.read_text().splitlines()
    at = lines.index("objective 7")
    solution.write_text("\n".join(lines[:at] + ["objective 999"] + lines[at:]) + "\n")
    status, _, err = run(capsys, "validate", str(FIXTURES / "square.ncn"), str(solution))
    assert status == 2
    assert f"line {at + 2}: duplicate objective line" in err


def test_backends_agree_on_tree_fixtures(capsys):
    # tree fixtures with at most 3 pairs; star_ola.ncn has 6, over the r guard
    for name in ("path3.ncn", "tree8.ncn"):
        _, out_tree, _ = run(capsys, "solve", "--backend", "tree", str(FIXTURES / name))
        _, out_fixed, _ = run(capsys, "solve", "--backend", "fixed-r", str(FIXTURES / name))
        tree_obj = [l for l in out_tree.splitlines() if l.startswith("objective")]
        fixed_obj = [l for l in out_fixed.splitlines() if l.startswith("objective")]
        assert tree_obj == fixed_obj


def test_solve_is_deterministic_across_runs(capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "solve", str(FIXTURES / "graph7.ncn"))
        outputs.add(out)
    assert len(outputs) == 1


def test_reduce_ola_then_oracle(capsys, tmp_path):
    reduced = tmp_path / "star.ncn"
    status, out, _ = run(capsys, "reduce-ola", str(FIXTURES / "triangle.ola"), "-o", str(reduced))
    assert status == 0
    assert "threshold 22" in out
    assert "# ola-threshold 22" in reduced.read_text()
    status, out, _ = run(capsys, "oracle", str(reduced))
    assert status == 0
    assert out.strip() == "objective 22"


def test_oracle_permutation_method(capsys):
    status, out, _ = run(capsys, "oracle", "--method", "permutations", str(FIXTURES / "path3.ncn"))
    assert status == 0
    assert out.strip() == "objective 9"


def _gen_path(capsys, tmp_path, edges: int) -> str:
    path = tmp_path / f"path{edges}.ncn"
    run(capsys, "gen", "--kind", "path", "--n", str(edges + 1), "--pairs", "2", "-o", str(path))
    return str(path)


def test_oracle_edge_bound_applies_to_either_method(capsys, tmp_path):
    square = str(FIXTURES / "square.ncn")  # 4 edges
    for method in ("subset-dp", "permutations"):
        assert run(capsys, "oracle", "--method", method, square)[0] == 0
    # each method trips its own bound, one edge past it
    over_permutations = _gen_path(capsys, tmp_path, PERMUTATION_EDGE_LIMIT + 1)
    assert run(capsys, "oracle", "--method", "subset-dp", over_permutations)[0] == 0
    for method, bound in (("permutations", PERMUTATION_EDGE_LIMIT), ("subset-dp", SUBSET_EDGE_LIMIT)):
        over = _gen_path(capsys, tmp_path, bound + 1)
        status, out, err = run(capsys, "oracle", "--method", method, over)
        assert (status, out) == (3, ""), method
        assert f"limited to {bound} edges" in err, method


def test_gen_rejects_an_inverted_due_range(capsys):
    argv = ("gen", "--kind", "random_graph", "--n", "6", "--pairs", "2", "--objective", "maxlat")
    status, out, err = run(capsys, *argv, "--due-range", "50", "0")
    assert (status, out) == (2, "")
    assert "bad due range" in err
    assert run(capsys, *argv, "--weight-range", "5", "1")[0] == 2


def test_gen_writes_canonical_parseable_file(capsys, tmp_path):
    out_file = tmp_path / "gen.ncn"
    status, _, _ = run(
        capsys, "gen", "--kind", "random_tree", "--n", "7", "--seed", "3",
        "--pairs", "3", "-o", str(out_file),
    )
    assert status == 0
    inst = parse_instance(out_file.read_text())
    assert inst.network.vertex_count == 7
    assert len(inst.pairs) == 3
    # same seed, same bytes
    again = tmp_path / "gen2.ncn"
    run(capsys, "gen", "--kind", "random_tree", "--n", "7", "--seed", "3",
        "--pairs", "3", "-o", str(again))
    assert again.read_text() == out_file.read_text()


def test_gen_maxlat_carries_dues(capsys):
    status, out, _ = run(
        capsys, "gen", "--kind", "path", "--n", "4", "--objective", "maxlat", "--pairs", "2"
    )
    assert status == 0
    inst = parse_instance(out)
    assert all(p.due is not None for p in inst.pairs)


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "solve", str(tmp_path / "missing.ncn"))[0] == 2
    bad = tmp_path / "bad.ncn"
    bad.write_text("netcon 1\nobjective wct\nvertices 2\nedge 0 0 1\npair 0 1 1\n")
    assert run(capsys, "solve", str(bad))[0] == 2
    assert run(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize("command", ["solve", "validate", "oracle", "reduce-ola"])
def test_a_file_that_is_not_utf8_exits_2(capsys, tmp_path, command):
    bad = tmp_path / "bad.ncn"
    bad.write_bytes(b"netcon 1\n\xff\n")
    files = [str(bad), str(bad)] if command == "validate" else [str(bad)]
    status, out, err = run(capsys, command, *files)
    assert status == 2
    assert out == ""
    assert err.startswith(f"error: {bad} is not UTF-8 text") and "Traceback" not in err


def _int_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_numbers_past_the_int_string_digit_limit_stay_exact(capsys, tmp_path):
    # a 5000-digit length, past the 4300 digits Python converts by default
    length = 10**4999 + 7
    length_text = "1" + "0" * 4998 + "7"
    objective_text = "3" + "0" * 4997 + "21"  # 3 * length
    instance = Instance(Network(2, ((0, 1, length),)), (RelevantPair(0, 1, 3),))
    assert solve_tree(instance)[1].objective == 3 * length
    path = tmp_path / "long.ncn"
    path.write_text(f"netcon 1\nobjective wct\nvertices 2\nedge 0 1 {length_text}\npair 0 1 3\n")
    limit = _int_digit_limit()
    status, out, err = run(capsys, "solve", str(path), "-o", str(tmp_path / "long.out"))
    assert (status, err) == (0, "")
    assert out == f"pair 0 1 t={length_text}\nobjective {objective_text}\nsequence\n0\n"
    assert run(capsys, "validate", str(path), str(tmp_path / "long.out")) == (0, "ok\n", "")
    assert run(capsys, "oracle", str(path)) == (0, f"objective {objective_text}\n", "")
    # the interpreter's limit is back once each call returns
    assert _int_digit_limit() == limit


def test_guard_exceeded_exits_3(capsys, tmp_path):
    big = tmp_path / "big.ncn"
    run(capsys, "gen", "--kind", "star", "--n", "9", "--pairs", "3", "-o", str(big))
    assert run(capsys, "solve", "--backend", "tree", str(big))[0] == 3
    assert run(capsys, "solve", "--backend", "tree", "--force", str(big))[0] == 0


def _fixed_r_instance(t, r, objective="wct"):
    """r pairs over the endpoints 0..t-1 of a unit cycle on t + 1 vertices: a
    matching over the endpoints first, then the pairs of the lowest ones."""
    n = t + 1
    network = Network(n, tuple((v, (v + 1) % n, 1) for v in range(n)))
    keys = [(v, v + 1) for v in range(0, t - 1, 2)] + [(t - 2, t - 1)] * (t % 2)
    by_top = sorted(itertools.combinations(range(t), 2), key=lambda key: key[1])
    keys += [key for key in by_top if key not in keys]
    due = (0,) * (objective == "maxlat")
    instance = Instance(network, tuple(RelevantPair(u, v, 1, *due) for u, v in keys[:r]), objective)
    assert (len(instance.terminals), instance.pair_count) == (t, r)
    return instance


def test_guard_messages_name_the_force_flag(capsys, tmp_path):
    star = tmp_path / "star.ncn"
    run(capsys, "gen", "--kind", "star", "--n", "10", "--pairs", "3", "-o", str(star))
    # one pair past the fixed-r pair bound, with the endpoints at theirs
    many_pairs = tmp_path / "pairs.ncn"
    many_pairs.write_text(write_instance(_fixed_r_instance(ENDPOINT_BOUND, PAIR_BOUND + 1)))
    for argv in (
        ("solve", "--backend", "fixed-r", str(many_pairs)),
        ("solve", "--backend", "tree", str(star)),
        ("oracle", _gen_path(capsys, tmp_path, SUBSET_EDGE_LIMIT + 1)),
        ("oracle", "--method", "permutations", str(star)),
    ):
        status, out, err = run(capsys, *argv)
        assert (status, out) == (3, ""), argv
        assert "--force" in err, argv


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counted():
        built.append(None)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    path3 = str(FIXTURES / "path3.ncn")
    first = run(capsys, "solve", path3)
    assert first[0] == 0
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "solve", path3) == first
    assert len(built) == 1


@pytest.mark.parametrize("objective", ["wct", "maxlat"])
def test_one_past_each_fixed_r_bound_exits_3_with_the_library_message(capsys, tmp_path, objective):
    if objective == "wct":
        work = "the wct solver runs up to r! subset DPs of 3^(t-1) * n work"
    else:
        work = "the maxlat subset DP keeps Pareto labels over 2^(t-1) endpoint sets"
    path = tmp_path / "past.ncn"
    for t, r in ((ENDPOINT_BOUND + 1, PAIR_BOUND), (ENDPOINT_BOUND, PAIR_BOUND + 1)):
        instance = _fixed_r_instance(t, r, objective)
        with pytest.raises(GuardExceededError) as caught:
            solve_fixed_r(instance)
        message = str(caught.value)
        assert message == (
            f"t = {t} pair endpoints and r = {r} pairs exceed the bounds "
            f"t <= {ENDPOINT_BOUND} and r <= {PAIR_BOUND}; {work}, "
            "pass force=True (--force on the command line) to run anyway"
        )
        # the network is a cycle, so auto picks fixed-r too
        path.write_text(write_instance(instance))
        for backend in ("auto", "fixed-r"):
            assert run(capsys, "solve", "--backend", backend, str(path)) == (3, "", f"error: {message}\n")


def test_a_wide_wct_tree_under_auto_also_names_the_tree_backend(capsys, tmp_path):
    # auto sends a wct tree past the leaf bound to fixed-r, whose guard refuses
    # this 8-leaf star; the tree backend solves it with --force
    path = tmp_path / "star.ncn"
    instance = generate("star", 9, seed=1, pair_count=8)
    assert instance.network.leaf_count == 8 > LEAF_BOUND
    path.write_text(write_instance(instance))
    library = (
        "t = 8 pair endpoints and r = 8 pairs exceed the bounds t <= 8 and r <= 6; "
        "the wct solver runs up to r! subset DPs of 3^(t-1) * n work, "
        "pass force=True (--force on the command line) to run anyway"
    )
    with pytest.raises(GuardExceededError, match=f"^{re.escape(library)}$"):
        solve_fixed_r(instance)
    hint = "; the tree has 8 leaves (tree bound 6): --backend tree --force runs the subtree DP"
    assert run(capsys, "solve", str(path)) == (3, "", f"error: {library}{hint}\n")
    # fixed-r by name gets the library's message alone, and so does a maxlat
    # tree, which the tree backend does not solve
    assert run(capsys, "solve", "--backend", "fixed-r", str(path)) == (3, "", f"error: {library}\n")
    maxlat = tmp_path / "star_maxlat.ncn"
    maxlat.write_text(write_instance(generate("star", 9, seed=1, pair_count=8, objective="maxlat")))
    status, out, err = run(capsys, "solve", str(maxlat))
    assert (status, out) == (3, "") and err.endswith("to run anyway\n")
    status, out, _ = run(capsys, "solve", "--backend", "tree", "--force", str(path))
    assert status == 0 and out.startswith("pair ")


class _Admitted(Exception):
    pass


def test_the_fixed_r_guard_admits_all_the_old_bounds_did_before_any_distance(monkeypatch):
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(netcon.metric_solver, "build_metric_closure", admitted)
    hub = Network(7, tuple((0, v, 1) for v in range(1, 7)))
    for objective in ("wct", "maxlat"):
        due = (0,) * (objective == "maxlat")
        # the old general bound (four pairs, eight endpoints), the old hub bound
        # (six pairs at one vertex), and both new bounds at once
        for instance in (
            _fixed_r_instance(8, 4, objective),
            Instance(hub, tuple(RelevantPair(0, v, 1, *due) for v in range(1, 7)), objective),
            _fixed_r_instance(ENDPOINT_BOUND, PAIR_BOUND, objective),
        ):
            with pytest.raises(_Admitted):
                solve_fixed_r(instance)
        # one past either bound trips before any distance; force is the one way past
        for t, r in ((ENDPOINT_BOUND + 1, PAIR_BOUND), (5, PAIR_BOUND + 1)):
            instance = _fixed_r_instance(t, r, objective)
            with pytest.raises(GuardExceededError):
                solve_fixed_r(instance)
            with pytest.raises(_Admitted):
                solve_fixed_r(instance, force=True)


def test_depot_flag_changes_no_verdict(capsys, tmp_path):
    # five pairs from hub 0; consecutive leaves also meet at a non-terminal
    edges = [(0, v, v) for v in range(1, 6)]
    edges += [(v, 5 + v, 2) for v in range(1, 5)] + [(v + 1, 5 + v, 3) for v in range(1, 5)]
    network = Network(10, tuple(edges))
    instance = Instance(network, tuple(RelevantPair(0, v, v) for v in range(1, 6)))
    path = tmp_path / "depot.ncn"
    path.write_text(write_instance(instance))
    status, out, err = run(capsys, "solve", "--depot", "--backend", "fixed-r", str(path))
    assert status == 0, err
    assert f"objective {subset_dp(instance)[0]}" in out.splitlines()
    # the flag only checks the shared vertex: the same solve runs without it
    assert run(capsys, "solve", "--backend", "fixed-r", str(path)) == (0, out, "")
    assert run(capsys, "solve", str(path)) == (0, out, "")
    # five pairs without a shared vertex meet the same bounds, and the flag refuses them
    general = tmp_path / "general.ncn"
    pairs = tuple(RelevantPair(v, v + 1, 1) for v in range(5))
    general.write_text(write_instance(Instance(network, pairs)))
    status, out, err = run(capsys, "solve", "--backend", "fixed-r", str(general))
    assert status == 0, err
    assert f"objective {subset_dp(Instance(network, pairs))[0]}" in out.splitlines()
    assert run(capsys, "solve", "--depot", "--backend", "fixed-r", str(general))[0] == 2
    # pairs from hub 0 one past the pair bound are refused, with the flag or without
    past = tmp_path / "past.ncn"
    leaves = range(1, PAIR_BOUND + 2)
    past.write_text(write_instance(Instance(network, tuple(RelevantPair(0, v, 1) for v in leaves))))
    for flags in (("--depot",), ()):
        status, out, err = run(capsys, "solve", *flags, str(past))
        assert (status, out) == (3, ""), flags
        assert f"r = {PAIR_BOUND + 1} pairs exceed" in err, flags


def test_depot_flag_needs_a_shared_vertex(capsys):
    status, out, err = run(capsys, "solve", "--depot", str(FIXTURES / "square.ncn"))
    assert (status, out) == (2, "")
    assert "common to all pairs" in err
    # the check comes before the backend is picked, so the tree DP refuses too
    path3 = str(FIXTURES / "path3.ncn")
    for backend in ("auto", "tree", "fixed-r"):
        status, out, err = run(capsys, "solve", "--depot", "--backend", backend, path3)
        assert (status, out) == (2, ""), backend
        assert "common to all pairs" in err


@pytest.mark.parametrize(
    "token",
    ["--5", "\u00b2", "1_0", "+3", "\u0663"],
    ids=["double-minus", "superscript-two", "underscore", "plus", "arabic-three"],
)
def test_validate_rejects_a_malformed_edge_id(capsys, tmp_path, token):
    solution = tmp_path / "solution.txt"
    run(capsys, "solve", str(FIXTURES / "path3.ncn"), "-o", str(solution))
    lines = solution.read_text().splitlines()
    lines[-1] = token
    solution.write_text("\n".join(lines) + "\n")
    status, out, err = run(capsys, "validate", str(FIXTURES / "path3.ncn"), str(solution))
    assert (status, out) == (2, "")
    assert f"line {len(lines)}" in err


@pytest.mark.parametrize("token", ["1_0", "+3", "\u0663"], ids=["underscore", "plus", "arabic-three"])
@pytest.mark.parametrize(
    "line, template, what",
    [
        ("pair 0 1 t=1", "pair {} 1 t=1", "pair endpoint"),
        ("pair 0 1 t=1", "pair 0 1 t={}", "connection time"),
        ("objective 9", "objective {}", "objective"),
    ],
)
def test_validate_takes_only_ascii_integer_tokens(capsys, tmp_path, token, line, template, what):
    # the instance parser's integer-token rule, as for edge ids above
    solution = tmp_path / "solution.txt"
    run(capsys, "solve", str(FIXTURES / "path3.ncn"), "-o", str(solution))
    lines = solution.read_text().splitlines()
    row = lines.index(line)
    lines[row] = template.format(token)
    solution.write_text("\n".join(lines) + "\n")
    status, out, err = run(capsys, "validate", str(FIXTURES / "path3.ncn"), str(solution))
    assert (status, out) == (2, "")
    assert f"line {row + 1}: {what} must be an integer" in err


def _write_lines(path, spec):
    """Write ``spec``, its lines separated by "; ", as a text file."""
    path.write_text(spec.replace("; ", "\n") + "\n")
    return str(path)


@pytest.mark.parametrize(
    "spec, message",
    [
        (
            "pair 0 1 t=1; pair 0 2 t=3; pair 1 2 t=3; objective 9; sequence; 0 1",
            "line 6: expected one edge id per line",
        ),
        (
            "pair 0 1 t=1; pair 1 0 t=1; pair 0 2 t=3; pair 1 2 t=3; objective 9; sequence; 0; 1",
            "line 2: duplicate pair line for (0, 1)",
        ),
        (
            "pair 0 1 1; pair 0 2 t=3; pair 1 2 t=3; objective 9; sequence; 0; 1",
            "line 1: unexpected line 'pair 0 1 1'",
        ),
        ("pair 0 1 t=1; pair 0 2 t=3; pair 1 2 t=3; sequence; 0; 1", "solution has no objective line"),
        ("pair 0 1 t=1; pair 0 2 t=3; pair 1 2 t=3; objective 9", "solution has no sequence section"),
        ("pair 0 1 t=1; pair 0 2 t=3; objective 9; sequence; 0; 1", "solution misses pair (1, 2)"),
        (
            "pair 0 3 t=3; pair 0 1 t=1; pair 0 2 t=3; pair 1 2 t=3; objective 9; sequence; 0; 1",
            "solution reports unknown pair (0, 3)",
        ),
    ],
    ids=[
        "two-edge-ids", "duplicate-pair", "unexpected", "no-objective", "no-sequence", "missing", "unknown"
    ],
)
def test_validate_rejects_a_malformed_solution_file(capsys, tmp_path, spec, message):
    solution = _write_lines(tmp_path / "solution.txt", spec)
    status, out, err = run(capsys, "validate", str(FIXTURES / "path3.ncn"), solution)
    assert (status, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "spec, message",
    [
        (
            "netcon 1; objective best; vertices 3; edge 0 1 1; edge 1 2 1; pair 0 2 1",
            "line 2: objective must be 'wct' or 'maxlat', got 'best'",
        ),
        (
            "netcon 1; objective wct; vertices 3 4; edge 0 1 1; edge 1 2 1; pair 0 2 1",
            "line 3: expected 'vertices <n>'",
        ),
        (
            "netcon 1; objective wct; edge 0 1 1; vertices 3; edge 1 2 1; pair 0 2 1",
            "line 3: edge line before vertices line",
        ),
        (
            "netcon 1; objective wct; vertices 3; edge 0 1; edge 1 2 1; pair 0 2 1",
            "line 4: expected 'edge <u> <v> <length>'",
        ),
        (
            "netcon 1; objective wct; pair 0 2 1; vertices 3; edge 0 1 1; edge 1 2 1",
            "line 3: pair line before vertices line",
        ),
        (
            "netcon 1; vertices 3; edge 0 1 1; edge 1 2 1; pair 0 2 1; objective wct",
            "line 5: pair line before objective line",
        ),
        (
            "netcon 1; objective wct; vertices 3; edge 0 1 1; edge 1 2 1; pair 0 2",
            "line 6: expected 'pair <u> <v> <weight> [<due>]'",
        ),
        ("# no header", "missing 'netcon 1' header"),
    ],
    ids=[
        "objective", "singleton", "edge-first", "edge-arity", "pair-first", "objective-last", "pair-arity",
        "header",
    ],
)
def test_solve_rejects_a_malformed_instance_file(capsys, tmp_path, spec, message):
    status, out, err = run(capsys, "solve", _write_lines(tmp_path / "instance.ncn", spec))
    assert (status, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "spec, message",
    [
        ("ola 2; vertices 3; threshold 1", "line 1: expected header 'ola 1'"),
        ("ola 1; vertices 3; threshold 1; edge 0", "line 4: malformed line 'edge 0'"),
        ("# no header", "missing 'ola 1' header"),
    ],
    ids=["bad-header", "malformed", "no-header"],
)
def test_reduce_ola_rejects_a_malformed_input_file(capsys, tmp_path, spec, message):
    status, out, err = run(capsys, "reduce-ola", _write_lines(tmp_path / "input.ola", spec))
    assert (status, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--kind", "path", "--n", "1"], "generator needs at least 2 vertices"),
        (["--kind", "path", "--n", "3", "--length-range", "0", "5"], "bad length range (0, 5)"),
        (["--kind", "path", "--n", "4", "--edges", "4"], "path generator always has n-1 edges"),
    ],
    ids=["one-vertex", "length-range", "edges-on-a-path"],
)
def test_gen_rejects_bad_parameters(capsys, args, message):
    status, out, err = run(capsys, "gen", *args)
    assert (status, out, err) == (2, "", f"error: {message}\n")


def test_internal_inconsistency_exits_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise NetconError("replay disagrees with the forest value")

    monkeypatch.setattr(cli, "solve_fixed_r", broken)
    status, _, err = run(capsys, "solve", "--backend", "fixed-r", str(FIXTURES / "graph7.ncn"))
    assert status == 4
    assert "internal error" in err


def test_a_replay_that_disagrees_with_the_table_value_exits_4(capsys, monkeypatch):
    original = netcon.metric_solver.evaluate_rforest

    def off_by_one(*args):
        evaluation = original(*args)
        return evaluation._replace(value=evaluation.value + 1)

    monkeypatch.setattr(netcon.metric_solver, "evaluate_rforest", off_by_one)
    status, out, err = run(capsys, "solve", "--backend", "fixed-r", str(FIXTURES / "graph7.ncn"))
    assert (status, out) == (4, "")
    assert "internal error" in err


def test_a_sequence_replay_below_the_forest_value_exits_4(capsys, monkeypatch):
    # a replay that beats the forest's proven value is as inconsistent as one above it
    original = netcon.metric_solver.project_to_graph

    def one_too_high(*args):
        evaluation = original(*args)
        return evaluation._replace(value=evaluation.value + 1)

    monkeypatch.setattr(netcon.metric_solver, "project_to_graph", one_too_high)
    status, out, err = run(capsys, "solve", "--backend", "fixed-r", str(FIXTURES / "graph7.ncn"))
    assert (status, out) == (4, "")
    assert "internal error" in err


def test_a_read_back_that_joins_no_pair_exits_4(capsys, monkeypatch):
    # a broken solver is an internal error (4), not a bad input (2)
    original = netcon.metric_solver._forest_paths

    def emptied(network, kept, pairs):
        return original(network, [], pairs)

    monkeypatch.setattr(netcon.metric_solver, "_forest_paths", emptied)
    status, out, err = run(capsys, "solve", "--backend", "fixed-r", str(FIXTURES / "graph7.ncn"))
    assert (status, out) == (4, "")
    assert "internal error: internal inconsistency: forest does not connect" in err


def test_a_read_back_from_tables_that_hold_no_forest_exits_4(capsys, tmp_path, monkeypatch):
    # order DPs (the ones passed a limit) whose tables claim every forest one
    # cheaper than it is: the read-back finds no split that attains the
    # label, and exits 4 rather than crashing
    original = netcon.metric_solver._subset_tables

    def lowered(ends, coef, *args):
        g, h = original(ends, coef, *args)
        if args:
            g[-1] = [cost - 1 for cost in g[-1]]
            h[-1] = [cost - 1 for cost in h[-1]]
        return g, h

    monkeypatch.setattr(netcon.metric_solver, "_subset_tables", lowered)
    path = tmp_path / "r3.ncn"
    path.write_text(write_instance(generate("random_graph", 9, seed=3, edge_count=14, pair_count=3)))
    status, out, err = run(capsys, "solve", str(path))
    assert (status, out) == (4, "")
    assert "internal error: internal inconsistency: read-back finds no split" in err


def test_a_fixed_r_sequence_with_a_repeated_edge_exits_4(capsys, monkeypatch):
    # the solver's own sequence failing its replay is an internal error, not a bad input
    original = netcon.metric_solver.project_to_graph

    def repeated(*args):
        evaluation = original(*args)
        order = evaluation.edge_order
        return evaluation._replace(edge_order=order + order[:1])

    monkeypatch.setattr(netcon.metric_solver, "project_to_graph", repeated)
    status, out, err = run(capsys, "solve", "--backend", "fixed-r", str(FIXTURES / "graph7.ncn"))
    assert (status, out) == (4, "")
    assert "internal error: internal inconsistency: duplicate edge id" in err


def test_a_tree_sequence_with_a_repeated_edge_exits_4(capsys, monkeypatch):
    original = netcon.tree_solver.subtree_sequence

    def repeated(*args):
        sequence = original(*args)
        return sequence + sequence[:1]

    monkeypatch.setattr(netcon.tree_solver, "subtree_sequence", repeated)
    status, out, err = run(capsys, "solve", "--backend", "tree", str(FIXTURES / "tree8.ncn"))
    assert (status, out) == (4, "")
    assert "internal error: internal inconsistency: duplicate edge id" in err


def test_a_tree_dp_value_its_replay_disagrees_with_exits_4(capsys, monkeypatch):
    original = netcon.tree_solver.evaluate_sequence

    def one_more(*args):
        report = original(*args)
        return report._replace(objective=report.objective + 1)

    monkeypatch.setattr(netcon.tree_solver, "evaluate_sequence", one_more)
    status, out, err = run(capsys, "solve", "--backend", "tree", str(FIXTURES / "tree8.ncn"))
    want = FIXTURE_OBJECTIVES["tree8.ncn"]
    assert (status, out) == (4, "")
    assert err == f"internal error: internal inconsistency: dp value {want} != replay {want + 1}\n"


def test_auto_backend_routes_by_shape(capsys, tmp_path, monkeypatch):
    ran = []

    def recording(name):
        solver = getattr(cli, name)

        def wrapper(instance, **kwargs):
            ran.append(name)
            return solver(instance, **kwargs)

        return wrapper

    for name in ("solve_tree", "solve_fixed_r"):
        monkeypatch.setattr(cli, name, recording(name))
    path3 = parse_instance((FIXTURES / "path3.ncn").read_text())
    maxlat_tree = tmp_path / "path3_maxlat.ncn"
    maxlat_pairs = tuple(RelevantPair(p.u, p.v, p.weight, 3) for p in path3.pairs)
    maxlat_tree.write_text(write_instance(Instance(path3.network, maxlat_pairs, "maxlat")))
    star = tmp_path / "star.ncn"  # wct, one leaf past the leaf bound
    at_bound = tmp_path / "star_at_bound.ncn"
    for path, leaves in ((star, LEAF_BOUND + 1), (at_bound, LEAF_BOUND)):
        run(capsys, "gen", "--kind", "star", "--n", str(leaves + 1), "--pairs", "3", "-o", str(path))
    for path, solver, backend in (
        (maxlat_tree, "solve_fixed_r", "fixed-r"),
        (star, "solve_fixed_r", "fixed-r"),
        (at_bound, "solve_tree", "tree"),
    ):
        ran.clear()
        status, out, err = run(capsys, "solve", str(path))
        assert (status, ran) == (0, [solver]), err
        assert run(capsys, "solve", "--backend", backend, str(path)) == (0, out, "")
    # the tree DP refuses the maxlat tree outright, and the star unless forced
    assert run(capsys, "solve", "--backend", "tree", str(maxlat_tree))[0] == 2
    assert run(capsys, "solve", "--backend", "tree", str(star))[0] == 3
    auto = run(capsys, "solve", str(star))[1]
    forced = run(capsys, "solve", "--backend", "tree", "--force", str(star))[1]
    objective = [line for line in auto.splitlines() if line.startswith("objective")]
    assert objective == [line for line in forced.splitlines() if line.startswith("objective")]


def _readme_synopsis() -> dict[str, set[str]]:
    """The options each subcommand shows in the README's ``## CLI`` block."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("netcon "):
            command = line.split()[1]
            shown[command] = set()
        shown[command].update(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", line))
    return shown


def test_readme_cli_synopsis_matches_the_parser():
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    shown = _readme_synopsis()
    assert shown.keys() == subparsers.choices.keys()
    for command, parser in subparsers.choices.items():
        options = [a.option_strings for a in parser._actions if a.option_strings]
        options.remove(["-h", "--help"])
        # each option appears under its subcommand by one of its names ...
        for names in options:
            assert shown[command] & set(names), (command, names)
        # ... and nothing else does
        assert shown[command] <= {name for names in options for name in names}, command


def test_selftest_smoke(capsys):
    status, out, _ = run(capsys, "selftest", "--scale", "0.02")
    assert status == 0
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 8
    assert all("[PASS]" in l for l in lines)


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1", "x"])
def test_selftest_scale_must_be_a_finite_number_above_0(capsys, scale):
    status, out, err = run(capsys, "selftest", "--scale", scale)
    assert (status, out) == (2, "")
    assert f"must be a finite number above 0, got {scale!r}" in err


def test_selftest_counts_an_inconsistent_solve_as_a_mismatch(capsys, monkeypatch):
    original = selftest.solve_fixed_r
    calls = []

    def first_fails(instance, **kwargs):
        calls.append(instance)
        if len(calls) == 1:
            raise NetconError("internal inconsistency: replay 8 != forest value 7")
        return original(instance, **kwargs)

    monkeypatch.setattr(selftest, "solve_fixed_r", first_fails)
    status, out, _ = run(capsys, "selftest", "--scale", "0.02")
    assert status == 1
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 8
    failed = [l for l in lines if "[FAIL]" in l]
    assert [l.split()[1] for l in failed] == ["2", "6"]
    assert "trial 0: internal inconsistency" in failed[0]
    assert "1 mismatches" in failed[1]
    assert "1 mismatches; first: trial 0: internal inconsistency: replay 8" in failed[1]


@pytest.mark.parametrize(
    "criterion, name, broken, first",
    [
        ("criterion_merge_optimality", "merge_two_chains", lambda *chains: ((), -1), "merge -1 != oracle"),
        ("criterion_density_decomposition", "density_decomposition", lambda _: [], "blocks do not cover"),
    ],
    ids=["3", "4"],
)
def test_a_failed_sweep_quotes_its_first_failure(monkeypatch, criterion, name, broken, first):
    monkeypatch.setattr(selftest, name, broken)
    result = getattr(selftest, criterion)(0.02)
    assert not result.passed
    assert re.search(f"; first: trial [0-9]+: {first}", result.detail), result.detail


def test_criterion_4_checks_that_each_block_sums_its_jobs(monkeypatch):
    # doubled weights keep the blocks covering, decreasing and dominating
    # every prefix, so only the sums give them away
    original = selftest.density_decomposition

    def doubled(chain):
        return [(2 * weight, processing, jobs) for weight, processing, jobs in original(chain)]

    monkeypatch.setattr(selftest, "density_decomposition", doubled)
    result = selftest.criterion_density_decomposition(0.2)
    assert not result.passed
    assert re.search(r"; first: trial [0-9]+: block \[0:[0-9]+\] is [0-9]+/[0-9]+, its jobs sum to", result.detail)


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
