import pathlib

import pytest

from netcon import (
    Instance,
    NetconError,
    Network,
    RelevantPair,
    cli,
    parse_instance,
    solve_fixed_r,
    write_instance,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# objectives frozen from the subset-dp oracle
FIXTURE_OBJECTIVES = {
    "path3.ncn": 9,
    "square.ncn": 7,
    "square_maxlat.ncn": 0,
    "star_ola.ncn": 22,
    "tree8.ncn": 36,
    "graph7.ncn": 18,
}


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


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


def test_guard_exceeded_exits_3(capsys, tmp_path):
    big = tmp_path / "big.ncn"
    run(capsys, "gen", "--kind", "star", "--n", "9", "--pairs", "3", "-o", str(big))
    assert run(capsys, "solve", "--backend", "tree", str(big))[0] == 3
    assert run(capsys, "solve", "--backend", "tree", "--force", str(big))[0] == 0


def test_depot_flag_uses_the_depot_pair_bound(capsys, tmp_path, monkeypatch):
    # five pairs from hub 0; consecutive leaves also meet at a non-terminal
    edges = [(0, v, v) for v in range(1, 6)]
    edges += [(v, 5 + v, 2) for v in range(1, 5)] + [(v + 1, 5 + v, 3) for v in range(1, 5)]
    pairs = tuple(RelevantPair(0, v, v) for v in range(1, 6))
    instance = Instance(Network(10, tuple(edges)), pairs)
    path = tmp_path / "depot.ncn"
    path.write_text(write_instance(instance))
    _, want = solve_fixed_r(instance, depot_mode=True)
    status, out, err = run(capsys, "solve", "--depot", "--backend", "fixed-r", str(path))
    assert status == 0, err
    assert f"objective {want.objective}" in out.splitlines()
    # without --depot the general bound of 4 pairs still applies
    assert run(capsys, "solve", "--backend", "fixed-r", str(path))[0] == 3
    # explicit bounds still override the depot default
    assert run(capsys, "solve", "--depot", "--max-pairs", "4", str(path))[0] == 3
    monkeypatch.setenv("NETCON_MAX_PAIRS", "4")
    assert run(capsys, "solve", "--depot", str(path))[0] == 3


def test_internal_inconsistency_exits_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise NetconError("replay disagrees with the forest value")

    monkeypatch.setattr(cli, "solve_fixed_r", broken)
    status, _, err = run(capsys, "solve", "--backend", "fixed-r", str(FIXTURES / "graph7.ncn"))
    assert status == 4
    assert "internal error" in err


def test_auto_backend_routes_by_shape(capsys):
    # maxlat tree instance must go to fixed-r (tree backend rejects maxlat)
    status, out, _ = run(capsys, "solve", str(FIXTURES / "square_maxlat.ncn"))
    assert status == 0
    assert "objective 0" in out


def test_leaf_bound_env_override(capsys, tmp_path, monkeypatch):
    big = tmp_path / "big.ncn"
    run(capsys, "gen", "--kind", "star", "--n", "9", "--pairs", "3", "-o", str(big))
    monkeypatch.setenv("NETCON_LEAF_BOUND", "8")
    assert run(capsys, "solve", "--backend", "tree", str(big))[0] == 0


def test_bench_quick(capsys):
    status, out, _ = run(capsys, "bench", "--quick")
    assert status == 0
    assert "tree path" in out
    assert "fixed-r" in out


def test_selftest_smoke(capsys):
    status, out, _ = run(capsys, "selftest", "--scale", "0.02")
    assert status == 0
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 8
    assert all("[PASS]" in l for l in lines)


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
