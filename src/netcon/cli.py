"""Command-line front end.

Exit codes: 0 success, 1 validation/selftest failure, 2 usage error (bad
arguments, unreadable or malformed files), 3 size guard exceeded, 4 internal
inconsistency (a solver contradicted its own checks).  Guard defaults can be
overridden with the environment variables NETCON_LEAF_BOUND (read only by
``--backend auto`` and ``tree``), NETCON_MAX_PAIRS (only when fixed-r runs),
and NETCON_ORACLE_MAX_EDGES (for either oracle method, which otherwise keeps
its own edge bound); the fixed-r pair bound defaults to 4 in general and 6
when all pairs share a vertex.  ``solve --depot`` insists on such a shared
vertex, whichever backend runs, and is a usage error without one.

``solve`` output is line oriented and stable: the connection report (one
``pair <u> <v> t=<time>`` line per pair plus ``objective <value>``) followed
by a ``sequence`` header and one edge id per line.  ``validate`` re-checks a
solution file against its instance and exits 1 on any discrepancy.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Sequence

from . import selftest
from .errors import (
    GuardExceededError,
    InstanceFormatError,
    InvalidInstanceError,
    NetconError,
    SequenceError,
    UnsupportedInstanceError,
)
from .evaluator import ConnectionReport, format_report, validate_sequence
from .metric_solver import solve_fixed_r
from .model import (
    Instance,
    Objective,
    _content_lines,
    generate,
    parse_instance,
    parse_ola_input,
    reduce_ola,
    write_instance,
)
from .oracle import permutation_oracle, subset_dp
from .tree_solver import LEAF_BOUND, solve_tree


def _env_int(name: str, fallback: int | None) -> int | None:
    value = os.environ.get(name)
    if value is None:
        return fallback
    try:
        return int(value)
    except ValueError:
        raise InvalidInstanceError(f"{name} must be an integer, got {value!r}") from None


def format_solution(instance: Instance, report: ConnectionReport, seq: Sequence[int]) -> str:
    lines = [format_report(instance, report).rstrip("\n"), "sequence"]
    lines.extend(str(eid) for eid in seq)
    return "\n".join(lines) + "\n"


def parse_solution(instance: Instance, text: str) -> tuple[ConnectionReport, tuple[int, ...]]:
    """Read a solve-format solution file back into a claim and a sequence."""
    times: dict[tuple[int, int], int] = {}
    objective: int | None = None
    seq: list[int] = []
    in_sequence = False
    for lineno, tokens in _content_lines(text):
        if in_sequence:
            digits = tokens[0].removeprefix("-")
            if len(tokens) != 1 or not (digits.isascii() and digits.isdigit()):
                raise InstanceFormatError("expected one edge id per line", lineno)
            seq.append(int(tokens[0]))
        elif tokens[0] == "pair" and len(tokens) == 4 and tokens[3].startswith("t="):
            try:
                u, v = int(tokens[1]), int(tokens[2])
                t = int(tokens[3][2:])
            except ValueError:
                raise InstanceFormatError("malformed pair line", lineno) from None
            key = (min(u, v), max(u, v))
            if key in times:
                raise InstanceFormatError(f"duplicate pair line for {key}", lineno)
            times[key] = t
        elif tokens[0] == "objective" and len(tokens) == 2:
            if objective is not None:
                raise InstanceFormatError("duplicate objective line", lineno)
            try:
                objective = int(tokens[1])
            except ValueError:
                raise InstanceFormatError("malformed objective line", lineno) from None
        elif tokens == ["sequence"]:
            in_sequence = True
        else:
            raise InstanceFormatError(f"unexpected line {' '.join(tokens)!r}", lineno)
    if objective is None:
        raise InstanceFormatError("solution has no objective line")
    if not in_sequence:
        raise InstanceFormatError("solution has no sequence section")
    ordered = []
    for pair in instance.pairs:
        if pair.key not in times:
            raise InstanceFormatError(f"solution misses pair ({pair.u}, {pair.v})")
        ordered.append(times.pop(pair.key))
    if times:
        extra = next(iter(times))
        raise InstanceFormatError(f"solution reports unknown pair {extra}")
    return ConnectionReport(tuple(ordered), objective), tuple(seq)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _pick_backend(instance: Instance, backend: str, leaf_bound: int) -> str:
    if backend != "auto":
        return backend
    fits_tree = (
        instance.network.is_tree
        and instance.network.leaf_count <= leaf_bound
        and instance.objective is Objective.WEIGHTED_SUM
    )
    return "tree" if fits_tree else "fixed-r"


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    if args.depot and instance.common_pair_vertex() is None:
        raise UnsupportedInstanceError("--depot needs a vertex common to all pairs")
    backend = args.backend
    if backend != "fixed-r":
        leaf_bound = args.leaf_bound if args.leaf_bound is not None else _env_int(
            "NETCON_LEAF_BOUND", LEAF_BOUND
        )
        backend = _pick_backend(instance, backend, leaf_bound)
    if backend == "tree":
        seq, report = solve_tree(instance, leaf_bound=leaf_bound, force=args.force)
    else:
        max_pairs = args.max_pairs if args.max_pairs is not None else _env_int(
            "NETCON_MAX_PAIRS", None
        )
        seq, report = solve_fixed_r(instance, max_pairs=max_pairs, force=args.force)
    text = format_solution(instance, report, seq)
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    max_edges = args.max_edges if args.max_edges is not None else _env_int(
        "NETCON_ORACLE_MAX_EDGES", None
    )
    # with neither set, each method keeps its own default bound
    bound = {} if max_edges is None else {"max_edges": max_edges}
    if args.method == "permutations":
        value = permutation_oracle(instance, force=args.force, **bound)
    else:
        value, _ = subset_dp(instance, force=args.force, **bound)
    print(f"objective {value}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = generate(
        args.kind,
        args.n,
        seed=args.seed,
        edge_count=args.edges,
        pair_count=args.pairs,
        length_range=tuple(args.length_range),
        weight_range=tuple(args.weight_range),
        due_range=tuple(args.due_range),
        objective=args.objective,
    )
    _emit(write_instance(instance), args.output)
    return 0


def _cmd_reduce_ola(args: argparse.Namespace) -> int:
    ola = parse_ola_input(_read(args.input))
    instance, threshold = reduce_ola(ola)
    text = write_instance(instance) + f"# ola-threshold {threshold}\n"
    _emit(text, args.output)
    if args.output:
        print(f"threshold {threshold}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    claimed, seq = parse_solution(instance, _read(args.solution))
    verdict = validate_sequence(instance, seq, claimed)
    if verdict.ok:
        print("ok")
        return 0
    for problem in verdict.discrepancies:
        print(problem)
    return 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest.run_all(scale=args.scale)
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"criterion {result.number} [{status}] {result.name}: {result.detail} ({result.seconds:.1f}s)")
        failed = failed or not result.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcon",
        description="Exact solvers for network construction scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance")
    solve.add_argument("--backend", choices=("auto", "tree", "fixed-r"), default="auto")
    solve.add_argument("--depot", action="store_true", help="require a vertex shared by all pairs")
    solve.add_argument("--leaf-bound", type=int, default=None)
    solve.add_argument("--max-pairs", type=int, default=None)
    solve.add_argument("--force", action="store_true", help="override size guards")
    solve.add_argument("-o", "--output", default=None)
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="brute-force optimum of an instance file")
    oracle.add_argument("instance")
    oracle.add_argument("--method", choices=("subset-dp", "permutations"), default="subset-dp")
    oracle.add_argument("--max-edges", type=int, default=None)
    oracle.add_argument("--force", action="store_true")
    oracle.set_defaults(func=_cmd_oracle)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", choices=("random_tree", "star", "path", "random_graph"), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--edges", type=int, default=None, help="edge count (random_graph only)")
    gen.add_argument("--pairs", type=int, default=None)
    gen.add_argument("--length-range", type=int, nargs=2, default=(1, 10), metavar=("LO", "HI"))
    gen.add_argument("--weight-range", type=int, nargs=2, default=(1, 5), metavar=("LO", "HI"))
    gen.add_argument("--due-range", type=int, nargs=2, default=(0, 50), metavar=("LO", "HI"))
    gen.add_argument("--objective", choices=("wct", "maxlat"), default="wct")
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    reduce_cmd = sub.add_parser("reduce-ola", help="reduce an arrangement input to a star instance")
    reduce_cmd.add_argument("input")
    reduce_cmd.add_argument("-o", "--output", default=None)
    reduce_cmd.set_defaults(func=_cmd_reduce_ola)

    validate = sub.add_parser("validate", help="re-check a solution file against its instance")
    validate.add_argument("instance")
    validate.add_argument("solution")
    validate.set_defaults(func=_cmd_validate)

    self_cmd = sub.add_parser("selftest", help="run the acceptance checks")
    self_cmd.add_argument("--scale", type=float, default=1.0, help="trial-count multiplier")
    self_cmd.set_defaults(func=_cmd_selftest)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses: building it costs far more
    than one ``parse_args``."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InstanceFormatError, InvalidInstanceError, UnsupportedInstanceError, SequenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetconError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
