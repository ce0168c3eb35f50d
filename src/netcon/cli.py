"""Command-line front end.

Exit codes: 0 success, 1 validation/selftest failure, 2 usage error (bad
arguments, unreadable or malformed files), 3 size guard exceeded, 4 internal
inconsistency (a solver contradicted its own checks).  Each size guard is a
fixed bound of its solver (the tree leaf bound, the fixed-r bounds on pair
endpoints and on pairs, each oracle's edge bound), and ``--force`` is the one
way past them.  When ``solve`` under ``auto`` sends a ``wct`` tree past the
leaf bound to fixed-r and fixed-r refuses it, the message also names
``--backend tree --force``.  ``solve --depot`` insists on a vertex shared by
all pairs, whichever backend runs, and is a usage error without one; it
changes no bound.  ``solve -o`` writes the file before stdout, so a path it
cannot write leaves stdout empty.

``solve`` output is line oriented and stable: the connection report (one
``pair <u> <v> t=<time>`` line per pair plus ``objective <value>``) followed
by a ``sequence`` header and one edge id per line.  ``validate`` re-checks a
solution file against its instance and exits 1 on any discrepancy.
"""

from __future__ import annotations

import argparse
import functools
import math
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
    GENERATOR_KINDS,
    Instance,
    Objective,
    _content_lines,
    _parse_int,
    exact_digits,
    generate,
    parse_instance,
    parse_ola_input,
    reduce_ola,
    write_instance,
)
from .oracle import permutation_oracle, subset_dp
from .tree_solver import LEAF_BOUND, solve_tree


def format_solution(instance: Instance, report: ConnectionReport, seq: Sequence[int]) -> str:
    lines = [format_report(instance, report).rstrip("\n"), "sequence"]
    lines.extend(str(eid) for eid in seq)
    return "\n".join(lines) + "\n"


@exact_digits
def parse_solution(instance: Instance, text: str) -> tuple[ConnectionReport, tuple[int, ...]]:
    """Read a solve-format solution file back into a claim and a sequence."""
    times: dict[tuple[int, int], int] = {}
    objective: int | None = None
    seq: list[int] = []
    in_sequence = False
    for lineno, tokens in _content_lines(text):
        if in_sequence:
            if len(tokens) != 1:
                raise InstanceFormatError("expected one edge id per line", lineno)
            seq.append(_parse_int(tokens[0], "edge id", lineno))
        elif tokens[0] == "pair" and len(tokens) == 4 and tokens[3].startswith("t="):
            u = _parse_int(tokens[1], "pair endpoint", lineno)
            v = _parse_int(tokens[2], "pair endpoint", lineno)
            key = (min(u, v), max(u, v))
            if key in times:
                raise InstanceFormatError(f"duplicate pair line for {key}", lineno)
            times[key] = _parse_int(tokens[3][2:], "connection time", lineno)
        elif tokens[0] == "objective" and len(tokens) == 2:
            if objective is not None:
                raise InstanceFormatError("duplicate objective line", lineno)
            objective = _parse_int(tokens[1], "objective", lineno)
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
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise InstanceFormatError(f"{path} is not UTF-8 text: {exc}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _pick_backend(instance: Instance, backend: str) -> str:
    if backend != "auto":
        return backend
    fits_tree = (
        instance.network.is_tree
        and instance.network.leaf_count <= LEAF_BOUND
        and instance.objective is Objective.WEIGHTED_SUM
    )
    return "tree" if fits_tree else "fixed-r"


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    if args.depot and instance.common_pair_vertex() is None:
        raise UnsupportedInstanceError("--depot needs a vertex common to all pairs")
    if _pick_backend(instance, args.backend) == "tree":
        seq, report = solve_tree(instance, force=args.force)
    else:
        try:
            seq, report = solve_fixed_r(instance, force=args.force)
        except GuardExceededError as exc:
            # auto sends a wct tree to fixed-r only past the leaf bound: name the tree backend's way
            wct_tree = instance.network.is_tree and instance.objective is Objective.WEIGHTED_SUM
            if args.backend == "auto" and wct_tree:
                raise GuardExceededError(
                    f"{exc}; the tree has {instance.network.leaf_count} leaves (tree bound "
                    f"{LEAF_BOUND}): --backend tree --force runs the subtree DP"
                ) from None
            raise
    text = format_solution(instance, report, seq)
    if args.output:  # first, so that an unwritable path leaves stdout empty
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    if args.method == "permutations":
        value = permutation_oracle(instance, force=args.force)
    else:
        value, _ = subset_dp(instance, force=args.force)
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


def _scale(text: str) -> float:
    """The ``--scale`` type: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return value


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest.run_all(scale=args.scale)
    for result in results:
        print(result.line())
    return 0 if all(result.passed for result in results) else 1


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
    solve.add_argument("--force", action="store_true", help="override size guards")
    solve.add_argument("-o", "--output", default=None)
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="brute-force optimum of an instance file")
    oracle.add_argument("instance")
    oracle.add_argument("--method", choices=("subset-dp", "permutations"), default="subset-dp")
    oracle.add_argument("--force", action="store_true", help="override the edge bound")
    oracle.set_defaults(func=_cmd_oracle)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
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
    self_cmd.add_argument("--scale", type=_scale, default=1.0, help="trial-count multiplier")
    self_cmd.set_defaults(func=_cmd_selftest)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses: building it costs far more
    than one ``parse_args``."""
    return build_parser()


@exact_digits
def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        return exc.code if isinstance(exc.code, int) else 2
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
