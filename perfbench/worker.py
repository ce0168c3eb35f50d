"""One benchmark process: set up a workload, solve it for a while, check it.

Run by ``run.py`` in a fresh interpreter from the root of a checkout::

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is timed from before ``import netcon`` until the first solve is
ready: the import, generating the instances, writing them as ``.ncn`` files
and looking up their pinned objectives.  The worker then solves the cases in
a seed-shuffled order, one at a time in this thread, in whole passes over
all cases until ``--seconds`` is used up.  Each solve goes through
``netcon.cli.main(["solve", ...])`` with its stdout captured.  Outputs are
checked after the timed loop: exit code 0, the solution replays through
``validate_sequence``, and its objective equals the pinned one.

With ``--trace 1`` every case is solved twice in a row, untraced and then
traced (see ``layers.py``), and the counter self-check cases join every
pass.  The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"
clock = time.perf_counter


@dataclass(frozen=True)
class Prepared:
    case: object  # workloads.Case
    path: str
    instance: object  # netcon.Instance, parsed from the written file
    objective: int | None  # pinned optimum; None when the text is not pinned
    counters: dict | None  # closed-form layer counters of a self-check case


def setup(workload: str, seed: int, traced: bool, workdir: Path) -> tuple[list[Prepared], float]:
    """Import netcon and make the inputs; returns them and the seconds taken."""
    start = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import netcon
    import workloads

    pins = json.loads((BENCH / "pins.json").read_text())
    cases = [(case, None) for case in workloads.cases(workload, seed)]
    if traced:
        cases += workloads.self_check_cases()
    workdir.mkdir(parents=True, exist_ok=True)
    prepared = []
    for case, counters in cases:
        path = workdir / (case.key.replace("/", "_") + ".ncn")
        path.write_text(case.text)
        digest, objective = pins.get(case.key, (None, None))
        prepared.append(Prepared(
            case,
            str(path),
            netcon.parse_instance(case.text),
            objective if digest == case.digest else None,
            counters,
        ))
    return prepared, clock() - start


PROBE_LOOP = 20_000
REFERENCE_PROBE_S = 0.005  # probe's median on the machine the benchmark was built on
SETUP_PROBES = 5
# a solve is scaled by the median of the probes within this many solves of it
PROBE_WINDOW = 2


def probe() -> float:
    """Seconds taken by two fixed pure-Python loops that keep nothing alive.

    It runs after every untraced solve, and ``SETUP_PROBES`` times right
    after set-up.  Its time follows the speed that the machine gives this
    process at that moment and does not depend on netcon.  A time ``t``
    measured while the probe takes ``p`` is reported at reference speed as
    ``t * REFERENCE_PROBE_S / p``.
    """
    start = clock()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    # arithmetic alone tracked the speed of netcon's dict- and tuple-heavy
    # solves less well than arithmetic plus dict updates
    counts = {}
    rng = random.Random(1)
    for i in range(PROBE_LOOP // 8):
        key = (rng.randrange(500), i % 17)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    return clock() - start


# netcon is imported inside the functions below: set-up is timed from
# before its first import


def solve(job: Prepared) -> tuple[int, str, float]:
    """One timed ``netcon solve``: from reading the file to the end of stdout."""
    from netcon import cli

    out = io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(["solve", *job.case.flags, job.path])
        except Exception as exc:  # an escaped exception is a failed solve
            print(f"{job.case.key}: solve raised {exc!r}", file=sys.stderr)
            code = -1
    return code, out.getvalue(), clock() - start


def check(job: Prepared, code: int, text: str) -> str | None:
    """Why a solve's output is wrong, or None when it is right."""
    from netcon import NetconError, validate_sequence
    from netcon.cli import parse_solution

    if job.objective is None:
        return f"{job.case.key}: no pinned objective for this instance text"
    if code != 0:
        return f"{job.case.key}: exit code {code}"
    try:
        claimed, seq = parse_solution(job.instance, text)
    except NetconError as exc:
        return f"{job.case.key}: unreadable output: {exc}"
    verdict = validate_sequence(job.instance, seq, claimed)
    if not verdict.ok:
        return f"{job.case.key}: replay disagrees: {verdict.discrepancies[0]}"
    if claimed.objective != job.objective:
        return f"{job.case.key}: objective {claimed.objective}, pinned {job.objective}"
    return None


def passes(count: int, seconds: float, rng: random.Random, solve_one) -> float:
    """Whole seed-shuffled passes over ``count`` cases; returns the wall time.

    The run ends after the pass that brings it within half a pass of
    ``seconds``, so every case is solved equally often.
    """
    start = clock()
    while True:
        order = list(range(count))
        rng.shuffle(order)
        pass_start = clock()
        for i in order:
            solve_one(i)
        now = clock()
        if now - start + (now - pass_start) / 2 >= seconds:
            return now - start


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def run(args) -> dict:
    workdir = OUT / f"work-{os.getpid()}"
    try:
        prepared, setup_s = setup(args.workload, args.seed, bool(args.trace), workdir)
        # the machine's speed during set-up, which can differ from its speed
        # during the solves seconds later
        setup_probe_s = statistics.median(probe() for _ in range(SETUP_PROBES))
        setup_report = {
            "setup_s": setup_s * REFERENCE_PROBE_S / setup_probe_s,
            "setup_raw_s": setup_s,
            "setup_probe_s": setup_probe_s,
        }
        if args.setup_only:
            return setup_report
        results = []  # (case index, exit code, stdout, seconds)
        probes = []
        traced_results = []
        if args.trace:
            import layers

            tracer = layers.Tracer()

            def solve_one(i):
                results.append((i, *solve(prepared[i])))
                code, text, _ = tracer.trace(lambda: solve(prepared[i]))
                traced_results.append((i, code, text, tracer.solves[-1].total))
        else:
            def solve_one(i):
                results.append((i, *solve(prepared[i])))
                probes.append(probe())

        wall = passes(len(prepared), args.seconds, random.Random(args.seed), solve_one)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = {}
    for i, code, text, _ in results + traced_results:
        if (i, code, text) not in verdicts:
            verdicts[(i, code, text)] = check(prepared[i], code, text)
    problems = [verdicts[(i, code, text)] for i, code, text, _ in results + traced_results]
    failed = sum(p is not None for p in problems)
    times = [t for *_, t in results]
    report = {
        "attempted": len(problems),
        "failed": failed,
        "problems": sorted({p for p in problems if p})[:10],
        **setup_report,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cases": len(prepared),
        "samples": len(times),
        "wall_s": wall,
        "case_s": {job.case.key: [] for job in prepared},
    }
    for i, _, _, t in results:
        report["case_s"][prepared[i].case.key].append(t)
    if not args.trace:
        # the machine's speed changes within seconds, so each solve is scaled
        # by the probes run next to it rather than by the run's median probe
        reference = [
            t * REFERENCE_PROBE_S / statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            for i, t in enumerate(times)
        ]
        report.update(
            probe_s=statistics.median(probes),
            p50=statistics.median(reference),
            p90=p90(reference),
            solves_per_s=(len(results) - failed) / sum(reference),
            raw={
                "solve_s.p50": statistics.median(times),
                "solve_s.p90": p90(times),
                "solves_per_s": (len(results) - failed) / (wall - sum(probes)),
            },
        )
        return report

    for (i, *_), stats in zip(traced_results, tracer.solves):
        job = prepared[i]
        got = stats.counters()
        for name, want in (job.counters or {}).items():
            if got[name] != want:
                report["problems"].append(f"{job.case.key}: {name} = {got[name]}, expected {want}")
        if abs(stats.unaccounted()) > 1e-9 + 1e-6 * stats.total:
            report["problems"].append(
                f"{job.case.key}: layer self times miss {stats.unaccounted():.3g} s of the solve"
            )
    spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["solve", "name", "parent", "start", "end"], "spans": tracer.spans}
    ))
    report.update(
        per_layer=layers.per_layer(tracer.solves, times),
        split=layers.split(tracer.solves),
        spans_file=str(spans_file.relative_to(ROOT)),
        untraced_layers=layers.missing(),
    )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    print(json.dumps(run(parser.parse_args())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
