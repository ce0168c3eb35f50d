"""netcon benchmark: end-to-end solve latency and throughput, and a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tree-sparse --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``tree-sparse``, ``tree-dense``, ``fixed-r-wct``, ``fixed-r-maxlat``.  Each
is closed-loop: one solve at a time, from one process and one thread.

The program is used straight from ``src/`` of the checkout, with its bytecode
cache kept under ``.bench_build/``.  A warm-up interpreter fills that cache;
then ``SETUPS - 1`` fresh interpreters only time the set-up, and one more
times the set-up and runs the workload (see ``worker.py``).  ``setup_s`` is
the median of the ``SETUPS`` set-up times, each at reference speed (below).
``solves_per_s`` is correct solves per second of solve time.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.

The end-to-end times are reference-speed seconds.  This benchmark was built
on a shared 2-vCPU virtual machine whose speed drifted by up to 60% from one
minute to the next, and by up to 50% within a few seconds; that drift, not
the program, dominated the spread between runs.  So a fixed pure-Python probe
(``worker.probe``) runs after every untraced solve, and each solve time is
scaled by ``worker.REFERENCE_PROBE_S`` over the median time of the probes run
within two solves of it: the time the solve would have taken had the probe run
at its reference speed.  Each set-up time is scaled the same way by the median
of the probes its own interpreter runs right after set-up.  The scaling does
not depend on netcon, so a change to the program moves these numbers exactly
as it moves wall time at a fixed machine speed.  The raw wall-clock values
are printed and kept in the result file.  Human-readable lines come first; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result, with the run conditions, is also written
to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"
# the same names as workloads.WORKLOADS; run.py itself never imports netcon
WORKLOADS = ("tree-sparse", "tree-dense", "fixed-r-wct", "fixed-r-maxlat")
SETUPS = 21
DEADLINE_S = 170  # the whole run must end within 180 s


def git_revision() -> str | None:
    """HEAD of the checkout's own ``.git``, if it has one; git is not run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of every file under ``src/``; names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def conditions() -> dict:
    return {
        "git_revision": git_revision(),
        "src_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "gc": "interpreter defaults",
    }


def worker(args, deadline: float, *extra: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON report."""
    # bytecode is always cached, under .bench_build, so set-up times the same
    # import whatever the caller's environment says
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=deadline - time.monotonic(),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description="netcon benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "netcon" / "__init__.py").is_file():
        print(f"error: no netcon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    run_conditions = conditions()

    worker(args, deadline, "--setup-only")  # warm-up: fills the bytecode cache
    setups = [] if args.trace else [
        worker(args, deadline, "--setup-only") for _ in range(SETUPS - 1)
    ]
    report = worker(args, deadline)
    setups.append({key: report[key] for key in setups[0]} if setups else report)

    lines = [f"netcon benchmark: workload {args.workload}, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}, {report['cases']} cases"]
    if args.trace:
        metrics = report["per_layer"]
        lines.append("traced split (share of traced solve time in each frame's own code): "
                     + ", ".join(f"{k} {v:.1%}" for k, v in report["split"].items() if v >= 0.0005))
        lines.append(f"spans written to {report['spans_file']}")
        if report["untraced_layers"]:
            lines.append("not traced, missing from the program (their metrics read 0): "
                         + ", ".join(report["untraced_layers"]))
    else:
        metrics = {
            "solve_s.p50": (report["p50"], "s"),
            "solve_s.p90": (report["p90"], "s"),
            "solves_per_s": (report["solves_per_s"], "1/s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        }
        raw = dict(report["raw"], setup_s=statistics.median(s["setup_raw_s"] for s in setups))
        lines.append(f"machine speed: probe median {report['probe_s'] * 1e3:.3f} ms over the solves, "
                     f"{statistics.median(s['setup_probe_s'] for s in setups) * 1e3:.3f} ms over the "
                     "set-ups; raw wall-clock values: "
                     + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        lines.append(f"solve_s samples: {report['samples']} over {report['wall_s']:.2f} s; "
                     f"setup_s samples: {len(setups)}")
    fail_frac = report["failed"] / report["attempted"]
    lines.append(f"fail_frac: {fail_frac:g} ({report['failed']} of {report['attempted']} solves)")
    lines += [f"{name:32} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines += [f"problem: {p}" for p in report["problems"]]
    lines.append("conditions: " + json.dumps(run_conditions))

    correct = report["failed"] == 0 and not report["problems"]
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    full = dict(result, fail_frac=fail_frac, conditions=run_conditions, setups=setups, report=report)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(full, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
