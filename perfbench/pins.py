"""Rebuild ``pins.json``: the optimal objective of every instance in the pools.

Run from the root of the repository::

    python3 perfbench/pins.py

Every variant of every stratum of every workload, plus the counter
self-check cases, is solved once through ``netcon solve``.  The output must
replay through ``validate_sequence``, and where the network has at most
``ORACLE_EDGES`` edges its objective must equal the ``subset_dp`` oracle.
Each pin stores a digest of the instance text next to the objective, so a
change to the generators shows up as an unpinned instance instead of a
silently different workload.  Pins are taken once, from a revision whose
solver the oracles agree with; they are the reference later revisions are
checked against, so do not rebuild them to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker

ORACLE_EDGES = 16


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / "src"))
    import netcon
    from netcon.cli import parse_solution

    import workloads

    cases = [
        workloads.build(w, i, v)
        for w in workloads.WORKLOADS
        for i in range(len(workloads.strata(w)))
        for v in range(workloads.VARIANTS)
    ]
    cases += [case for case, _ in workloads.self_check_cases()]
    pins = {}
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            path = Path(tmp) / "case.ncn"
            path.write_text(case.text)
            instance = netcon.parse_instance(case.text)
            code, text, seconds = worker.solve(worker.Prepared(case, str(path), instance, None, None))
            if code != 0:
                raise SystemExit(f"{case.key}: solve exited with {code}")
            claimed, seq = parse_solution(instance, text)
            verdict = netcon.validate_sequence(instance, seq, claimed)
            if not verdict.ok:
                raise SystemExit(f"{case.key}: {verdict.discrepancies}")
            if instance.network.edge_count <= ORACLE_EDGES:
                oracle, _ = netcon.subset_dp(instance)
                if oracle != claimed.objective:
                    raise SystemExit(f"{case.key}: solve {claimed.objective} != oracle {oracle}")
                checked += 1
            pins[case.key] = [case.digest, claimed.objective]
            print(f"{case.key:28} {seconds:7.3f} s  objective {claimed.objective}", file=sys.stderr)
    lines = [f"{json.dumps(key)}: {json.dumps(pins[key])}" for key in sorted(pins)]
    (worker.BENCH / "pins.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"pinned {len(pins)} instances, {checked} also checked against subset_dp", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
