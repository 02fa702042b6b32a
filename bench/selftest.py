"""The benchmark's own test: traced counts repeat exactly.

    python3 bench/selftest.py [--seed N] [--workload W ...]

Runs the traced run of each workload twice with the same seed and fails
(exit code 1) unless the exact counts agree between the two runs, along with
the attempted and failed item counts.  Takes about two minutes, most of it
the two design jobs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = (
    "membrane.solves",
    "bessel.calls_per_solve",
    "loading.budget_units",
    "loading.distinct_solves",
    "analysis.spectrum_calls",
)


def traced(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workload", nargs="+", default=["design", "audio"])
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        pairs = {name: (first["metrics"][name]["value"], second["metrics"][name]["value"]) for name in EXACT}
        pairs["attempted"] = (first["attempted"], second["attempted"])
        pairs["failed"] = (first["failed"], second["failed"])
        same = all(a == b for a, b in pairs.values())
        ok &= same
        print(f"{'PASS' if same else 'FAIL'}  {workload}: " + ", ".join(
            f"{name}={a}" if a == b else f"{name}={a}!={b}" for name, (a, b) in pairs.items()
        ))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
