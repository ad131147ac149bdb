"""Append perfbench results to the tracked trajectory file.

Runs ``perfbench/run.py --seed 2021 --seconds 24 --trace 0`` once on every
workload of ``BENCHMARK.json`` and appends one JSON line per run to
``BENCH_trajectory.jsonl`` at the repository root::

    {"provenance": {...}, "result": {"correct": ..., "metrics": {...}}}

``provenance`` is the run's own provenance line (commit, host, Python,
numpy, seed, seconds), plus ``src_dirty`` when ``src/`` differed from
that commit (its ``src_sha256`` then names the measured tree);
``result`` is its last output line.  The settings are fixed so that every
row of the file is comparable with every other.  Run it from the root of
a checkout, or through ``make bench-trajectory``::

    python benchmarks/trajectory.py

It exits non-zero if any run failed or printed ``"correct": false``;
that run's line is still appended.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEED = 2021
SECONDS = 24


def run_one(workload: str) -> dict:
    """One perfbench run as a trajectory row."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    provenance = next((json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("provenance ")),
                      {"workload": workload, "seed": SEED})
    dirty = subprocess.run(["git", "status", "--porcelain", "src"],
                           cwd=ROOT, capture_output=True, text=True)
    if dirty.stdout.strip():
        provenance["src_dirty"] = True
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False,
                  "error": proc.stderr.strip().splitlines()[-1:]}
    return {"provenance": provenance, "result": result}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        row = run_one(workload)
        with TRAJECTORY.open("a") as out:
            out.write(json.dumps(row, sort_keys=True) + "\n")
        ok &= row["result"].get("correct") is True
        units = row["result"].get("metrics", {}).get("units_per_s", {})
        print(f"{workload}: correct={row['result'].get('correct')} "
              f"units_per_s={units.get('value')}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
