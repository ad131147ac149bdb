"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/tests -q

Each workload runs one round per invocation (``--seconds 0``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: per-layer metrics that are counts of work, not of time or polling,
#: and so must repeat exactly for one seed
EXACT = (
    "campaign.units", "campaign.journal_records", "gpu.launches",
    "gpu.sim_cycles", "rtl.faults", "rtl.stuck_sims", "rtl.scalar_injects",
    "rtl.masked", "rtl.sdc", "rtl.due", "syndrome.lookups",
    "swfi.injections", "swfi.dyn_instructions", "swfi.masked", "swfi.sdc",
    "swfi.due",
)


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 2021
          ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_the_end_to_end_metrics(workload):
    out = result(bench(workload, trace=0))
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    emitted = {name: m["unit"] for name, m in out["metrics"].items()}
    assert emitted == declared("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, trace=1)) for _ in range(2))
    emitted = {name: m["unit"] for name, m in first["metrics"].items()}
    assert emitted == declared("per_layer")
    counts = [{name: out["metrics"][name]["value"] for name in EXACT}
              for out in (first, second)]
    assert counts[0] == counts[1]
    assert first["correct"] and second["correct"]


def test_other_seeds_are_checked_by_invariants():
    out = result(bench("rtl-permanent", trace=0, seed=7))
    assert out["correct"] is True


def test_pinned_output_mismatch_fails():
    sys.path.insert(0, str(BENCH))
    import run

    RoundResult = run.import_repro().RoundResult
    args = run.parse_args(["--workload", "swfi-pvf", "--size", "tiny"])
    pinned = json.loads(run.PINS.read_text())["swfi-pvf"]["tiny"]
    good = RoundResult(units=1, latencies_s=[1.0],
                       digests=dict(pinned["digests"]),
                       outcomes=dict(pinned["outcomes"]),
                       expected_outcomes=sum(pinned["outcomes"].values()),
                       attempted=1)
    pins = {"swfi-pvf": {"tiny": pinned}}
    assert run.check_round(args, good, pins) == []
    bad = RoundResult(**{**good.__dict__,
                         "digests": {"pvf_reports": "0" * 64}})
    assert run.check_round(args, bad, pins)
    miscounted = RoundResult(**{**good.__dict__, "expected_outcomes": 0})
    assert run.check_round(args, miscounted, pins)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".state", "__pycache__"))
    proc = bench("rtl-grid", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
