"""Repository benchmark: one fixed-seed workload per invocation.

    python3 perfbench/run.py --workload rtl-grid --seed 2021 --seconds 24 \
        --trace 0

Run from the root of a checkout.  The benchmark imports ``repro`` from
``src/`` of that checkout (and fails if it is missing), repeats rounds of
the chosen workload for ``--seconds`` seconds, checks every round's
outputs, and prints one metric per line followed by a last line holding
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced rounds.
``--trace 1`` alternates untraced and traced rounds over the same inputs
and reports the per-layer metrics of the traced ones, plus the tracing
overhead.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from before ``import repro``

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".state"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 2021
SETUP_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, print it and exit")
    parser.add_argument("--pin", action="store_true",
                        help="record round 0 of the default seed as the "
                             "pinned output of this workload and size")
    return parser.parse_args(argv)


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def setup_probe(args) -> Tuple[float, float]:
    """Time one set-up of *args.workload* in a fresh interpreter;
    returns the wall time and the time at nominal host speed."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    return probe["raw_setup_s"], probe["setup_s"]


def provenance(args, workloads, rounds: int, latencies: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    src = source_digest(ROOT / "src" / "repro")
    return {
        "git_sha": sha,
        "src_sha256": src,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": workloads.WORKLOADS[args.workload].sizes[args.size],
        "rounds": rounds,
        "latency_samples": latencies,
        "setup_samples": SETUP_SAMPLES,
    }


def source_digest(root: Path) -> str:
    """Content digest of the package sources (no git needed)."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_round(args, result, pins: dict) -> list:
    """Problems with one round's outputs; empty when they are correct."""
    problems = list(result.problems)
    total = sum(result.outcomes.values())
    if total != result.expected_outcomes:
        problems.append(f"round {result.index}: outcome totals "
                        f"{result.outcomes} sum to {total}, expected "
                        f"{result.expected_outcomes}")
    pinned = pins.get(args.workload, {}).get(args.size)
    if result.index == 0 and args.seed == DEFAULT_SEED and pinned is not None:
        for key in ("digests", "outcomes"):
            if getattr(result, key) != pinned[key]:
                problems.append(f"round 0 {key} {getattr(result, key)} "
                                f"differ from the pinned {pinned[key]}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"run-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    workloads = import_repro()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.size, workdir)
    workload.setup()
    raw = time.perf_counter() - _T0
    hostspeed = workloads.hostspeed
    setups = [(raw, hostspeed.scale(raw, hostspeed.sample()))]
    if args.setup_probe:
        workload.teardown()
        print(json.dumps({"raw_setup_s": setups[0][0],
                          "setup_s": setups[0][1]}))
        return 0
    try:
        if args.pin:
            return pin(args, workloads, workload)
        setups += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        if args.trace:
            from layers import traced_rounds

            rounds, values = traced_rounds(
                args, workloads, workload, STATE / "spans" /
                f"{args.workload}-seed{args.seed}-{args.size}.jsonl")
            wall_clock = {}
        else:
            rounds = untraced_rounds(args, workloads, workload)
            values = end_to_end(workload, rounds, setups, scaled=True)
            wall_clock = end_to_end(workload, rounds, setups, scaled=False)
    finally:
        workload.teardown()

    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    problems = [problem for result in rounds
                for problem in check_round(args, result, pins)]
    for problem in problems:
        print(f"perfbench: incorrect output: {problem}", file=sys.stderr)
    for result in rounds:
        print(f"round {result.index} units {result.units} "
              f"wall_s {result.round_s(scaled=False):.4f} "
              f"scaled_s {result.round_s():.4f}")
    latencies = (sum(len(result.latencies_s) for result in rounds)
                 if workload.latency_per_operation else len(rounds))
    references = [s for result in rounds for s in result.references_s]
    print("provenance " + json.dumps({
        **provenance(args, workloads, len(rounds), latencies),
        "host_reference_ms": (1e3 * statistics.median(references)
                              if references else None),
        "setup_samples_s": setups,
        "wall_clock": wall_clock}))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"]
             for m in json.loads(SPEC.read_text())[kind]}
    if set(values) != set(units):
        sys.exit(f"perfbench: measured {sorted(values)}, but "
                 f"BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result.attempted for result in rounds),
        "failed": sum(result.failed for result in rounds),
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


def untraced_rounds(args, workloads, workload) -> list:
    rounds = []
    start = time.perf_counter()
    while workloads.more_rounds(start, len(rounds), args.seconds):
        result = workload.run_round(
            workloads.round_seed(args.seed, len(rounds)))
        result.index = len(rounds)
        rounds.append(result)
    return rounds


def end_to_end(workload, rounds, setups, scaled: bool) -> dict:
    """The end-to-end metrics, at nominal host speed when *scaled*."""
    from workloads import quantile

    ops = [result.op_s(scaled) for result in rounds]
    if workload.latency_per_operation:
        latencies = [s for op_s in ops for s in op_s]
    else:
        latencies = [sum(op_s) for op_s in ops]
    # every round runs the same operations in the same order; the round
    # time is the sum of each operation's median over the rounds, which
    # keeps a slow stretch of the host out of the throughput
    complete = [op_s for op_s in ops if len(op_s) == len(ops[0])]
    round_s = sum(statistics.median(column) for column in zip(*complete))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_s = statistics.median(setup[1 if scaled else 0] for setup in setups)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
        "units_per_s": rounds[0].units / round_s,
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p75_s": quantile(latencies, 0.75),
    }


def pin(args, workloads, workload) -> int:
    """Record round 0 of the default seed as this workload's pinned output."""
    result = workload.run_round(workloads.round_seed(DEFAULT_SEED, 0))
    total = sum(result.outcomes.values())
    if result.problems or total != result.expected_outcomes:
        sys.exit(f"perfbench: refusing to pin an incorrect round: "
                 f"{result.problems or result.outcomes}")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins.setdefault(args.workload, {})[args.size] = {
        "seed": DEFAULT_SEED,
        "digests": result.digests, "outcomes": result.outcomes}
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(json.dumps(pins[args.workload][args.size]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
