"""The traced run: per-layer metrics from spans around ``repro`` calls.

Round ``r`` runs twice over the same inputs, first untraced and then
traced, until the run's time is up.  Exact counts come from the traced
round 0 (the pinned round of the default seed), so two traced runs at one
seed report identical counts.  Times are per-round means over all traced
rounds, and rates divide totals over all traced rounds.  The tracing
overhead is the traced wall over the untraced wall of the same rounds.
"""

from __future__ import annotations

import functools
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import spans
from spans import RECORDER, Aggregate, Patcher
from workloads import quantile

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(first: Aggregate, rounds: List[Tuple[Aggregate, float]],
                  traced: list, overhead: float) -> Dict[str, float]:
    """Per-layer values: counts from *first*; times from *rounds*, pairs
    of one traced round's spans and its host factor, as per-round means
    at nominal host speed."""

    def per_round(seconds: Callable[[Aggregate], float]) -> float:
        return scaled(seconds) / len(rounds)

    def scaled(seconds: Callable[[Aggregate], float]) -> float:
        return sum(seconds(agg) * factor for agg, factor in rounds)

    def count(name: str, key: str) -> int:
        return sum(agg.count(name, key) for agg, _ in rounds)

    def total(name: str) -> float:
        return per_round(lambda agg: agg.total_s(name))

    def self_time(name: str) -> float:
        return per_round(lambda agg: agg.self_s(name))

    faults = (first.count("rtl.inject_batch", "faults")
              + first.count("rtl.inject", "faults"))
    stuck = first.count("rtl.inject", "stuck_sims")

    def outcome(key: str) -> int:
        return (first.count("rtl.inject_batch", key)
                + first.count("rtl.inject", key))

    jobs = [job for result in traced for job in result.jobs]
    http = [ms for result in traced for ms in result.http_ms]
    values = {
        "campaign.units": first.calls("campaign.unit"),
        "campaign.engine_self_s": self_time("campaign.run_units"),
        "campaign.journal_records": first.calls("campaign.journal"),
        "campaign.journal_s": total("campaign.journal"),
        "campaign.merge_s": total("campaign.merge"),
        "gpu.launches": first.calls("gpu.launch"),
        "gpu.sim_cycles": first.count("gpu.launch", "cycles"),
        "gpu.launch_s": total("gpu.launch"),
        "gpu.sim_cycles_per_s": _ratio(
            count("gpu.launch", "cycles"),
            scaled(lambda a: a.total_s("gpu.launch"))),
        "rtl.faults": faults,
        "rtl.stuck_sims": stuck,
        "rtl.stuck_sims_per_s": _ratio(
            count("rtl.inject", "stuck_sims"),
            scaled(lambda a: a.total_s("rtl.signature_campaign"))),
        "rtl.golden_s": total("rtl.golden"),
        "rtl.prepare_s": total("rtl.prepare"),
        "rtl.vector_self_s": self_time("rtl.inject_batch"),
        "rtl.scalar_injects": first.calls("rtl.inject"),
        "rtl.scalar_ratio": _ratio(first.calls("rtl.inject"),
                                   faults + stuck),
        "rtl.inject_self_s": self_time("rtl.inject"),
        "rtl.fault_list_s": total("rtl.fault_list"),
        "rtl.masked": outcome("masked"),
        "rtl.sdc": outcome("sdc"),
        "rtl.due": outcome("due"),
        "syndrome.ingest_s": total("syndrome.ingest"),
        "syndrome.build_s": total("syndrome.build"),
        "syndrome.save_s": total("syndrome.save"),
        "syndrome.lookups": first.calls("syndrome.lookup"),
        "syndrome.lookup_s": total("syndrome.lookup"),
        "swfi.golden_s": total("swfi.golden"),
        "swfi.inject_s": per_round(
            lambda a: a.total_s("swfi.inject")
            - a.child_s("swfi.inject", "swfi.golden")),
        "swfi.injections": first.calls("swfi.inject"),
        "swfi.dyn_instructions": first.count("swfi.app_run", "dyn"),
        "swfi.us_per_dyn_instruction": 1e6 * _ratio(
            scaled(lambda a: a.duration_with("swfi.app_run", "injected")),
            count("swfi.app_run", "dyn")),
        "swfi.classify_s": total("swfi.classify"),
        "swfi.masked": first.count("swfi.inject", "masked"),
        "swfi.sdc": first.count("swfi.inject", "sdc"),
        "swfi.due": first.count("swfi.inject", "due"),
        "artifacts.serialize_s": total("artifacts.serialize"),
        "service.queue_wait_s": _median(
            [j["started_at"] - j["submitted_at"] for j in jobs]),
        "service.execute_s": _median(
            [j["finished_at"] - j["started_at"] for j in jobs]),
        "service.report_lag_s": _median(
            [j["fetched_at"] - j["finished_at"] for j in jobs]),
        "service.http_requests": len(traced[0].http_ms),
        "service.http_p50_ms": quantile(http, 0.5),
        "service.http_p90_ms": quantile(http, 0.9),
        "service.store_calls": first.calls("service.store"),
        "service.store_s": total("service.store"),
        "service.revalidate_304_ratio": _ratio(
            sum(r.not_modified for r in traced),
            sum(r.revalidations for r in traced)),
        "trace.overhead_ratio": overhead,
    }
    return values


def _recorded(wid: str, call: Callable[[], Any]):
    RECORDER.wid = wid
    try:
        return call()
    finally:
        RECORDER.wid = None


def traced_rounds(args, workloads, workload,
                  spans_path: Path) -> Tuple[list, dict]:
    """Alternate untraced and traced rounds; return rounds and metrics.

    The spans of every traced round are written to *spans_path*.
    """
    workloads.Clock.sample_inside = False
    patcher = Patcher()
    spans.install(patcher)
    rounds, plain, traced = [], [], []
    start = time.perf_counter()
    try:
        while workloads.more_rounds(start, len(traced), args.seconds):
            index = len(traced)
            seed = workloads.round_seed(args.seed, index)
            plain.append(workload.run_round(seed))
            untraced = workloads.Clock.__dict__["around"]
            workloads.Clock.around = staticmethod(
                functools.partial(_recorded, f"{args.workload}/r{index}"))
            try:
                traced.append(workload.run_round(seed))
            finally:
                workloads.Clock.around = untraced
            for result in (plain[-1], traced[-1]):
                result.index = index
                rounds.append(result)
            if plain[-1].digests != traced[-1].digests:
                traced[-1].problems.append(
                    f"round {index}: traced outputs differ from untraced")
    finally:
        patcher.undo()
    RECORDER.write(spans_path)
    by_round = [Aggregate([s for s in RECORDER.spans
                           if s.wid == f"{args.workload}/r{index}"])
                for index in range(len(traced))]
    overhead = (sum(r.round_s() for r in traced)
                / sum(r.round_s() for r in plain))
    values = layer_metrics(
        by_round[0],
        [(agg, r.host_factor) for agg, r in zip(by_round, traced)],
        traced, overhead)
    return rounds, values
