"""The four benchmark workloads, driven through :mod:`repro`'s public API.

Every workload is serial (``n_jobs=1``) and runs in one process.  A run
repeats *rounds* until its time is up; round ``r`` draws its inputs from
``round_seed(seed, r)``, so a seed fixes every input of every round.
Each round returns its work count, the latency of each user-visible
operation, canonical digests of its output bytes and its outcome totals
(Masked/SDC/DUE), which the runner checks.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import hostspeed
import repro
from repro.apps import make_application
from repro.campaign.pipeline import run_pipeline
from repro.errors import ServiceError
from repro.gpu.isa import Opcode
from repro.rtl.campaign import (
    CHARACTERIZED_OPCODES,
    TMXM_MODULES,
    modules_for_opcode,
    run_campaign,
    run_signature_campaign,
)
from repro.rtl.reports import CampaignReport
from repro.rtl.tmxm import TILE_KINDS, make_tmxm_bench
from repro.service.api import ServiceDaemon
from repro.service.client import ServiceClient
from repro.service.store import TERMINAL_STATES
from repro.swfi.campaign import run_pvf_campaign
from repro.swfi.models import RelativeErrorSyndrome, SingleBitFlip

__all__ = ["WORKLOADS", "RoundResult", "more_rounds", "quantile",
           "round_seed"]

OUTCOMES = ("masked", "sdc", "due")


def round_seed(seed: int, index: int) -> int:
    """Input seed of round *index* of a run started with *seed*."""
    return seed + 100_003 * index


def more_rounds(start: float, done: int, seconds: float) -> bool:
    """Whether another round fits: the run measures for about *seconds*.

    A round starts only if, at the mean pace so far, it ends within a
    tenth of the run past *seconds*, so a run never overshoots by a
    whole round.  The first round always runs.
    """
    if done == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= 1.1 * seconds


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (0 <= q <= 1); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


def tally(counts: Dict[str, int], masked: int, sdc: int, due: int) -> None:
    counts["masked"] += masked
    counts["sdc"] += sdc
    counts["due"] += due


@dataclass
class RoundResult:
    units: int                      # faults, simulations, injections, jobs
    latencies_s: List[float]        # wall time of each timed operation
    digests: Dict[str, str]
    outcomes: Dict[str, int]
    expected_outcomes: int          # what the outcome totals must sum to
    attempted: int
    #: the same times at nominal host speed; empty where wall time is
    #: reported as is
    scaled_s: List[float] = field(default_factory=list)
    references_s: List[float] = field(default_factory=list)
    failed: int = 0
    index: int = 0                  # round number within the run
    problems: List[str] = field(default_factory=list)
    #: service only: per-job timestamps and per-request client timings
    jobs: List[dict] = field(default_factory=list)
    http_ms: List[float] = field(default_factory=list)
    revalidations: int = 0
    not_modified: int = 0

    def op_s(self, scaled: bool = True) -> List[float]:
        """Operation times, at nominal host speed where sampled."""
        return list(self.scaled_s if scaled and self.scaled_s
                    else self.latencies_s)

    def round_s(self, scaled: bool = True) -> float:
        return sum(self.op_s(scaled))

    @property
    def host_factor(self) -> float:
        """Nominal over measured host speed during this round."""
        return self.round_s() / self.round_s(scaled=False)


class Clock:
    """Times a round's operations at nominal host speed.

    The host reference is sampled before and after every operation and,
    from a ``SIGVTALRM`` handler, after every ``interval_s`` of the
    process's CPU time inside it: each stretch between two samples is
    scaled by their mean.  Time spent sampling is in no stretch.
    """

    #: sample inside operations too (off in traced runs, where a sample
    #: would land inside whichever span is open)
    sample_inside = True
    interval_s = 0.25

    @staticmethod
    def around(call: Callable[[], Any]):
        """Runs every operation; the traced run records spans inside it
        only, so the benchmark's own output checks stay untraced."""
        return call()

    def __init__(self) -> None:
        self.latencies_s: List[float] = []
        self.scaled_s: List[float] = []
        self.references_s: List[float] = []

    def _mark(self, reference: float) -> None:
        stretch_s = time.perf_counter() - self._start
        self._raw += stretch_s
        self._scaled += hostspeed.scale(
            stretch_s, (self._reference + reference) / 2)
        self._reference = reference
        self.references_s.append(reference)

    def _on_timer(self, signum, frame) -> None:
        self._mark(hostspeed.sample())
        self._start = time.perf_counter()

    def time(self, call: Callable[[], Any]):
        """Run ``call()`` as one timed operation."""
        self._reference = hostspeed.sample()
        self.references_s.append(self._reference)
        self._raw = self._scaled = 0.0
        if self.sample_inside:
            previous = signal.signal(signal.SIGVTALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_VIRTUAL, self.interval_s,
                             self.interval_s)
        self._start = time.perf_counter()
        try:
            result = self.around(call)
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_VIRTUAL, 0)
                signal.signal(signal.SIGVTALRM, previous)
        self._mark(hostspeed.sample())
        self.latencies_s.append(self._raw)
        self.scaled_s.append(self._scaled)
        return result

    def result(self, **fields) -> RoundResult:
        return RoundResult(latencies_s=self.latencies_s,
                           scaled_s=self.scaled_s,
                           references_s=self.references_s, **fields)


class Workload:
    name = ""
    #: per-size parameters; "full" is the benchmark, "tiny" the smoke test
    sizes: Dict[str, dict] = {}
    #: latency is per operation (a service job) rather than per round (the
    #: batch of campaigns a user of a batch workload waits for)
    latency_per_operation = False

    def __init__(self, size: str, workdir: Path) -> None:
        self.size = size
        self.params = dict(self.sizes[size])
        self.workdir = workdir

    def setup(self) -> None:
        """Set-up work users pay once: DB load, objects, daemon start."""

    def teardown(self) -> None:
        pass

    def run_round(self, seed: int) -> RoundResult:
        raise NotImplementedError


# -- rtl-grid ----------------------------------------------------------------
class RtlGrid(Workload):
    """Paper stages 1-2: the instruction grid and t-MxM tiles -> DB."""

    name = "rtl-grid"
    sizes = {"full": {"grid_faults": 8, "tmxm_faults": 8},
             "tiny": {"grid_faults": 1, "tmxm_faults": 1,
                      "opcodes": ["FADD", "IADD"]}}

    def _cells(self) -> Tuple[int, int]:
        opcodes = self.params.get("opcodes")
        opcodes = ([Opcode(name) for name in opcodes] if opcodes
                   else list(CHARACTERIZED_OPCODES))
        grid = sum(len(modules_for_opcode(op)) for op in opcodes) * 3
        return grid, len(TILE_KINDS) * len(TMXM_MODULES)

    def run_round(self, seed: int) -> RoundResult:
        workdir = self.workdir / f"grid-{seed}"
        opcodes = self.params.get("opcodes")
        clock = Clock()
        clock.time(lambda: run_pipeline(
            workdir, seed=seed, apps=(),
            opcodes=[Opcode(name) for name in opcodes] if opcodes else None,
            grid_faults=self.params["grid_faults"],
            tmxm_faults=self.params["tmxm_faults"], quiet=True))
        counts = dict.fromkeys(OUTCOMES, 0)
        records = []
        for journal in ("rtl_grid.jsonl", "tmxm.jsonl"):
            for line in (workdir / journal).read_text().splitlines():
                record = json.loads(line)
                if record.get("kind") != "batch":
                    continue
                records.append(canonical(record))
                report = CampaignReport.from_dict(record["report"])
                tally(counts, report.n_masked, report.n_sdc, report.n_due)
        db_bytes = (workdir / "syndrome_db.json").read_bytes()
        shutil.rmtree(workdir)
        grid_cells, tmxm_cells = self._cells()
        units = (grid_cells * self.params["grid_faults"]
                 + tmxm_cells * self.params["tmxm_faults"])
        problems = []
        if len(records) != grid_cells + tmxm_cells:
            problems.append(f"{len(records)} journaled cells, expected "
                            f"{grid_cells + tmxm_cells}")
        return clock.result(
            units=units,
            digests={"rtl_cells": digest(*records),
                     "syndrome_db": digest(db_bytes)},
            outcomes=counts, expected_outcomes=units, attempted=units,
            problems=problems)


# -- rtl-permanent -----------------------------------------------------------
class RtlPermanent(Workload):
    """Burst and stuck-at faults on the control modules (scalar path)."""

    name = "rtl-permanent"
    modules = ("scheduler", "pipeline")
    sizes = {"full": {"burst_faults": 16, "stuck_faults": 2},
             "tiny": {"burst_faults": 2, "stuck_faults": 1}}

    def run_round(self, seed: int) -> RoundResult:
        clock = Clock()
        counts = dict.fromkeys(OUTCOMES, 0)
        chunks: List[bytes] = []
        units = 0
        for offset, module in enumerate(self.modules):
            cell_seed = seed + offset
            bench = make_tmxm_bench("Random", seed=cell_seed)
            report = clock.time(lambda: run_campaign(
                bench, module, self.params["burst_faults"], seed=cell_seed,
                fault_model="burst"))
            signature = clock.time(lambda: run_signature_campaign(
                module, self.params["stuck_faults"], seed=cell_seed))
            tally(counts, report.n_masked, report.n_sdc, report.n_due)
            for record in signature.records:
                counts[record.outcome.name.lower()] += 1
            chunks += [canonical(report.to_dict()),
                       canonical(repro.artifacts.dump_artifact(
                           "signature-report", signature))]
            units += len(report.general) + len(signature.records)
        expected = len(self.modules) * (
            self.params["burst_faults"]
            + self.params["stuck_faults"] * len(TILE_KINDS))
        problems = []
        if units != expected:
            problems.append(f"{units} simulations, expected {expected}")
        return clock.result(
            units=units,
            digests={"burst_and_signature_reports": digest(*chunks)},
            outcomes=counts, expected_outcomes=expected, attempted=expected,
            problems=problems)


# -- swfi-pvf ----------------------------------------------------------------
class SwfiPvf(Workload):
    """Single-instruction SWFI campaigns under both fault models."""

    name = "swfi-pvf"
    apps = ("MxM", "Hotspot", "Quicksort", "NW", "Gaussian", "LUD")
    sizes = {"full": {"injections": 16}, "tiny": {"injections": 2}}

    def setup(self) -> None:
        self.models = (SingleBitFlip(),
                       RelativeErrorSyndrome(repro.load_database()))

    def run_round(self, seed: int) -> RoundResult:
        clock = Clock()
        counts = dict.fromkeys(OUTCOMES, 0)
        chunks: List[bytes] = []
        n = self.params["injections"]
        for app_name in self.apps:
            for model in self.models:
                app = make_application(app_name, seed=seed)
                report = clock.time(lambda: run_pvf_campaign(
                    app, model, n, seed=seed))
                tally(counts, report.n_masked, report.n_sdc, report.n_due)
                chunks.append(canonical(report.to_dict()))
        units = n * len(self.apps) * len(self.models)
        return clock.result(
            units=units,
            digests={"pvf_reports": digest(*chunks)}, outcomes=counts,
            expected_outcomes=units, attempted=units)


# -- service-jobs ------------------------------------------------------------
class ServiceJobs(Workload):
    """One closed-loop HTTP client against an in-process daemon."""

    name = "service-jobs"
    latency_per_operation = True
    #: Gaussian injects fewer faults than LUD so that every job type
    #: executes in about the same time: one latency cluster, not several,
    #: keeps the percentiles off the gaps between clusters
    sizes = {"full": {"jobs_per_round": 4,
                      "pvf_injections": {"LUD": 40, "Gaussian": 16},
                      "rtl_faults": 50, "poll_s": 0.02},
             "tiny": {"jobs_per_round": 2,
                      "pvf_injections": {"LUD": 4, "Gaussian": 4},
                      "rtl_faults": 4, "poll_s": 0.02}}

    def setup(self) -> None:
        self.daemon = ServiceDaemon(self.workdir / "service", port=0).start()
        self.client = ServiceClient(self.daemon.url)

    def teardown(self) -> None:
        self.daemon.stop()

    def _job_params(self, seed: int, index: int):
        if index % 2 == 0:
            app = "LUD" if index % 4 == 0 else "Gaussian"
            return "pvf", {"app": app, "model": "bitflip",
                           "seed": seed + index,
                           "injections": self.params["pvf_injections"][app]}
        return "rtl", {"opcode": "FADD", "range": "M",
                       "module": "scheduler", "seed": seed + index,
                       "faults": self.params["rtl_faults"]}

    def run_round(self, seed: int) -> RoundResult:
        result = RoundResult(units=0, latencies_s=[], digests={},
                             outcomes=dict.fromkeys(OUTCOMES, 0),
                             expected_outcomes=0, attempted=0)
        bodies: List[bytes] = []
        Clock.around(lambda: self._run_jobs(seed, result, bodies))
        result.digests = {"report_artifacts": digest(*bodies)}
        return result

    def _run_jobs(self, seed: int, result: RoundResult,
                  bodies: List[bytes]) -> None:
        """The closed loop: one job outstanding, each job fetched,
        revalidated and listed before the next is submitted."""

        def call(fn, *args, **kwargs):
            result.attempted += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except ServiceError:
                result.failed += 1
                raise
            finally:
                result.http_ms.append((time.perf_counter() - start) * 1e3)

        for index in range(self.params["jobs_per_round"]):
            kind, params = self._job_params(seed, index)
            result.units += 1
            result.attempted += 1
            start = time.perf_counter()
            try:
                job = call(self.client.submit, kind, **params)
                while job["state"] not in TERMINAL_STATES:
                    time.sleep(self.params["poll_s"])
                    job = call(self.client.job, job["id"])
                body, etag = call(self.client.artifact, job["id"], "report")
                fetched_at = time.time()
                result.latencies_s.append(time.perf_counter() - start)
                again, _ = call(self.client.artifact, job["id"], "report",
                                etag=etag)
                result.revalidations += 1
                result.not_modified += again is None
                call(self.client.jobs)
            except ServiceError as exc:
                result.failed += 1
                result.problems.append(f"job {index}: {exc}")
                continue
            if job["state"] != "done":
                result.failed += 1
                result.problems.append(f"job {job['id']} ended "
                                       f"{job['state']}: {job.get('error')}")
                continue
            result.jobs.append({
                "submitted_at": job["submitted_at"],
                "started_at": job["started_at"],
                "finished_at": job["finished_at"],
                "fetched_at": fetched_at})
            bodies.append(body)
            report = json.loads(body)
            totals = report["report"] if kind == "pvf" else report
            tally(result.outcomes, totals["n_masked"], totals["n_sdc"],
                  totals["n_due"])
            result.expected_outcomes += (params["injections"]
                                         if kind == "pvf"
                                         else params["faults"])


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (RtlGrid, RtlPermanent, SwfiPvf, ServiceJobs)}
