"""Scheduler: claims queued jobs and executes them via the engine.

One :class:`Scheduler` drains the :class:`~repro.service.store.JobStore`
one job at a time.  Each job owns a directory
(``<workdir>/jobs/<id>/``) holding its campaign journals, live
``metrics.json`` telemetry, and the final ``report.json`` artifact —
everything the HTTP API serves.

Three properties connect the service to the campaign engine:

* **Checkpoint everything** — every job runs with an engine journal in
  its job directory and ``resume=True`` whenever that journal already
  exists, so a re-queued job (daemon restart, explicit requeue)
  continues instead of restarting.
* **Cooperative cancellation** — the engine polls the job's
  ``cancel_requested`` flag (and the job's wall-clock budget) between
  work units via the ``cancel=`` hook; a stop lands the job in
  ``cancelled`` (or ``failed`` for a blown budget) with all completed
  units journaled.
* **Bit-identical results** — a job is planned by the exact same
  planners the synchronous CLI's runners use and executed by the same
  driver (:func:`repro.campaign.engine.execute`), so a job's merged
  report equals the direct ``python -m repro`` run's for the same
  parameters, no matter how often the daemon died in between or which
  workers ran its units.
"""

from __future__ import annotations

import json
import math
import sqlite3
import sys
import threading
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..campaign.checkpoint import CampaignCheckpoint
from ..campaign.engine import CampaignPlan
from ..campaign.progress import make_progress
from ..campaign.telemetry import CampaignMetrics
from ..errors import BudgetExceeded, CampaignCancelled, ServiceError
from .store import Job, JobStore

__all__ = ["JOB_KINDS", "Scheduler", "execute_job",
           "finalize_sharded_job", "normalize_params",
           "open_shard_journal", "plan_job_units", "run_job_units"]

#: The campaign shapes the service runs.
JOB_KINDS = ("pvf", "rtl", "pipeline")

#: Seconds between ``cancel_requested`` polls of the store; between
#: polls the cached answer is reused, keeping the per-unit overhead off
#: the SQLite file.
_CANCEL_POLL_SECONDS = 0.25

#: Ceiling on the retry backoff after a transient store error (e.g.
#: SQLite "database is locked" under heavy worker contention).
_MAX_BACKOFF_SECONDS = 10.0

#: The journal each plan kind writes inside its job directory.
_JOURNALS = {"pvf-report": "pvf.jsonl", "rtl-report": "rtl.jsonl",
             "signature-report": "signature.jsonl"}


# -- parameter validation -----------------------------------------------------
def _require_int(params: dict, key: str, default: Optional[int],
                 minimum: int = 0) -> Optional[int]:
    value = params.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"parameter {key!r} must be an integer")
    if value < minimum:
        raise ServiceError(f"parameter {key!r} must be >= {minimum}")
    return value


def _require_number(params: dict, key: str) -> Optional[float]:
    value = params.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(f"parameter {key!r} must be a number")
    if value <= 0:
        raise ServiceError(f"parameter {key!r} must be positive")
    return float(value)


def _canonical_app(name, factories) -> str:
    match = {key.lower(): key for key in factories}.get(
        str(name).lower())
    if match is None:
        raise ServiceError(
            f"unknown application {name!r}; "
            f"choose from {sorted(factories)}")
    return match


_COMMON_KEYS = {"seed", "jobs", "batch_size", "timeout", "budget",
                "precision"}
#: pvf/rtl jobs are claimable in unit shards by remote workers;
#: ``units_per_claim`` caps how many units one claim hands out, and the
#: adaptive trio (``target_ci``/``strategy``/``min_per_cell``) switches
#: the job to sequential sampling over a moving unit horizon.
_KIND_KEYS = {
    "pvf": _COMMON_KEYS | {"app", "model", "injections",
                           "units_per_claim", "target_ci", "strategy",
                           "min_per_cell"},
    "rtl": _COMMON_KEYS | {"opcode", "module", "range", "faults",
                           "units_per_claim", "target_ci", "strategy",
                           "min_per_cell", "fault_model", "apps",
                           "burst_width", "burst_window"},
    "pipeline": _COMMON_KEYS | {"apps", "models", "opcodes",
                                "grid_faults", "tmxm_faults",
                                "injections"},
}

_PRECISIONS = ("fp32", "fp16", "bf16")


def _require_precision(params: dict) -> str:
    value = params.get("precision", "fp32")
    if value not in _PRECISIONS:
        raise ServiceError(
            f"unknown float precision {value!r}; "
            f"choose from {_PRECISIONS}")
    return value


def _check_app_precision(app: str, precision: str, factories) -> None:
    """Reject fp32-only apps at submit time, not hours into the job."""
    if precision == "fp32":
        return
    import inspect

    if "precision" not in inspect.signature(factories[app]).parameters:
        raise ServiceError(
            f"application {app!r} runs fp32 only; "
            f"precision={precision!r} is not supported")


def _require_adaptive(params: dict) -> Dict:
    """Validate the adaptive (sequential-sampling) parameter trio."""
    from ..adaptive import STRATEGIES

    target_ci = _require_number(params, "target_ci")
    if target_ci is not None and target_ci >= 1.0:
        raise ServiceError("parameter 'target_ci' must be in (0, 1)")
    strategy = params.get("strategy")
    if strategy is not None and strategy not in STRATEGIES:
        raise ServiceError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    min_per_cell = _require_int(params, "min_per_cell", None, minimum=1)
    if target_ci is None and (strategy is not None
                              or min_per_cell is not None):
        raise ServiceError(
            "parameters 'strategy'/'min_per_cell' require 'target_ci'")
    return {"target_ci": target_ci, "strategy": strategy,
            "min_per_cell": min_per_cell}


def _require_rtl_fault_model(params: dict) -> Dict:
    """Validate an RTL job's fault-model parameter block.

    ``apps`` (the signature campaign's application suite) is only
    meaningful for stuck-at jobs, and the burst geometry only for burst
    jobs — anything else is a 400 at submit, not a confusing no-op.
    """
    from ..errors import CampaignError
    from ..gpu.fault_plane import FAULT_MODELS
    from ..rtl.campaign import _signature_bench_spec

    fault_model = params.get("fault_model", "transient")
    if fault_model not in FAULT_MODELS:
        raise ServiceError(
            f"unknown fault model {fault_model!r}; "
            f"choose from {sorted(FAULT_MODELS)}")
    apps = params.get("apps")
    if apps is not None:
        if fault_model != "stuck-at":
            raise ServiceError(
                "parameter 'apps' only applies to stuck-at signature "
                "campaigns")
        if not isinstance(apps, list) or not apps:
            raise ServiceError("parameter 'apps' must be a non-empty list")
        for app in apps:
            try:
                _signature_bench_spec(str(app), 0)
            except CampaignError as exc:
                raise ServiceError(str(exc)) from None
        apps = [str(app) for app in apps]
    burst_width = _require_int(params, "burst_width", None, minimum=1)
    burst_window = _require_int(params, "burst_window", None, minimum=0)
    if fault_model != "burst" and (burst_width is not None
                                   or burst_window is not None):
        raise ServiceError(
            "parameters 'burst_width'/'burst_window' only apply to "
            "burst campaigns")
    return {
        "fault_model": fault_model,
        "apps": apps,
        "burst_width": 4 if burst_width is None else burst_width,
        "burst_window": 4 if burst_window is None else burst_window,
    }


def normalize_params(kind: str, params: Optional[dict]) -> dict:
    """Validate a submission and fill in defaults.

    Runs at submit time — a bad app name or negative injection count is
    a 400 at the API, not a ``failed`` job hours later.  Returns the
    normalized parameter dict that is stored with the job.
    """
    from ..apps import APP_FACTORIES
    from ..gpu.isa import Opcode
    from ..rtl.campaign import MODULE_INSTRUCTIONS

    if kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r}; choose from {JOB_KINDS}")
    params = dict(params or {})
    unknown = set(params) - _KIND_KEYS[kind]
    if unknown:
        raise ServiceError(
            f"unknown parameter(s) for {kind} jobs: {sorted(unknown)}")

    out: Dict = {
        "seed": _require_int(params, "seed", 0),
        "jobs": _require_int(params, "jobs", 1, minimum=1),
        "batch_size": _require_int(params, "batch_size", None, minimum=1),
        "timeout": _require_number(params, "timeout"),
        "budget": _require_number(params, "budget"),
        "precision": _require_precision(params),
    }
    precision = out["precision"]
    if kind == "pvf":
        app = _canonical_app(params.get("app"), APP_FACTORIES)
        _check_app_precision(app, precision, APP_FACTORIES)
        model = params.get("model", "bitflip")
        if model not in ("bitflip", "syndrome"):
            raise ServiceError(
                f"unknown fault model {model!r}; choose from "
                f"('bitflip', 'syndrome')")
        out.update(app=app, model=model,
                   injections=_require_int(params, "injections", 300),
                   units_per_claim=_require_int(
                       params, "units_per_claim", None, minimum=1),
                   **_require_adaptive(params))
    elif kind == "rtl":
        opcode = params.get("opcode", "FADD")
        try:
            opcode = Opcode(str(opcode).upper()).value
        except ValueError:
            raise ServiceError(f"unknown opcode {opcode!r}")
        # the float datapath module follows the precision by default
        module = params.get(
            "module", precision if precision != "fp32" else "fp32")
        if module not in MODULE_INSTRUCTIONS:
            raise ServiceError(f"unknown module {module!r}")
        input_range = str(params.get("range", "M")).upper()
        if input_range not in ("S", "M", "L"):
            raise ServiceError(
                f"unknown input range {input_range!r}; "
                f"choose from ('S', 'M', 'L')")
        out.update(opcode=opcode, module=module, range=input_range,
                   faults=_require_int(params, "faults", 500),
                   units_per_claim=_require_int(
                       params, "units_per_claim", None, minimum=1),
                   **_require_adaptive(params),
                   **_require_rtl_fault_model(params))
        if out["fault_model"] == "stuck-at" and out["target_ci"] is not None:
            raise ServiceError(
                "adaptive sampling (target_ci) applies to per-injection "
                "outcome campaigns; stuck-at signature campaigns "
                "characterise a fixed fault list")
        if out["target_ci"] is not None and out["batch_size"] is None:
            # adaptive stopping needs units finer than the whole cell
            from ..campaign.engine import DEFAULT_BATCH_SIZE

            out["batch_size"] = DEFAULT_BATCH_SIZE
    else:  # pipeline
        apps = params.get("apps", ["MxM"])
        if not isinstance(apps, list) or not apps:
            raise ServiceError("parameter 'apps' must be a non-empty list")
        apps = [_canonical_app(app, APP_FACTORIES) for app in apps]
        for app in apps:
            _check_app_precision(app, precision, APP_FACTORIES)
        models = params.get("models", ["bitflip", "syndrome"])
        if not isinstance(models, list) or not models:
            raise ServiceError(
                "parameter 'models' must be a non-empty list")
        for model in models:
            if model not in ("bitflip", "syndrome"):
                raise ServiceError(f"unknown fault model {model!r}")
        opcodes = params.get("opcodes")
        if opcodes is not None:
            if not isinstance(opcodes, list) or not opcodes:
                raise ServiceError(
                    "parameter 'opcodes' must be a non-empty list")
            checked = []
            for name in opcodes:
                try:
                    checked.append(Opcode(name).value)
                except ValueError:
                    raise ServiceError(f"unknown opcode {name!r}")
            opcodes = checked
        out.update(
            apps=apps, models=models, opcodes=opcodes,
            grid_faults=_require_int(params, "grid_faults", 200),
            tmxm_faults=_require_int(params, "tmxm_faults", 200),
            injections=_require_int(params, "injections", 300))
    return out


# -- live telemetry -----------------------------------------------------------
class _LiveMetrics(CampaignMetrics):
    """Campaign metrics that persist themselves while the job runs.

    The engine records one unit at a time; saving (throttled) after each
    record is what turns the job directory's ``metrics.json`` into the
    live heartbeat ``GET /jobs/<id>`` serves mid-run.
    """

    def __init__(self, stage: str, path: Path,
                 interval: float = 1.0) -> None:
        super().__init__(stage)
        self._path = path
        self._interval = interval
        self._last_save = 0.0

    def record_unit(self, *args, **kwargs):
        record = super().record_unit(*args, **kwargs)
        now = time.monotonic()
        if now - self._last_save >= self._interval:
            self._last_save = now
            self.save(self._path)
        return record

    def save(self, path=None) -> Path:
        return super().save(self._path if path is None else path)


# -- job execution ------------------------------------------------------------
def _pvf_result(params: dict, report) -> dict:
    """The ``report.json`` payload of one finished PVF job.

    Shared between the in-process runner and the sharded-job finalizer
    so both execution paths land byte-identical results.
    """
    low, high = report.confidence_interval()
    return {
        "kind": "pvf",
        "app": params["app"],
        "model": report.model_name,
        "pvf": report.pvf,
        "due_rate": report.due_rate,
        "n_injections": report.n_injections,
        "ci95": [low, high],
        "report": report.to_dict(),
    }


def _rtl_result(params: dict, report) -> dict:
    """The ``report.json`` payload of one finished RTL job."""
    result = {
        "kind": "rtl",
        "opcode": params["opcode"],
        "module": params["module"],
        "range": params["range"],
        "avf": report.avf(),
        "n_faults": len(report.general),
        "n_masked": report.n_masked,
        "n_sdc": report.n_sdc,
        "n_due": report.n_due,
        "report": report.to_dict(),
    }
    # transient payloads predate the fault-model layer and stay unchanged
    fault_model = params.get("fault_model", "transient")
    if fault_model != "transient":
        result["fault_model"] = fault_model
    return result


def _signature_result(params: dict, report) -> dict:
    """The ``report.json`` payload of one finished signature job."""
    return {
        "kind": "rtl",
        "fault_model": report.fault_model,
        "module": params["module"],
        "n_faults": report.n_faults,
        "apps": list(report.apps),
        "per_app": report.per_app_summary(),
        "report": report.to_dict(),
    }


def _pvf_workload(app: str, seed: int, precision: str, model: str):
    """A PVF job's application and fault model.

    The plan's workload factory: it runs only in the process that
    executes units, never when the daemon plans claims or deliveries.
    """
    from ..apps import make_application
    from ..datafiles import load_database
    from ..swfi.models import RelativeErrorSyndrome, SingleBitFlip

    return (make_application(app, seed=seed, precision=precision),
            SingleBitFlip() if model == "bitflip"
            else RelativeErrorSyndrome(load_database()))


def _adaptive_config(params: dict):
    """The :class:`AdaptiveConfig` a job's normalized params describe."""
    from ..adaptive import AdaptiveConfig

    kwargs: Dict = {"target_ci": params["target_ci"]}
    if params.get("strategy") is not None:
        kwargs["strategy"] = params["strategy"]
    if params.get("min_per_cell") is not None:
        kwargs["min_per_cell"] = params["min_per_cell"]
    return AdaptiveConfig(**kwargs)


def _job_plan(kind: str, params: dict) -> CampaignPlan:
    """The campaign plan of one pvf or rtl job.

    The one description every execution path shares: the in-process
    scheduler executes it, remote workers run shards of its units and
    the daemon journals their deliveries under its header — so a job
    moves freely between the paths across requeues and always resumes
    from the units already done.  Planning builds no workload: the
    daemon plans on every claim and delivery.
    """
    from ..rtl.campaign import plan_cell, plan_signature

    if kind == "pvf":
        from ..apps.base import application_name
        from ..swfi.campaign import plan_pvf_by_name
        from ..swfi.models import RelativeErrorSyndrome, SingleBitFlip

        precision = params.get("precision", "fp32")
        model = (SingleBitFlip if params["model"] == "bitflip"
                 else RelativeErrorSyndrome)
        return plan_pvf_by_name(
            application_name(params["app"], precision), model.name,
            partial(_pvf_workload, params["app"], params["seed"],
                    precision, params["model"]),
            params["injections"], params["seed"], params["batch_size"],
            params["timeout"])
    if params.get("fault_model") == "stuck-at":
        return plan_signature(params["module"], params["faults"],
                              params["seed"], params.get("apps"),
                              timeout=params["timeout"])
    from ..gpu.isa import Opcode
    from ..rtl.microbench import make_microbenchmark

    bench = make_microbenchmark(Opcode(params["opcode"]), params["range"],
                                seed=params["seed"],
                                precision=params.get("precision", "fp32"))
    return plan_cell(bench, params["module"], params["faults"],
                     params["seed"], batch_size=params["batch_size"],
                     timeout=params["timeout"],
                     fault_model=params.get("fault_model", "transient"),
                     burst_width=params.get("burst_width", 4),
                     burst_window=params.get("burst_window", 4))


def _run_campaign_job(kind: str, params: dict, jobdir: Path, cancel,
                      progress, metrics) -> dict:
    """Execute a pvf/rtl job's plan in-process.

    ``target_ci`` runs it adaptively.  Stuck-at jobs run the
    per-application signature campaign; beyond ``report.json`` their
    enveloped report lands in ``signature.json`` — the ``signature``
    artifact the API serves.
    """
    from ..adaptive import execute_adaptive
    from ..campaign.engine import execute

    plan = _job_plan(kind, params)
    journal = jobdir / _JOURNALS[plan.kind]
    options = dict(n_jobs=params["jobs"], checkpoint=journal,
                   resume=journal.exists(), progress=progress,
                   metrics=metrics, cancel=cancel)
    if plan.kind == "signature-report":
        from ..artifacts import dump_artifact

        report = execute(plan, **options)[0]
        enveloped = dump_artifact("signature-report", report)
        (jobdir / "signature.json").write_text(
            json.dumps(enveloped, indent=2) + "\n")
        return _signature_result(params, report)
    build = _pvf_result if kind == "pvf" else _rtl_result
    if params.get("target_ci") is None:
        return build(params, execute(plan, **options)[0])
    outcome = execute_adaptive(plan, _adaptive_config(params), **options)
    result = build(params, outcome.report)
    result["adaptive"] = {"rounds": outcome.rounds,
                          "converged": outcome.converged,
                          "cells": outcome.summary}
    return result


def _run_pipeline_job(params: dict, jobdir: Path, cancel,
                      progress) -> dict:
    from ..campaign.pipeline import run_pipeline
    from ..gpu.isa import Opcode

    opcodes = params["opcodes"]
    if opcodes is not None:
        opcodes = [Opcode(name) for name in opcodes]
    # the job directory *is* the pipeline workdir: journals, the
    # database, per-stage metrics and the combined metrics.json all
    # land where the artifact registry looks for them
    summary = run_pipeline(
        jobdir, seed=params["seed"], opcodes=opcodes,
        grid_faults=params["grid_faults"],
        tmxm_faults=params["tmxm_faults"], apps=params["apps"],
        models=params["models"], injections=params["injections"],
        n_jobs=params["jobs"], batch_size=params["batch_size"],
        timeout=params["timeout"], quiet=not progress.enabled,
        precision=params.get("precision", "fp32"), cancel=cancel)
    return {"kind": "pipeline", **summary}


# -- unit sharding (multi-worker jobs) ----------------------------------------
def _shard_plan(kind: str, params: dict) -> CampaignPlan:
    """The plan of a job remote workers may run in shards.

    Pipeline jobs are multi-stage, and signature jobs journal their
    (fault x app) units to ``signature.jsonl``: both run in-process only
    and raise :class:`ServiceError` here.
    """
    if kind == "pipeline" or params.get("fault_model") == "stuck-at":
        raise ServiceError(f"{kind} jobs cannot be sharded across workers")
    return _job_plan(kind, params)


def _adaptive_horizon(job: Job, plan: CampaignPlan,
                      jobdir: Union[str, Path, None]
                      ) -> Tuple[int, int, bool]:
    """Replay journaled tallies through the pure stop rule.

    Returns ``(horizon, rounds, settled)``: the unit horizon the
    adaptive stop rule currently wants, how many decision rounds the
    replay took, and whether the tallies were complete at that horizon
    (``False`` means units are still in flight, so the horizon is the
    standing decision, not a new one).  With no journal yet the horizon
    is the warm-up prefix.  Every caller — shard planner, finalizer,
    metrics — derives its answer from this one function, which is what
    keeps the distributed stop decision identical to the in-process
    controller's.
    """
    from ..adaptive import next_horizon

    config = _adaptive_config(job.params)
    sizes = [unit.size for unit in plan.units]
    completed: Dict[int, object] = {}
    if jobdir is not None:
        if (Path(jobdir) / _JOURNALS[plan.kind]).exists():
            journal = open_shard_journal(job, jobdir)
            journal.close()
            completed = journal.completed
    horizon = next_horizon(0, 0, 0, sizes, config)
    rounds = 1 if horizon else 0
    while True:
        if any(i not in completed for i in range(horizon)):
            return horizon, rounds, False
        trials = sum(completed[i].n_injections for i in range(horizon))
        successes = sum(completed[i].n_sdc for i in range(horizon))
        extended = next_horizon(trials, successes, horizon, sizes,
                                config)
        if extended == horizon:
            return horizon, rounds, True
        horizon = extended
        rounds += 1


def plan_job_units(job: Job, jobdir: Union[str, Path, None] = None
                   ) -> Optional[Tuple[int, int]]:
    """``(total units, units per claim)`` for a shardable job.

    Returns ``None`` when the job cannot be claimed in shards by remote
    workers — pipeline jobs (multi-stage, in-process only) and empty
    campaigns (zero injections/faults), which the in-process scheduler
    finishes trivially.  The unit count is exactly the engine's batch
    plan for the job's parameters, so shard ``[lo, hi)`` always names
    the same seed-indexed units on every worker.

    For adaptive jobs (``target_ci`` set) the unit count is the current
    **moving horizon**: the prefix of the fixed plan the stop rule wants
    given the tallies journaled under *jobdir* so far (the warm-up
    prefix when no results exist yet).  The finalizer extends the shard
    table whenever new results push the horizon out.
    """
    params = job.params
    try:
        plan = _shard_plan(job.kind, params)
    except ServiceError:
        return None
    if not plan.units:
        return None
    n_units = len(plan.units)
    if params.get("target_ci") is not None:
        n_units = _adaptive_horizon(job, plan, jobdir)[0]
        if n_units <= 0:
            return None
    per_claim = params.get("units_per_claim")
    if per_claim is None:
        # default: quarters, so a small worker fleet shares one job
        per_claim = max(1, math.ceil(n_units / 4))
    return n_units, int(per_claim)


def run_job_units(kind: str, params: dict, lo: int, hi: int,
                  cancel: Optional[Callable[[], bool]] = None
                  ) -> Dict[int, dict]:
    """Execute units ``[lo, hi)`` of a sharded job on this machine.

    The worker-side half of the shard protocol: re-plans the job from
    its (normalized) parameters and runs exactly the engine units a
    single-process run would execute at those indices.  Returns
    ``{unit index: report payload}`` ready to POST back.
    """
    from ..campaign.engine import execute

    plan = _shard_plan(kind, params)
    done: Dict[int, dict] = {}
    execute(plan.shard(lo, hi), cancel=cancel, collect=False,
            consume=lambda index, report: done.update(
                {index: report.to_dict()}))
    return done


def open_shard_journal(job: Job, jobdir: Union[str, Path]
                       ) -> CampaignCheckpoint:
    """Open (resuming if present) a sharded job's unit journal.

    Same path and header as the in-process runner's checkpoint (both
    come from :func:`_job_plan`), so a job can move freely between
    sharded and in-process execution across requeues and always resume
    from the units already delivered.
    """
    plan = _shard_plan(job.kind, job.params)
    jobdir = Path(jobdir)
    jobdir.mkdir(parents=True, exist_ok=True)
    return CampaignCheckpoint(jobdir / _JOURNALS[plan.kind], plan.header,
                              kind=plan.kind, resume=True)


def finalize_sharded_job(store: JobStore, job: Job,
                         jobdir: Union[str, Path]) -> Job:
    """Merge a sharded job's journaled units into its final result.

    Runs on the daemon once every shard is done: replays the journal,
    merges the per-unit reports in index order (bit-identical to the
    serial run), writes ``report.json`` and lands the job in ``done``.
    Raises when units are missing — the journal is the ground truth,
    not the shard table.

    For adaptive jobs the journal tallies may push the stop rule's
    horizon past the units sharded so far; the finalizer then appends
    queued shard rows for the extension and raises, deferring the merge
    until workers have delivered the new prefix too.  Only a settled
    horizon — stable under its own complete tallies — is merged.
    """
    from ..campaign.engine import merge_ordered

    jobdir = Path(jobdir)
    layout = plan_job_units(job, jobdir)
    if layout is None:
        raise ServiceError(f"job {job.id} is not a sharded job")
    n_units, per_claim = layout
    if job.params.get("target_ci") is not None:
        covered = max((s["hi"] for s in store.shards(job.id)),
                      default=0)
        if n_units > covered:
            added = store.extend_shards(job.id, n_units, per_claim)
            raise ServiceError(
                f"job {job.id} adaptive horizon moved to {n_units} "
                f"unit(s); {added} new shard(s) queued")
    journal = open_shard_journal(job, jobdir)
    journal.close()
    missing = [i for i in range(n_units) if i not in journal.completed]
    if missing:
        raise ServiceError(
            f"job {job.id} journal is missing unit(s) "
            f"{missing[:8]}{'...' if len(missing) > 8 else ''}; "
            f"cannot merge")
    reports = {i: journal.completed[i] for i in range(n_units)}
    merged = merge_ordered(reports)
    builder = _pvf_result if job.kind == "pvf" else _rtl_result
    result = builder(job.params, merged)
    if job.params.get("target_ci") is not None:
        result["adaptive"] = _sharded_adaptive_summary(job, jobdir,
                                                       merged)
    (jobdir / "report.json").write_text(json.dumps(result, indent=2)
                                        + "\n")
    return store.finish(job.id, "done", result=result)


def _sharded_adaptive_summary(job: Job, jobdir: Path, merged) -> dict:
    """Mirror the in-process runner's ``adaptive`` result section.

    Recomputed from the merged report and the horizon replay so a job
    that ran sharded across workers lands the same decision record an
    in-process adaptive run would have written.
    """
    from ..analysis.stats import wilson_interval

    plan = _shard_plan(job.kind, job.params)
    horizon, rounds, _ = _adaptive_horizon(job, plan, jobdir)
    config = _adaptive_config(job.params)
    low, high = wilson_interval(merged.n_sdc, merged.n_injections,
                                config.confidence)
    converged = (merged.n_injections >= config.min_per_cell
                 and high - low <= config.target_ci)
    return {
        "rounds": rounds,
        "converged": converged,
        "cells": [{
            "cell": plan.cells[0].label,
            "trials": merged.n_injections,
            "sdc": merged.n_sdc,
            "ci_low": low,
            "ci_high": high,
            "ci_width": high - low,
            "units": horizon,
            "plan_units": len(plan.units),
            "converged": converged,
            "exhausted": horizon >= len(plan.units),
        }],
    }


def execute_job(job: Job, jobdir: Union[str, Path],
                store: Optional[JobStore] = None,
                quiet: bool = True) -> dict:
    """Execute one claimed job; returns its result payload.

    Raises :class:`~repro.errors.CampaignCancelled` when the store's
    cancellation flag (or the job's ``budget``) stops the run, and
    whatever the campaign raised on failure.  The caller owns the store
    state transition.  Exposed separately from :class:`Scheduler` so
    tests (and one-shot tools) can run a job without a daemon.
    """
    params = job.params
    jobdir = Path(jobdir)
    jobdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    budget = params.get("budget")
    state = {"last_poll": 0.0, "cancelled": False, "why": ""}

    def cancel() -> bool:
        if state["cancelled"]:
            return True
        if budget is not None and time.monotonic() - started > budget:
            state.update(cancelled=True, why="budget")
            return True
        now = time.monotonic()
        if (store is not None
                and now - state["last_poll"] >= _CANCEL_POLL_SECONDS):
            state["last_poll"] = now
            if store.cancel_requested(job.id):
                state.update(cancelled=True, why="cancel")
                return True
        return False

    progress = make_progress(None, f"job {job.id}", quiet=quiet)
    metrics = None
    if job.kind != "pipeline":
        # pipeline jobs write their own (multi-stage) metrics.json
        metrics = _LiveMetrics(f"{job.kind}/job-{job.id}",
                               jobdir / "metrics.json")
    try:
        if job.kind == "pipeline":
            result = _run_pipeline_job(params, jobdir, cancel, progress)
        else:
            result = _run_campaign_job(job.kind, params, jobdir, cancel,
                                       progress, metrics)
    except CampaignCancelled as exc:
        if state["why"] == "budget":
            raise BudgetExceeded(
                f"job {job.id} exceeded its wall-clock budget of "
                f"{budget:g}s; completed units are journaled — requeue "
                f"to continue") from exc
        raise
    finally:
        if metrics is not None:
            metrics.save()
    (jobdir / "report.json").write_text(json.dumps(result, indent=2)
                                        + "\n")
    return result


class Scheduler:
    """Claims jobs from the store and executes them, one at a time.

    Beyond executing queued jobs in-process, the scheduler loop is the
    daemon's maintenance heartbeat: every pass it reaps expired worker
    leases (re-queueing a SIGKILLed worker's work) and finalizes
    sharded jobs whose every unit shard has been delivered.  With
    ``execute_jobs=False`` the loop does *only* that — the mode a
    coordinator daemon runs in when remote ``repro worker`` processes
    do all the executing.
    """

    def __init__(self, store: JobStore, workdir: Union[str, Path],
                 poll_interval: float = 0.5, quiet: bool = True,
                 execute_jobs: bool = True) -> None:
        self.store = store
        self.workdir = Path(workdir)
        self.poll_interval = poll_interval
        self.quiet = quiet
        self.execute_jobs = execute_jobs

    def jobdir(self, job_id: int) -> Path:
        return self.workdir / "jobs" / str(int(job_id))

    def recover(self) -> List[Job]:
        """Re-queue jobs interrupted by a daemon death (startup hook)."""
        return self.store.recover()

    def maintain(self) -> None:
        """Reap expired leases; finalize fully-delivered sharded jobs."""
        reaped = self.store.reap()
        if not self.quiet:
            for job_id in reaped["jobs"]:
                print(f"[scheduler] lease expired: job {job_id} "
                      f"re-queued", file=sys.stderr)
            for job_id, lo in reaped["shards"]:
                print(f"[scheduler] lease expired: job {job_id} shard "
                      f"@{lo} re-queued", file=sys.stderr)
        for job_id in self.store.sharded_jobs_ready():
            try:
                finalize_sharded_job(self.store, self.store.get(job_id),
                                     self.jobdir(job_id))
            except ServiceError as exc:
                # lost race with another finalizer, or journal gap: the
                # job stays running and the next pass retries
                if not self.quiet:
                    print(f"[scheduler] finalize of job {job_id} "
                          f"deferred: {exc}", file=sys.stderr)

    def run_once(self) -> Optional[Job]:
        """Claim and execute at most one job; returns it (or None)."""
        job = self.store.claim_next()
        if job is None:
            return None
        try:
            result = execute_job(job, self.jobdir(job.id),
                                 store=self.store, quiet=self.quiet)
        except CampaignCancelled as exc:
            return self.store.finish(job.id, "cancelled", error=str(exc))
        except BudgetExceeded as exc:
            return self.store.finish(job.id, "failed", error=str(exc))
        except Exception as exc:
            detail = traceback.format_exc(limit=8)
            return self.store.finish(
                job.id, "failed",
                error=f"{type(exc).__name__}: {exc}\n{detail}")
        return self.store.finish(job.id, "done", result=result)

    def run_forever(self, stop: Optional[threading.Event] = None,
                    idle_hook: Optional[Callable[[], None]] = None
                    ) -> None:
        """Drain the queue until *stop* is set, sleeping while idle.

        Transient store errors — SQLite's "database is locked" under
        worker contention is the canonical one — must never kill the
        loop: they are logged and retried with bounded exponential
        backoff, and the backoff resets on the next clean pass.
        """
        stop = stop or threading.Event()
        initial = min(max(self.poll_interval, 0.05), _MAX_BACKOFF_SECONDS)
        backoff = initial
        while not stop.is_set():
            try:
                self.maintain()
                job = self.run_once() if self.execute_jobs else None
            except sqlite3.OperationalError as exc:
                if not self.quiet:
                    print(f"[scheduler] transient store error "
                          f"({exc}); retrying in {backoff:.1f}s",
                          file=sys.stderr)
                stop.wait(backoff)
                backoff = min(backoff * 2, _MAX_BACKOFF_SECONDS)
                continue
            backoff = initial
            if job is None:
                if idle_hook is not None:
                    idle_hook()
                stop.wait(self.poll_interval)
