"""Level-agnostic campaign execution engine.

Both fault-injection levels of the paper share one execution problem:
a campaign is a long list of independent, seeded work units (a batch of
RTL faults against one grid cell, a batch of software injections into
one application) whose results must merge into a report that is
bit-identical no matter how the units were scheduled.  The paper solved
it with a 12-node ModelSim server; this module is the reusable software
equivalent, so neither ``repro.rtl`` nor ``repro.swfi`` owns its own
pool/checkpoint/guard machinery.

The engine owns:

* **Deterministic seed-indexed sharding** — a :class:`WorkUnit` carries
  the child seed derived from its global index, so randomness never
  depends on the worker count, completion order, or checkpoint
  boundaries (:func:`plan_batches` + :func:`repro.rng.spawn_seed_range`).
* **Process-pool execution with worker-local state** — each worker
  process builds its own simulator/injector once via a picklable
  ``state_factory`` and amortises it over every unit it executes.
* **JSONL checkpoint/resume** — completed units are journaled through a
  :class:`~repro.campaign.checkpoint.CampaignCheckpoint` and skipped on
  resume.
* **Per-unit wall-clock DUE guards** — :func:`wall_clock_limit` converts
  a runaway unit into a diagnosable timeout instead of a hung campaign.
* **Mergeable-report protocol** — reports implement
  :class:`Mergeable` (``merge_in``/``merge``/``to_dict``/``from_dict``);
  :func:`merge_ordered` folds per-unit reports in index order, which is
  what makes the merged report equal to the serial run's bit for bit.
* **Plan → execute** — every campaign shape describes itself as one
  :class:`CampaignPlan` (cells of seed-indexed units, the unit runner,
  the journal identity); :func:`execute` is the single driver that
  journals, times, runs (once, or once per adaptive round) and merges
  any plan.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

try:  # pragma: no cover - always present on python >= 3.8
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore

    def runtime_checkable(cls):  # type: ignore
        return cls

from ..errors import CampaignCancelled, CampaignError, ReproError
from ..rng import spawn_seed_range
from .checkpoint import CampaignCheckpoint
from .progress import ProgressReporter
from .telemetry import CampaignMetrics, emit_metrics, resolve_metrics

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "CampaignPlan",
    "Mergeable",
    "PlanCell",
    "UnitTimeout",
    "WorkUnit",
    "execute",
    "merge_ordered",
    "plan_batches",
    "plan_units",
    "run_units",
    "wall_clock_limit",
]

#: Units per batch when the caller does not choose: small enough to
#: checkpoint / load-balance at a useful granularity, large enough that
#: a worker amortises its reference pass over many injections.
DEFAULT_BATCH_SIZE = 50


# -- report protocol ---------------------------------------------------------
@runtime_checkable
class Mergeable(Protocol):
    """What the engine requires of a campaign report.

    ``merge_in`` folds another report's tallies into this one (raising
    on incompatible reports); ``to_dict``/``from_dict`` round-trip the
    report through the JSONL checkpoint.  Classes usually add a
    ``merge`` classmethod on top; :func:`merge_ordered` uses it when
    present.
    """

    def merge_in(self, other: Any) -> None: ...

    def to_dict(self) -> dict: ...

    @classmethod
    def from_dict(cls, payload: dict) -> Any: ...


def merge_ordered(results: Mapping[int, Any],
                  empty: Optional[Callable[[], Any]] = None) -> Any:
    """Merge per-unit reports in unit-index order.

    Merging in index order — never completion order — is the invariant
    that makes a sharded campaign's merged report bit-identical to the
    serial run's for a fixed seed.  A zero-unit campaign (``total=0``)
    produces an empty result set: *empty* supplies the empty merged
    report for that case; without it the merge raises.
    """
    if not results:
        if empty is not None:
            return empty()
        raise CampaignError("cannot merge an empty result set")
    ordered = [results[index] for index in sorted(results)]
    cls = type(ordered[0])
    if hasattr(cls, "merge"):
        return cls.merge(ordered)
    merged = cls.from_dict(ordered[0].to_dict())  # do not mutate inputs
    for report in ordered[1:]:
        merged.merge_in(report)
    return merged


# -- batch planning ----------------------------------------------------------
def plan_batches(total: int, batch_size: Optional[int] = None) -> List[int]:
    """Split *total* units of work into deterministic batch sizes.

    The plan depends only on ``(total, batch_size)`` — never on the
    worker count — so serial and parallel executions of the same
    campaign share one batch/seed layout.
    """
    if total < 0:
        raise CampaignError("n_injections must be non-negative")
    size = DEFAULT_BATCH_SIZE if batch_size is None else batch_size
    if size < 1:
        raise CampaignError("batch_size must be at least 1")
    sizes = [size] * (total // size)
    if total % size:
        sizes.append(total % size)
    return sizes


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable slice of a campaign.

    ``index`` is the unit's global position in the campaign plan (and
    its merge rank); ``seed`` is the deterministic child seed its
    randomness must come from; ``size`` is how many injections/faults it
    covers; ``spec`` is an arbitrary picklable payload telling the unit
    runner *what* to run (cell coordinates, bench spec, ...).
    """

    index: int
    size: int
    seed: int
    spec: Any = None
    label: str = ""


def plan_units(total: int, seed: int,
               batch_size: Optional[int] = None,
               spec: Any = None,
               base_index: int = 0,
               label: str = "") -> List[WorkUnit]:
    """Shard *total* units of work into seed-indexed :class:`WorkUnit`\\ s.

    Unit ``base_index + i`` draws from child seed ``base_index + i`` of
    *seed* — the contract that keeps any contiguous re-planning (resume,
    parallel fan-out, adaptive growth) on the same random streams.
    """
    sizes = plan_batches(total, batch_size)
    seeds = spawn_seed_range(seed, base_index, len(sizes))
    return [
        WorkUnit(index=base_index + i, size=size, seed=unit_seed,
                 spec=spec,
                 label=label or f"batch {base_index + i}")
        for i, (size, unit_seed) in enumerate(zip(sizes, seeds))
    ]


# -- wall-clock guard --------------------------------------------------------
class UnitTimeout(ReproError):
    """A work unit exceeded its wall-clock budget."""


@contextmanager
def wall_clock_limit(seconds: Optional[float],
                     make_exception: Optional[
                         Callable[[float], BaseException]] = None):
    """Abort the enclosed block after *seconds* of wall-clock time.

    Uses an interval timer (SIGALRM), which covers runaway numpy loops a
    pure iteration guard cannot interrupt.  Degrades to a no-op when no
    limit is requested or signals are unavailable (non-main thread,
    platforms without SIGALRM) — worker processes run units on their
    main thread, so the guard is active there.  ``make_exception`` maps
    the budget to the exception to raise (default :class:`UnitTimeout`).

    Guards nest: an inner guard saves the outer guard's remaining
    budget and re-arms it on exit, so a pipeline-level guard wrapped
    around per-unit guards still fires.  While the inner guard is armed
    the outer one is suspended — an outer deadline that passes inside
    the inner block fires immediately after the inner guard exits.
    """
    if not seconds or seconds <= 0:
        yield
        return
    if (not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _timed_out(signum, frame):
        if make_exception is not None:
            raise make_exception(seconds)
        raise UnitTimeout(
            f"wall-clock guard: work unit exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _timed_out)
    # setitimer returns the outer guard's remaining (delay, interval):
    # that budget — minus the time this block consumes — must be
    # restored on exit, not cleared.
    outer_remaining, _ = signal.setitimer(signal.ITIMER_REAL,
                                          float(seconds))
    entered = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_remaining > 0.0:
            elapsed = time.monotonic() - entered
            # an already-expired outer budget fires as soon as possible
            signal.setitimer(signal.ITIMER_REAL,
                             max(outer_remaining - elapsed, 1e-6))


# -- worker-process plumbing -------------------------------------------------
# One state per worker process: the expensive reference artefact (an SM
# model, a golden+profile pass) is built once per *worker*, not once per
# unit or — worse — per injection.
_WORKER_STATE: Any = None
_WORKER_RUN: Optional[Callable[[Any, WorkUnit], Any]] = None


def _worker_init(state_factory: Optional[Callable[[], Any]],
                 run_unit: Callable[[Any, WorkUnit], Any]) -> None:
    global _WORKER_STATE, _WORKER_RUN
    _WORKER_STATE = state_factory() if state_factory is not None else None
    _WORKER_RUN = run_unit


def _worker_call(unit: WorkUnit) -> Tuple[int, Any, Dict[str, float]]:
    # time.time() is comparable across processes on one host, so the
    # parent can derive queue wait from its own submit timestamp;
    # perf_counter deltas stay within this process.
    started_wall = time.time()
    started = time.perf_counter()
    report = _WORKER_RUN(_WORKER_STATE, unit)
    timing = {
        "seconds": time.perf_counter() - started,
        "started_wall": started_wall,
        "worker": os.getpid(),
    }
    return unit.index, report, timing


class _OrderedEmitter:
    """Deliver results to a consumer in unit-index order.

    Parallel units complete out of order; buffering the out-of-order
    window and flushing sequentially gives downstream consumers (the
    streaming syndrome-database builder) a deterministic input order
    while keeping memory bounded by the reorder window, not the
    campaign.
    """

    def __init__(self, indices: Sequence[int],
                 consume: Callable[[int, Any], None]) -> None:
        self._pending = sorted(indices)
        self._cursor = 0
        self._buffer: Dict[int, Any] = {}
        self._consume = consume

    def offer(self, index: int, report: Any) -> None:
        self._buffer[index] = report
        while (self._cursor < len(self._pending)
               and self._pending[self._cursor] in self._buffer):
            ready = self._pending[self._cursor]
            self._consume(ready, self._buffer.pop(ready))
            self._cursor += 1


# -- the engine --------------------------------------------------------------
def run_units(
    units: Sequence[WorkUnit],
    run_unit: Callable[[Any, WorkUnit], Any],
    *,
    n_jobs: int = 1,
    state_factory: Optional[Callable[[], Any]] = None,
    state: Any = None,
    checkpoint: Optional[CampaignCheckpoint] = None,
    consume: Optional[Callable[[int, Any], None]] = None,
    observer: Optional[Callable[[WorkUnit, Any], None]] = None,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    collect: bool = True,
    cancel: Optional[Callable[[], bool]] = None,
) -> Dict[int, Any]:
    """Execute campaign work units serially or on a process pool.

    ``run_unit(state, unit)`` produces one report per unit; it and
    ``state_factory`` must be picklable (module-level callables or
    ``functools.partial`` of them) when ``n_jobs > 1``.  Serial runs use
    *state* if given, else lazily call ``state_factory`` once.

    Units already present in *checkpoint* are replayed, not re-run; new
    completions are journaled as they land.  ``consume`` receives every
    unit's report **in index order** (replayed ones included) — the
    streaming hook for per-batch downstream processing.  ``observer``
    receives ``(unit, report)`` in the same index order (cached units
    included) — the hook adaptive controllers use to track per-cell
    tallies without owning the result dict; unlike ``consume`` it is
    handed the full :class:`WorkUnit`, so it can attribute a report to
    the cell in ``unit.spec``.  ``collect=False``
    drops reports after checkpoint/consume, bounding memory on huge
    campaigns.  ``metrics`` collects per-unit telemetry (duration,
    queue wait, worker id, cached flag, outcome tallies) and feeds the
    progress heartbeat; it never touches the campaign's randomness.

    ``cancel`` is polled between work units (never inside one); when it
    returns true the campaign stops with :class:`CampaignCancelled`.
    Completed units are already journaled at that point, so a cancelled
    checkpointed campaign resumes where it stopped — the hook the
    campaign service's job cancellation and wall-clock budgets use.
    A :class:`KeyboardInterrupt` gets the same durability treatment: the
    journal is closed, metrics are flushed, and the interrupt is
    re-raised with a resume hint.

    Returns ``{unit index: report}`` (empty when ``collect=False``).
    """
    if n_jobs < 1:
        raise CampaignError("n_jobs must be at least 1")
    replayed = dict(checkpoint.completed) if checkpoint is not None else {}
    pending = [unit for unit in units if unit.index not in replayed]
    labels = {unit.index: unit.label for unit in units}
    sizes = {unit.index: unit.size for unit in units}
    results: Dict[int, Any] = {}
    emitter: Optional[_OrderedEmitter] = None
    if consume is not None or observer is not None:
        by_index = {unit.index: unit for unit in units}

        def _emit(index: int, report: Any) -> None:
            if consume is not None:
                consume(index, report)
            if observer is not None:
                observer(by_index[index], report)

        emitter = _OrderedEmitter([u.index for u in units], _emit)
    if metrics is not None and metrics.total_units is None:
        metrics.total_units = len(units)

    def _finish(index: int, report: Any, cached: bool,
                seconds: float = 0.0, queue_wait: float = 0.0,
                worker: Optional[int] = None) -> None:
        if checkpoint is not None and not cached:
            checkpoint.record(index, report)
        if emitter is not None:
            emitter.offer(index, report)
        if collect:
            results[index] = report
        detail = ""
        if metrics is not None:
            metrics.record_unit(index, labels.get(index, ""),
                                sizes.get(index, 0), report,
                                seconds=seconds, queue_wait=queue_wait,
                                cached=cached, worker=worker)
            detail = metrics.heartbeat()
        if progress is not None:
            progress.advance(labels.get(index, str(index)), cached=cached,
                             detail=detail)

    def _cancelled() -> bool:
        return cancel is not None and bool(cancel())

    def _cancellation() -> CampaignCancelled:
        done = len(results) if collect else (
            metrics.units_done if metrics is not None else 0)
        where = (f"; completed units are journaled in {checkpoint.path}"
                 if checkpoint is not None else "")
        return CampaignCancelled(
            f"campaign cancelled after {done}/{len(units)} work "
            f"units{where}")

    try:
        for unit in units:  # replayed units first, in plan order
            if unit.index in replayed:
                _finish(unit.index, replayed[unit.index], cached=True)

        if not pending:
            return results
        if n_jobs > 1:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            with ProcessPoolExecutor(
                    max_workers=min(n_jobs, len(pending)),
                    initializer=_worker_init,
                    initargs=(state_factory, run_unit)) as pool:
                submitted: Dict[int, float] = {}
                futures = []
                for unit in pending:
                    submitted[unit.index] = time.time()
                    futures.append(pool.submit(_worker_call, unit))
                for future in as_completed(futures):
                    index, report, timing = future.result()
                    _finish(index, report, cached=False,
                            seconds=timing["seconds"],
                            queue_wait=(timing["started_wall"]
                                        - submitted[index]),
                            worker=int(timing["worker"]))
                    if _cancelled():
                        # not-yet-started units never run; in-flight
                        # ones finish but stay unjournaled past here
                        pool.shutdown(wait=False, cancel_futures=True)
                        raise _cancellation()
            return results

        if state is None and state_factory is not None:
            state = state_factory()  # built once, only when work remains
        for unit in pending:
            if _cancelled():
                raise _cancellation()
            started = time.perf_counter()
            report = run_unit(state, unit)
            _finish(unit.index, report, cached=False,
                    seconds=time.perf_counter() - started)
        return results
    except KeyboardInterrupt:
        # the finally below closes the journal and flushes metrics; the
        # re-raise tells the operator the work so far is not lost
        hint = ""
        if checkpoint is not None:
            hint = (f": completed units are journaled in "
                    f"{checkpoint.path} — resume with --resume")
        raise KeyboardInterrupt(f"campaign interrupted{hint}") from None
    finally:
        if metrics is not None:
            metrics.finish()
        if checkpoint is not None:
            checkpoint.close()  # flush + fsync: the journal is durable


# -- plan → execute ----------------------------------------------------------
@dataclass(frozen=True)
class PlanCell:
    """One merge group of a plan: its units and its empty report.

    A cell's units merge into one report; ``empty`` builds the report a
    cell merges to when none of its units ran (a zero-fault cell, or
    one an adaptive budget never reached).
    """

    label: str
    units: Tuple[WorkUnit, ...]
    empty: Callable[[], Any]


@dataclass(frozen=True)
class CampaignPlan:
    """One campaign, described completely before anything runs.

    ``cells`` hold the seed-indexed units (indices are global, unique
    and in plan order across cells); ``run_unit``/``state_factory`` are
    the picklable engine callables; ``header`` and ``kind`` are the
    journal's identity and its reports' artifact kind; ``stage`` names
    the campaign in its telemetry.  Planning builds no simulator or
    injector — that is ``state_factory``'s job, inside whichever process
    executes the units.
    """

    cells: Tuple[PlanCell, ...]
    run_unit: Callable[[Any, WorkUnit], Any]
    state_factory: Optional[Callable[[], Any]]
    header: Dict[str, Any]
    kind: str
    stage: str

    @property
    def units(self) -> List[WorkUnit]:
        return [unit for cell in self.cells for unit in cell.units]

    def shard(self, lo: int, hi: int) -> "CampaignPlan":
        """This plan restricted to units ``[lo, hi)``.

        The distributed-worker view: a worker handed ``(lo, hi)``
        re-plans the campaign and runs exactly the units (index, size,
        child seed) the single-process run executes at those indices.
        """
        units = self.units
        if not 0 <= lo < hi <= len(units):
            raise CampaignError(
                f"unit range [{lo}, {hi}) is outside the campaign's "
                f"{len(units)}-unit plan")
        keep = {unit.index for unit in units[lo:hi]}
        return replace(self, cells=tuple(
            replace(cell, units=tuple(u for u in cell.units
                                      if u.index in keep))
            for cell in self.cells))


def execute(
    plan: CampaignPlan,
    *,
    n_jobs: int = 1,
    state: Any = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
    consume: Optional[Callable[[int, Any], None]] = None,
    collect: bool = True,
    controller: Any = None,
) -> List[Any]:
    """Run *plan*; return one merged report per cell, in cell order.

    The single driver behind every campaign runner.  It opens the
    journal at *checkpoint* with the plan's header (replaying it when
    *resume*), turns telemetry on for journaled runs and writes it next
    to the journal, runs the units through :func:`run_units`, and
    merges each cell in unit-index order.  *state* is a caller-built
    worker state for a serial run (a shared injector); otherwise a
    serial run builds ``plan.state_factory()`` once, on first need.

    With an adaptive *controller* (see
    :class:`repro.adaptive.AdaptiveController`) every cell is registered
    with its full unit plan and the units run round by round, observed
    by the controller, until it plans an empty round.  The executed set
    is a prefix of each cell's plan, so every cell merges exactly like
    a fixed run truncated at the same horizon.  ``collect=False``
    returns ``[]`` (reports go to *consume* only).
    """
    if n_jobs < 1:
        raise CampaignError("n_jobs must be at least 1")
    if n_jobs > 1 and state is not None:
        raise CampaignError(
            "a shared injector cannot be used with parallel workers")
    if checkpoint is None and resume:
        raise CampaignError("resume=True requires a checkpoint path")
    state_factory = plan.state_factory
    if n_jobs == 1 and state is None and state_factory is not None:
        # one serial state for every adaptive round, not one per round
        state_factory = lru_cache(maxsize=None)(state_factory)
    stage = plan.stage if controller is None else f"adaptive-{plan.stage}"
    metrics = resolve_metrics(metrics, checkpoint, stage)
    if progress is not None and progress.total is None and controller is None:
        progress.total = len(plan.units)
    journal = None
    if checkpoint is not None:
        journal = CampaignCheckpoint(checkpoint, plan.header,
                                     kind=plan.kind, resume=resume)

    def run(units: Sequence[WorkUnit], observer=None) -> Dict[int, Any]:
        return run_units(
            units, plan.run_unit, n_jobs=n_jobs,
            state_factory=state_factory, state=state, checkpoint=journal,
            consume=consume, observer=observer, progress=progress,
            metrics=metrics, collect=collect, cancel=cancel)

    try:
        if controller is None:
            results = run(plan.units)
        else:
            for cell in plan.cells:
                controller.add_cell(cell.label, cell.units)
            results = {}
            while True:
                round_units = controller.next_round()
                if not round_units:
                    break
                results.update(run(round_units, controller.observe))
                if metrics is not None:
                    metrics.total_units = None  # adaptive: unknowable
    finally:
        if journal is not None:
            journal.close()
    emit_metrics(metrics, checkpoint)
    if not collect:
        return []
    return [merge_ordered({unit.index: results[unit.index]
                           for unit in cell.units
                           if unit.index in results}, empty=cell.empty)
            for cell in plan.cells]
