"""Adaptive campaign runners for both fault-injection levels.

Each runner is its fixed twin's plan executed under the
sequential-sampling :class:`~repro.adaptive.controller.
AdaptiveController`: :func:`repro.campaign.engine.execute` registers
every cell's full unit plan with the controller, then alternates
controller rounds (always a prefix extension of each cell's fixed
seed-indexed plan) with engine runs observed by the controller, until
every cell converged, exhausted its fixed plan, or spent the budget.

Because the executed unit set is a prefix of the fixed plan and units
merge in index order, the merged report of an adaptive run is
bit-identical to a fixed-size run truncated at the same unit horizon —
and, sharing the fixed plan's journal header, a journaled adaptive run
resumes to the same stop decision: the engine replays cached units
through the observer, so the controller re-derives every round from the
same tallies it saw the first time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from ..campaign.engine import DEFAULT_BATCH_SIZE, CampaignPlan, execute
from ..campaign.progress import ProgressReporter
from ..campaign.telemetry import CampaignMetrics
from ..errors import CampaignError
from ..gpu.isa import CHARACTERIZED_OPCODES
from ..rtl.campaign import plan_cell, plan_grid
from ..swfi.campaign import plan_pvf
from .controller import AdaptiveConfig, AdaptiveController

__all__ = [
    "AdaptiveResult",
    "execute_adaptive",
    "run_adaptive_campaign",
    "run_adaptive_grid",
    "run_adaptive_pvf_campaign",
]


@dataclass
class AdaptiveResult:
    """Outcome of one adaptive campaign.

    ``reports`` holds one merged report per registered cell (insertion
    order — for the PVF runner that is a single report, exposed as
    :attr:`report`); ``summary`` is the controller's per-cell decision
    record (trials, Wilson interval, units executed vs planned,
    converged/exhausted flags).
    """

    reports: List[Any]
    summary: List[dict] = field(default_factory=list)
    rounds: int = 0

    @property
    def report(self) -> Any:
        """The single report of a one-cell (PVF) campaign."""
        if len(self.reports) != 1:
            raise CampaignError(
                f"campaign has {len(self.reports)} cells, not 1")
        return self.reports[0]

    @property
    def n_injections(self) -> int:
        return sum(r.n_injections for r in self.reports)

    @property
    def converged(self) -> bool:
        """True when every cell stopped on its interval, not its budget."""
        return all(entry["converged"] for entry in self.summary)


def execute_adaptive(plan: CampaignPlan,
                     config: Optional[AdaptiveConfig] = None,
                     **options) -> AdaptiveResult:
    """Execute *plan* under sequential sampling.

    *options* are :func:`~repro.campaign.engine.execute`'s; the result
    carries one merged report per plan cell plus the controller's
    decision record.
    """
    controller = AdaptiveController(config)
    reports = execute(plan, controller=controller, **options)
    return AdaptiveResult(reports=reports, summary=controller.summary(),
                          rounds=controller.rounds)


def run_adaptive_pvf_campaign(
    app,
    model,
    n_injections: int,
    config: Optional[AdaptiveConfig] = None,
    seed: int = 0,
    *,
    n_jobs: int = 1,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> AdaptiveResult:
    """Inject into *app* until the PVF interval converges (or the fixed
    ``n_injections`` plan / the configured budget runs out).

    The unit plan is exactly :func:`run_pvf_campaign`'s for the same
    ``(n_injections, seed, batch_size)`` — the adaptive run executes a
    prefix of it, so its merged report is bit-identical to a fixed-size
    campaign truncated at the same unit horizon.  ``checkpoint`` uses
    the same journal header as the fixed runner; resuming an
    interrupted adaptive campaign replays the journal through the
    controller and reaches the same stop decision.
    """
    plan = plan_pvf(app, model, n_injections, seed, batch_size, timeout)
    return execute_adaptive(plan, config, n_jobs=n_jobs,
                            checkpoint=checkpoint, resume=resume,
                            progress=progress, metrics=metrics,
                            cancel=cancel)


def run_adaptive_campaign(
    bench,
    module: str,
    n_faults: int,
    config: Optional[AdaptiveConfig] = None,
    seed: int = 0,
    *,
    kind: Optional[str] = None,
    n_jobs: int = 1,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
    sm_config=None,
    vectorize="auto",
) -> AdaptiveResult:
    """Adaptive single-cell RTL campaign: inject into one
    ``(bench, module)`` cell until its SDC interval converges.

    The unit plan, seeds and journal header are exactly
    :func:`repro.rtl.campaign.run_campaign`'s for the same
    ``(n_faults, seed, batch_size)`` — the adaptive run executes a
    prefix, so its merged report is bit-identical to a fixed campaign
    truncated at the same unit horizon.  ``batch_size`` defaults to
    :data:`DEFAULT_BATCH_SIZE` rather than a single whole-campaign
    unit, for the same reason as :func:`run_adaptive_grid`.
    """
    plan = plan_cell(bench, module, n_faults, seed, kind,
                     batch_size=batch_size, timeout=timeout,
                     config=sm_config, vectorize=vectorize)
    return execute_adaptive(plan, config, n_jobs=n_jobs,
                            checkpoint=checkpoint, resume=resume,
                            progress=progress, metrics=metrics,
                            cancel=cancel)


def run_adaptive_grid(
    opcodes: Optional[Iterable] = None,
    input_ranges: Iterable[str] = ("S", "M", "L"),
    modules: Optional[Sequence[str]] = None,
    n_faults: int = 200,
    config: Optional[AdaptiveConfig] = None,
    seed: int = 0,
    *,
    n_jobs: int = 1,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
    sm_config=None,
    vectorize="auto",
    precision: str = "fp32",
) -> AdaptiveResult:
    """Adaptive RTL campaign grid: per-cell sequential sampling.

    Cells, seeds and the unit plan are exactly
    :func:`repro.rtl.campaign.run_grid`'s for the same arguments —
    ``n_faults`` is each cell's *maximum* (fixed-plan) fault count, of
    which the controller executes a prefix.  ``batch_size`` defaults to
    :data:`DEFAULT_BATCH_SIZE` rather than one-unit-per-cell: adaptive
    stopping needs units finer than whole cells to have anything to
    decide between rounds.  Per-cell merged reports are bit-identical
    to a fixed grid truncated at the same unit horizons.
    """
    plan = plan_grid(CHARACTERIZED_OPCODES if opcodes is None else opcodes,
                     input_ranges, modules, n_faults, seed,
                     batch_size=batch_size, timeout=timeout,
                     config=sm_config, vectorize=vectorize,
                     precision=precision)
    return execute_adaptive(plan, config, n_jobs=n_jobs,
                            checkpoint=checkpoint, resume=resume,
                            progress=progress, metrics=metrics,
                            cancel=cancel)
