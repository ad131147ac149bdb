"""RTL campaign orchestration: the paper's 144-campaign grid.

A *campaign* is one (instruction, input range, module) cell: a fault list
is generated for the module, the micro-benchmark is executed once per
fault, and every outcome lands in a :class:`CampaignReport`.  The paper's
grid covers 12 instructions x 3 input ranges x the modules each
instruction exercises (functional units only for arithmetic opcodes,
scheduler and pipeline for all of them — FUs are idle during GLD/GST/BRA/
ISET, so they are not injected there).

Execution is delegated to the level-agnostic engine in
:mod:`repro.campaign.engine`: campaigns shard into deterministic
seed-indexed fault batches (cell-level by default; intra-cell with
``batch_size``, so one 12 000-fault cell cannot serialise a worker
pool), fan out over ``n_jobs`` worker processes each owning its own SM
model, journal completed batches to a JSONL checkpoint, and merge
per-batch reports in batch order — bit-identical to the serial run for
a fixed ``(seed, batch_size)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..campaign.engine import (
    CampaignPlan,
    PlanCell,
    UnitTimeout,
    WorkUnit,
    execute,
    plan_batches,
    wall_clock_limit,
)
from ..campaign.progress import ProgressReporter
from ..campaign.telemetry import CampaignMetrics
from ..errors import CampaignError
from ..gpu.fault_plane import (
    FAULT_MODELS,
    FaultModel,
    FaultPlane,
    ModuleName,
    fault_to_dict,
)
from ..gpu.isa import (
    CHARACTERIZED_OPCODES,
    FP32_OPCODES,
    INT_OPCODES,
    Opcode,
    SFU_OPCODES,
)
from ..gpu.sm import SMConfig
from ..rng import spawn_seed_range, spawn_seeds
from .classify import Outcome, RunClassification
from .faultlist import generate_model_fault_list
from .injector import RTLInjector
from .microbench import INPUT_RANGES, Microbenchmark, make_microbenchmark
from .reports import CampaignReport
from .signatures import SignatureRecord, SignatureReport
from .tmxm import TILE_KINDS, make_tmxm_bench

__all__ = [
    "default_signature_apps",
    "modules_for_opcode",
    "plan_cell",
    "plan_grid",
    "plan_signature",
    "plan_tmxm_grid",
    "run_campaign",
    "run_grid",
    "run_signature_campaign",
    "run_tmxm_grid",
    "MODULE_INSTRUCTIONS",
    "TMXM_MODULES",
]

#: Table I's "Instructions" column: which opcodes exercise each module.
#: ``register_file`` is only injectable on an SM configured with
#: ``ecc_enabled=False`` (the memory-model validation experiment).
MODULE_INSTRUCTIONS: Dict[str, Tuple[Opcode, ...]] = {
    ModuleName.FP32: FP32_OPCODES,
    ModuleName.INT: INT_OPCODES,
    ModuleName.SFU: SFU_OPCODES,
    ModuleName.SFU_CONTROLLER: SFU_OPCODES,
    ModuleName.SCHEDULER: CHARACTERIZED_OPCODES,
    ModuleName.PIPELINE: CHARACTERIZED_OPCODES,
    "register_file": CHARACTERIZED_OPCODES,
    # reduced-precision float datapaths: exercised by the same float
    # opcodes, selected by precision-aware campaigns instead of ALL
    ModuleName.FP16: FP32_OPCODES,
    ModuleName.BF16: FP32_OPCODES,
}

#: Modules the t-MxM mini-app characterises (paper Fig. 7).  The tile
#: campaigns stay fp32: they target the scheduler and pipeline, whose
#: fault behaviour is precision-agnostic.
TMXM_MODULES: Tuple[str, ...] = (ModuleName.SCHEDULER, ModuleName.PIPELINE)


def modules_for_opcode(opcode: Opcode,
                       precision: str = "fp32") -> List[str]:
    """Modules whose campaign grid includes *opcode*.

    A reduced *precision* substitutes its float datapath for the fp32
    unit — float opcodes then stress the fp16/bf16 module while the
    integer/SFU/scheduler/pipeline cells are unchanged.
    """
    try:
        float_module = ModuleName.FLOAT_BY_PRECISION[precision]
    except KeyError:
        raise CampaignError(f"unknown float precision {precision!r}")
    modules = []
    for module in ModuleName.ALL:
        if module == ModuleName.FP32:
            module = float_module
        if opcode in MODULE_INSTRUCTIONS[module]:
            modules.append(module)
    return modules


# -- work-unit specs ---------------------------------------------------------
@dataclass(frozen=True)
class _BenchSpec:
    """Picklable recipe for rebuilding a workload inside a worker.

    ``micro``/``tmxm`` specs carry factory arguments (cheap to rebuild,
    deterministic); ``bench`` specs ship a prebuilt
    :class:`Microbenchmark` verbatim — the path custom workloads take.
    """

    kind: str                       # "micro" | "tmxm" | "bench"
    opcode: str = ""                # micro
    input_range: str = ""           # micro
    tile: str = ""                  # tmxm
    use_shared: bool = False        # tmxm
    seed: int = 0                   # micro / tmxm construction seed
    bench: Optional[Microbenchmark] = None  # bench
    precision: str = "fp32"         # micro float format

    def build(self) -> Microbenchmark:
        if self.kind == "micro":
            return make_microbenchmark(Opcode(self.opcode),
                                       self.input_range, seed=self.seed,
                                       precision=self.precision)
        if self.kind == "tmxm":
            return make_tmxm_bench(self.tile, seed=self.seed,
                                   use_shared_memory=self.use_shared)
        return self.bench

    @property
    def cache_key(self) -> Tuple:
        if self.kind == "bench":
            return ("bench", self.bench.name)
        return (self.kind, self.opcode, self.input_range, self.tile,
                self.use_shared, self.seed, self.precision)


@dataclass(frozen=True)
class _CellSpec:
    """What one RTL work unit injects into: a workload x module pair.

    ``fault_model`` selects the injected model (default transient — the
    byte-compatible historical campaign); the burst parameters are only
    consulted by ``fault_model="burst"`` cells.
    """

    bench: _BenchSpec
    module: str
    fault_kind: Optional[str] = None  # "data" | "control" | None (both)
    fault_model: str = "transient"
    burst_width: int = 4
    burst_window: int = 4


@dataclass(frozen=True)
class _SignatureSpec:
    """One (fault, application) unit of a permanent-fault campaign.

    The fault list is a deterministic function of ``(module, fault_model,
    list_seed, n_faults, fault_kind)``, so every worker regenerates the
    identical list and indexes it with ``fault_index`` — the same
    regenerate-don't-ship contract the transient units use for their
    fault batches.
    """

    bench: _BenchSpec
    app: str
    apps: Tuple[str, ...]
    fault_index: int
    module: str
    fault_model: str
    fault_kind: Optional[str]
    n_faults: int
    list_seed: int


# -- worker-local state ------------------------------------------------------
class _RTLWorkerState:
    """One SM model per worker, with golden runs cached per workload.

    A worker executes many fault batches, often of the same cell; the
    golden (fault-free) pass — which also fixes the fault list's cycle
    domain — runs once per workload per worker, not once per batch.
    :meth:`drop` evicts a workload once no later unit of the plan reads
    it (see :func:`_last_uses`), so a grid holds one cell's trace and
    checkpoints at a time instead of every cell's.
    """

    def __init__(self, injector: Optional[RTLInjector] = None,
                 config: Optional[SMConfig] = None) -> None:
        self.injector = injector or RTLInjector(config=config)
        self._golden: Dict[Tuple, Tuple[Microbenchmark, Any]] = {}
        self._vectorized = None
        self._prepared: Dict[Tuple, Any] = {}
        self._signature_lists: Dict[Tuple, List[FaultModel]] = {}

    def bench_and_golden(self, spec: _BenchSpec, fault_model: str):
        """One workload and its golden run, run once per worker; the
        golden keeps checkpoints unless *fault_model* is stuck-at."""
        key = spec.cache_key
        if key not in self._golden:
            bench = spec.build()
            self._golden[key] = (bench, self.injector.run_golden(
                bench, checkpoints=fault_model != "stuck-at"))
        return self._golden[key]

    def vectorized(self):
        """Lazily built batch engine sharing this worker's SM model."""
        if self._vectorized is None:
            from .vectorized import VectorizedRTLInjector
            self._vectorized = VectorizedRTLInjector(self.injector)
        return self._vectorized

    def prepared(self, spec: _BenchSpec, module: str):
        """Golden trace of one workload x module, recorded once per worker.

        The instrumented run doubles as the golden reference, so it also
        seeds :meth:`bench_and_golden`'s cache (recording never changes
        architectural results).
        """
        key = spec.cache_key
        if (key, module) not in self._prepared:
            if key in self._golden:
                bench = self._golden[key][0]
            else:
                bench = spec.build()
            workload = self.vectorized().prepare(bench, module)
            self._prepared[key, module] = workload
            self._golden.setdefault(key, (bench, workload.golden))
        return self._prepared[key, module]

    def drop(self, keys: Sequence[Tuple]) -> None:
        """Forget the golden runs and traces cached under *keys*."""
        for key in keys:
            self._golden.pop(key, None)
            self._prepared.pop(key, None)

    def signature_fault(self, spec: _SignatureSpec) -> FaultModel:
        """One fault of the campaign's deterministic permanent-fault list.

        A worker executes many (fault, app) units of the same campaign;
        the list is generated once per worker and indexed per unit.
        Permanent faults are active from cycle 0, so the list needs no
        golden-run cycle domain.
        """
        key = (spec.module, spec.fault_model, spec.list_seed,
               spec.n_faults, spec.fault_kind)
        if key not in self._signature_lists:
            self._signature_lists[key] = generate_model_fault_list(
                self.injector.plane, spec.module, spec.n_faults,
                total_cycles=1, seed=spec.list_seed,
                fault_model=spec.fault_model, kind=spec.fault_kind)
        return self._signature_lists[key][spec.fault_index]


def _rtl_state(config: Optional[SMConfig] = None) -> _RTLWorkerState:
    """Picklable worker-state factory (``functools.partial`` target)."""
    return _RTLWorkerState(config=config)


def _vectorized_unit(spec: _CellSpec, vectorize,
                     timeout: Optional[float] = None) -> bool:
    """Resolve the campaign's ``vectorize`` switch for one cell.

    ``False`` forces the historical scalar path.  ``True`` and ``"auto"``
    route every trace-resolvable module through the batch engine (which
    itself falls back to scalar per fault when a fired transient is
    outside its replayable set); ``register_file`` SRAM faults bypass
    ``plane.latch`` and therefore always run scalar.  Only transient
    cells can replay: burst and stuck-at faults corrupt more than one
    latch, so their cells run scalar without recording a golden trace
    nothing would read.  With a wall-clock ``timeout``, ``"auto"`` also
    stays scalar: the replay engine is schedule-bounded and never trips
    the per-simulation guard, so only an explicit ``vectorize=True`` opts
    into its guarded-scalar-fallback-only timeout semantics.
    """
    if not vectorize or spec.fault_model != "transient":
        return False
    if timeout is not None and vectorize == "auto":
        return False
    return spec.module not in FaultPlane.PERSISTENT_STATE_MODULES


def _last_uses(units: Sequence[WorkUnit]) -> Dict[int, Tuple[Tuple, ...]]:
    """``{unit index: cache keys no later unit of the plan reads}``.

    A unit reads its workload's golden run (cached under the bench key)
    and, for a cell, its trace (under ``(bench key, module)``); after the
    last unit that reads a key, its worker may drop it.  Exact for any
    order that runs a key's last unit after the others — a serial plan,
    and every adaptive round, since a cell's units run as a prefix of
    its plan.  A pool worker that never runs that last unit keeps the
    entry until the pool closes.
    """
    last: Dict[Tuple, int] = {}
    for unit in units:
        spec = unit.spec
        key = spec.bench.cache_key
        last[key] = unit.index
        if isinstance(spec, _CellSpec):
            last[key, spec.module] = unit.index
    drops: Dict[int, List[Tuple]] = {}
    for key, index in last.items():
        drops.setdefault(index, []).append(key)
    return {index: tuple(keys) for index, keys in drops.items()}


def _run_rtl_unit(state: _RTLWorkerState, unit: WorkUnit,
                  timeout: Optional[float] = None,
                  vectorize="auto",
                  drops: Optional[Dict[int, Tuple[Tuple, ...]]] = None
                  ) -> CampaignReport:
    """Engine unit runner: one fault batch against one campaign cell.

    *drops* is the plan's :func:`_last_uses`.
    """
    report = _run_cell_batch(state, unit, timeout, vectorize)
    if drops:
        state.drop(drops.get(unit.index, ()))
    return report


def _run_cell_batch(state: _RTLWorkerState, unit: WorkUnit,
                    timeout: Optional[float], vectorize) -> CampaignReport:
    spec: _CellSpec = unit.spec
    if _vectorized_unit(spec, vectorize, timeout):
        workload = state.prepared(spec.bench, spec.module)
        bench, golden = workload.bench, workload.golden
        faults = generate_model_fault_list(
            state.injector.plane, spec.module, unit.size, golden.cycles,
            seed=unit.seed, fault_model=spec.fault_model,
            kind=spec.fault_kind, burst_width=spec.burst_width,
            burst_window=spec.burst_window)
        classifications = state.vectorized().inject_batch(
            workload, faults, timeout=timeout)
        report = CampaignReport(
            instruction=bench.opcode.value,
            input_range=bench.input_range,
            module=spec.module,
            precision=bench.precision,
        )
        for fault, classification in zip(faults, classifications):
            report.add(
                state.injector.describe(fault),
                classification,
                opcode=bench.opcode.value,
                value_kind=bench.value_kind,
            )
        return report
    bench, golden = state.bench_and_golden(spec.bench, spec.fault_model)
    faults = generate_model_fault_list(
        state.injector.plane, spec.module, unit.size, golden.cycles,
        seed=unit.seed, fault_model=spec.fault_model,
        kind=spec.fault_kind, burst_width=spec.burst_width,
        burst_window=spec.burst_window)
    report = CampaignReport(
        instruction=bench.opcode.value,
        input_range=bench.input_range,
        module=spec.module,
        precision=bench.precision,
    )
    for fault in faults:
        try:
            with wall_clock_limit(timeout):
                classification = state.injector.inject(bench, golden,
                                                       fault)
        except UnitTimeout:
            classification = RunClassification(
                Outcome.DUE,
                due_reason=f"wall-clock guard: injection exceeded "
                           f"{timeout:g}s",
                fault_fired=bool(getattr(fault, "fired", False)),
            )
        report.add(
            state.injector.describe(fault),
            classification,
            opcode=bench.opcode.value,
            value_kind=bench.value_kind,
        )
    return report


def _run_signature_unit(state: _RTLWorkerState, unit: WorkUnit,
                        timeout: Optional[float] = None,
                        drops: Optional[Dict[int, Tuple[Tuple, ...]]] = None
                        ) -> SignatureReport:
    """Engine unit runner: one (fault, application) signature exercise.

    *drops* is the plan's :func:`_last_uses`.
    """
    spec: _SignatureSpec = unit.spec
    bench, golden = state.bench_and_golden(spec.bench, spec.fault_model)
    fault = state.signature_fault(spec)
    try:
        with wall_clock_limit(timeout):
            classification = state.injector.inject(bench, golden, fault)
    except UnitTimeout:
        classification = RunClassification(
            Outcome.DUE,
            due_reason=f"wall-clock guard: injection exceeded "
                       f"{timeout:g}s",
            fault_fired=bool(getattr(fault, "fired", False)),
        )
    report = SignatureReport(
        module=spec.module,
        fault_model=spec.fault_model,
        n_faults=spec.n_faults,
        apps=list(spec.apps),
        seed=spec.list_seed,
    )
    report.add(SignatureRecord.from_classification(
        spec.fault_index, spec.app, fault_to_dict(fault), classification))
    if drops:
        state.drop(drops.get(unit.index, ()))
    return report


# -- plans -------------------------------------------------------------------
def _plan_cell_units(spec: _CellSpec, n_faults: int, seed: int,
                     batch_size: Optional[int], base_index: int,
                     label: str) -> List[WorkUnit]:
    """Shard one cell's fault list into seed-indexed work units.

    With ``batch_size=None`` the cell is a single unit drawing its
    faults directly from the cell seed — byte-compatible with the
    historical serial campaign.  With a batch size, batch *i* draws from
    child seed *i* of the cell seed, so any worker count or resume
    boundary reproduces the same fault stream.  A zero-fault cell has
    no units.
    """
    if batch_size is None:
        return [WorkUnit(index=base_index, size=n_faults, seed=seed,
                         spec=spec, label=label)] if n_faults else []
    sizes = plan_batches(n_faults, batch_size)
    seeds = spawn_seed_range(seed, 0, len(sizes))
    return [
        WorkUnit(index=base_index + i, size=size, seed=batch_seed,
                 spec=spec, label=f"{label} [{i + 1}/{len(sizes)}]")
        for i, (size, batch_seed) in enumerate(zip(sizes, seeds))
    ]


def _empty_cell_report(spec: _CellSpec) -> CampaignReport:
    """The report of a cell none of whose units ran."""
    bench = spec.bench.build()
    return CampaignReport(instruction=bench.opcode.value,
                          input_range=bench.input_range,
                          module=spec.module, precision=bench.precision)


def _cells_plan(cells: Sequence[Tuple[_CellSpec, str, int]],
                n_faults: int, header: dict,
                batch_size: Optional[int], timeout: Optional[float],
                vectorize, config: Optional[SMConfig]) -> CampaignPlan:
    """Plan ``(spec, label, cell seed)`` cells of *n_faults* faults each.

    Cells take consecutive unit indices in the given order; the header's
    ``campaign`` names the telemetry stage.
    """
    plan_cells = []
    for spec, label, cell_seed in cells:
        base_index = sum(len(cell.units) for cell in plan_cells)
        units = _plan_cell_units(spec, n_faults, cell_seed, batch_size,
                                 base_index, label)
        plan_cells.append(PlanCell(label, tuple(units),
                                   partial(_empty_cell_report, spec)))
    drops = _last_uses([unit for cell in plan_cells for unit in cell.units])
    return CampaignPlan(
        cells=tuple(plan_cells),
        run_unit=partial(_run_rtl_unit, timeout=timeout,
                         vectorize=vectorize, drops=drops),
        state_factory=partial(_rtl_state, config),
        header=header, kind="rtl-report", stage=header["campaign"])


def _validate_bench_module(bench: Microbenchmark, module: str) -> None:
    if module not in MODULE_INSTRUCTIONS:
        raise CampaignError(f"unknown module {module!r}")
    # the module must be exercised by at least one opcode the program
    # actually executes (FUs are idle during memory/control opcodes)
    program_opcodes = set(bench.program.opcode_histogram())
    if not program_opcodes & set(MODULE_INSTRUCTIONS[module]):
        raise CampaignError(
            f"{module} is idle while executing {bench.name}; the paper "
            "does not inject there")


def _check_fault_model(fault_model: str) -> None:
    if fault_model not in FAULT_MODELS:
        raise CampaignError(
            f"unknown fault model {fault_model!r}; "
            f"choose from {sorted(FAULT_MODELS)}")


def _injector_state(injector: Optional[RTLInjector],
                    config: Optional[SMConfig]
                    ) -> Optional[_RTLWorkerState]:
    """A caller's shared injector as the serial worker state."""
    if injector is None:
        return None
    return _RTLWorkerState(injector=injector, config=config)


def plan_cell(
    bench: Microbenchmark,
    module: str,
    n_faults: int,
    seed: int = 0,
    kind: Optional[str] = None,
    *,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    config: Optional[SMConfig] = None,
    vectorize="auto",
    fault_model: str = "transient",
    burst_width: int = 4,
    burst_window: int = 4,
) -> CampaignPlan:
    """The unit plan of one ``(bench, module)`` campaign cell.

    Depends only on its arguments, so the service's in-process runner,
    its shard journal and every remote worker re-plan the identical
    units and journal header from a job's parameters.
    """
    if n_faults < 0:
        raise CampaignError("n_faults must be non-negative")
    _validate_bench_module(bench, module)
    _check_fault_model(fault_model)
    spec = _CellSpec(bench=_BenchSpec(kind="bench", bench=bench),
                     module=module, fault_kind=kind,
                     fault_model=fault_model, burst_width=burst_width,
                     burst_window=burst_window)
    header = {
        "campaign": "rtl-cell",
        "bench": bench.name,
        "module": module,
        "fault_kind": kind,
        "n_faults": int(n_faults),
        "seed": int(seed),
        "batch_size": None if batch_size is None else int(batch_size),
    }
    # fp32 headers stay byte-identical so pre-precision journals resume
    if bench.precision != "fp32":
        header["precision"] = bench.precision
    # likewise transient headers predate the fault-model layer
    if fault_model != "transient":
        header["fault_model"] = fault_model
    return _cells_plan([(spec, f"{bench.name}/{module}", seed)], n_faults,
                       header, batch_size, timeout, vectorize, config)


def plan_grid(
    opcodes: Iterable[Opcode] = CHARACTERIZED_OPCODES,
    input_ranges: Iterable[str] = ("S", "M", "L"),
    modules: Optional[Sequence[str]] = None,
    n_faults: int = 200,
    seed: int = 0,
    *,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    config: Optional[SMConfig] = None,
    vectorize="auto",
    precision: str = "fp32",
) -> CampaignPlan:
    """The unit plan of the instruction grid (see :func:`run_grid`).

    One cell per (opcode, input range, exercised module), in that
    nesting order, each with its own child seed of *seed*.
    """
    opcodes = list(opcodes)
    input_ranges = list(input_ranges)
    for key in input_ranges:
        if key not in INPUT_RANGES:
            raise CampaignError(f"unknown input range {key!r}")
    cell_coords = [(opcode, range_key, module)
                   for opcode in opcodes
                   for range_key in input_ranges
                   for module in modules_for_opcode(opcode, precision)
                   if modules is None or module in modules]
    cells = [
        (_CellSpec(bench=_BenchSpec(kind="micro", opcode=opcode.value,
                                    input_range=range_key, seed=cell_seed,
                                    precision=precision),
                   module=module),
         f"{opcode.value}/{range_key}/{module}", cell_seed)
        for (opcode, range_key, module), cell_seed in zip(
            cell_coords, spawn_seeds(seed, len(cell_coords)))]
    header = {
        "campaign": "rtl-grid",
        "opcodes": [o.value for o in opcodes],
        "input_ranges": input_ranges,
        "modules": None if modules is None else list(modules),
        "n_faults": int(n_faults),
        "seed": int(seed),
        "batch_size": None if batch_size is None else int(batch_size),
    }
    # fp32 headers stay byte-identical so pre-precision journals resume
    if precision != "fp32":
        header["precision"] = precision
    return _cells_plan(cells, n_faults, header, batch_size, timeout,
                       vectorize, config)


def plan_tmxm_grid(
    tile_kinds: Iterable[str] = TILE_KINDS,
    modules: Iterable[str] = TMXM_MODULES,
    n_faults: int = 200,
    seed: int = 0,
    *,
    use_shared_memory: bool = False,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    config: Optional[SMConfig] = None,
    vectorize="auto",
) -> CampaignPlan:
    """The unit plan of the t-MxM tile grid (see :func:`run_tmxm_grid`)."""
    tile_kinds = list(tile_kinds)
    modules = list(modules)
    for kind in tile_kinds:
        if kind not in TILE_KINDS:
            raise CampaignError(f"unknown tile kind {kind!r}")
    cell_coords = [(kind, module) for kind in tile_kinds
                   for module in modules]
    cells = [
        (_CellSpec(bench=_BenchSpec(kind="tmxm", tile=kind,
                                    use_shared=use_shared_memory,
                                    seed=cell_seed),
                   module=module),
         f"tmxm/{kind}/{module}", cell_seed)
        for (kind, module), cell_seed in zip(
            cell_coords, spawn_seeds(seed, len(cell_coords)))]
    header = {
        "campaign": "rtl-tmxm",
        "tiles": tile_kinds,
        "modules": modules,
        "use_shared_memory": bool(use_shared_memory),
        "n_faults": int(n_faults),
        "seed": int(seed),
        "batch_size": None if batch_size is None else int(batch_size),
    }
    return _cells_plan(cells, n_faults, header, batch_size, timeout,
                       vectorize, config)


# -- permanent-fault signature campaigns -------------------------------------
def default_signature_apps(module: str) -> List[str]:
    """The default application suite characterising *module*.

    Scheduler and pipeline defects are exercised by the three t-MxM tile
    workloads (where the paper's control-logic effects concentrate);
    functional-unit defects by the mid-range micro-benchmark of every
    opcode the module executes.
    """
    if module in TMXM_MODULES:
        return [f"tmxm/{kind}" for kind in TILE_KINDS]
    if module not in MODULE_INSTRUCTIONS:
        raise CampaignError(f"unknown module {module!r}")
    return [f"{op.value}/M" for op in MODULE_INSTRUCTIONS[module]]


def _signature_bench_spec(app: str, bench_seed: int) -> _BenchSpec:
    """Parse one app-suite entry (``tmxm/<Tile>`` or ``<OPCODE>/<RANGE>``)."""
    head, _, tail = app.partition("/")
    if head == "tmxm":
        if tail not in TILE_KINDS:
            raise CampaignError(
                f"unknown t-MxM tile {tail!r} in app {app!r}; "
                f"choose from {list(TILE_KINDS)}")
        return _BenchSpec(kind="tmxm", tile=tail, seed=bench_seed)
    try:
        opcode = Opcode(head)
    except ValueError:
        raise CampaignError(
            f"unknown opcode {head!r} in app {app!r}") from None
    range_key = tail or "M"
    if range_key not in INPUT_RANGES:
        raise CampaignError(
            f"unknown input range {range_key!r} in app {app!r}")
    return _BenchSpec(kind="micro", opcode=opcode.value,
                      input_range=range_key, seed=bench_seed)



def plan_signature(
    module: str,
    n_faults: int,
    seed: int = 0,
    apps: Optional[Sequence[str]] = None,
    fault_model: str = "stuck-at",
    kind: Optional[str] = None,
    *,
    timeout: Optional[float] = None,
    config: Optional[SMConfig] = None,
) -> CampaignPlan:
    """The unit plan of a signature campaign: one cell whose units are
    the ``(fault, application)`` pairs, fault-major."""
    _check_fault_model(fault_model)
    if fault_model != "stuck-at":
        raise CampaignError(
            "signature campaigns characterise permanent faults; "
            f"model {fault_model!r} samples per-injection outcomes — "
            "use run_campaign for it")
    if n_faults < 0:
        raise CampaignError("n_faults must be non-negative")
    if module not in MODULE_INSTRUCTIONS:
        raise CampaignError(f"unknown module {module!r}")
    app_list = list(apps) if apps else default_signature_apps(module)
    if not app_list:
        raise CampaignError("the application suite must not be empty")
    bench_specs = []
    for app, bench_seed in zip(app_list, spawn_seeds(seed, len(app_list))):
        spec = _signature_bench_spec(app, bench_seed)
        _validate_bench_module(spec.build(), module)
        bench_specs.append(spec)
    units = []
    apps_tuple = tuple(app_list)
    for fault_index in range(n_faults):
        for app, bench_spec in zip(app_list, bench_specs):
            spec = _SignatureSpec(
                bench=bench_spec, app=app, apps=apps_tuple,
                fault_index=fault_index, module=module,
                fault_model=fault_model, fault_kind=kind,
                n_faults=n_faults, list_seed=seed)
            units.append(WorkUnit(
                index=len(units), size=1, seed=seed, spec=spec,
                label=f"{module}/{fault_model} "
                      f"fault {fault_index + 1}/{n_faults} x {app}"))
    empty = partial(SignatureReport, module=module, fault_model=fault_model,
                    n_faults=n_faults, apps=app_list, seed=seed)
    return CampaignPlan(
        cells=(PlanCell(f"{module}/{fault_model}", tuple(units), empty),),
        run_unit=partial(_run_signature_unit, timeout=timeout,
                         drops=_last_uses(units)),
        state_factory=partial(_rtl_state, config),
        header={
            "campaign": "rtl-signature",
            "module": module,
            "fault_model": fault_model,
            "fault_kind": kind,
            "n_faults": int(n_faults),
            "apps": list(app_list),
            "seed": int(seed),
        },
        kind="signature-report", stage="rtl-signature")


# -- campaign runners --------------------------------------------------------
def run_campaign(
    bench: Microbenchmark,
    module: str,
    n_faults: int,
    seed: int = 0,
    injector: Optional[RTLInjector] = None,
    kind: Optional[str] = None,
    *,
    n_jobs: int = 1,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
    config: Optional[SMConfig] = None,
    vectorize="auto",
    fault_model: str = "transient",
    burst_width: int = 4,
    burst_window: int = 4,
) -> CampaignReport:
    """Run one fault-injection campaign cell and return its report.

    ``fault_model`` selects what is injected: ``"transient"`` (the
    paper's single-event upsets — the default, byte-identical to the
    pre-fault-model engine), or ``"burst"`` (targeted multi-bit window
    strikes of ``burst_width`` bits over ``burst_window`` cycles; the
    sampled classifications still land in a :class:`CampaignReport`).
    Permanent stuck-at campaigns characterise per-application error
    signatures instead of per-injection outcomes — use
    :func:`run_signature_campaign` for those (``"stuck-at"`` here runs
    the single-workload sampling shape anyway if asked).

    ``kind`` restricts the fault list to ``"data"`` or ``"control"``
    flip-flops (used by ablation studies); the default samples both.
    ``vectorize`` selects the fault-parallel batch engine
    (:mod:`repro.rtl.vectorized`): ``"auto"``/``True`` resolve and
    replay each batch against one recorded golden trace — bit-identical
    to the scalar path for a fixed seed — while ``False`` forces the
    historical one-simulation-per-fault execution.  ``"auto"`` reverts
    to scalar when ``timeout`` is set (the replay engine is
    schedule-bounded, so the per-simulation wall-clock guard only
    applies to its scalar fallbacks; pass ``vectorize=True`` to keep
    the batch engine anyway).
    ``batch_size`` shards the fault list into deterministic seed-indexed
    batches that ``n_jobs`` worker processes execute concurrently (each
    worker builds its own SM from *config*; *injector* must be None);
    ``checkpoint``/``resume`` journal finished batches, ``timeout``
    converts a runaway injection into a DUE.  For a fixed
    ``(seed, batch_size)`` the merged report is bit-identical across any
    ``n_jobs`` and any kill/resume boundary.  ``metrics`` collects
    per-batch telemetry (created automatically for checkpointed runs and
    written next to the journal); ``n_faults=0`` yields an empty report.
    """
    plan = plan_cell(bench, module, n_faults, seed, kind,
                     batch_size=batch_size, timeout=timeout, config=config,
                     vectorize=vectorize, fault_model=fault_model,
                     burst_width=burst_width, burst_window=burst_window)
    return execute(plan, n_jobs=n_jobs,
                   state=_injector_state(injector, config),
                   checkpoint=checkpoint, resume=resume, progress=progress,
                   metrics=metrics, cancel=cancel)[0]


def run_signature_campaign(
    module: str,
    n_faults: int,
    seed: int = 0,
    apps: Optional[Sequence[str]] = None,
    fault_model: str = "stuck-at",
    injector: Optional[RTLInjector] = None,
    kind: Optional[str] = None,
    *,
    n_jobs: int = 1,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    cancel: Optional[Callable[[], bool]] = None,
    config: Optional[SMConfig] = None,
) -> SignatureReport:
    """Characterise *n_faults* permanent defects across an app suite.

    A permanent fault has no single Masked/SDC/DUE outcome: the same
    defect behaves differently per workload, so the campaign's unit is
    one (fault, application) pair — the fault list is sampled once
    (uniform over the module's flip-flop bits × stuck-at polarity, from
    the fault-model seed namespace) and every fault is exercised by
    every application of *apps* (``tmxm/<Tile>`` or ``<OPCODE>/<RANGE>``
    entries; defaults to :func:`default_signature_apps`).  Units are
    planned fault-major and merged in unit order, so the report is
    bit-identical across any ``n_jobs`` and any checkpoint/resume
    boundary, exactly like the transient campaigns.
    """
    plan = plan_signature(module, n_faults, seed, apps, fault_model, kind,
                          timeout=timeout, config=config)
    return execute(plan, n_jobs=n_jobs,
                   state=_injector_state(injector, config),
                   checkpoint=checkpoint, resume=resume, progress=progress,
                   metrics=metrics, cancel=cancel)[0]


def run_grid(
    opcodes: Iterable[Opcode] = CHARACTERIZED_OPCODES,
    input_ranges: Iterable[str] = ("S", "M", "L"),
    modules: Optional[Sequence[str]] = None,
    n_faults: int = 200,
    seed: int = 0,
    injector: Optional[RTLInjector] = None,
    n_jobs: int = 1,
    *,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    consume: Optional[Callable[[int, CampaignReport], None]] = None,
    collect: bool = True,
    cancel: Optional[Callable[[], bool]] = None,
    config: Optional[SMConfig] = None,
    vectorize="auto",
    precision: str = "fp32",
) -> List[CampaignReport]:
    """Run the full campaign grid; returns one report per cell.

    Cells pair every opcode and input range with the modules that opcode
    exercises (optionally filtered by *modules*).  Each cell receives an
    independent child seed so the grid is reproducible yet uncorrelated
    — and, like the paper's 12-node fault-injection server, the work
    fans out over ``n_jobs`` worker processes (each builds its own SM
    model; *injector* must be None).  ``batch_size`` additionally shards
    *within* cells so one large cell cannot serialise the pool;
    ``checkpoint``/``resume`` journal finished batches to JSONL;
    ``consume`` streams per-batch reports (in deterministic unit order)
    to a downstream builder, and ``collect=False`` drops them afterwards
    to bound memory on huge grids.  ``vectorize`` (default ``"auto"``)
    runs each unit's fault batch through the trace-driven fault-parallel
    engine, whose merged reports are bit-identical to ``vectorize=False``
    for the same seed.  ``precision`` re-runs the float-opcode cells in
    a reduced format: micro-benchmarks sample that format's own S/M/L
    ranges, programs execute on the fp16/bf16 datapath, and its module
    replaces ``fp32`` in the grid — non-float cells are unaffected.
    """
    plan = plan_grid(opcodes, input_ranges, modules, n_faults, seed,
                     batch_size=batch_size, timeout=timeout, config=config,
                     vectorize=vectorize, precision=precision)
    return execute(plan, n_jobs=n_jobs,
                   state=_injector_state(injector, config),
                   checkpoint=checkpoint, resume=resume, progress=progress,
                   metrics=metrics, cancel=cancel, consume=consume,
                   collect=collect)


def run_tmxm_grid(
    tile_kinds: Iterable[str] = TILE_KINDS,
    modules: Iterable[str] = TMXM_MODULES,
    n_faults: int = 200,
    seed: int = 0,
    injector: Optional[RTLInjector] = None,
    n_jobs: int = 1,
    *,
    use_shared_memory: bool = False,
    batch_size: Optional[int] = None,
    timeout: Optional[float] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[CampaignMetrics] = None,
    consume: Optional[Callable[[int, CampaignReport], None]] = None,
    collect: bool = True,
    cancel: Optional[Callable[[], bool]] = None,
    config: Optional[SMConfig] = None,
    vectorize="auto",
) -> List[CampaignReport]:
    """Run the t-MxM tile campaigns (tile kind x module, paper Fig. 7).

    The mini-app mirrors :func:`run_grid`'s execution semantics —
    seed-per-cell, optional intra-cell fault batching, process-pool
    fan-out, JSONL checkpoint/resume and streaming ``consume`` — so the
    expensive 6000-fault tile cells parallelise and resume exactly like
    the instruction grid.
    """
    plan = plan_tmxm_grid(tile_kinds, modules, n_faults, seed,
                          use_shared_memory=use_shared_memory,
                          batch_size=batch_size, timeout=timeout,
                          config=config, vectorize=vectorize)
    return execute(plan, n_jobs=n_jobs,
                   state=_injector_state(injector, config),
                   checkpoint=checkpoint, resume=resume, progress=progress,
                   metrics=metrics, cancel=cancel, consume=consume,
                   collect=collect)
