"""RTL fault-injection controller.

Plays the role of the paper's ModelSim campaign controller: run the
workload fault-free to capture the golden outputs and the run length, then
re-run it once per fault-list entry with the transient armed on the fault
plane, classifying every outcome as Masked, SDC (single/multiple thread)
or DUE.

A fault run simulates only the cycles where it can differ from golden:
the golden pass keeps evenly spaced state checkpoints
(:class:`~repro.gpu.sm.GoldenCheckpoints`), a fault run forks from the
last one before its fault's cycle, and it stops as Masked at the first
later one its state equals once the fault is spent.  A
:class:`GoldenRun` without checkpoints re-simulates the whole kernel, with
the same classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import FaultDecayedError, GpuHardwareError
from ..gpu.fault_plane import FaultModel
from ..gpu.sm import (
    GoldenCheckpoints,
    KernelResult,
    SMConfig,
    StreamingMultiprocessor,
)
from .classify import Outcome, RunClassification, classify_run
from .microbench import Microbenchmark
from .reports import FaultDescriptor

__all__ = ["GoldenRun", "RTLInjector"]

#: Watchdog budget relative to the golden run length; a fault run that
#: exceeds this is a hang (DUE).
_WATCHDOG_FACTOR = 10


@dataclass(frozen=True)
class GoldenRun:
    """Fault-free reference execution of one workload.

    ``checkpoints`` lets fault runs fork and stop early; None makes them
    re-simulate the whole kernel (the same classifications, slower).
    """

    cycles: int
    regions: "tuple[tuple[int, ...], ...]"
    checkpoints: Optional[GoldenCheckpoints] = field(
        default=None, compare=False, repr=False)

    @property
    def total_words(self) -> int:
        return sum(len(r) for r in self.regions)


class RTLInjector:
    """Golden-vs-faulty executor over one streaming multiprocessor."""

    def __init__(self, sm: Optional[StreamingMultiprocessor] = None,
                 config: Optional[SMConfig] = None) -> None:
        self.sm = sm or StreamingMultiprocessor(config)

    @property
    def plane(self):
        return self.sm.plane

    # -- golden execution --------------------------------------------------------
    def run_golden(self, bench: Microbenchmark,
                   checkpoints: bool = True) -> GoldenRun:
        """Execute *bench* fault-free, keeping its output regions and
        step checkpoints.

        ``checkpoints=False`` keeps none, for faults that no checkpoint
        helps: a stuck-at fault is active from cycle 0 and never spent,
        so its run neither forks nor stops.
        """
        kept = GoldenCheckpoints() if checkpoints else None
        result = self.sm.launch(
            bench.program,
            bench.n_threads,
            memory_image=bench.memory_image,
            initial_registers=bench.initial_registers,
            checkpoints=kept,
        )
        return GoldenRun(result.cycles, self._snapshot(result, bench), kept)

    # -- fault execution -----------------------------------------------------------
    def inject(self, bench: Microbenchmark, golden: GoldenRun,
               fault: FaultModel) -> RunClassification:
        """Run *bench* with one armed fault model and classify the outcome.

        With *golden*'s checkpoints the run forks and stops early (see
        the module docstring); a decayed or re-converged run is
        golden-identical, so it is Masked with the fault's own
        ``fault_fired`` — what comparing golden with golden gives.
        """
        fault.reset()  # allow fault-list reuse across runs
        max_cycles = max(_WATCHDOG_FACTOR * golden.cycles, 2_000)
        try:
            result = self.sm.launch(
                bench.program,
                bench.n_threads,
                memory_image=bench.memory_image,
                initial_registers=bench.initial_registers,
                fault=fault,
                max_cycles=max_cycles,
                checkpoints=golden.checkpoints,
            )
        except FaultDecayedError:
            return RunClassification(Outcome.MASKED, fault_fired=fault.fired)
        except GpuHardwareError as exc:
            return RunClassification(
                Outcome.DUE,
                due_reason=f"{type(exc).__name__}: {exc}",
                fault_fired=fault.fired,
            )
        faulty_regions = self._snapshot(result, bench)
        return classify_run(
            golden.regions,
            faulty_regions,
            [base for base, _ in bench.output_regions],
            fault_fired=fault.fired,
        )

    @staticmethod
    def describe(fault: FaultModel) -> FaultDescriptor:
        ff = fault.flipflop
        return FaultDescriptor(ff.module, ff.name, ff.lane, fault.bit,
                               getattr(fault, "cycle", 0), ff.kind)

    @staticmethod
    def _snapshot(result: KernelResult, bench: Microbenchmark
                  ) -> "tuple[tuple[int, ...], ...]":
        return tuple(
            tuple(result.memory.read_words(base, count))
            for base, count in bench.output_regions
        )
