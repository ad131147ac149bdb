"""Forked fault runs against the full-simulation oracle.

A golden run keeps evenly spaced step checkpoints; a fault run forks
from the last one at or before its fault's cycle and, once the fault is
spent, stops as Masked at the first checkpoint whose state its own
equals.  A ``GoldenRun`` without checkpoints re-simulates the whole
kernel, so every test here compares the two paths field by field.
The state-inventory tests check that the checkpointed state is all the
state a run carries from one dispatch step to the next.
"""

import dataclasses

import pytest

from repro.adaptive import AdaptiveConfig, run_adaptive_grid
from repro.campaign.engine import execute
from repro.errors import FaultReconvergedError
from repro.gpu.fault_plane import TransientFault
from repro.gpu.isa import CompareOp, Opcode, Predicate
from repro.gpu.program import ProgramBuilder
from repro.gpu.scheduler import WarpState
from repro.gpu.sm import StreamingMultiprocessor
from repro.rtl.campaign import (
    _RTLWorkerState,
    plan_grid,
    run_campaign,
    run_signature_campaign,
)
from repro.rtl.classify import Outcome
from repro.rtl.faultlist import generate_model_fault_list
from repro.rtl.injector import RTLInjector
from repro.rtl.microbench import Microbenchmark, make_microbenchmark
from repro.rtl.tmxm import make_tmxm_bench
from repro.rtl.vectorized import VectorizedRTLInjector


@pytest.fixture(scope="module")
def injector():
    return RTLInjector()


@pytest.fixture
def runs(monkeypatch):
    """Counts forked runs (a checkpoint restore) and re-converged stops."""
    counts = {"forks": 0, "stops": 0}
    restore = StreamingMultiprocessor.restore
    run = StreamingMultiprocessor._run

    def counting_restore(self, state):
        counts["forks"] += 1
        return restore(self, state)

    def counting_run(self, *args, **kwargs):
        try:
            return run(self, *args, **kwargs)
        except FaultReconvergedError:
            counts["stops"] += 1
            raise

    monkeypatch.setattr(StreamingMultiprocessor, "restore",
                        counting_restore)
    monkeypatch.setattr(StreamingMultiprocessor, "_run", counting_run)
    return counts


def _both(injector, bench, golden, fault):
    """(forked, full-simulation) classification fields of one fault."""
    oracle = dataclasses.replace(golden, checkpoints=None)
    sides = []
    for reference in (golden, oracle):
        c = injector.inject(bench, reference, fault)
        sides.append((c.outcome, c.corrupted, c.due_reason, c.fault_fired,
                      fault.fired_cycle))
    return sides


def _flipflop(injector, module, name, lane):
    return next(ff for ff in injector.plane.flipflops(module)
                if ff.name == name and ff.lane == lane)


CELLS = [(op, module) for op in ("FADD", "GLD", "FSIN")
         for module in ("pipeline", "scheduler")] + [
    ("FSIN", "sfu"), ("FSIN", "sfu_controller")]


class TestClassification:
    @pytest.mark.parametrize("op,module", CELLS)
    def test_forked_equals_full_simulation(self, injector, runs, op,
                                           module):
        bench = make_microbenchmark(Opcode(op), "M", seed=3)
        golden = injector.run_golden(bench)
        assert len(golden.checkpoints) > 0
        faults = generate_model_fault_list(
            injector.plane, module, 60, golden.cycles, seed=7)
        for fault in faults:
            forked, full = _both(injector, bench, golden, fault)
            assert forked == full, fault
        assert runs["forks"] > 0

    def test_tmxm_random_burst_cell(self, injector, runs):
        bench = make_tmxm_bench("Random", seed=5)
        golden = injector.run_golden(bench)
        faults = generate_model_fault_list(
            injector.plane, "pipeline", 16, golden.cycles, seed=5,
            fault_model="burst")
        for fault in faults:
            forked, full = _both(injector, bench, golden, fault)
            assert forked == full, fault
        assert runs["forks"] > 0


def _spin_bench() -> Microbenchmark:
    """A four-iteration loop without memory traffic in its body."""
    b = ProgramBuilder("spin")
    b.mov(6, b.imm(0))
    b.label("loop")
    b.iadd(6, 6, b.imm(1))
    b.iset(Predicate(0), 6, b.imm(4), CompareOp.LT)
    b.bra("loop", predicate=Predicate(0))
    b.gst(0, 6, offset=0x300)
    b.exit()
    return Microbenchmark(
        name="spin", opcode=Opcode.IADD, input_range="M",
        program=b.build(), memory_image={}, output_regions=((0x300, 32),),
        value_kind="u32", n_threads=32)


class TestExplicitCases:
    def test_cycle_zero_scheduler_fault_runs_from_the_launch(
            self, injector, runs):
        # scheduler.reset latches every warp's PC at cycle 0, before the
        # first dispatch step: only the ordinary launch can land it
        bench = make_microbenchmark(Opcode.FADD, "M", seed=3)
        golden = injector.run_golden(bench)
        assert golden.checkpoints.fork_point(0) is None
        fault = TransientFault(
            _flipflop(injector, "scheduler", "warp.pc", 0), bit=3, cycle=0)
        forked, full = _both(injector, bench, golden, fault)
        assert forked == full
        assert forked[4] == 0  # fired at cycle 0
        assert runs["forks"] == 0

    def test_watchdog_hang_due(self, injector, runs):
        # bit 31 of the loop increment's immediate makes the counter
        # negative: the loop runs until the watchdog expires
        bench = _spin_bench()
        golden = injector.run_golden(bench)
        fault = TransientFault(
            _flipflop(injector, "pipeline", "de.imm", -1), bit=31, cycle=43)
        forked, full = _both(injector, bench, golden, fault)
        assert forked == full
        assert forked[0] is Outcome.DUE
        assert forked[2].startswith("GpuHangError: watchdog expired")
        assert runs["forks"] == 1  # the oracle side never forks

    def test_sdc(self, injector, runs):
        bench = make_microbenchmark(Opcode.FADD, "M", seed=3)
        golden = injector.run_golden(bench)
        fault = TransientFault(
            _flipflop(injector, "pipeline", "wb.result", 2), bit=5, cycle=62)
        forked, full = _both(injector, bench, golden, fault)
        assert forked == full
        assert forked[0] is Outcome.SDC
        assert runs["forks"] == 1

    def test_reconverged_masked(self, injector, runs):
        bench = make_microbenchmark(Opcode.FADD, "M", seed=3)
        golden = injector.run_golden(bench)
        fault = TransientFault(
            _flipflop(injector, "pipeline", "de.src_c", 25), bit=20,
            cycle=89)
        forked, full = _both(injector, bench, golden, fault)
        assert forked == full
        assert forked[0] is Outcome.MASKED and forked[3]  # fired
        assert runs == {"forks": 1, "stops": 1}


class _AtStepTop:
    """Stands in for a golden run's checkpoints: calls ``action(sm)`` at
    the top of the first dispatch step whose cycle is *cycle*."""

    def __init__(self, cycle, action):
        self.cycle = cycle
        self.action = action
        self.called = False

    def __len__(self):
        return 0

    def offer(self, step, sm):
        if not self.called and sm.plane.cycle == self.cycle:
            self.called = True
            self.action(sm)


def _perturb(sm):
    """Change every field of the SM's state inventory."""
    sm.plane.cycle += 3
    for ctx in sm.scheduler.contexts:
        ctx.pc ^= 1
        ctx.active_mask ^= 1
        ctx.state = WarpState.EXITED
        ctx.thread_base += 1
    sm.scheduler._rr_pointer ^= 1
    sm.scheduler._dispatches += 5
    sm._registers.write(0, 6, 12345)
    sm._registers.write(31, 40, 7)   # a register no step writes
    sm._registers.write_predicate(0, 0, True)
    sm._registers.write_predicate(1, 5, True)
    sm._memory.store(0x300, 99)
    sm._memory.store(0x9000, 1)      # a word no step writes
    sm._shared.store(0, 5)
    sm._shared.store(1000, 5)


#: one workload per inventory feature: shared memory and a barrier,
#: the SFU, and predicated branches
INVENTORY_BENCHES = [
    lambda: make_tmxm_bench("Random", seed=5, use_shared_memory=True),
    lambda: make_microbenchmark(Opcode.FSIN, "M", seed=3),
    lambda: make_microbenchmark(Opcode.BRA, "M", seed=3),
]


def _launch(sm, bench, checkpoints):
    result = sm.launch(bench.program, bench.n_threads,
                       memory_image=bench.memory_image,
                       initial_registers=bench.initial_registers,
                       checkpoints=checkpoints)
    return result.cycles, RTLInjector._snapshot(result, bench)


class TestCheckpoints:
    def test_long_run_keeps_eight_to_sixteen_evenly_spaced_steps(
            self, injector):
        golden = injector.run_golden(make_tmxm_bench("Random", seed=5))
        steps = [step for step, _ in golden.checkpoints._kept]
        assert 8 <= len(steps) <= 16
        assert len({b - a for a, b in zip(steps, steps[1:])}) == 1
        cycles = [state.cycle for state in golden.checkpoints]
        assert cycles == sorted(set(cycles)) and cycles[0] > 0

    @pytest.mark.parametrize("module,kept", [
        ("fp32", False), ("pipeline", True), ("scheduler", True)])
    def test_prepare_keeps_checkpoints_only_for_scalar_modules(
            self, injector, module, kept):
        # fired fp32 faults replay vectorized; an ejected one still
        # classifies through the full simulation
        vec = VectorizedRTLInjector(injector)
        prepared = vec.prepare(make_microbenchmark(Opcode.FADD, "M", seed=3),
                               module)
        assert (prepared.golden.checkpoints is not None) is kept

    @pytest.mark.parametrize("campaign,kept", [
        (lambda: run_campaign(make_microbenchmark(Opcode.FADD, "M", seed=3),
                              "pipeline", 4, seed=3, fault_model="burst"),
         True),
        (lambda: run_campaign(make_microbenchmark(Opcode.FADD, "M", seed=3),
                              "pipeline", 4, seed=3, fault_model="stuck-at"),
         False),
        (lambda: run_signature_campaign("pipeline", 1, seed=3), False)],
        ids=["burst", "stuck-at", "signature"])
    def test_stuck_at_goldens_keep_no_checkpoints(self, monkeypatch,
                                                  campaign, kept):
        # a stuck-at fault is active from cycle 0 and never spent
        goldens = []
        run_golden = RTLInjector.run_golden

        def spying_run_golden(self, bench, checkpoints=True):
            goldens.append(run_golden(self, bench, checkpoints))
            return goldens[-1]

        monkeypatch.setattr(RTLInjector, "run_golden", spying_run_golden)
        campaign()
        assert goldens
        assert all((golden.checkpoints is not None) is kept
                   for golden in goldens)


class TestStateInventory:
    @pytest.mark.parametrize("make_bench", INVENTORY_BENCHES)
    def test_restore_undoes_a_change_of_every_field(self, injector,
                                                    make_bench):
        bench = make_bench()
        golden = injector.run_golden(bench)
        state = golden.checkpoints.fork_point(golden.cycles // 2)

        def perturb_then_restore(sm):
            _perturb(sm)
            assert sm.snapshot() != state
            sm.restore(state)
            assert sm.snapshot() == state

        hook = _AtStepTop(state.cycle, perturb_then_restore)
        assert _launch(injector.sm, bench, hook) == (golden.cycles,
                                                     golden.regions)
        assert hook.called

    @pytest.mark.parametrize("make_bench", INVENTORY_BENCHES)
    def test_every_checkpoint_resumes_to_the_golden_result(
            self, injector, make_bench):
        # a fresh launch holds nothing of the golden run but the restored
        # inventory, so an incomplete inventory would show here
        bench = make_bench()
        golden = injector.run_golden(bench)
        for state in golden.checkpoints:
            hook = _AtStepTop(0, lambda sm: sm.restore(state))
            assert _launch(injector.sm, bench, hook) == (golden.cycles,
                                                         golden.regions)


class TestBoundedCaches:
    def test_adaptive_grid_records_each_cell_once(self, monkeypatch):
        prepared = []
        prepare = VectorizedRTLInjector.prepare

        def counting_prepare(self, bench, module):
            prepared.append((bench.name, module))
            return prepare(self, bench, module)

        monkeypatch.setattr(VectorizedRTLInjector, "prepare",
                            counting_prepare)
        # an unreachable target keeps every cell running to its plan end
        outcome = run_adaptive_grid(
            opcodes=[Opcode.FADD], input_ranges=("S", "M"),
            modules=["pipeline"], n_faults=40,
            config=AdaptiveConfig(target_ci=0.01, min_per_cell=10),
            seed=1, batch_size=10)
        assert outcome.rounds > 1
        assert sorted(prepared) == [("fadd_M", "pipeline"),
                                    ("fadd_S", "pipeline")]

    def test_grid_holds_one_cell_at_a_time(self, monkeypatch):
        state = _RTLWorkerState()
        held = []
        prepare = VectorizedRTLInjector.prepare

        def watching_prepare(self, bench, module):
            held.append(len(state._prepared) + len(state._golden))
            return prepare(self, bench, module)

        monkeypatch.setattr(VectorizedRTLInjector, "prepare",
                            watching_prepare)
        plan = plan_grid([Opcode.FADD, Opcode.GLD], ("S", "M"),
                         n_faults=20, seed=3, batch_size=10)
        execute(plan, state=state)
        assert len(held) == len(plan.cells)
        assert held == [0] * len(held)
        assert state._prepared == {} and state._golden == {}
