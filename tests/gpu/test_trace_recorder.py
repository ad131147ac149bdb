"""Golden-trace recorder + passive hot-path tests.

Covers the :class:`~repro.gpu.trace.GoldenTraceRecorder` contract the
vectorized fault engine replays against (dispatch schedule, per-beat
operands/results, branch votes, latch-schedule bisection, scoping to
one module), the recorder/fault mutual-exclusion guards, and the
passive fast path: a
golden run (no fault, no recorder) must never dispatch a single
``plane.latch`` call — including through the SFU controller, whose
unconditional latching used to dominate golden wall-clock time.
"""

import pytest

from repro.gpu.bits import float_to_bits
from repro.gpu.fault_plane import TransientFault
from repro.gpu.isa import CompareOp, Opcode
from repro.gpu.program import ProgramBuilder
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.trace import GoldenTraceRecorder


def _fadd_program():
    b = ProgramBuilder("rec")
    b.gld(2, 0, offset=0x100)
    b.gld(3, 0, offset=0x200)
    b.fadd(5, 2, 3)
    b.gst(0, 5, offset=0x300)
    b.exit()
    return b.build()


def _fadd_image(values_a, values_b):
    return {0x100: [float_to_bits(v) for v in values_a],
            0x200: [float_to_bits(v) for v in values_b]}


class TestDispatchSchedule:
    def test_steps_mirror_executed_instructions(self):
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder("fp32")
        sm.launch(_fadd_program(), 2,
                  memory_image=_fadd_image([1.5, -2.0], [0.25, 8.0]),
                  recorder=rec)
        opcodes = [s.opcode for s in rec.steps]
        assert opcodes == [Opcode.GLD.value, Opcode.GLD.value,
                           Opcode.FADD.value, Opcode.GST.value,
                           Opcode.EXIT.value]
        # record_ctrl runs for every dispatched step, EXIT included
        assert all(s.ctrl is not None for s in rec.steps)
        assert rec.total_cycles > 0

    def test_beat_records_carry_golden_operands_and_results(self):
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder("fp32")
        sm.launch(_fadd_program(), 2,
                  memory_image=_fadd_image([1.5, -2.0], [0.25, 8.0]),
                  recorder=rec)
        (fadd_step,) = [s for s in rec.steps
                        if s.opcode == Opcode.FADD.value]
        beat = fadd_step.beats[0]
        assert beat.lanes[:2] == (0, 1)
        assert beat.group_mask & 0b11 == 0b11
        assert beat.operands[0][:2] == (float_to_bits(1.5),
                                        float_to_bits(0.25))
        assert beat.results[:2] == (float_to_bits(1.75),
                                    float_to_bits(6.0))

    def test_branch_votes_are_post_negation_decisions(self):
        b = ProgramBuilder("loop")
        b.mov(1, b.imm(0))
        b.label("top")
        b.iadd(1, 1, b.imm(1))
        b.iset(b.pred(0), 1, b.imm(3), CompareOp.LT)
        b.bra("top", predicate=b.pred(0))
        b.gst(0, 1, offset=0x300)
        b.exit()
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder("fp32")
        sm.launch(b.build(), 2, recorder=rec)
        branches = [s.branch for s in rec.steps if s.branch is not None]
        # counter hits 1, 2 (taken) then 3 (fall through), both threads
        assert len(branches) == 3
        assert [sorted(br.votes) for br in branches] == [
            [(0, True), (1, True)],
            [(0, True), (1, True)],
            [(0, False), (1, False)],
        ]


class TestLatchSchedule:
    def _recorded(self):
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder("fp32")
        sm.launch(_fadd_program(), 2,
                  memory_image=_fadd_image([1.5, -2.0], [0.25, 8.0]),
                  recorder=rec)
        return sm, rec

    def test_fp32_latches_land_in_the_schedule(self):
        sm, rec = self._recorded()
        keys = [ff.key for ff in sm.plane.flipflops("fp32")
                if rec.first_latch_at_or_after(ff.key, 0) is not None]
        assert keys, "an FADD run must latch fp32 stage registers"
        for key in keys:
            cycle, step, beat = rec.first_latch_at_or_after(key, 0)
            assert 0 <= cycle <= rec.total_cycles
            assert 0 <= step < len(rec.steps)
            assert beat >= GoldenTraceRecorder.NO_BEAT

    def test_bisection_is_at_or_after(self):
        _, rec = self._recorded()
        key = next(k for k in rec._event_cycles)
        cycles = rec._event_cycles[key]
        assert cycles == sorted(cycles)
        first = rec.first_latch_at_or_after(key, 0)
        # querying at the event's own cycle still returns it (a latch at
        # the injection instant consumes the transient, mirroring
        # FaultPlane.latch's arming rule)
        assert rec.first_latch_at_or_after(key, first[0]) == first
        # past the last event the transient decays unconsumed
        assert rec.first_latch_at_or_after(key, cycles[-1] + 1) is None

    def test_unknown_key_never_fires(self):
        _, rec = self._recorded()
        assert rec.first_latch_at_or_after(("fp32", "no.such", 0), 0) is None


class TestGuards:
    def test_launch_rejects_recorder_with_fault(self):
        sm = StreamingMultiprocessor()
        ff = sm.plane.flipflops("fp32")[0]
        fault = TransientFault(ff, bit=0, cycle=1)
        with pytest.raises(ValueError, match="fault-free"):
            sm.launch(_fadd_program(), 1,
                      memory_image=_fadd_image([1.0], [1.0]),
                      fault=fault, recorder=GoldenTraceRecorder("fp32"))

    def test_arm_while_recording_is_rejected(self):
        sm = StreamingMultiprocessor()
        sm.plane.attach_recorder(GoldenTraceRecorder("fp32"))
        ff = sm.plane.flipflops("fp32")[0]
        with pytest.raises(RuntimeError, match="recorder"):
            sm.plane.arm(TransientFault(ff, bit=0, cycle=1))
        sm.plane.detach_recorder()

    def test_attach_while_armed_is_rejected(self):
        sm = StreamingMultiprocessor()
        ff = sm.plane.flipflops("fp32")[0]
        sm.plane.arm(TransientFault(ff, bit=0, cycle=1))
        with pytest.raises(RuntimeError, match="armed"):
            sm.plane.attach_recorder(GoldenTraceRecorder("fp32"))
        sm.plane.disarm()


class TestPassiveHotPath:
    """Golden runs must never reach ``plane.latch`` — the guards in every
    functional unit (including ``SfuController._latch``, the historical
    hot spot) skip the dispatch entirely while the plane is passive."""

    def test_golden_run_makes_zero_latch_calls(self, monkeypatch):
        sm = StreamingMultiprocessor()

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("plane.latch reached during a golden run")

        monkeypatch.setattr(sm.plane, "latch", boom)
        b = ProgramBuilder("mix")
        b.gld(2, 0, offset=0x100)
        b.fsin(3, 2)          # SFU: controller + datapath stages
        b.fexp(4, 3)
        b.rcp(5, 4)
        b.fadd(6, 3, 4)       # fp32 pipeline
        b.ffma(7, 3, 4, 6)
        b.iadd(8, 0, 0)       # int pipeline
        b.gst(0, 7, offset=0x300)
        b.exit()
        image = {0x100: [float_to_bits(0.5), float_to_bits(1.25)]}
        result = sm.launch(b.build(), 2, memory_image=image)
        assert result.cycles > 0
        assert sm.plane.passive

    @staticmethod
    def _mixed_program():
        b = ProgramBuilder("mix")
        b.gld(2, 0, offset=0x100)
        b.fsin(3, 2)
        b.fadd(6, 3, 2)
        b.iadd(8, 0, 0)
        b.gst(0, 6, offset=0x300)
        b.exit()
        return b.build()

    def _latching_modules(self, monkeypatch, sm, **launch):
        modules = []
        latch = sm.plane.latch

        def spy(module, name, value, lane=-1):
            modules.append(module)
            return latch(module, name, value, lane)

        monkeypatch.setattr(sm.plane, "latch", spy)
        sm.launch(self._mixed_program(), 32,
                  memory_image={0x100: [float_to_bits(0.5)] * 32},
                  **launch)
        return modules

    def test_only_the_armed_module_reaches_latch(self, monkeypatch):
        """The per-module fast path: while a pipeline fault is armed
        (here for the whole run: it is injected after the kernel ends),
        no other module's latch reaches the plane."""
        sm = StreamingMultiprocessor()
        ff = next(ff for ff in sm.plane.flipflops("pipeline")
                  if ff.name == "de.opcode")
        fault = TransientFault(ff, bit=0, cycle=100_000)
        modules = self._latching_modules(monkeypatch, sm, fault=fault)
        assert modules and set(modules) == {"pipeline"}
        assert not fault.fired

    def test_only_the_recorded_module_reaches_latch(self, monkeypatch):
        sm = StreamingMultiprocessor()
        modules = self._latching_modules(
            monkeypatch, sm, recorder=GoldenTraceRecorder("scheduler"))
        assert modules and set(modules) == {"scheduler"}
        assert sm.plane.passive

    def test_recorder_reenables_latch_dispatch(self):
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder("sfu")
        b = ProgramBuilder("sfu")
        b.gld(2, 0, offset=0x100)
        b.fsin(3, 2)
        b.gst(0, 3, offset=0x300)
        b.exit()
        sm.launch(b.build(), 1,
                  memory_image={0x100: [float_to_bits(0.5)]}, recorder=rec)
        sfu_keys = [ff.key for ff in sm.plane.flipflops("sfu")
                    if rec.first_latch_at_or_after(ff.key, 0) is not None]
        assert sfu_keys, "recording must capture SFU stage latches again"


class TestModuleScope:
    """A recorder logs one module's latch schedule — exactly the entries
    a record-everything capture would hold for that module."""

    #: every functional unit on an opcode it executes, and both control
    #: modules on every opcode
    CASES = [(Opcode.FADD, "fp32"), (Opcode.IMAD, "int"),
             (Opcode.FSIN, "sfu")] + [
        (opcode, module)
        for opcode in (Opcode.FADD, Opcode.IMAD, Opcode.FSIN, Opcode.GLD)
        for module in ("scheduler", "pipeline")]

    @staticmethod
    def _launch(sm, bench, recorder):
        sm.launch(bench.program, bench.n_threads,
                  memory_image=bench.memory_image,
                  initial_registers=bench.initial_registers,
                  recorder=recorder)

    def _full_schedule(self, bench, module, monkeypatch):
        """Every latch of every module, as (cycle, step, beat) per key,
        with every module pending (bubbles and shadow banks clocked) —
        the capture a recorder made before it was scoped to a module."""
        sm = StreamingMultiprocessor()
        plane = sm.plane
        rec = GoldenTraceRecorder(module)  # dispatch/beat bookkeeping
        events = {}

        def latch(mod, name, value, lane=-1):
            events.setdefault((mod, name, lane), []).append(
                (plane.cycle, len(rec.steps) - 1, rec._beat))
            return value

        def latch_bank(mod, keys, key_set):
            for key in keys:
                latch(key[0], key[1], 0, key[2])

        monkeypatch.setattr(plane, "latch", latch)
        monkeypatch.setattr(plane, "latch_bank", latch_bank)
        monkeypatch.setattr(plane, "pending_for", lambda mod: True)
        self._launch(sm, bench, rec)
        return {key: value for key, value in events.items()
                if key[0] == module}

    @pytest.mark.parametrize("opcode,module", CASES,
                             ids=[f"{op.value}-{m}" for op, m in CASES])
    def test_scoped_schedule_is_the_full_one_filtered(self, opcode, module,
                                                      monkeypatch):
        from repro.rtl.microbench import make_microbenchmark

        bench = make_microbenchmark(opcode, "M", seed=3)
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder(module)
        self._launch(sm, bench, rec)
        scoped = {key: [(cycle, *site) for cycle, site
                        in zip(cycles, rec._event_sites[key])]
                  for key, cycles in rec._event_cycles.items()}
        assert scoped, f"{opcode.value} must latch {module} registers"
        assert scoped == self._full_schedule(bench, module, monkeypatch)

    def test_other_modules_are_not_pending_or_logged(self):
        sm = StreamingMultiprocessor()
        rec = GoldenTraceRecorder("fp32")
        sm.plane.attach_recorder(rec)
        assert sm.plane.pending_for("fp32")
        assert not sm.plane.pending_for("pipeline")
        assert sm.plane.latch("int", "stage.a", 7, 0) == 7
        assert sm.plane.latch("fp32", "stage.a", 9, 0) == 9
        sm.plane.detach_recorder()
        assert list(rec._event_cycles) == [("fp32", "stage.a", 0)]

    def test_foreign_key_lookup_raises(self):
        _, rec = TestLatchSchedule()._recorded()
        with pytest.raises(ValueError, match="recorded module"):
            rec.first_latch_at_or_after(("int", "stage.a", 0), 0)
