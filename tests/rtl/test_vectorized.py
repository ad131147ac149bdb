"""Vectorized fault-parallel RTL engine tests.

The engine's contract is **bit-identity with the scalar injector**: for
any fixed-seed fault list the per-fault classifications (outcome,
corrupted values, DUE reasons, fired/expired bookkeeping) and the merged
campaign reports must match the one-simulation-per-fault path exactly.
These tests pin that contract at three granularities — per fault, per
campaign cell, and per grid (including the scalar-fallback modules) —
plus the norm.shift propagation regression the scalar comparison relies
on.
"""

import pytest

from repro.gpu.bits import float_to_bits
from repro.gpu.fault_plane import FaultPlane, TransientFault
from repro.gpu.isa import Opcode
from repro.gpu.sm import SMConfig
from repro.gpu.trace import GoldenTraceRecorder
from repro.rtl import (
    Outcome,
    RTLInjector,
    VectorizedRTLInjector,
    generate_fault_list,
    make_microbenchmark,
    run_campaign,
    run_grid,
)
from repro.rtl.vectorized import REPLAY_MODULES


def _same_classification(scalar, vectorized):
    assert vectorized.outcome is scalar.outcome
    assert vectorized.fault_fired == scalar.fault_fired
    assert vectorized.due_reason == scalar.due_reason
    assert [(c.thread, c.address, c.golden_bits, c.faulty_bits)
            for c in vectorized.corrupted] == \
        [(c.thread, c.address, c.golden_bits, c.faulty_bits)
         for c in scalar.corrupted]


class TestPerFaultEquivalence:
    @pytest.mark.parametrize("opcode,module", [
        (Opcode.FADD, "fp32"),
        (Opcode.FFMA, "fp32"),
        (Opcode.IMAD, "int"),
        (Opcode.FSIN, "sfu"),
        (Opcode.GLD, "pipeline"),
    ])
    def test_matches_scalar_injector(self, opcode, module):
        injector = RTLInjector()
        vec = VectorizedRTLInjector(injector)
        bench = make_microbenchmark(opcode, "M", seed=5)
        prepared = vec.prepare(bench, module)
        faults = generate_fault_list(
            injector.plane, module, 40, prepared.golden.cycles, seed=9)
        batch = vec.inject_batch(prepared, faults)
        assert len(batch) == len(faults)
        outcomes = set()
        for fault, vectorized in zip(faults, batch):
            scalar = injector.inject(bench, prepared.golden, fault)
            _same_classification(scalar, vectorized)
            outcomes.add(vectorized.outcome)
        # a 40-fault sample must not be all-masked, or the comparison
        # would vacuously pass without exercising the replay datapaths
        assert outcomes - {Outcome.MASKED}, \
            f"fault sample for {opcode}/{module} never propagated"

    def test_unfired_fault_is_instantly_masked(self):
        injector = RTLInjector()
        vec = VectorizedRTLInjector(injector)
        bench = make_microbenchmark(Opcode.FADD, "M", seed=5)
        prepared = vec.prepare(bench, "fp32")
        ff = injector.plane.flipflops("fp32")[0]
        fault = TransientFault(ff, bit=0,
                               cycle=prepared.golden.cycles + 100, window=4)
        vectorized = vec.inject_batch(prepared, [fault])[0]
        assert vectorized.outcome is Outcome.MASKED
        assert vectorized.fault_fired is False
        assert fault.expired is True
        assert fault.fired_cycle is None
        scalar = injector.inject(bench, prepared.golden, fault)
        _same_classification(scalar, vectorized)


class TestCampaignEquivalence:
    def test_grid_reports_bit_identical_including_fallback_modules(self):
        kwargs = dict(opcodes=(Opcode.FADD, Opcode.IADD),
                      input_ranges=("S",), n_faults=25, seed=7)
        scalar = run_grid(vectorize=False, **kwargs)
        vectorized = run_grid(vectorize="auto", **kwargs)
        modules = {r.module for r in scalar}
        assert modules - REPLAY_MODULES, \
            "the grid must include scalar-fallback (control) modules"
        assert [r.to_dict() for r in vectorized] == \
            [r.to_dict() for r in scalar]
        assert [r.to_json() for r in vectorized] == \
            [r.to_json() for r in scalar]

    def test_register_file_cell_stays_scalar_under_auto(self):
        # persistent-state (SRAM) modules bypass the latch plane, so the
        # trace-driven firing resolution does not apply: "auto" must run
        # them through the scalar injector and still match exactly
        bench = make_microbenchmark(Opcode.IADD, "M", seed=3)
        config = SMConfig(ecc_enabled=False)
        kwargs = dict(module="register_file", n_faults=20, seed=11,
                      config=config)
        scalar = run_campaign(bench, vectorize=False, **kwargs)
        vectorized = run_campaign(bench, vectorize="auto", **kwargs)
        assert vectorized.to_dict() == scalar.to_dict()

    def test_auto_reverts_to_scalar_under_a_timeout(self):
        # the replay engine is schedule-bounded and cannot trip the
        # per-simulation wall-clock guard, so "auto" + timeout must keep
        # the historical semantics: every injection runs guarded scalar
        bench = make_microbenchmark(Opcode.FADD, "M", seed=0)
        report = run_campaign(bench, module="fp32", n_faults=5, seed=0,
                              timeout=1e-6, vectorize="auto")
        assert report.n_due == 5
        assert all("wall-clock guard" in (r.due_reason or "")
                   for r in report.general)

    def test_vectorize_flag_reaches_single_cell_campaign(self):
        bench = make_microbenchmark(Opcode.FMUL, "S", seed=2)
        kwargs = dict(module="fp32", n_faults=30, seed=4)
        scalar = run_campaign(bench, vectorize=False, **kwargs)
        vectorized = run_campaign(bench, vectorize=True, **kwargs)
        assert vectorized.to_dict() == scalar.to_dict()

    def test_burst_campaign_routes_scalar_under_auto(self):
        # non-transient models re-corrupt across the window, which the
        # single-flip replay engine cannot express: "auto" must hand
        # every burst to the scalar injector and match it exactly
        bench = make_microbenchmark(Opcode.FADD, "M", seed=5)
        kwargs = dict(module="fp32", n_faults=25, seed=6,
                      fault_model="burst", burst_width=3, burst_window=4)
        scalar = run_campaign(bench, vectorize=False, **kwargs)
        vectorized = run_campaign(bench, vectorize="auto", **kwargs)
        assert vectorized.to_dict() == scalar.to_dict()

    def test_non_transient_cells_record_no_golden_trace(self,
                                                        monkeypatch):
        # burst and stuck-at faults always run scalar, so their cells
        # must not pay for a trace-recording run nothing reads
        def no_prepare(self, bench, module):
            raise AssertionError("non-transient cell recorded a trace")

        monkeypatch.setattr(VectorizedRTLInjector, "prepare", no_prepare)
        bench = make_microbenchmark(Opcode.FADD, "M", seed=5)
        for fault_model in ("burst", "stuck-at"):
            report = run_campaign(bench, module="fp32", n_faults=4, seed=6,
                                  vectorize="auto", fault_model=fault_model)
            assert report.n_injections == 4

    def test_stuck_at_batch_routes_scalar(self):
        # the permanently-armed model never goes passive, so the batch
        # engine must fall back fault-by-fault — exact equality again
        from repro.gpu.fault_plane import StuckAtFault

        injector = RTLInjector()
        vec = VectorizedRTLInjector(injector)
        bench = make_microbenchmark(Opcode.FADD, "M", seed=8)
        prepared = vec.prepare(bench, "fp32")
        ffs = injector.plane.flipflops("fp32")
        faults = [StuckAtFault(ffs[i % len(ffs)], bit=0,
                               stuck_at=i % 2) for i in range(6)]
        batch = vec.inject_batch(prepared, faults)
        for fault, vectorized in zip(faults, batch):
            scalar = injector.inject(bench, prepared.golden, fault)
            _same_classification(scalar, vectorized)


class TestModuleScopedTrace:
    def test_foreign_module_fault_is_rejected(self):
        # the trace holds only the prepared module's latches: a fault
        # elsewhere would silently resolve as never fired (Masked)
        injector = RTLInjector()
        vec = VectorizedRTLInjector(injector)
        bench = make_microbenchmark(Opcode.FADD, "M", seed=5)
        prepared = vec.prepare(bench, "fp32")
        assert prepared.module == "fp32"
        ff = injector.plane.flipflops("pipeline")[0]
        with pytest.raises(ValueError, match="prepared module 'fp32'"):
            vec.inject_batch(prepared, [TransientFault(ff, bit=0, cycle=5)])

    @pytest.mark.parametrize("fault_model", ["burst", "stuck-at"])
    @pytest.mark.parametrize("opcode", [Opcode.GLD, Opcode.FADD],
                             ids=lambda op: op.value)
    def test_bank_latch_matches_the_per_key_loop(self, fault_model, opcode,
                                                 monkeypatch):
        # a bubble cycle latches ~200 pipeline registers; the bank call
        # must leave every armed burst/stuck-at exactly as latching each
        # register in turn does
        from repro.gpu.pipeline import PipelineRegisters

        bench = make_microbenchmark(opcode, "M", seed=5)
        kwargs = dict(module="pipeline", n_faults=60, seed=2,
                      fault_model=fault_model, vectorize=False)
        banked = run_campaign(bench, **kwargs)

        def per_key_bubble(self):
            if not self.plane.pending_for(self.module):
                return
            for slot in range(self.warp_size):
                for name, _, _ in self._SLOT_REGISTERS:
                    self.plane.latch(self.module, name, 0, slot)
            for prefix in [""] + self._shadow_prefixes:
                for name, _, _ in self._CTRL_REGISTERS:
                    self.plane.latch(self.module, prefix + name, 0, -1)

        monkeypatch.setattr(PipelineRegisters, "latch_bubble",
                            per_key_bubble)
        assert run_campaign(bench, **kwargs).to_dict() == banked.to_dict()


class TestNormShiftPropagation:
    """Regression for the norm.shift dead read-back: the latched (and
    therefore faultable) shift amount must feed the barrel shifter, so a
    transient captured by norm.shift mis-normalises the FADD result."""

    def test_norm_shift_fault_corrupts_fadd_result(self):
        injector = RTLInjector()
        sm = injector.sm
        rec = GoldenTraceRecorder("fp32")
        from repro.gpu.program import ProgramBuilder
        b = ProgramBuilder("normshift")
        b.gld(2, 0, offset=0x100)
        b.gld(3, 0, offset=0x200)
        b.fadd(5, 2, 3)
        b.gst(0, 5, offset=0x300)
        b.exit()
        program = b.build()
        image = {0x100: [float_to_bits(1.5)],
                 0x200: [float_to_bits(0.25)]}
        sm.launch(program, 1, memory_image=image, recorder=rec)
        key = ("fp32", "norm.shift", 0)
        site = rec.first_latch_at_or_after(key, 0)
        assert site is not None, "FADD must latch norm.shift for lane 0"
        cycle = site[0]

        ff = next(f for f in sm.plane.flipflops("fp32")
                  if f.name == "norm.shift" and f.lane == 0)
        golden = sm.launch(program, 1, memory_image=image)
        golden_word = golden.memory.read_words(0x300, 1)[0]
        fault = TransientFault(ff, bit=1, cycle=cycle, window=1)
        faulty = sm.launch(program, 1, memory_image=image, fault=fault)
        faulty_word = faulty.memory.read_words(0x300, 1)[0]
        assert fault.fired_cycle == cycle
        assert faulty_word != golden_word, \
            "a fired norm.shift transient must mis-normalise the sum"

    def test_norm_shift_faults_reach_sdc_in_a_campaign(self):
        injector = RTLInjector()
        vec = VectorizedRTLInjector(injector)
        bench = make_microbenchmark(Opcode.FADD, "M", seed=5)
        prepared = vec.prepare(bench, "fp32")
        ffs = [f for f in injector.plane.flipflops("fp32")
               if f.name == "norm.shift"]
        assert ffs
        faults = []
        for ff in ffs:
            site = prepared.recorder.first_latch_at_or_after(ff.key, 0)
            if site is not None:
                faults.append(TransientFault(ff, bit=1, cycle=site[0],
                                             window=1))
        assert faults
        batch = vec.inject_batch(prepared, faults)
        sdc = [c for c in batch if c.outcome is Outcome.SDC]
        assert sdc, "norm.shift strikes at latch instants must yield SDCs"
        for fault, vectorized in zip(faults, batch):
            scalar = injector.inject(bench, prepared.golden, fault)
            _same_classification(scalar, vectorized)
