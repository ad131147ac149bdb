"""Campaign plans and the one driver that executes them."""

import pytest

from repro.adaptive import AdaptiveConfig, execute_adaptive, run_adaptive_grid
from repro.campaign.engine import execute
from repro.errors import CampaignError
from repro.gpu.isa import Opcode
from repro.rtl.campaign import (
    plan_grid,
    plan_tmxm_grid,
    run_grid,
    run_tmxm_grid,
)


def _fixed_grid(batch_size):
    return run_grid(opcodes=[Opcode.FADD], input_ranges=("S",),
                    n_faults=0, batch_size=batch_size)


def _fixed_tmxm(batch_size):
    return run_tmxm_grid(tile_kinds=["Max"], n_faults=0,
                         batch_size=batch_size)


def _adaptive_grid(batch_size):
    return run_adaptive_grid(opcodes=[Opcode.FADD], input_ranges=("S",),
                             n_faults=0, config=AdaptiveConfig(),
                             batch_size=batch_size).reports


def _adaptive_tmxm(batch_size):
    plan = plan_tmxm_grid(tile_kinds=["Max"], n_faults=0,
                          batch_size=batch_size)
    return execute_adaptive(plan, AdaptiveConfig()).reports


class TestEmptyCells:
    """A cell with no units still gets its (empty) report."""

    @pytest.mark.parametrize("batch_size", [None, 10])
    @pytest.mark.parametrize("runner, n_cells", [
        (_fixed_grid, 3), (_fixed_tmxm, 2),
        (_adaptive_grid, 3), (_adaptive_tmxm, 2)],
        ids=["grid", "tmxm", "adaptive-grid", "adaptive-tmxm"])
    def test_one_report_per_cell(self, runner, n_cells, batch_size):
        reports = runner(batch_size)
        assert len(reports) == n_cells
        assert all(report.n_injections == 0 for report in reports)


def _small_grid(**kwargs):
    return plan_grid(opcodes=[Opcode.IADD], input_ranges=("S",),
                     n_faults=6, seed=2, batch_size=2, **kwargs)


class TestExecute:
    def test_resume_requires_a_checkpoint(self):
        with pytest.raises(CampaignError, match="checkpoint"):
            execute(_small_grid(), resume=True)

    def test_rejects_shared_state_with_parallel_workers(self):
        with pytest.raises(CampaignError, match="parallel"):
            execute(_small_grid(), n_jobs=2, state=object())

    def test_cells_take_consecutive_unit_indices(self):
        plan = _small_grid()
        assert [u.index for u in plan.units] == list(range(len(plan.units)))
        assert sum(len(cell.units) for cell in plan.cells) == len(plan.units)

    def test_shards_merge_to_the_whole_run(self):
        plan = _small_grid()
        whole = execute(plan)
        n_units = len(plan.units)
        parts = {}
        for lo in range(0, n_units, 2):
            execute(plan.shard(lo, min(lo + 2, n_units)), collect=False,
                    consume=parts.__setitem__)
        merged = [type(report).merge([parts[u.index] for u in cell.units])
                  for report, cell in zip(whole, plan.cells)]
        assert ([r.to_dict() for r in merged]
                == [r.to_dict() for r in whole])

    def test_shard_outside_the_plan_rejected(self):
        plan = _small_grid()
        with pytest.raises(CampaignError, match="outside"):
            plan.shard(0, len(plan.units) + 1)
