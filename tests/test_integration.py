"""Cross-module integration tests: the full pipeline (parse -> DDG ->
register-constrained schedule -> allocation -> codegen) over a suite
sample, for every scheduler and the paper's register budgets."""

import pytest

from repro.codegen import emit_loop
from repro.core.combined import schedule_best_of_both
from repro.core.driver import schedule_with_spilling
from repro.core.increase_ii import schedule_increasing_ii
from repro.lifetimes import allocate_registers, register_requirements
from repro.machine import p1l4, p2l4, p2l6
from repro.sched import HRMSScheduler
from repro.workloads import perfect_club_like_suite


@pytest.fixture(scope="module")
def sample():
    return perfect_club_like_suite(size=20)


class TestFullPipeline:
    def test_spill_pipeline_on_sample(self, sample):
        machine = p2l4()
        for workload in sample:
            result = schedule_with_spilling(workload.ddg, machine, 32)
            assert result.converged, workload.name
            result.schedule.validate()
            report = register_requirements(result.schedule)
            assert report.fits(32), workload.name

    def test_combined_pipeline_on_sample(self, sample):
        machine = p2l6()
        for workload in sample:
            result = schedule_best_of_both(workload.ddg, machine, 32)
            assert result.converged, workload.name
            assert result.report.fits(32), workload.name

    def test_codegen_on_constrained_schedules(self, sample):
        machine = p1l4()
        for workload in sample[:8]:
            result = schedule_with_spilling(workload.ddg, machine, 32)
            assert result.converged
            code = emit_loop(result.schedule)
            assert len(code.kernel) == result.final_ii
            mnemonics = [m for row in code.kernel for m in row]
            assert len(mnemonics) == len(result.schedule.times)

    def test_allocation_on_constrained_schedules(self, sample):
        machine = p2l4()
        for workload in sample[:10]:
            result = schedule_with_spilling(workload.ddg, machine, 32)
            allocation = allocate_registers(result.schedule)
            assert allocation.registers + len(
                result.ddg.invariants
            ) <= 32, workload.name


class TestCrossSchedulerConsistency:
    def test_all_schedulers_spill_to_budget(self, sample, any_scheduler):
        machine = p2l4()
        for workload in sample[:6]:
            result = schedule_with_spilling(
                workload.ddg, machine, 32, scheduler=any_scheduler
            )
            assert result.converged, (workload.name, any_scheduler.name)
            result.schedule.validate()


class TestBudgetMonotonicity:
    def test_smaller_budget_never_faster(self, sample):
        """Tighter register files can only cost cycles."""
        machine = p2l4()
        for workload in sample[:10]:
            generous = schedule_with_spilling(workload.ddg, machine, 64)
            tight = schedule_with_spilling(workload.ddg, machine, 16)
            if generous.converged and tight.converged:
                assert tight.final_ii >= generous.final_ii, workload.name

    def test_increase_ii_vs_spill_on_sample(self, sample):
        """Where both converge, the spill schedule is never worse than the
        II-increase schedule by more than the paper-observed margin (a few
        loops can favour II increase)."""
        machine = p2l4()
        better = worse = 0
        for workload in sample:
            plain = HRMSScheduler().schedule(workload.ddg, machine)
            if register_requirements(plain).fits(32):
                continue
            inc = schedule_increasing_ii(workload.ddg, machine, 32)
            spill = schedule_with_spilling(workload.ddg, machine, 32)
            if not (inc.converged and spill.converged):
                continue
            if spill.final_ii <= inc.final_ii:
                better += 1
            else:
                worse += 1
        assert better >= worse
