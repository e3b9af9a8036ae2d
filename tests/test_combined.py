"""Unit tests for the combined best-of-both method (paper Section 5)."""

import pytest

from repro.core.combined import schedule_best_of_both
from repro.core.driver import schedule_with_spilling
from repro.core.increase_ii import schedule_increasing_ii
from repro.machine import p2l4
from repro.workloads import apsi47_like, apsi50_like


class TestMethodChoice:
    def test_fitting_loop_uses_plain_schedule(self, fig2_loop, fig2_machine):
        result = schedule_best_of_both(fig2_loop, fig2_machine, available=32)
        assert result.converged
        # no spill was ever needed
        assert result.details["method"] == "increase_ii"
        assert result.details["spill_count"] == 0

    def test_spill_kept_when_plain_never_fits(self):
        # the non-convergent loop: no plain II fits 32 registers
        result = schedule_best_of_both(apsi50_like(), p2l4(), available=32)
        assert result.converged
        assert result.details["method"] == "spill"
        assert result.report.fits(32)

    def test_result_schedule_validates(self):
        result = schedule_best_of_both(apsi50_like(), p2l4(), available=32)
        result.schedule.validate()


class TestNeverWorse:
    @pytest.mark.parametrize("available", [32, 16])
    def test_combined_at_least_as_good_as_spill(self, available):
        machine = p2l4()
        for loop_factory in (apsi47_like, apsi50_like):
            loop = loop_factory()
            spill = schedule_with_spilling(loop, machine, available)
            combined = schedule_best_of_both(loop, machine, available)
            assert combined.converged == spill.converged
            if spill.converged:
                assert combined.schedule.ii <= spill.schedule.ii

    def test_combined_at_least_as_good_as_increase_ii(self):
        machine = p2l4()
        loop = apsi47_like()
        increase = schedule_increasing_ii(loop, machine, 32, patience=30)
        combined = schedule_best_of_both(loop, machine, 32)
        assert combined.converged
        if increase.converged:
            assert combined.schedule.ii <= increase.schedule.ii

    def test_combined_register_budget_respected(self):
        machine = p2l4()
        for available in (32, 16):
            result = schedule_best_of_both(apsi47_like(), machine, available)
            assert result.converged
            assert result.report.fits(available)


class TestFailurePropagation:
    def test_impossible_budget_reports_failure(self, fig2_loop, fig2_machine):
        result = schedule_best_of_both(fig2_loop, fig2_machine, available=1)
        assert not result.converged
        assert result.details["method"] == "spill"


class TestTrafficAccounting:
    def test_plain_choice_has_no_spill_traffic(self, fig2_loop, fig2_machine):
        result = schedule_best_of_both(fig2_loop, fig2_machine, available=32)
        assert result.ddg.memory_node_count() == fig2_loop.memory_node_count()

    def test_spill_choice_reports_transformed_graph(self):
        loop = apsi50_like()
        result = schedule_best_of_both(loop, p2l4(), available=32)
        assert result.details["method"] == "spill"
        assert result.ddg.memory_node_count() > loop.memory_node_count()
