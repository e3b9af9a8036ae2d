"""Unit tests for the pre-scheduling spill baseline (paper reference [30])."""

import pytest

from repro.api import compile_loop
from repro.core.driver import schedule_with_spilling
from repro.core.prespill import (
    estimated_pressure,
    schedule_with_prescheduling_spill,
    static_lifetimes,
)
from repro.machine import p2l4
from repro.sched import compute_mii
from repro.workloads import apsi47_like, apsi50_like


class TestStaticEstimates:
    def test_static_lifetimes_cover_all_producers(self, fig2_loop):
        machine = p2l4()
        estimates = static_lifetimes(fig2_loop, machine, ii=2)
        names = {lt.value for lt in estimates}
        assert "Ld_y" in names
        assert "a" in names  # invariants included

    def test_distance_component_scales_with_ii(self, fig2_loop):
        machine = p2l4()
        at2 = {lt.value: lt for lt in static_lifetimes(fig2_loop, machine, 2)}
        at4 = {lt.value: lt for lt in static_lifetimes(fig2_loop, machine, 4)}
        assert at4["Ld_y"].dist_component == 2 * at2["Ld_y"].dist_component

    def test_estimated_pressure_positive(self, fig2_loop):
        machine = p2l4()
        assert estimated_pressure(fig2_loop, machine, 2) > 0


class TestMIIPreservation:
    """The defining rule of [30]: spilling must not increase the II."""

    @pytest.mark.parametrize("loop_factory", [apsi47_like, apsi50_like])
    def test_mii_never_raised(self, loop_factory):
        loop = loop_factory()
        machine = p2l4()
        base_mii = compute_mii(loop, machine)
        result = schedule_with_prescheduling_spill(loop, machine, 16)
        assert result.details["base_mii"] == base_mii
        assert compute_mii(result.ddg, machine) <= base_mii

    def test_schedule_valid(self):
        result = schedule_with_prescheduling_spill(apsi50_like(), p2l4(), 32)
        assert result.schedule is not None
        result.schedule.validate()


class TestBaselineLimitations:
    """The comparison the paper implies: single-pass pre-spilling cannot
    reach small register files on the hard loops, the iterative driver
    can."""

    def test_apsi50_fails_32_where_iterative_succeeds(self):
        loop = apsi50_like()
        machine = p2l4()
        pre = schedule_with_prescheduling_spill(loop, machine, 32)
        iterative = schedule_with_spilling(loop, machine, 32)
        assert not pre.converged
        assert iterative.converged

    def test_easy_budget_still_works(self, fig2_loop, fig2_machine):
        result = schedule_with_prescheduling_spill(
            fig2_loop, fig2_machine, available=32
        )
        assert result.converged
        assert result.spilled == ()

    def test_keeps_best_effort_graph(self):
        result = schedule_with_prescheduling_spill(apsi50_like(), p2l4(), 8)
        assert result.ddg is not None
        assert result.report is not None
        assert result.reason


class TestEffortReporting:
    def test_compile_reports_the_single_pass_search_effort(self):
        """The one scheduling pass's search effort reaches the facade
        (it used to be dropped, reporting 0 attempts and 0 placements)."""
        result = compile_loop(
            apsi50_like(), "P2L4", strategy="prespill", registers=32,
        )
        assert result.ii == 6
        assert result.attempts == result.schedule.effort_attempts >= 1
        assert result.placements == result.schedule.effort_placements > 0
