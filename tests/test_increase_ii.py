"""Unit tests for the II-increase driver (paper Section 3)."""

import pytest

from repro.core.increase_ii import schedule_increasing_ii
from repro.core.increase_ii import distance_register_floor
from repro.graph import ddg_from_source
from repro.machine import generic_machine, p2l4
from repro.sched import compute_mii
from repro.workloads import apsi47_like, apsi50_like


class TestConvergence:
    def test_already_fitting_loop_converges_at_mii(
        self, fig2_loop, fig2_machine
    ):
        result = schedule_increasing_ii(fig2_loop, fig2_machine, available=64)
        assert result.converged
        assert result.schedule.ii == compute_mii(fig2_loop, fig2_machine) == 1
        assert result.trace == ({"ii": 1, "registers": result.report.total},)

    def test_needy_loop_converges_at_larger_ii(
        self, fig2_loop, fig2_machine
    ):
        result = schedule_increasing_ii(fig2_loop, fig2_machine, available=8)
        assert result.converged
        assert result.schedule.ii > compute_mii(fig2_loop, fig2_machine)
        assert result.report.fits(8)

    def test_trail_records_every_attempt(self, fig2_loop, fig2_machine):
        result = schedule_increasing_ii(fig2_loop, fig2_machine, available=7)
        iis = [row["ii"] for row in result.trace]
        assert iis == sorted(iis)
        assert iis[0] == compute_mii(fig2_loop, fig2_machine)

    def test_schedule_is_valid(self, fig2_loop, fig2_machine):
        result = schedule_increasing_ii(fig2_loop, fig2_machine, available=8)
        result.schedule.validate()


class TestNonConvergence:
    def test_analytic_certificate(self):
        loop = apsi50_like()
        floor = distance_register_floor(loop)
        assert floor > 32  # by construction
        result = schedule_increasing_ii(loop, p2l4(), available=32)
        assert not result.converged
        assert "floor" in result.reason
        assert result.trace == ()  # certificate fires before scheduling

    def test_plateau_detection_without_certificate(self):
        loop = apsi50_like()
        result = schedule_increasing_ii(
            loop, p2l4(), available=32, stop_on_certificate=False,
            patience=6,
        )
        assert not result.converged
        assert "plateau" in result.reason
        assert len(result.trace) > 6
        # best-effort schedule is reported even on failure
        assert result.schedule is not None
        assert result.report.total > 32

    def test_invariant_floor(self, fig2_machine):
        # 5 invariants can never fit in 4 registers, whatever the II.
        ddg = ddg_from_source(
            "z[i] = c0 + c1*x[i] + c2*x[i]*x[i] + c3*sqrt(x[i]) + c4/x[i]"
        )
        result = schedule_increasing_ii(ddg, fig2_machine, available=4)
        assert not result.converged
        assert "floor" in result.reason

    def test_max_ii_exhaustion(self, fig2_loop):
        machine = generic_machine(units=4, latency=2)
        result = schedule_increasing_ii(
            fig2_loop, machine, available=3, max_ii=4, patience=50
        )
        assert not result.converged


class TestFloorComputation:
    def test_fig2_floor(self, fig2_loop):
        # delta=3 on the load's farthest consumer + 1 invariant.
        assert distance_register_floor(fig2_loop) == 4

    def test_acyclic_no_carried_floor(self):
        ddg = ddg_from_source("z[i] = x[i] + y[i]")
        assert distance_register_floor(ddg) == 0

    def test_monotone_in_distance(self):
        near = ddg_from_source("z[i] = x[i] + x[i-2]")
        far = ddg_from_source("z[i] = x[i] + x[i-9]")
        assert distance_register_floor(far) > distance_register_floor(near)


class TestPaperShape:
    def test_apsi47_converges_slowly(self):
        """Paper Figure 4a: the convergent loop reaches 32 registers near
        its MII but needs a much larger II for 16."""
        loop = apsi47_like()
        machine = p2l4()
        at32 = schedule_increasing_ii(loop, machine, available=32)
        at16 = schedule_increasing_ii(
            loop, machine, available=16, patience=30
        )
        assert at32.converged and at16.converged
        assert at16.schedule.ii > at32.schedule.ii
        assert at16.schedule.ii >= 2 * compute_mii(loop, machine)
