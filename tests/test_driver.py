"""Unit tests for the iterative spilling driver (paper Figure 1b)."""

import pytest

from repro.core import SelectionPolicy
from repro.core.driver import schedule_with_spilling
from repro.graph import ddg_from_source
from repro.lifetimes import register_requirements
from repro.machine import generic_machine, p2l4
from repro.sched import IMSScheduler
from repro.workloads import NAMED_KERNELS, apsi47_like, apsi50_like


class TestBasicOperation:
    def test_fitting_loop_needs_no_spill(self, fig2_loop, fig2_machine):
        result = schedule_with_spilling(fig2_loop, fig2_machine, available=32)
        assert result.converged
        assert result.spilled == ()
        assert result.details["rounds"] == 1

    def test_fig2_spills_v1(self, fig2_loop, fig2_machine):
        result = schedule_with_spilling(fig2_loop, fig2_machine, available=6)
        assert result.converged
        assert result.spilled == ("Ld_y",)
        assert result.schedule.ii == 2  # paper Figure 6
        assert result.report.fits(6)

    def test_original_graph_untouched(self, fig2_loop, fig2_machine):
        before = len(fig2_loop.nodes)
        schedule_with_spilling(fig2_loop, fig2_machine, available=6)
        assert len(fig2_loop.nodes) == before

    def test_result_schedule_validates(self, fig2_loop, fig2_machine):
        result = schedule_with_spilling(fig2_loop, fig2_machine, available=6)
        result.schedule.validate()
        result.ddg.validate()

    def test_rounds_recorded(self, fig2_loop, fig2_machine):
        result = schedule_with_spilling(fig2_loop, fig2_machine, available=6)
        assert len(result.trace) == 2
        assert result.trace[0]["spilled"] == ["Ld_y"]
        assert result.trace[1]["spilled"] == []

    def test_memory_ops_grow(self, fig2_loop, fig2_machine):
        result = schedule_with_spilling(fig2_loop, fig2_machine, available=6)
        assert result.trace[-1]["memory_ops"] > result.trace[0]["memory_ops"]


class TestConvergenceOnHardLoops:
    @pytest.mark.parametrize("available", [32, 16])
    def test_apsi50_converges_by_spilling(self, available):
        """The paper's central claim: the loop II-increase cannot handle is
        handled by spilling."""
        result = schedule_with_spilling(apsi50_like(), p2l4(), available)
        assert result.converged
        assert result.report.fits(available)
        result.schedule.validate()

    def test_apsi47_converges(self):
        result = schedule_with_spilling(apsi47_like(), p2l4(), 32)
        assert result.converged
        result.schedule.validate()

    def test_tiny_register_file_reports_failure_gracefully(
        self, fig2_loop, fig2_machine
    ):
        result = schedule_with_spilling(fig2_loop, fig2_machine, available=1)
        assert not result.converged
        assert result.reason
        assert result.schedule is not None  # best effort retained


class TestAccelerations:
    def test_multiple_reduces_reschedules(self):
        loop = apsi50_like()
        machine = p2l4()
        single = schedule_with_spilling(
            loop, machine, 16, multiple=False, last_ii=False
        )
        batched = schedule_with_spilling(
            loop, machine, 16, multiple=True, last_ii=False
        )
        assert batched.details["rounds"] <= single.details["rounds"]
        assert batched.converged and single.converged

    def test_last_ii_never_lowers_final_ii_much(self):
        loop = apsi50_like()
        machine = p2l4()
        plain = schedule_with_spilling(loop, machine, 16, last_ii=False)
        pruned = schedule_with_spilling(loop, machine, 16, last_ii=True)
        assert pruned.converged
        # pruning skips IIs below the previous round's II, so the final II
        # can only be >= the unpruned one
        assert pruned.schedule.ii >= plain.schedule.ii
        # ... at a big saving in scheduling attempts for multi-round runs
        if plain.details["rounds"] > 1:
            assert pruned.effort.attempts <= plain.effort.attempts

    def test_policy_plumbs_through(self, fig2_loop, fig2_machine):
        for policy in SelectionPolicy:
            result = schedule_with_spilling(
                fig2_loop, fig2_machine, 6, policy=policy
            )
            assert result.converged


class TestSchedulerAgnosticism:
    def test_driver_with_ims(self, fig2_loop, fig2_machine):
        result = schedule_with_spilling(
            fig2_loop, fig2_machine, 6, scheduler=IMSScheduler()
        )
        assert result.converged
        result.schedule.validate()

    def test_kernels_spill_down_to_small_files(self):
        machine = p2l4()
        for kernel in ("fir8", "stencil5", "pressure_update"):
            ddg = ddg_from_source(NAMED_KERNELS[kernel], name=kernel)
            result = schedule_with_spilling(ddg, machine, available=12)
            assert result.converged, kernel
            assert register_requirements(result.schedule).fits(12)


class TestMIICaching:
    def test_mii_computed_at_most_once_per_graph_mutation(self, monkeypatch):
        """The spilling driver asks for the MII several times per round
        (round record, last-II restart, II search start); the cache must
        collapse those to one real computation per graph content."""
        from repro.sched import cache as sched_cache

        fingerprints = []
        real = sched_cache.compute_mii

        def counting(ddg, machine):
            fingerprints.append(sched_cache.ddg_fingerprint(ddg))
            return real(ddg, machine)

        monkeypatch.setattr(sched_cache, "compute_mii", counting)
        sched_cache.clear()
        loop = ddg_from_source("x[i] = y[i]*a + y[i-3]")
        result = schedule_with_spilling(
            loop, generic_machine(4, 2), available=6
        )
        assert result.converged
        assert len(result.trace) >= 2
        assert fingerprints, "MII must have been computed"
        assert len(fingerprints) == len(set(fingerprints)), (
            "MII recomputed for unchanged graph content"
        )

    def test_identical_graphs_share_mii_cache_entries(self, monkeypatch):
        from repro.sched import cache as sched_cache

        calls = []
        real = sched_cache.compute_mii

        def counting(ddg, machine):
            calls.append(ddg.name)
            return real(ddg, machine)

        monkeypatch.setattr(sched_cache, "compute_mii", counting)
        sched_cache.clear()
        machine = generic_machine(4, 2)
        sched_cache.cached_mii(ddg_from_source("z[i] = x[i] + y[i]"), machine)
        assert len(calls) == 1
        # a fresh, content-identical graph hits the cache
        sched_cache.cached_mii(ddg_from_source("z[i] = x[i] + y[i]"), machine)
        assert len(calls) == 1
        assert sched_cache.STATS.mii_hits >= 1


class TestLastIIRestart:
    """Section 4.5: each round restarts at max(new MII, previous II) —
    spill code's memory edges lengthen dependence cycles, so the MII can
    rise *above* the II just scheduled."""

    def _run(self):
        # On a 2-unit latency-3 generic machine this reduction chain
        # spills lifetimes on the recurrence, raising RecMII round over
        # round (6 -> 9 -> 12 ...).
        loop = ddg_from_source("s = s + A0[i]*A1[i]\nt = c0*t + s")
        return schedule_with_spilling(
            loop, generic_machine(2, 3), available=3, multiple=False
        )

    def test_spilling_raises_mii_above_previous_ii(self):
        result = self._run()
        trajectory = [(r["ii"], r["mii"]) for r in result.trace]
        assert any(
            later_mii > earlier_ii
            for (earlier_ii, _), (_, later_mii) in zip(
                trajectory, trajectory[1:]
            )
        ), trajectory

    def test_rounds_never_schedule_below_their_mii(self):
        result = self._run()
        for entry in result.trace:
            assert entry["ii"] >= entry["mii"]

    def test_restart_is_monotone_in_previous_ii(self):
        result = self._run()
        iis = [r["ii"] for r in result.trace]
        assert iis == sorted(iis)


class TestEstimateMode:
    def test_inexact_mode_runs(self, fig2_loop, fig2_machine):
        result = schedule_with_spilling(
            fig2_loop, fig2_machine, 6, exact=False
        )
        assert result.converged
        assert not result.report.exact
