"""Property-based tests on the register-constrained drivers: for random
loops and random budgets, the drivers must terminate with consistent,
verifiable outcomes."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.combined import schedule_best_of_both
from repro.core.driver import schedule_with_spilling
from repro.core.increase_ii import schedule_increasing_ii
from repro.graph import ddg_from_source
from repro.lifetimes import register_requirements
from repro.machine import p2l4
from repro.sched import compute_mii
from repro.workloads.synthetic import generate_loop_spec

loop_sources = st.builds(
    lambda seed, index: generate_loop_spec(random.Random(seed), index).source,
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=0, max_value=30),
)

budgets = st.sampled_from([16, 24, 32, 64])


@settings(max_examples=25, deadline=None)
@given(source=loop_sources, budget=budgets)
def test_spill_driver_contract(source, budget):
    """Converged => the schedule validates, fits the budget, and runs on
    the transformed graph; not converged => a reason is given."""
    ddg = ddg_from_source(source)
    machine = p2l4()
    result = schedule_with_spilling(ddg, machine, budget, max_rounds=60)
    if result.converged:
        result.schedule.validate()
        assert result.schedule.ddg is result.ddg
        assert register_requirements(result.schedule).fits(budget)
        assert result.trace[-1]["registers"] <= budget
    else:
        assert result.reason
    # spill code only ever adds memory operations
    assert result.ddg.memory_node_count() >= ddg.memory_node_count()
    # the input graph is never mutated
    ddg.validate()


@settings(max_examples=20, deadline=None)
@given(source=loop_sources, budget=budgets)
def test_increase_ii_contract(source, budget):
    ddg = ddg_from_source(source)
    machine = p2l4()
    result = schedule_increasing_ii(ddg, machine, budget)
    if result.converged:
        result.schedule.validate()
        assert result.report.fits(budget)
        assert result.schedule.ii >= compute_mii(ddg, machine)
        # the trace ends at the converged point
        assert result.trace[-1] == {
            "ii": result.schedule.ii, "registers": result.report.total,
        }
    iis = [row["ii"] for row in result.trace]
    assert iis == sorted(iis)


@settings(max_examples=15, deadline=None)
@given(source=loop_sources, budget=budgets)
def test_combined_never_worse_than_spill(source, budget):
    ddg = ddg_from_source(source)
    machine = p2l4()
    spill = schedule_with_spilling(ddg, machine, budget, max_rounds=60)
    combined = schedule_best_of_both(ddg, machine, budget)
    assert combined.converged == spill.converged
    if spill.converged:
        assert combined.schedule.ii <= spill.schedule.ii
        assert combined.report.fits(budget)


@settings(max_examples=20, deadline=None)
@given(source=loop_sources)
def test_budget_monotonicity(source):
    """A bigger register file never yields a slower loop."""
    ddg = ddg_from_source(source)
    machine = p2l4()
    tight = schedule_with_spilling(ddg, machine, 16, max_rounds=60)
    loose = schedule_with_spilling(ddg, machine, 64, max_rounds=60)
    if tight.converged and loose.converged:
        assert loose.schedule.ii <= tight.schedule.ii
        assert loose.ddg.memory_node_count() <= tight.ddg.memory_node_count()
