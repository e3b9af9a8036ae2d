"""Complex operations that fit the machine.

A fused group whose members compete for more functional units than the
machine has at one offset fits at no II.  The spill drivers unfuse
reloads until every group fits (:func:`fit_complex_operations`), and
the II search rejects a group that does not before its first attempt.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.api import compile_loop
from repro.core.spill import fit_complex_operations
from repro.graph.ddg import DDG, Edge, EdgeKind, Node
from repro.ir.operations import Opcode
from repro.machine import p1l4, p2l4, resolve_machine
from repro.machine.mrt import ModuloReservationTable
from repro.sched import (
    HRMSScheduler,
    IMSScheduler,
    ScheduleError,
    SwingScheduler,
)
from repro.sched import cache as sched_cache
from repro.sched.base import FITS_AT_NO_II, NO_SCHEDULE
from repro.sched.groups import (
    build_units,
    try_place_unit,
    unit_fits,
    unplaceable_unit,
)
from repro.verify import verify_result
from repro.workloads import random_suite
from repro.workloads.synthetic import RandomDDGParams, random_loop_spec

SCHEDULERS = (HRMSScheduler, IMSScheduler, SwingScheduler)
DENSE = RandomDDGParams(ops=20, recurrence_density=0.4)


def two_reload_graph() -> DDG:
    """``use`` reads two spilled values: both reloads are fused to it,
    so both sit at offset 0 of one complex operation."""
    ddg = DDG("two_reloads")
    ddg.add_node(Node("ss", Opcode.SPILL_STORE))
    ddg.add_node(Node("ls1", Opcode.SPILL_LOAD))
    ddg.add_node(Node("ls2", Opcode.SPILL_LOAD))
    ddg.add_node(Node("use", Opcode.ADD, operands=["ls1", "ls2"]))
    ddg.add_edge(Edge("ss", "ls1", EdgeKind.MEM, distance=1))
    ddg.add_edge(Edge("ss", "ls2", EdgeKind.MEM, distance=2))
    for load in ("ls1", "ls2"):
        ddg.add_edge(
            Edge(load, "use", EdgeKind.REG, spillable=False, fused=True)
        )
    return ddg


def group_of(ddg: DDG, member: str, machine):
    return build_units(ddg, machine.latencies_for(ddg))[member]


def counting(scheduler_class):
    """A subclass of *scheduler_class* that counts its attempts."""

    class Counting(scheduler_class):
        attempts = 0

        def _attempt(self, ddg, machine, ii, effort):
            type(self).attempts += 1
            return super()._attempt(ddg, machine, ii, effort)

    return Counting()


# ----------------------------------------------------------------------
class TestUnitFits:
    def test_two_reloads_at_one_offset_need_two_memory_units(self):
        ddg = two_reload_graph()
        unit = group_of(ddg, "use", p1l4())
        assert unit.members == {"ls1": 0, "ls2": 0, "use": 2}
        assert not unit_fits(unit, ddg, p1l4())
        assert unit_fits(unit, ddg, p2l4())

    def test_single_reload_fits_one_memory_unit(self):
        ddg = two_reload_graph()
        ddg.remove_node("ls2")
        assert unit_fits(group_of(ddg, "use", p1l4()), ddg, p1l4())

    def test_unplaceable_unit_names_the_group(self):
        ddg = two_reload_graph()
        unit = unplaceable_unit(ddg, p1l4())
        assert str(unit) == "{ls1@0, ls2@0, use@2}"
        assert unplaceable_unit(ddg, p2l4()) is None

    def test_verdict_matches_every_ii(self):
        # the fit test is II-independent: a unit that fails it can be
        # placed at no II, one that passes is placed at its span
        ddg = two_reload_graph()
        for machine in (p1l4(), p2l4()):
            unit = group_of(ddg, "use", machine)
            verdict = unit_fits(unit, ddg, machine)
            placeable = [
                ii for ii in range(1, 12)
                if try_place_unit(
                    ModuloReservationTable(machine, ii), ddg, unit, 0
                )
            ]
            assert bool(placeable) == verdict
            if verdict:
                assert placeable == list(range(placeable[0], 12))


class TestFailFast:
    @pytest.mark.parametrize("scheduler_class", SCHEDULERS)
    def test_raises_before_any_attempt(self, scheduler_class):
        scheduler = counting(scheduler_class)
        with pytest.raises(ScheduleError) as raised:
            scheduler.schedule(two_reload_graph(), p1l4())
        assert type(scheduler).attempts == 0
        message = str(raised.value)
        assert FITS_AT_NO_II in message
        assert "{ls1@0, ls2@0, use@2}" in message
        assert NO_SCHEDULE not in message

    @pytest.mark.parametrize("scheduler_class", SCHEDULERS)
    def test_schedules_with_two_memory_units(self, scheduler_class):
        scheduler = counting(scheduler_class)
        schedule = scheduler.schedule(two_reload_graph(), p2l4())
        assert type(scheduler).attempts >= 1
        assert schedule.times["ls1"] == schedule.times["ls2"]

    def test_memo_replays_the_reason(self):
        memo = sched_cache.ScheduleMemo()
        messages = []
        for _ in range(2):
            with pytest.raises(ScheduleError) as raised:
                memo.schedule(HRMSScheduler(), two_reload_graph(), p1l4())
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert FITS_AT_NO_II in messages[0]


class TestFitComplexOperations:
    def test_unfuses_the_last_reload(self):
        ddg = two_reload_graph()
        fit_complex_operations(ddg, p1l4())
        edges = {(e.src, e.dst): e for e in ddg.edges}
        assert edges[("ls1", "use")].fused
        assert not edges[("ls2", "use")].fused
        assert not edges[("ls2", "use")].spillable
        assert unplaceable_unit(ddg, p1l4()) is None
        schedule = HRMSScheduler().schedule(ddg, p1l4())
        assert schedule.times["ls1"] != schedule.times["ls2"]

    def test_keeps_adjacency_order(self):
        ddg = two_reload_graph()
        before = [(e.src, e.dst) for e in ddg.in_edges("use")]
        fit_complex_operations(ddg, p1l4())
        assert [(e.src, e.dst) for e in ddg.in_edges("use")] == before

    def test_leaves_fitting_groups_alone(self):
        ddg = two_reload_graph()
        revision = ddg.revision
        fit_complex_operations(ddg, p2l4())
        assert ddg.revision == revision
        assert all(e.fused for e in ddg.edges if e.kind is EdgeKind.REG)


# ----------------------------------------------------------------------
# the spill drivers only build groups that fit
def every_group_fits(ddg: DDG, machine) -> bool:
    units = build_units(ddg, machine.latencies_for(ddg))
    return all(
        unit_fits(unit, ddg, machine)
        for unit in units.values() if unit.is_group
    )


@pytest.mark.parametrize("scheduler", ["hrms", "ims", "swing"])
def test_loop_116_spills_without_walking_the_window(scheduler):
    # random loop 116 of seed 12345: round 1 used to fuse two spill
    # loads at offset 0, which P1L4's one memory unit places at no II
    spec = random_loop_spec(12345, 116, DENSE)
    result = compile_loop(
        spec.source, machine="P1L4", scheduler=scheduler,
        strategy="spill", registers=4, name=spec.name,
    )
    assert NO_SCHEDULE not in result.reason
    assert FITS_AT_NO_II not in result.reason
    assert result.spilled
    assert every_group_fits(result.ddg, p1l4())
    assert verify_result(result).ok


@pytest.mark.parametrize("machine", ["P1L4", "generic:1:3"])
def test_no_spill_compile_builds_an_unplaceable_group(machine):
    suite = random_suite(size=4, seed=12345, params=DENSE)
    config = resolve_machine(machine)
    for workload in suite:
        for registers in (4, 8):
            for scheduler in ("hrms", "ims", "swing"):
                result = compile_loop(
                    workload.source, machine=machine, scheduler=scheduler,
                    strategy="spill", registers=registers,
                    name=workload.name,
                )
                combo = (workload.name, registers, scheduler)
                assert FITS_AT_NO_II not in result.reason, combo
                assert every_group_fits(result.ddg, config), combo
                assert verify_result(result).ok, combo


@pytest.mark.xfail(
    strict=True,
    reason="HRMS/Swing miss every II of a plain graph IMS schedules at"
    " II = MII (non-backtracking placement defect)",
)
@pytest.mark.parametrize("scheduler", ["hrms", "swing"])
def test_plain_graph_schedules_at_some_ii(scheduler):
    spec = random_loop_spec(12345, 44, DENSE)
    assert spec.name == "fuzz000044"
    result = compile_loop(
        spec.source, machine="P1L4", scheduler=scheduler, strategy="none",
        name=spec.name,
    )
    assert result.converged, result.reason


def test_spill_effort_does_not_depend_on_string_hashing():
    # group members are probed in (offset, name) order and IMS evicts in
    # name order, so the pinned effort counters hold under any hash seed
    program = (
        "from repro.api import compile_loop\n"
        "from repro.sched import cache\n"
        "from repro.workloads import random_suite\n"
        "w = random_suite(size=1, seed=424242)[0]\n"
        "with cache.disabled():\n"
        "    r = compile_loop(w.source, machine='P1L4', scheduler='ims',\n"
        "                     strategy='spill', registers=4, name=w.name)\n"
        "print(r.ii, r.placements, r.mrt_probes, r.alloc_probes)\n"
    )
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        outputs.add(subprocess.run(
            [sys.executable, "-c", program], env=env, check=True,
            capture_output=True, text=True,
        ).stdout)
    assert len(outputs) == 1, outputs
