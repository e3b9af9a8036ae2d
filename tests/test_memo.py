"""Tests for the one memo type of :mod:`repro.sched.cache` — the FIFO
bound, the hit/miss counting rule, the ``valid`` check that drops a
schedule whose graph was mutated, and the effort a failed II search
reports, first-hand and replayed from the memo."""

import re

import pytest

from repro.api import compile_loop
from repro.graph.builder import ddg_from_source
from repro.machine.specs import resolve_machine
from repro.sched import cache as sched_cache
from repro.sched.base import ScheduleError
from repro.sched.cache import Memo
from repro.sched.hrms import HRMSScheduler

FIG2 = "x[i] = y[i]*a + y[i-3]"


@pytest.fixture(autouse=True)
def _clean_caches():
    sched_cache.clear()
    yield
    sched_cache.clear()


class Hopeless(HRMSScheduler):
    """Probes one slot per II and never places: every search walks its
    whole window and fails."""

    name = "hopeless"

    def _attempt(self, ddg, machine, ii, effort):
        effort.placements += 1
        return None


def window_size(reason: str) -> int:
    low, high = re.search(r"II in \[(\d+), (\d+)\]", reason).groups()
    return int(high) - int(low) + 1


# ----------------------------------------------------------------------
class TestMemo:
    def test_miss_is_counted_at_lookup_then_hits(self):
        memo = Memo("mii", "mii")
        assert memo.get(("k",)) is None
        assert sched_cache.STATS.mii_misses == 1
        memo.put(("k",), 7)
        assert sched_cache.STATS.mii_misses == 1
        assert memo.get(("k",)) == 7
        assert sched_cache.STATS.mii_hits == 1

    def test_oldest_entry_is_evicted_first(self, monkeypatch):
        monkeypatch.setattr(sched_cache, "_MAX_ENTRIES", 2)
        memo = Memo("mii", "mii")
        for value in range(3):
            memo.put((value,), value)
        assert memo.get((0,)) is None
        assert memo.get((1,)) == 1
        assert memo.get((2,)) == 2

    def test_invalid_entry_counts_as_absent(self):
        memo = Memo("mii", "mii", valid=lambda value: value > 0)
        memo.put(("k",), 0)
        assert memo.get(("k",)) is None
        assert sched_cache.STATS.mii_misses == 1
        assert sched_cache.STATS.mii_hits == 0

    def test_disabled_returns_none_and_records_nothing(self):
        memo = Memo("mii", "mii")
        memo.put(("k",), 7)
        with sched_cache.disabled():
            assert memo.get(("k",)) is None
            memo.put(("other",), 8)
        assert sched_cache.STATS.mii_misses == 0
        assert sched_cache.STATS.mii_hits == 0
        assert memo.get(("other",)) is None


# ----------------------------------------------------------------------
class TestScheduleMemo:
    def test_mutated_graph_entry_is_a_counted_miss_and_recomputed(self):
        machine = resolve_machine("P2L4")
        scheduler = HRMSScheduler()
        memo = sched_cache.schedule_memo()
        scheduled = ddg_from_source(FIG2, name="fig2")
        first = memo.schedule(scheduler, scheduled, machine)
        # the caller mutates the graph it scheduled, after the search
        scheduled.add_invariant("k")
        fresh = ddg_from_source(FIG2, name="fig2")
        second = memo.schedule(scheduler, fresh, machine)
        assert sched_cache.STATS.schedule_misses == 2
        assert sched_cache.STATS.schedule_hits == 0
        assert second is not first
        assert second.ddg is fresh
        assert (second.ii, second.times) == (first.ii, first.times)
        # the recomputed entry replaces the stale one
        assert memo.schedule(scheduler, fresh, machine) is second
        assert sched_cache.STATS.schedule_hits == 1

    def test_failed_search_carries_its_effort_and_replays_it(self):
        ddg = ddg_from_source(FIG2, name="fig2")
        machine = resolve_machine("P2L4")
        errors = []
        for _ in range(2):
            with pytest.raises(ScheduleError) as raised:
                sched_cache.schedule_memo().schedule(Hopeless(), ddg, machine)
            errors.append(raised.value)
        attempts = window_size(str(errors[0]))
        assert errors[0].effort.attempts == attempts
        assert errors[0].effort.placements == attempts
        assert errors[1].effort == errors[0].effort
        assert errors[1].effort is not errors[0].effort
        assert sched_cache.STATS.schedule_hits == 1


# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["none", "spill", "prespill"])
def test_failed_search_reports_its_effort(strategy):
    results = [
        compile_loop(
            FIG2, machine="P2L4", scheduler=Hopeless(), strategy=strategy,
            registers=8,
        )
        for _ in range(2)  # the second is served by the memos
    ]
    for result in results:
        assert not result.converged
        attempts = window_size(result.reason)
        assert result.attempts == attempts
        assert result.placements == attempts
