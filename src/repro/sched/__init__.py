"""Modulo schedulers.

``HRMS`` (hypernode-reduction modulo scheduling) is the paper's core
scheduler: register-sensitive, fast, no backtracking.  ``IMS`` (Rau's
iterative modulo scheduling) is provided as the register-insensitive
baseline, and ``Swing`` as the lifetime-weighted variant this line of work
led to.  All three understand the "complex operation" groups created by
the spiller (fused placement at fixed offsets, paper Section 4.3) so the
register-constrained drivers in :mod:`repro.core` can run on top of any of
them — the paper's claim that its method is scheduler-agnostic.
"""

from repro.sched.base import Effort, ModuloScheduler, ScheduleError
from repro.sched.cache import (
    ScheduleMemo,
    cached_mii,
    ddg_fingerprint,
    machine_key,
    schedule_memo,
    spill_memo,
)
from repro.sched import registry, store
from repro.sched.mii import compute_mii, rec_mii, res_mii
from repro.sched.schedule import Schedule
from repro.sched.hrms import HRMSScheduler
from repro.sched.ims import IMSScheduler
from repro.sched.swing import SwingScheduler
from repro.sched.stage_schedule import StageScheduleResult, reduce_stages

__all__ = [
    "Effort",
    "HRMSScheduler",
    "IMSScheduler",
    "ModuloScheduler",
    "Schedule",
    "ScheduleError",
    "ScheduleMemo",
    "StageScheduleResult",
    "SwingScheduler",
    "cached_mii",
    "compute_mii",
    "ddg_fingerprint",
    "machine_key",
    "rec_mii",
    "reduce_stages",
    "registry",
    "res_mii",
    "schedule_memo",
    "spill_memo",
    "store",
]
