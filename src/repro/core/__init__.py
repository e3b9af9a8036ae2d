"""Register-constrained software pipelining — the paper's contribution.

Three ways to make a modulo-scheduled loop fit in the available register
file, each reached through :func:`repro.api.compile_loop` (one facade,
one :class:`~repro.api.CompilationResult` shape, pluggable through
:mod:`repro.core.registry`):

* ``strategy="increase"`` — reschedule at ever larger IIs (Figure 1a;
  the Cydra 5 approach), with non-convergence detection
  (:mod:`repro.core.increase_ii`);
* ``strategy="spill"`` — the paper's iterative spilling driver
  (Figure 1b) with the Max(LT) / Max(LT/Traf) selection heuristics and
  the multiple-lifetimes and last-II-tried accelerations
  (:mod:`repro.core.driver`);
* ``strategy="combined"`` — the combined method sketched in Section 5:
  spill first, then binary-search plain schedules below the spill II
  and keep the better loop (:mod:`repro.core.combined`).

``strategy="prespill"`` is the pre-scheduling spill baseline
(:mod:`repro.core.prespill`).  The submodules keep the per-method
implementations and their result dataclasses, which the strategy
registry wraps.
"""

from repro.core.select import (
    SelectionPolicy,
    SpillCandidate,
    select_lifetimes,
    spill_candidates,
)
from repro.core.spill import SpillHome, apply_spill
from repro.core.increase_ii import IncreaseIIResult
from repro.core.driver import SpillResult
from repro.core.combined import CombinedResult
from repro.core.prespill import PreSpillResult

__all__ = [
    "CombinedResult",
    "IncreaseIIResult",
    "PreSpillResult",
    "SelectionPolicy",
    "SpillCandidate",
    "SpillHome",
    "SpillResult",
    "apply_spill",
    "select_lifetimes",
    "spill_candidates",
]
