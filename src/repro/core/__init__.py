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
drivers; each returns the registry's
:class:`~repro.core.registry.StrategyOutcome` directly, so the strategy
registry only checks options and calls them.
"""

from repro.core.select import (
    SelectionPolicy,
    SpillCandidate,
    select_lifetimes,
    spill_candidates,
)
from repro.core.spill import SpillHome, apply_spill

__all__ = [
    "SelectionPolicy",
    "SpillCandidate",
    "SpillHome",
    "apply_spill",
    "select_lifetimes",
    "spill_candidates",
]
