"""Compiled lifetime core — flat-array lifetime analysis over DDG ids.

The lifetime half of the pipeline (variant lifetimes, the MaxLive
pressure pattern, rotating-file allocation) used to re-derive everything
from the name-keyed :class:`~repro.graph.ddg.DDG` on every call:
per-producer edge-list comprehensions, ``max(..., key=lambda ...)``
scans, and an O(V·II) per-cycle pressure loop.  Mirroring the PR-4
:class:`~repro.graph.index.DDGIndex` rework one layer up, this module
compiles the *latency- and schedule-independent* part of that work once
per graph content:

* :class:`LifetimeIndex` — per-producer reg-flow consumer slices in CSR
  form (consumer node ids + dependence distances, in the graph's
  ``reg_out_edges`` order so the last-consumer tie-break is preserved
  bit-for-bit), plus the precomputed spillability flags, sorted consumer
  name tuples, producer opcodes (for the no-consumer live-out latency
  rule) and per-producer maximum carried distance (the
  :func:`~repro.core.increase_ii.distance_register_floor` ingredient).
* :func:`variant_arrays` — one schedule's variant lifetimes as parallel
  ``starts``/``sched``/``dist``/``lengths`` integer lists, computed in a
  single pass over the consumer CSR.  Every consumer-edge visit counts
  into ``repro.telemetry.COUNTERS.lifetime_visits``.

A :class:`LifetimeIndex` is derived purely from graph content, so it is
cached on the :class:`DDGIndex` itself (``_lifetimes`` slot): the
revision guard and fingerprint sharing of :func:`repro.graph.index.
get_index` extend to it for free, and ``increase_ii``/``combined``
restarts at many IIs rebuild nothing.

The pure-python producers (:func:`repro.lifetimes.lifetime.
variant_lifetimes_reference` and friends) stay as property-test oracles
in the ``longest_path_lengths_reference`` style.
"""

from __future__ import annotations

from repro.graph.ddg import DDG
from repro.graph.index import DDGIndex, get_index
from repro.sched.schedule import Schedule
from repro.telemetry import COUNTERS


class LifetimeIndex:
    """Frozen per-producer reg-flow consumer arrays for one DDG content.

    ``prod[j]`` is the node id of the j-th producer (in
    ``ddg.producers()`` order); its consumers occupy the CSR slice
    ``coff[j]:coff[j+1]`` of the parallel ``cdst`` (consumer node id)
    and ``cdist`` (dependence distance) arrays, in ``reg_out_edges``
    order.  Producers with no in-loop consumer (live-out only) have an
    empty slice; their lifetime is the producer's latency, so
    ``opcodes[j]`` keeps the opcode for the machine lookup.
    """

    __slots__ = (
        "index", "prod", "coff", "cdst", "cdist",
        "spillable", "consumers", "opcodes", "maxdist",
    )

    @classmethod
    def build(cls, ddg: DDG, index: DDGIndex) -> "LifetimeIndex":
        self = cls()
        idx = index.idx
        prod: list[int] = []
        coff: list[int] = [0]
        cdst: list[int] = []
        cdist: list[int] = []
        spillable: list[bool] = []
        consumers: list[tuple[str, ...]] = []
        opcodes: list[object] = []
        maxdist: list[int] = []
        for node in ddg.producers():
            name = node.name
            prod.append(idx[name])
            edges = ddg.reg_out_edges(name)
            if edges:
                for edge in edges:
                    cdst.append(idx[edge.dst])
                    cdist.append(edge.distance)
                spillable.append(
                    not node.is_spill
                    and all(edge.spillable for edge in edges)
                )
                consumers.append(tuple(sorted(e.dst for e in edges)))
                maxdist.append(max(e.distance for e in edges))
            else:
                spillable.append(False)
                consumers.append(())
                maxdist.append(0)
            coff.append(len(cdst))
            opcodes.append(node.opcode)
        self.index = index
        self.prod = prod
        self.coff = coff
        self.cdst = cdst
        self.cdist = cdist
        self.spillable = spillable
        self.consumers = tuple(consumers)
        self.opcodes = tuple(opcodes)
        self.maxdist = maxdist
        return self


def lifetime_index(ddg: DDG) -> LifetimeIndex:
    """The compiled lifetime view of *ddg*'s current content, cached on
    (and invalidated with) its :class:`DDGIndex`."""
    index = get_index(ddg)
    li = index._lifetimes
    if li is None:
        li = LifetimeIndex.build(ddg, index)
        index._lifetimes = li
    return li


class VariantArrays:
    """One schedule's variant lifetimes as parallel integer arrays.

    Row ``j`` describes the j-th producer of the underlying
    :class:`LifetimeIndex` (names, consumer tuples and spillability live
    there); ``lengths[j] == sched[j] + dist[j]``.
    """

    __slots__ = ("li", "ii", "starts", "sched", "dist", "lengths")

    def __init__(self, li, ii, starts, sched, dist, lengths) -> None:
        self.li = li
        self.ii = ii
        self.starts = starts
        self.sched = sched
        self.dist = dist
        self.lengths = lengths


def variant_arrays(schedule: Schedule) -> VariantArrays:
    """Compute all variant lifetimes of *schedule* in one CSR pass.

    The last consumer is the first edge maximizing
    ``t(dst) + II * distance`` in ``reg_out_edges`` order — the same
    first-max tie-break as ``max(edges, key=...)`` in the reference
    path, so the sched/dist component split matches bit for bit.
    """
    li = lifetime_index(schedule.ddg)
    names = li.index.names
    times = schedule.times
    t = [times[name] for name in names]
    ii = schedule.ii
    coff, cdst, cdist = li.coff, li.cdst, li.cdist
    latency = schedule.machine.latency
    opcodes = li.opcodes
    starts: list[int] = []
    sched: list[int] = []
    dist: list[int] = []
    lengths: list[int] = []
    for j, node_id in enumerate(li.prod):
        t_prod = t[node_id]
        lo = coff[j]
        hi = coff[j + 1]
        if lo == hi:
            s = latency(opcodes[j])
            d = 0
        else:
            best_end = t[cdst[lo]] + ii * cdist[lo]
            best_d = cdist[lo]
            for k in range(lo + 1, hi):
                end = t[cdst[k]] + ii * cdist[k]
                if end > best_end:
                    best_end = end
                    best_d = cdist[k]
            d = ii * best_d
            s = best_end - d - t_prod
        starts.append(t_prod)
        sched.append(s)
        dist.append(d)
        lengths.append(s + d)
    COUNTERS.lifetime_visits += len(cdst)
    return VariantArrays(li, ii, starts, sched, dist, lengths)
