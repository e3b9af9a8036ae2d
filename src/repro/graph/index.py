"""Frozen, integer-indexed views of a DDG — the compiled analysis core.

The analysis hot path (ASAP/ALAP longest paths, per-recurrence RecMII)
used to re-derive everything from the mutable name-keyed
:class:`~repro.graph.ddg.DDG` on every candidate II: whole-graph
Bellman-Ford relaxations (O(V·E) per call) and a per-SCC edge re-filter
on every binary-search probe.  This module computes the structure *once*
per graph content and hands the algorithms flat integer arrays:

* :class:`DDGIndex` — the latency-independent topology: node-name ↔
  index maps, flat edge arrays ``(src, dst, distance, is_flow)``, CSR
  adjacency, Tarjan SCC ids, per-SCC internal/cross edge lists and the
  condensation topological order.  Immutable once built; safe to share
  between content-identical DDG instances.
* :class:`LatencyView` — the index specialized to one per-node latency
  map (one per machine): per-edge base latencies, condensation-ordered
  longest-path relaxation (O(E) per candidate II), and the one-shared-
  pass per-SCC RecMII memo that :mod:`repro.sched.mii`,
  :mod:`repro.sched.ordering` and
  :func:`repro.graph.analysis.critical_recurrence` all reuse.

Caching: an index is attached to the DDG instance keyed by its
``revision`` (every structural mutation invalidates it), and — when
caching is enabled — shared across content-identical instances through
a fingerprint-keyed memo alongside the PR-1 memos in
:mod:`repro.sched.cache`.  Latency views (and their RecMII results) are
memoized on the index itself, so one ``(fingerprint, latencies)`` pair
never re-derives anything.

Index builds and relaxation edge-visits count into
:data:`repro.telemetry.COUNTERS` (``index_builds``, ``relax_visits``),
which :class:`repro.api.CompilationResult` surfaces as effort
telemetry — a machine-independent, CI-gateable proxy for wall clock.
"""

from __future__ import annotations

from repro.graph.ddg import DDG, DepKind
from repro.telemetry import COUNTERS
from repro.trace.profile import phase


# ----------------------------------------------------------------------
class DDGIndex:
    """Latency-independent compiled topology of one DDG content.

    All arrays are parallel, indexed by node id (``0..n-1`` in the
    graph's node-insertion order) or edge id (``0..m-1`` in the graph's
    ``edges`` order, i.e. grouped by source node).  Instances are
    logically frozen: nothing mutates them after :meth:`build`.
    """

    __slots__ = (
        "names", "idx", "esrc", "edst", "edist", "eflow",
        "out_off", "in_off", "in_eid",
        "scc_id", "sccs", "scc_cyclic", "cyclic_sccs", "self_loop",
        "scc_edges", "cross_out", "cross_in", "topo_order",
        "_views", "_lifetimes",
    )

    def __init__(self) -> None:
        self._views: dict[tuple, LatencyView] = {}
        #: Slot for the :class:`repro.lifetimes.index.LifetimeIndex`
        #: derived from this topology (filled lazily by that module, so
        #: content-identical DDG instances share it like the index).
        self._lifetimes = None

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, ddg: DDG) -> "DDGIndex":
        """Compile *ddg*'s current content into a frozen index."""
        with phase("index_build"):
            return cls._build(ddg)

    @classmethod
    def _build(cls, ddg: DDG) -> "DDGIndex":
        COUNTERS.index_builds += 1
        self = cls()
        names = tuple(ddg.nodes)
        idx = {name: i for i, name in enumerate(names)}
        n = len(names)

        esrc: list[int] = []
        edst: list[int] = []
        edist: list[int] = []
        eflow: list[bool] = []
        out_off = [0] * (n + 1)
        self_loop = [False] * n
        # ddg.edges iterates the per-source adjacency in node-insertion
        # order, so edge ids come out grouped by source: the out-CSR is
        # just the group offsets.
        for i, name in enumerate(names):
            for edge in ddg.out_edges(name):
                esrc.append(i)
                dst = idx[edge.dst]
                edst.append(dst)
                edist.append(edge.distance)
                eflow.append(edge.dep is DepKind.FLOW)
                if dst == i:
                    self_loop[i] = True
            out_off[i + 1] = len(esrc)
        m = len(esrc)

        in_count = [0] * n
        for dst in edst:
            in_count[dst] += 1
        in_off = [0] * (n + 1)
        for i in range(n):
            in_off[i + 1] = in_off[i] + in_count[i]
        in_eid = [0] * m
        cursor = list(in_off[:n])
        for eid in range(m):
            dst = edst[eid]
            in_eid[cursor[dst]] = eid
            cursor[dst] += 1

        self.names = names
        self.idx = idx
        self.esrc = esrc
        self.edst = edst
        self.edist = edist
        self.eflow = eflow
        self.out_off = out_off
        self.in_off = in_off
        self.in_eid = in_eid
        self.self_loop = self_loop

        self._build_sccs()
        return self

    def _build_sccs(self) -> None:
        """Iterative Tarjan over the CSR + condensation bookkeeping."""
        n = len(self.names)
        index_of = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        sccs: list[tuple[int, ...]] = []
        scc_id = [-1] * n
        counter = 0
        out_off, edst = self.out_off, self.edst
        for root in range(n):
            if index_of[root] != -1:
                continue
            work = [(root, out_off[root])]
            index_of[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                node, pointer = work[-1]
                advanced = False
                end = out_off[node + 1]
                while pointer < end:
                    succ = edst[pointer]
                    pointer += 1
                    if index_of[succ] == -1:
                        work[-1] = (node, pointer)
                        index_of[succ] = low[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack[succ] = True
                        work.append((succ, out_off[succ]))
                        advanced = True
                        break
                    if on_stack[succ]:
                        if index_of[succ] < low[node]:
                            low[node] = index_of[succ]
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index_of[node]:
                    component: list[int] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        scc_id[member] = len(sccs)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(tuple(component))

        self.scc_id = scc_id
        self.sccs = tuple(sccs)
        self.scc_cyclic = [
            len(component) > 1 or self.self_loop[component[0]]
            for component in sccs
        ]
        self.cyclic_sccs = tuple(
            sid for sid, cyclic in enumerate(self.scc_cyclic) if cyclic
        )
        # Tarjan emits an SCC only after every SCC it can reach, so the
        # emission order is reverse-topological on the condensation.
        self.topo_order = tuple(range(len(sccs) - 1, -1, -1))

        scc_edges: list[list[int]] = [[] for _ in sccs]
        cross_out: list[list[int]] = [[] for _ in sccs]
        cross_in: list[list[int]] = [[] for _ in sccs]
        for eid in range(len(self.esrc)):
            src_scc = scc_id[self.esrc[eid]]
            dst_scc = scc_id[self.edst[eid]]
            if src_scc == dst_scc:
                scc_edges[src_scc].append(eid)
            else:
                cross_out[src_scc].append(eid)
                cross_in[dst_scc].append(eid)
        self.scc_edges = scc_edges
        self.cross_out = cross_out
        self.cross_in = cross_in

    # ------------------------------------------------------------------
    def scc_names(self, sid: int) -> set[str]:
        """The member node names of SCC *sid*."""
        return {self.names[i] for i in self.sccs[sid]}

    def scc_of_component(self, component: set[str]) -> int | None:
        """The SCC id matching *component* exactly, or ``None`` when the
        name set is not one of this graph's SCCs."""
        for name in component:
            member = self.idx.get(name)
            if member is None:
                return None
            sid = self.scc_id[member]
            break
        else:
            return None
        if len(self.sccs[sid]) != len(component):
            return None
        if all(self.names[i] in component for i in self.sccs[sid]):
            return sid
        return None

    def reachable(self, seeds: set[str], forward: bool) -> set[str]:
        """Names reachable from *seeds* (inclusive) along the CSR."""
        seen = [False] * len(self.names)
        frontier: list[int] = []
        for name in seeds:
            i = self.idx[name]
            if not seen[i]:
                seen[i] = True
                frontier.append(i)
        if forward:
            offsets, targets = self.out_off, self.edst
            eid_of = None
        else:
            offsets, targets = self.in_off, self.esrc
            eid_of = self.in_eid
        while frontier:
            node = frontier.pop()
            for slot in range(offsets[node], offsets[node + 1]):
                eid = slot if eid_of is None else eid_of[slot]
                other = targets[eid]
                if not seen[other]:
                    seen[other] = True
                    frontier.append(other)
        return {self.names[i] for i, hit in enumerate(seen) if hit}

    # ------------------------------------------------------------------
    def latency_view(self, latencies: dict[str, int]) -> "LatencyView":
        """The (memoized) :class:`LatencyView` for one latency map."""
        token = tuple(latencies[name] for name in self.names)
        view = self._views.get(token)
        if view is None:
            if len(self._views) >= 16:
                self._views.pop(next(iter(self._views)))
            view = LatencyView(self, latencies)
            self._views[token] = view
        return view


# ----------------------------------------------------------------------
class LatencyView:
    """A :class:`DDGIndex` specialized to one per-node latency map."""

    __slots__ = ("index", "elat", "_recmii")

    def __init__(self, index: DDGIndex, latencies: dict[str, int]) -> None:
        from repro.graph.analysis import NON_FLOW_LATENCY

        self.index = index
        names = index.names
        self.elat = [
            latencies[names[index.esrc[eid]]]
            if index.eflow[eid] else NON_FLOW_LATENCY
            for eid in range(len(index.esrc))
        ]
        self._recmii: dict[int, int] = {}

    # ------------------------------------------------------------------
    def longest_paths(self, ii: int, reverse: bool = False) -> dict[str, int]:
        """Longest paths (edge weight ``latency - II*distance``, floored
        at 0 from the virtual source/sink) via per-SCC Bellman-Ford in
        condensation topological order — O(E) per call on acyclic
        graphs, O(E · |largest SCC|) worst case.

        Raises ``ValueError`` when *ii* is below RecMII (some SCC's
        relaxation diverges), matching the legacy whole-graph check.
        """
        idx = self.index
        n = len(idx.names)
        dist = [0] * n
        esrc, edst, elat, edist = idx.esrc, idx.edst, self.elat, idx.edist
        visits = 0
        order = idx.topo_order if not reverse else tuple(
            reversed(idx.topo_order)
        )
        cross = idx.cross_out if not reverse else idx.cross_in
        for sid in order:
            internal = idx.scc_edges[sid]
            if internal:
                members = idx.sccs[sid]
                for _ in range(len(members) + 1):
                    changed = False
                    for eid in internal:
                        visits += 1
                        weight = elat[eid] - ii * edist[eid]
                        if reverse:
                            src, dst = edst[eid], esrc[eid]
                        else:
                            src, dst = esrc[eid], edst[eid]
                        candidate = dist[src] + weight
                        if candidate > dist[dst]:
                            dist[dst] = candidate
                            changed = True
                    if not changed:
                        break
                else:
                    COUNTERS.relax_visits += visits
                    raise ValueError(
                        f"II={ii} is below RecMII; longest paths diverge"
                    )
            for eid in cross[sid]:
                visits += 1
                weight = elat[eid] - ii * edist[eid]
                if reverse:
                    src, dst = edst[eid], esrc[eid]
                else:
                    src, dst = esrc[eid], edst[eid]
                candidate = dist[src] + weight
                if candidate > dist[dst]:
                    dist[dst] = candidate
        COUNTERS.relax_visits += visits
        names = idx.names
        return {names[i]: dist[i] for i in range(n)}

    # ------------------------------------------------------------------
    def _scc_has_positive_cycle(
        self, sid: int, ii: int, dist: list[int]
    ) -> bool:
        """Bellman-Ford positive-cycle probe over one SCC's (pre-filtered)
        internal edges.  *dist* is scratch storage; touched entries are
        reset on entry."""
        idx = self.index
        members = idx.sccs[sid]
        internal = idx.scc_edges[sid]
        for member in members:
            dist[member] = 0
        esrc, edst, elat, edist = idx.esrc, idx.edst, self.elat, idx.edist
        visits = 0
        for _ in range(len(members)):
            changed = False
            for eid in internal:
                visits += 1
                candidate = dist[esrc[eid]] + elat[eid] - ii * edist[eid]
                if candidate > dist[edst[eid]]:
                    dist[edst[eid]] = candidate
                    changed = True
            if not changed:
                COUNTERS.relax_visits += visits
                return False
        COUNTERS.relax_visits += visits
        return True

    def recmii_of(self, sid: int) -> int:
        """RecMII contributed by SCC *sid* (memoized; the edge list is
        filtered once at index-build time, not once per probe)."""
        cached = self._recmii.get(sid)
        if cached is not None:
            return cached
        idx = self.index
        internal = idx.scc_edges[sid]
        if not internal:
            self._recmii[sid] = 1
            return 1
        dist = [0] * len(idx.names)
        ceiling = sum(self.elat[eid] for eid in internal) + 1
        if self._scc_has_positive_cycle(sid, ceiling, dist):
            component = sorted(idx.scc_names(sid))
            raise ValueError(
                f"zero-distance dependence cycle in {component}; the"
                " graph is unschedulable"
            )
        low, high = 1, ceiling
        while low < high:
            mid = (low + high) // 2
            if self._scc_has_positive_cycle(sid, mid, dist):
                low = mid + 1
            else:
                high = mid
        self._recmii[sid] = low
        return low

    def cyclic_recmii(self) -> list[tuple[int, int]]:
        """One shared pass: ``(scc id, RecMII)`` for every recurrence
        SCC, in Tarjan emission order (the legacy iteration order)."""
        return [
            (sid, self.recmii_of(sid)) for sid in self.index.cyclic_sccs
        ]

    def rec_mii(self) -> int:
        """``max`` over :meth:`cyclic_recmii` (1 when acyclic)."""
        bound = 1
        for _, mii in self.cyclic_recmii():
            if mii > bound:
                bound = mii
        return bound


# ----------------------------------------------------------------------
# the index cache
_MAX_SHARED = 1024
_SHARED: dict[str, DDGIndex] = {}


def clear_cache() -> None:
    """Drop every shared (fingerprint-keyed) index.  Instance-attached
    indexes stay; they are invalidated by the graph's own revision."""
    _SHARED.clear()


def get_index(ddg: DDG) -> DDGIndex:
    """The compiled index of *ddg*'s current content.

    Attached to the instance per ``revision`` (any mutation rebuilds),
    and — while caching is enabled — shared across content-identical
    DDG instances through a fingerprint-keyed memo, so engine cells
    probing many budgets of one loop compile its topology once.
    """
    cached = getattr(ddg, "_index", None)
    if cached is not None and cached[0] == ddg.revision:
        return cached[1]
    from repro.sched.cache import caching_enabled, ddg_fingerprint

    index: DDGIndex | None = None
    fingerprint: str | None = None
    if caching_enabled():
        fingerprint = ddg_fingerprint(ddg)
        index = _SHARED.get(fingerprint)
    if index is None:
        index = DDGIndex.build(ddg)
        if fingerprint is not None:
            if len(_SHARED) >= _MAX_SHARED:
                _SHARED.pop(next(iter(_SHARED)))
            _SHARED[fingerprint] = index
    ddg._index = (ddg.revision, index)
    return index
