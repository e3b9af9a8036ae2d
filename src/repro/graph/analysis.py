"""Graph analyses used by the schedulers.

* strongly connected components (recurrences, Section 2.2);
* per-recurrence minimum initiation interval (``RecMII`` of one SCC),
  computed by binary search on II with a Bellman-Ford positive-cycle test
  over edge weights ``latency(e) - II * distance(e)``;
* ASAP/ALAP start times for a candidate II (longest paths), from which the
  ordering heuristics derive depth, height and mobility.

All functions take a ``latencies`` mapping (node name → operation latency
on the target machine) so this module stays independent of the machine
model.  Dependence-edge latency is the producer's latency for flow
dependences and one cycle for anti/output memory dependences (strict
ordering, the conservative choice for machines without same-cycle
store-to-load forwarding).

Since the compiled-analysis-core rework, the hot paths run on the
integer-indexed :class:`repro.graph.index.DDGIndex` view: longest paths
relax per-SCC in condensation topological order (O(E) per candidate II
instead of whole-graph O(V·E) Bellman-Ford), and per-SCC RecMII comes
from the index's one-shared-pass memo.  The legacy whole-graph
relaxation survives as :func:`longest_path_lengths_reference` — the
oracle the property tests compare the indexed path against.
"""

from __future__ import annotations

from repro.graph.ddg import DDG, DepKind, Edge
from repro.graph.index import get_index
from repro.telemetry import COUNTERS

#: latency charged to anti and output memory dependences.
NON_FLOW_LATENCY = 1


def edge_latency(edge: Edge, latencies: dict[str, int]) -> int:
    """Cycles that must separate ``edge.src`` and ``edge.dst`` (before
    subtracting ``II * distance``)."""
    if edge.dep is DepKind.FLOW:
        return latencies[edge.src]
    return NON_FLOW_LATENCY


# ----------------------------------------------------------------------
def strongly_connected_components(ddg: DDG) -> list[set[str]]:
    """Tarjan's algorithm (iterative, over the compiled index)."""
    index = get_index(ddg)
    return [index.scc_names(sid) for sid in range(len(index.sccs))]


def recurrence_components(ddg: DDG) -> list[set[str]]:
    """SCCs that actually contain a cycle (more than one node, or a
    self-loop).  Self-loops are precomputed flags on the index — no
    per-singleton edge scan."""
    index = get_index(ddg)
    return [index.scc_names(sid) for sid in index.cyclic_sccs]


# ----------------------------------------------------------------------
def _has_positive_cycle(
    nodes: set[str],
    edges: list[Edge],
    latencies: dict[str, int],
    ii: int,
) -> bool:
    """Bellman-Ford longest-path relaxation restricted to *nodes*; a value
    still improving after |nodes| rounds certifies a positive cycle, i.e.
    II is below this recurrence's RecMII.  (Reference path, also used for
    ad-hoc node subsets that are not SCCs of the graph.)"""
    dist = {name: 0 for name in nodes}
    local = [e for e in edges if e.src in nodes and e.dst in nodes]
    for _ in range(len(nodes)):
        changed = False
        for edge in local:
            COUNTERS.relax_visits += 1
            weight = edge_latency(edge, latencies) - ii * edge.distance
            candidate = dist[edge.src] + weight
            if candidate > dist[edge.dst]:
                dist[edge.dst] = candidate
                changed = True
        if not changed:
            return False
    return True


def _recurrence_mii_generic(
    ddg: DDG, component: set[str], latencies: dict[str, int]
) -> int:
    """Legacy per-component binary search for arbitrary node subsets."""
    edges = [e for e in ddg.edges if e.src in component and e.dst in component]
    if not edges:
        return 1
    # At II = total latency + 1 every cycle with distance >= 1 has negative
    # weight; if a positive cycle survives there, some cycle has zero total
    # distance and no II can schedule the loop.
    ceiling = sum(edge_latency(e, latencies) for e in edges) + 1
    if _has_positive_cycle(component, edges, latencies, ceiling):
        raise ValueError(
            f"zero-distance dependence cycle in {sorted(component)}; the"
            " graph is unschedulable"
        )
    low, high = 1, ceiling
    while low < high:
        mid = (low + high) // 2
        if _has_positive_cycle(component, edges, latencies, mid):
            low = mid + 1
        else:
            high = mid
    return low


def recurrence_mii_of_scc(
    ddg: DDG, component: set[str], latencies: dict[str, int]
) -> int:
    """RecMII contributed by one recurrence: the smallest II at which no
    dependence cycle through the component has positive slack demand
    (equivalently ``max over cycles ceil(sum latency / sum distance)``).

    When *component* is an SCC of *ddg* (the normal case) the answer
    comes from the index's shared per-SCC memo; arbitrary subsets fall
    back to the legacy filtered binary search.
    """
    index = get_index(ddg)
    sid = index.scc_of_component(component)
    if sid is not None:
        return index.latency_view(latencies).recmii_of(sid)
    return _recurrence_mii_generic(ddg, component, latencies)


def critical_recurrence(
    ddg: DDG, latencies: dict[str, int]
) -> tuple[set[str] | None, int]:
    """The recurrence with the largest RecMII, and that RecMII (1 if the
    graph is acyclic)."""
    index = get_index(ddg)
    view = index.latency_view(latencies)
    best: int | None = None
    best_mii = 1
    for sid, mii in view.cyclic_recmii():
        if mii > best_mii or best is None:
            best, best_mii = sid, max(best_mii, mii)
    if best is None:
        return None, best_mii
    return index.scc_names(best), best_mii


# ----------------------------------------------------------------------
def longest_path_lengths(
    ddg: DDG,
    latencies: dict[str, int],
    ii: int,
    reverse: bool = False,
) -> dict[str, int]:
    """Longest path (edge weights ``latency - II*distance``, floored at 0
    from the virtual source) from the graph's sources to each node — or to
    each node from the sinks when ``reverse``.

    Callers must pass ``ii >= RecMII`` or the relaxation may not converge;
    a ``ValueError`` is raised if it does not.

    Runs as per-SCC relaxation in condensation topological order on the
    compiled index (O(E) per call for acyclic graphs);
    :func:`longest_path_lengths_reference` is the legacy whole-graph
    equivalent.
    """
    index = get_index(ddg)
    return index.latency_view(latencies).longest_paths(ii, reverse=reverse)


def longest_path_lengths_reference(
    ddg: DDG,
    latencies: dict[str, int],
    ii: int,
    reverse: bool = False,
) -> dict[str, int]:
    """The pre-index whole-graph Bellman-Ford relaxation, kept verbatim
    as the oracle for :func:`longest_path_lengths`."""
    dist = {name: 0 for name in ddg.nodes}
    edges = ddg.edges
    for _ in range(len(ddg.nodes) + 1):
        changed = False
        for edge in edges:
            COUNTERS.relax_visits += 1
            weight = edge_latency(edge, latencies) - ii * edge.distance
            if reverse:
                src, dst = edge.dst, edge.src
            else:
                src, dst = edge.src, edge.dst
            candidate = dist[src] + weight
            if candidate > dist[dst]:
                dist[dst] = candidate
                changed = True
        if not changed:
            return dist
    raise ValueError(f"II={ii} is below RecMII; longest paths diverge")


def asap_alap(
    ddg: DDG, latencies: dict[str, int], ii: int
) -> tuple[dict[str, int], dict[str, int]]:
    """ASAP and ALAP start cycles at initiation interval *ii*.

    ALAP is normalized so the critical path has zero mobility:
    ``alap[v] = span - height[v]`` where span is the critical-path length.
    """
    view = get_index(ddg).latency_view(latencies)
    depth = view.longest_paths(ii)
    height = view.longest_paths(ii, reverse=True)
    span = max((depth[v] + height[v] for v in ddg.nodes), default=0)
    alap = {v: span - height[v] for v in ddg.nodes}
    return depth, alap
