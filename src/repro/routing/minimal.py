"""Enumeration of true minimal (shortest) paths between switch pairs.

The in-transit buffer routing always uses minimal paths (Section 3), and
the routing table keeps at most 10 alternatives per pair (Section 4.5).
Shortest paths are enumerated over the shortest-path DAG toward the
destination: an edge ``u -> v`` is on some shortest path to ``d``
exactly when ``dist_d[v] == dist_d[u] - 1``.

Enumeration explores neighbours in ascending switch id (deterministic)
and stops at the alternative cap.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..topology.graph import NetworkGraph


def minimal_dag_successors(g: NetworkGraph,
                           dist_to_dst: List[int],
                           ) -> List[List[Tuple[int, int]]]:
    """``succ[s]``: ``(neighbour, link_id)`` pairs one hop closer to the
    destination, in ascending switch id.

    This is the adjacency of the shortest-path DAG toward the
    destination of ``dist_to_dst``.  Callers enumerating paths from many
    sources to the same destination compute it once and pass it to
    :func:`enumerate_minimal_paths` /
    :func:`enumerate_minimal_path_links`, which saves re-filtering the
    full neighbour lists at every DFS step.
    """
    return [[(nb, lid) for nb, lid in g.sorted_neighbors(s)
             if dist_to_dst[nb] == dist_to_dst[s] - 1]
            for s in range(g.num_switches)]


def enumerate_minimal_path_links(g: NetworkGraph, src: int, dst: int,
                                 dist_to_dst: List[int],
                                 max_paths: int = 10,
                                 succ: Optional[List[List[Tuple[int, int]]]]
                                 = None,
                                 ) -> List[Tuple[Tuple[int, ...],
                                                 Tuple[int, ...]]]:
    """Like :func:`enumerate_minimal_paths`, but each result is the pair
    ``(switch_path, link_ids)`` with the traversed link ids resolved
    during the walk.

    Table construction needs the link ids of every enumerated path
    anyway; resolving them here (the DFS already has them in hand from
    the adjacency) spares a per-path re-probe of the graph.
    """
    if src == dst:
        return [((src,), ())]
    if dist_to_dst[src] < 0:
        return []
    if succ is None:
        succ = minimal_dag_successors(g, dist_to_dst)
    out: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    if max_paths <= 0:
        return out
    # Iterative DFS: ``stack[i]`` iterates the successors of
    # ``path[i]``.  A recursive closure would refer to itself and leave
    # its whole working set as cyclic garbage for the collector.
    path = [src]
    lids: List[int] = []
    stack = [iter(succ[src])]
    while stack:
        for nb, lid in stack[-1]:
            if nb == dst:
                out.append((tuple(path) + (dst,), tuple(lids) + (lid,)))
                if len(out) >= max_paths:
                    return out
                continue
            path.append(nb)
            lids.append(lid)
            stack.append(iter(succ[nb]))
            break
        else:
            stack.pop()
            path.pop()
            if lids:
                lids.pop()
    return out


def enumerate_minimal_paths(g: NetworkGraph, src: int, dst: int,
                            dist_to_dst: List[int],
                            max_paths: int = 10,
                            succ: Optional[List[List[Tuple[int, int]]]]
                            = None,
                            ) -> List[Tuple[int, ...]]:
    """Up to ``max_paths`` minimal switch paths from ``src`` to ``dst``.

    ``dist_to_dst`` must be ``g.shortest_distances(dst)`` (hop counts to
    the destination); passing it in lets callers reuse one BFS per
    destination across all sources.  ``succ`` may hold the matching
    :func:`minimal_dag_successors` result to share that precomputation
    too; it is derived on the fly when omitted.
    """
    return [p for p, _lids in enumerate_minimal_path_links(
        g, src, dst, dist_to_dst, max_paths, succ)]


def count_minimal_paths(g: NetworkGraph, dst: int,
                        dist_to_dst: List[int]) -> List[int]:
    """Number of distinct minimal paths from every switch to ``dst``.

    Dynamic programming over the shortest-path DAG (exact, no cap);
    used by tests to validate the enumerator against an independent
    computation.
    """
    order = sorted(range(g.num_switches), key=lambda s: dist_to_dst[s])
    count = [0] * g.num_switches
    count[dst] = 1
    for s in order:
        if s == dst or dist_to_dst[s] < 0:
            continue
        total = 0
        for nb, _lid in g.neighbors(s):
            if dist_to_dst[nb] == dist_to_dst[s] - 1:
                total += count[nb]
        count[s] = total
    return count
