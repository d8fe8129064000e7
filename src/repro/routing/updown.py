"""Up*/down* link orientation and legal-path machinery (Autonet rules).

After the BFS spanning tree fixes switch levels, every link (tree or
not) gets an "up" end:

1. the end whose switch is **closer to the root** (smaller BFS level);
2. the end whose switch has the **lower id** when both ends are at the
   same level.

A route is *legal* when it never traverses an "up" link after a "down"
link.  This module provides:

* :class:`UpDownOrientation` -- the orientation plus legality predicates;
* :func:`legal_shortest_distances` -- single-source shortest *legal*
  distances via BFS on the (switch, phase) layered graph;
* :func:`enumerate_legal_paths` -- bounded enumeration of simple legal
  paths, used by the ``simple_routes`` reimplementation;
* :func:`_tight_legal_moves` -- the shortest-legal-path DAG toward one
  destination, which ``simple_routes`` walks under ``prefer_minimal``.

The layered graph has a node per (switch, phase) with phase ``UP`` (no
down-link taken yet; may still go up or down) or ``DOWN`` (a down-link
has been taken; only down-links are allowed from here on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..topology.graph import NetworkGraph
from .spanning_tree import SpanningTree, build_spanning_tree

#: phases of the layered legality graph
UP, DOWN = 0, 1

#: one legal hop: ``(neighbour, phase after the hop, link id)``
_Move = Tuple[int, int, int]


@dataclass(frozen=True)
class UpDownOrientation:
    """Link orientation derived from a spanning tree.

    ``up_end[lid]`` is the switch id of the "up" end of link ``lid``.
    """

    tree: SpanningTree
    up_end: Tuple[int, ...]

    def is_up(self, frm: int, to: int, link_id: int) -> bool:
        """True when traversing ``link_id`` from ``frm`` to ``to`` moves
        in the "up" direction (toward the up end)."""
        del frm  # direction is fully determined by the target end
        return self.up_end[link_id] == to

    def path_is_legal(self, g: NetworkGraph, path: Sequence[int]) -> bool:
        """Check the up*/down* rule for a switch sequence.

        Raises :class:`ValueError` if consecutive switches are unlinked.
        """
        gone_down = False
        for a, b in zip(path, path[1:]):
            lid = g.link_between(a, b)
            if lid is None:
                raise ValueError(f"switches {a} and {b} are not linked")
            if self.is_up(a, b, lid):
                if gone_down:
                    return False
            else:
                gone_down = True
        return True


def orient_links(g: NetworkGraph, root: int = 0,
                 tree: Optional[SpanningTree] = None) -> UpDownOrientation:
    """Assign the "up" end of every link per the Autonet rules."""
    if tree is None:
        tree = build_spanning_tree(g, root)
    up_end: List[int] = []
    for link in g.links:
        la, lb = tree.level[link.a], tree.level[link.b]
        if la < lb:
            up_end.append(link.a)
        elif lb < la:
            up_end.append(link.b)
        else:
            up_end.append(min(link.a, link.b))
    return UpDownOrientation(tree, tuple(up_end))


def legal_shortest_distances(g: NetworkGraph, ud: UpDownOrientation,
                             source: int) -> List[int]:
    """Shortest legal up*/down* distance from ``source`` to every switch.

    BFS over the layered (switch, phase) graph; the distance to a switch
    is the minimum over both phases.  All switches are reachable (the
    spanning tree itself is legal), so no -1 sentinel is needed.
    """
    INF = g.num_switches * 2 + 1
    dist = [[INF, INF] for _ in range(g.num_switches)]
    dist[source][UP] = 0
    frontier: List[Tuple[int, int]] = [(source, UP)]
    while frontier:
        nxt: List[Tuple[int, int]] = []
        for s, phase in frontier:
            d = dist[s][phase] + 1
            for nb, lid in g.neighbors(s):
                if ud.is_up(s, nb, lid):
                    if phase == UP and d < dist[nb][UP]:
                        dist[nb][UP] = d
                        nxt.append((nb, UP))
                else:
                    if d < dist[nb][DOWN]:
                        dist[nb][DOWN] = d
                        nxt.append((nb, DOWN))
        frontier = nxt
    return [min(d_up, d_down) for d_up, d_down in dist]


def legal_distances_to(g: NetworkGraph, ud: UpDownOrientation,
                       dest: int) -> List[List[int]]:
    """Per (switch, phase) minimum legal hops *to* ``dest``.

    ``result[s][phase]`` is the shortest legal continuation from switch
    ``s`` when the path so far ends in phase ``phase``; used as an
    admissible pruning heuristic by :func:`enumerate_legal_paths`.
    Unreachable states hold a large sentinel (>= 2 * num_switches).
    """
    INF = g.num_switches * 2 + 1
    dist = [[INF, INF] for _ in range(g.num_switches)]
    dist[dest][UP] = 0
    dist[dest][DOWN] = 0
    # Backward BFS: edge (s, p) -> (nb, p') in the forward graph becomes
    # (nb, p') -> (s, p) here.  Enumerate forward edges from every state
    # and relax their sources from their targets.
    frontier: List[Tuple[int, int]] = [(dest, UP), (dest, DOWN)]
    while frontier:
        nxt: List[Tuple[int, int]] = []
        for t, tphase in frontier:
            d = dist[t][tphase] + 1
            # forward edges into (t, tphase): from (s, UP) via an up link
            # (tphase must be UP), or from (s, UP/DOWN) via a down link
            # (tphase must be DOWN).
            for s, lid in g.neighbors(t):
                if ud.is_up(s, t, lid):
                    if tphase == UP and d < dist[s][UP]:
                        dist[s][UP] = d
                        nxt.append((s, UP))
                else:
                    if tphase == DOWN:
                        for sphase in (UP, DOWN):
                            if d < dist[s][sphase]:
                                dist[s][sphase] = d
                                nxt.append((s, sphase))
        frontier = nxt
    return dist


def _legal_moves(g: NetworkGraph, ud: UpDownOrientation
                 ) -> List[Tuple[List[_Move], List[_Move]]]:
    """``moves[s][phase]``: the legal hops out of ``(s, phase)``,
    ascending by neighbour id (from ``DOWN`` only the down hops) -- the
    orientation resolved once instead of per DFS edge."""
    moves: List[Tuple[List[_Move], List[_Move]]] = []
    for s in g.switches():
        from_up = [(nb, UP if ud.is_up(s, nb, lid) else DOWN, lid)
                   for nb, lid in g.sorted_neighbors(s)]
        moves.append((from_up, [m for m in from_up if m[1] == DOWN]))
    return moves


def _tight_legal_moves(moves: Sequence[Tuple[List[_Move], List[_Move]]],
                       h: Sequence[Sequence[int]]
                       ) -> List[Tuple[Sequence[_Move], Sequence[_Move]]]:
    """``tight[s][phase]``: the moves out of ``(s, phase)`` that start a
    shortest legal continuation to the destination of ``h =
    legal_distances_to(g, ud, dst)`` -- those with ``h[nb][nphase] ==
    h[s][phase] - 1`` -- in :func:`_legal_moves` order.

    This is the shortest-legal-path DAG over (switch, phase).  Distances
    fall by one per hop, so no path on it revisits a switch: a switch
    reached in phase ``UP`` has ``h[s][UP] <= h[s][DOWN]``, and no
    legal path returns to ``UP``.
    """
    tight: List[Tuple[Sequence[_Move], Sequence[_Move]]] = []
    for s, (from_up, from_down) in enumerate(moves):
        up_next, down_next = h[s][UP] - 1, h[s][DOWN] - 1
        tight.append(
            ([m for m in from_up if h[m[0]][m[1]] == up_next] or (),
             [m for m in from_down if h[m[0]][m[1]] == down_next] or ()))
    return tight


def enumerate_legal_paths(g: NetworkGraph, ud: UpDownOrientation,
                          src: int, dst: int, max_len: int,
                          max_paths: int = 32) -> List[Tuple[int, ...]]:
    """Enumerate up to ``max_paths`` simple legal paths of length <= ``max_len``.

    Depth-first with an admissible remaining-distance bound from
    :func:`legal_distances_to`, exploring neighbours in ascending switch
    id for determinism.  Paths are returned in DFS order, which is
    lexicographic order (shortest not guaranteed first; callers sort as
    needed).
    """
    if src == dst:
        return [(src,)]
    return [path for path, _ in _enumerate_legal_paths(
        _legal_moves(g, ud), legal_distances_to(g, ud, dst),
        src, dst, max_len, max_paths)]


def _enumerate_legal_paths(moves: Sequence[Tuple[List[_Move], List[_Move]]],
                           h: Sequence[Sequence[int]], src: int, dst: int,
                           max_len: int, max_paths: int
                           ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """:func:`enumerate_legal_paths` on precomputed :func:`_legal_moves`
    and ``h = legal_distances_to(g, ud, dst)``, so a table build resolves
    both once rather than once per pair.  Returns ``(switch path, link
    ids)`` pairs, sparing the caller a link lookup per hop."""
    out: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    if max_paths <= 0:
        return out
    # Iterative DFS: ``stack[i]`` iterates the moves out of ``path[i]``
    # (a recursive closure would leave its working set, every discarded
    # candidate included, as cyclic garbage).
    on_path = [False] * len(moves)
    on_path[src] = True
    path = [src]
    lids: List[int] = []
    stack = [iter(moves[src][UP])]
    while stack:
        remaining = max_len - len(lids)
        for nb, nphase, lid in stack[-1]:
            if on_path[nb]:
                continue
            if nb == dst:
                if remaining < 1:
                    continue
                out.append((tuple(path) + (dst,), tuple(lids) + (lid,)))
                if len(out) >= max_paths:
                    return out
                continue
            if 1 + h[nb][nphase] > remaining:
                continue  # cannot reach dst legally within the budget
            on_path[nb] = True
            path.append(nb)
            lids.append(lid)
            stack.append(iter(moves[nb][nphase]))
            break
        else:
            stack.pop()
            on_path[path.pop()] = False
            if lids:
                lids.pop()
    return out
