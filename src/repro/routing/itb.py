"""In-transit buffer route construction (Section 3 of the paper).

Given a *minimal* switch path that violates the up*/down* rule, the path
is split at every illegal down->up transition: the packet is addressed to
an **in-transit host** attached to the switch where the violation would
occur, ejected there, and re-injected toward the next sub-destination.
Each resulting sub-path starts a fresh up*/down* phase, so every leg is a
legal route and the overall scheme stays deadlock-free while the packet
follows a minimal path end to end.

:func:`split_path_at_violations` performs the split for one path;
:func:`build_itb_routes` produces the same split for the (capped) set
of minimal paths of every switch pair, one walk per destination
(:func:`minimal_alternatives_to`), and assigns concrete in-transit
hosts, cycling through the hosts of each switch so that the ITB
workload is spread over all NICs attached to it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..perf import collector_paused
from ..topology.graph import NetworkGraph
from .minimal import minimal_dag_successors
from .routes import RouteLeg, SourceRoute
from .updown import UpDownOrientation


def _segment_bounds(path: Sequence[int], lids: Sequence[int],
                    up_end: Sequence[int]) -> List[Tuple[int, int]]:
    """Greedy cut points of ``path`` as (start, end) index pairs.

    ``lids`` are the pre-resolved link ids along the path.  The greedy
    rule -- cut exactly where the first illegal up-traversal would
    happen -- yields the minimum number of cuts for the given path,
    because every segment it produces is a maximal legal prefix of the
    remaining path.
    """
    bounds: List[Tuple[int, int]] = []
    seg_start = 0
    gone_down = False
    for i, lid in enumerate(lids):
        if up_end[lid] == path[i + 1]:      # up traversal
            if gone_down:
                # down->up transition: eject at switch path[i]
                bounds.append((seg_start, i))
                seg_start = i
                gone_down = False
        else:
            gone_down = True
    bounds.append((seg_start, len(path) - 1))
    return bounds


def split_path_at_violations(g: NetworkGraph, ud: UpDownOrientation,
                             path: Sequence[int]) -> List[Tuple[int, ...]]:
    """Split a switch path into maximal legal up*/down* sub-paths.

    Returns the list of sub-paths; consecutive sub-paths share their
    boundary switch (the in-transit switch).  A legal input path comes
    back as a single segment.
    """
    lids = g.path_links(path)
    return [tuple(path[s:e + 1])
            for s, e in _segment_bounds(path, lids, ud.up_end)]


class _ItbHostCycler:
    """Round-robin assignment of in-transit hosts per switch.

    Spreading consecutive ITB assignments over all hosts of a switch
    avoids turning a single NIC into an artificial hotspot during route
    construction (the paper only requires "a host connected to the
    intermediate switch").
    """

    def __init__(self, g: NetworkGraph) -> None:
        self._g = g
        self._next: Dict[int, int] = {}

    def take(self, switch: int) -> int:
        hosts = self._g.hosts_at(switch)
        if not hosts:
            raise ValueError(
                f"switch {switch} has no host to act as in-transit buffer")
        i = self._next.get(switch, 0)
        self._next[switch] = (i + 1) % len(hosts)
        return hosts[i]


def _route_from_path_links(ud: UpDownOrientation, path: Tuple[int, ...],
                           lids: Tuple[int, ...], cycler: _ItbHostCycler,
                           shared: Dict[RouteLeg, RouteLeg]) -> SourceRoute:
    """Split one resolved ``(path, link_ids)`` pair into a route.

    ``shared`` interns legs: a leg equal to one already in it is
    replaced by that object.  Legs are immutable values (their
    ``_dir_hops`` stash is a function of the leg alone), and one table
    repeats each split leg about four times over, so sharing them
    shrinks the table without changing a single route.
    """
    bounds = _segment_bounds(path, lids, ud.up_end)
    if len(bounds) == 1:  # already legal -- the common case
        leg = RouteLeg(path, lids)
        return SourceRoute((shared.setdefault(leg, leg),))
    legs = []
    for s, e in bounds:
        leg = RouteLeg(path[s:e + 1], lids[s:e])
        legs.append(shared.setdefault(leg, leg))
    itb_hosts = tuple([cycler.take(leg.end) for leg in legs[:-1]])
    return SourceRoute(tuple(legs), itb_hosts)


def route_from_path(g: NetworkGraph, ud: UpDownOrientation,
                    path: Sequence[int],
                    cycler: _ItbHostCycler) -> SourceRoute:
    """Build a :class:`SourceRoute` for one minimal path, inserting
    in-transit hosts wherever the up*/down* rule requires.

    Link ids are resolved once for the whole path; each leg is a slice
    of the (path, links) pair, so segments never re-probe the graph.
    """
    path = tuple(path)
    return _route_from_path_links(ud, path, g.path_links(path), cycler, {})


def balance_first_alternatives(
        g: NetworkGraph,
        routes: Dict[Tuple[int, int], Tuple[SourceRoute, ...]],
) -> Dict[Tuple[int, int], Tuple[SourceRoute, ...]]:
    """Reorder each pair's alternatives so the *first* one balances load.

    The SP policy always uses a pair's first table entry.  Plain
    enumeration order is lexicographic, which funnels all SP traffic
    through low-id switches and collapses well before the paper's
    reported ITB-SP throughput.  This pass mimics what ``simple_routes``
    does for the up*/down* baseline: walk the pairs in a deterministic
    interleaved order, promote the alternative with the lowest
    accumulated link weight to the front, and charge one weight unit to
    its links.  RR behaviour is unaffected (it cycles the whole set).
    """
    weight = [0] * g.num_links
    pairs = sorted((p for p in routes if p[0] != p[1]),
                   key=lambda p: ((p[0] + p[1]) % g.num_switches,
                                  p[0], p[1]))
    out = dict(routes)
    charged = weight.__getitem__
    for pair in pairs:
        alts = routes[pair]
        first = alts[0]
        if len(alts) > 1:
            # cost (weight of its links, in-transit hops); the first
            # alternative of least cost wins
            best = 0
            best_cost = (sum(map(charged, first.link_ids)),
                         len(first.itb_hosts))
            for i in range(1, len(alts)):
                route = alts[i]
                cost = (sum(map(charged, route.link_ids)),
                        len(route.itb_hosts))
                if cost < best_cost:
                    best, best_cost = i, cost
            if best != 0:
                first = alts[best]
                out[pair] = (first,) + alts[:best] + alts[best + 1:]
        for lid in first.link_ids:
            weight[lid] += 1
    return out


#: one alternative during the walk: ``(legs, link_ids, starts_up)`` --
#: the path's legal legs, every link id it crosses, and whether its
#: first hop goes up
_Alt = Tuple[Tuple[RouteLeg, ...], Tuple[int, ...], bool]


def minimal_alternatives_to(g: NetworkGraph, ud: UpDownOrientation,
                            dst: int, max_paths: int,
                            shared: Dict[RouteLeg, RouteLeg],
                            ) -> List[List[_Alt]]:
    """The first ``max_paths`` minimal paths from every switch to
    ``dst``, already split into legal legs, in one pass.

    Walks the shortest-path DAG toward ``dst`` in order of increasing
    distance.  A switch's paths are its successors' paths, prefixed by
    the hop to each successor in ascending switch id and capped -- the
    order of :func:`~repro.routing.minimal.enumerate_minimal_path_links`,
    so entry ``k`` of switch ``s`` is that enumerator's ``k``-th
    ``s -> dst`` path.

    The legs of a path come from its successor's: the hop prepends to
    the first leg when it goes up, or when it goes down onto a path
    whose first hop goes down too.  A down hop onto a path that starts
    up is the down->up violation :func:`_segment_bounds` cuts at: it
    becomes a leg of its own, with the in-transit switch at the
    successor.  ``shared`` interns the legs across calls, as in
    :func:`_route_from_path_links`, so equal legs are one object.
    Unreachable switches get no entry.
    """
    alts: List[List[_Alt]] = [[] for _ in range(g.num_switches)]
    if max_paths <= 0:
        return alts
    dist = g.shortest_distances(dst)
    succ = minimal_dag_successors(g, dist)
    up_end = ud.up_end
    alts[dst] = [((RouteLeg((dst,), ()),), (), False)]
    order = sorted((s for s in g.switches() if dist[s] > 0),
                   key=dist.__getitem__)
    intern = shared.setdefault
    for s in order:
        out: List[_Alt] = []
        for nb, lid in succ[s]:
            up = up_end[lid] == nb
            for legs, lids, nb_up in alts[nb]:
                first = legs[0]
                if up or not nb_up:   # the hop joins the first leg
                    leg = RouteLeg((s,) + first.switches,
                                   (lid,) + first.links)
                    leg = intern(leg, leg)
                    if len(legs) == 1:
                        out.append(((leg,), leg.links, up))
                    else:
                        out.append(((leg,) + legs[1:], (lid,) + lids, up))
                else:                 # down->up at nb: cut there
                    leg = RouteLeg((s, nb), (lid,))
                    out.append(((intern(leg, leg),) + legs,
                                (lid,) + lids, False))
                if len(out) == max_paths:
                    break
            if len(out) == max_paths:
                break
        alts[s] = out
    return alts


@collector_paused()
def build_itb_routes(g: NetworkGraph, ud: UpDownOrientation,
                     max_routes_per_pair: int = 10,
                     sort_by_itbs: bool = False,
                     balance_sp: bool = True,
                     ) -> Dict[Tuple[int, int], Tuple[SourceRoute, ...]]:
    """Minimal ITB routes for every ordered switch pair.

    Alternatives per pair are the (capped) minimal paths, each split into
    legal legs.  By default they stay in deterministic enumeration order,
    which matches the paper's behaviour: its SP policy "always chooses the
    same minimal path" without optimising the number of in-transit hops
    (the paper reports 0.43 ITBs/message for SP; enumeration order gives
    0.36 on the 8x8 torus, while picking the fewest-ITB alternative --
    ``sort_by_itbs=True``, studied in the ablation benches -- gives 0.22).

    One :func:`minimal_alternatives_to` pass per destination yields
    every source's alternatives; in-transit hosts are then assigned in
    (destination, source, alternative, leg) order.  Equal legs within
    the returned table are one shared object (the 8x8 torus table holds
    39,352 legs, 9,027 of them distinct).  The build makes no cyclic
    garbage, so it runs with the collector paused.
    """
    routes: Dict[Tuple[int, int], Tuple[SourceRoute, ...]] = {}
    cycler = _ItbHostCycler(g)  # shared so ITB duty rotates over all NICs
    shared: Dict[RouteLeg, RouteLeg] = {}  # one object per distinct leg
    for dst in g.switches():
        alts = minimal_alternatives_to(g, ud, dst, max_routes_per_pair,
                                       shared)
        for src in g.switches():
            if src == dst:
                routes[(src, dst)] = (
                    SourceRoute((RouteLeg((src,), ()),)),)
                continue
            pair_routes = []
            for legs, lids, _up in alts[src]:
                if len(legs) == 1:  # already legal -- the common case
                    pair_routes.append(SourceRoute(legs))
                    continue
                route = SourceRoute(legs, tuple(
                    [cycler.take(leg.end) for leg in legs[:-1]]))
                route._link_ids = lids  # the walk has them in hand
                pair_routes.append(route)
            if sort_by_itbs:
                pair_routes.sort(key=lambda r: (r.num_itbs, r.switch_path))
            routes[(src, dst)] = tuple(pair_routes)
    if balance_sp:
        routes = balance_first_alternatives(g, routes)
    return routes
