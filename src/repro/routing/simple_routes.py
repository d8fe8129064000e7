"""Reimplementation of Myricom's ``simple_routes`` route selection.

The paper's UP/DOWN baseline uses the routes produced by the
``simple_routes`` program shipped with GM (Section 4.5): one valid
up*/down* path per source-destination pair, selected so as to *balance
traffic* across links via link weights -- possibly choosing a
non-minimal up*/down* path over an available minimal one when the
minimal one is hot.

Our implementation follows that description:

1. for every ordered switch pair, take the first ``max_candidates``
   legal up*/down* paths of the shortest legal length in lexicographic
   order (a walk on the destination's shortest-legal-path DAG), plus,
   when ``prefer_minimal`` is off, paths up to ``length_slack`` hops
   longer (bounded enumeration, see
   :func:`repro.routing.updown.enumerate_legal_paths`);
2. process pairs in a deterministic order and greedily pick, per pair,
   the candidate minimising ``(length, total link weight, path)`` --
   or ``(total link weight, length, path)`` without ``prefer_minimal``;
3. add one unit of weight to every link of the chosen path (each pair
   carries the same offered load under the paper's traffic model).

The greedy weighted selection reproduces the two properties the paper
relies on: routes concentrate around the spanning-tree root (the
up*/down* structure forces this) while being as spread as the rule
allows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..perf import collector_paused
from ..topology.graph import NetworkGraph
from .updown import (UP, UpDownOrientation, _enumerate_legal_paths,
                     _legal_moves, _Move, _tight_legal_moves,
                     legal_distances_to)


def _lightest_tight_path(tight: Sequence[Tuple[Sequence[_Move],
                                               Sequence[_Move]]],
                         weight: Sequence[int], src: int, dst: int,
                         max_paths: int,
                         ) -> Optional[Tuple[Tuple[int, ...],
                                             Tuple[int, ...]]]:
    """Among the first ``max_paths`` paths from ``(src, UP)`` to ``dst``
    on the shortest-legal-path DAG ``tight`` (:func:`~repro.routing.
    updown._tight_legal_moves`), the first of least total link weight,
    as ``(switch path, link ids)``; ``None`` when there is none.

    The walk visits paths in lexicographic order -- the bounded DFS
    order -- and they all have the same length, so "first of least
    weight" is the ``(length, weight, path)`` minimum.  Only the
    winner is materialised.
    """
    if max_paths <= 0:
        return None
    best = None
    best_w = 0
    found = 0
    path = [src]
    lids: List[int] = []
    ws = [0]          # ws[i]: weight of the path up to path[i]
    stack = [iter(tight[src][UP])]
    while stack:
        for nb, nphase, lid in stack[-1]:
            w = ws[-1] + weight[lid]
            if nb == dst:
                if best is None or w < best_w:
                    best_w = w
                    best = (tuple(path) + (dst,), tuple(lids) + (lid,))
                found += 1
                if found >= max_paths:
                    return best
                continue
            path.append(nb)
            lids.append(lid)
            ws.append(w)
            stack.append(iter(tight[nb][nphase]))
            break
        else:
            stack.pop()
            path.pop()
            ws.pop()
            if lids:
                lids.pop()
    return best


@collector_paused()
def compute_simple_routes(g: NetworkGraph, ud: UpDownOrientation,
                          length_slack: int = 1,
                          max_candidates: int = 32,
                          prefer_minimal: bool = True,
                          ) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """One balanced legal up*/down* path per ordered switch pair.

    Returns a dict ``(src, dst) -> switch path`` covering every ordered
    pair of distinct switches (plus the trivial ``(s, s) -> (s,)``
    entries, which hosts sharing a switch use).

    With ``prefer_minimal`` (default) the shortest legal candidates win
    and the link weights only break ties among them; this reproduces the
    minimal-path fractions the paper reports for simple_routes (80 % on
    the 8x8 torus, 94 % on the express torus -- exactly the fraction of
    pairs that have a legal minimal path at all).  ``prefer_minimal=
    False`` puts accumulated weight first, allowing longer paths purely
    for balance (the behaviour the paper alludes to with "it may happen
    that the simple_routes program selects a non-minimal up*/down*
    path"); the ablation benches compare both.

    Under ``prefer_minimal`` no path longer than the shortest legal one
    can win, so ``length_slack`` only matters with ``prefer_minimal=
    False``.  Under ``prefer_minimal`` the candidates are the first
    ``max_candidates`` paths of each destination's shortest-legal-path
    DAG, walked per pair without materialising any but the winner
    (:func:`_lightest_tight_path`); they are exactly the ones the
    bounded DFS enumerates.  Without it the bounded DFS
    (:func:`~repro.routing.updown.enumerate_legal_paths`) supplies the
    candidates, slack-length ones included.  Both ways the build makes
    no cyclic garbage, so it runs with the collector paused.
    """
    if length_slack < 0:
        raise ValueError("length_slack must be >= 0")
    weight = [0] * g.num_links
    routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    moves = _legal_moves(g, ud)
    # One backward legal-distance field per destination: it prunes every
    # walk toward that destination, and its phase-UP entry at ``src`` is
    # the shortest legal src->dst distance.  Under ``prefer_minimal``
    # only its tight moves are kept.
    if prefer_minimal:
        tight = [_tight_legal_moves(moves, legal_distances_to(g, ud, d))
                 for d in g.switches()]
    else:
        to_dst = [legal_distances_to(g, ud, d) for d in g.switches()]

    # Deterministic pair order.  Interleaving by destination (rather than
    # iterating all destinations of switch 0 first) avoids systematically
    # biasing early, low-weight picks toward low-id sources.
    pairs = sorted(((src, dst) for src in g.switches() for dst in g.switches()
                    if src != dst),
                   key=lambda p: ((p[0] + p[1]) % g.num_switches, p[0], p[1]))

    for src, dst in pairs:
        if prefer_minimal:
            found = _lightest_tight_path(tight[dst], weight, src, dst,
                                         max_candidates)
            if found is None:  # cannot happen on a connected graph
                raise RuntimeError(f"no legal up*/down* path {src}->{dst}")
            best, best_lids = found
        else:
            h = to_dst[dst]
            shortest = h[src][UP]
            # shortest legal candidates first (the bounded DFS with
            # slack may otherwise hit its cap on slack-length paths
            # only), then longer ones for balancing
            cands = _enumerate_legal_paths(moves, h, src, dst, shortest,
                                           max_candidates)
            if length_slack > 0:
                seen = set(cands)
                extra = _enumerate_legal_paths(moves, h, src, dst,
                                               shortest + length_slack,
                                               max_candidates)
                cands.extend(p for p in extra if p not in seen)
            if not cands:  # cannot happen on a connected graph
                raise RuntimeError(f"no legal up*/down* path {src}->{dst}")
            best_key = None
            for path, lids in cands:
                key = (sum([weight[lid] for lid in lids]), len(path), path)
                if best_key is None or key < best_key:
                    best_key, best, best_lids = key, path, lids
        routes[(src, dst)] = best
        for lid in best_lids:
            weight[lid] += 1

    for s in g.switches():
        routes[(s, s)] = (s,)
    return routes
