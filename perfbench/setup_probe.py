"""Set-up probe: what one process pays before its first simulated event.

In a fresh interpreter: import ``repro.cli``, then build every graph,
routing table and ``packet`` network the workload needs.  Prints one
JSON line with the elapsed time, span list and counters::

    python -m perfbench.setup_probe --workload fig7a --run-id r1

The builds call the layers' public functions directly so each gets its
own span: ``get_graph`` (which validates the topology),
``build_spanning_tree`` + ``orient_links``, ``compute_simple_routes``
for UP/DOWN and ``build_itb_routes`` for ITB, the same calls the
registered schemes' build functions make; other schemes go through
``compute_tables``.
"""

from __future__ import annotations

import time

_T0 = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from typing import List, Optional  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def rss_mb() -> float:
    """Resident set size of this process (Linux ``/proc``)."""
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def build_all(tracer: Tracer, graphs) -> dict:
    with tracer.span("cli.import"):
        import repro.cli  # noqa: F401
    from repro.config import PAPER_PARAMS
    from repro.experiments.runner import get_graph
    from repro.routing.itb import build_itb_routes
    from repro.routing.policies import make_policy
    from repro.routing.routes import SourceRoute
    from repro.routing.schemes import supported_schemes
    from repro.routing.simple_routes import compute_simple_routes
    from repro.routing.spanning_tree import build_spanning_tree
    from repro.routing.table import RoutingTables, compute_tables
    from repro.routing.updown import orient_links
    from repro.sim.engine import Simulator
    from repro.sim.engines import make_network

    rss_before = rss_mb()
    tables: List[tuple] = []
    for topology, kwargs, schemes in graphs:
        with tracer.span("topology.build"):
            g = get_graph(topology, kwargs)
        for scheme in schemes or supported_schemes(g):
            if scheme in ("updown", "itb"):
                with tracer.span("routing.orient"):
                    ud = orient_links(g, 0, build_spanning_tree(g, 0))
            if scheme == "updown":
                with tracer.span("routing.updown_build"):
                    paths = compute_simple_routes(g, ud)
                    routes = {pair: (SourceRoute.single_leg(g, path),)
                              for pair, path in paths.items()}
                t = RoutingTables("updown", 0, ud, routes)
            elif scheme == "itb":
                with tracer.span("routing.itb_build"):
                    routes = build_itb_routes(g, ud, 10, False)
                t = RoutingTables("itb", 0, ud, routes)
            else:
                with tracer.span("routing.other_build"):
                    t = compute_tables(g, scheme)
            tables.append((g, t))
    rss_after = rss_mb()
    for g, t in tables:
        with tracer.span("sim.network_build"):
            make_network(workloads.ENGINE, Simulator(), g, t,
                         make_policy("sp"), PAPER_PARAMS)
    return {
        "routing.route_alternatives": sum(
            len(alts) for _, t in tables for alts in t.routes.values()),
        "routing.table_rss_mb": rss_after - rss_before,
    }


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--run-id", default="setup")
    p.add_argument("--span-base", type=int, default=1)
    args = p.parse_args(argv)
    tracer = Tracer(args.run_id, first_id=args.span_base)
    counters = build_all(tracer, workloads.get(args.workload).graphs)
    setup_s = time.monotonic() - _T0
    print(json.dumps({"setup_s": setup_s, "counters": counters,
                      "spans": tracer.to_dicts()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
