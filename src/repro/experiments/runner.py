"""Single-run executor: config in, summary out.

``run_simulation`` builds (or reuses) the topology and routing tables,
instantiates the configured engine through the
:mod:`repro.sim.engines` registry, wires traffic and collectors, runs
warm-up + measurement, and returns a :class:`RunSummary`.  All engine
dispatch happens inside :mod:`repro.sim`; link and ITB statistics come
from the uniform :class:`~repro.sim.base.NetworkModel` accessors, so
every registered engine yields real (never fabricated) numbers or a
clear :class:`~repro.sim.base.UnsupportedCapability` error.

Topology and routing-table construction dominate short runs (the
simple_routes balancing alone walks thousands of pair candidates), so
both are memoised per (topology, scheme, root, cap) -- a latency sweep
then pays the cost once.  Caches are explicit and clearable for tests.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from ..canon import freeze
from ..config import SimConfig
from ..metrics.collector import LatencyCollector
from ..metrics.linkstats import collect_link_stats
from ..metrics.recovery import RecoveryTracker
from ..metrics.summary import RunSummary
from ..perf import PerfRecorder, now as _now, profile_to
from ..routing.policies import make_policy
from ..routing.table import RoutingTables, compute_tables
from ..sim.base import (CAP_BATCH_DELIVERY, CAP_BATCH_INJECT,
                        CAP_ITB_POOL, NO_ITB_STATS)
from ..sim.engine import Simulator
from ..sim.engines import make_network
from ..sim.faults import FaultPlan
from ..sim.invariants import audit as audit_invariants
from ..sim.reliable import (ReconfigParams, ReconfigurationManager,
                            ReliableParams, ReliableTransport)
from ..topology import build as build_topology
from ..topology.graph import NetworkGraph
from ..topology.validate import check_topology
from ..traffic.base import TrafficProcess, per_host_interval_ps
from ..traffic.registry import make_workload

_GRAPH_CACHE: Dict[Tuple, NetworkGraph] = {}
_TABLE_CACHE: Dict[Tuple, RoutingTables] = {}
#: memoised pregenerated schedules (batch-inject path): a schedule is a
#: pure function of (topology, workload spec, interval, seed, horizon),
#: so paired runs sharing a seed -- policy/scheme comparisons on
#: identical traffic, benchmark repeats -- reuse it instead of
#: re-drawing ~2 RNG streams per host.  Entries are read-only
#: (engines copy what they need); capped FIFO to bound memory.
_SCHEDULE_CACHE: Dict[Tuple, list] = {}
_SCHEDULE_CACHE_MAX = 8


def _freeze_kwargs(kwargs: Mapping[str, Any]) -> Tuple:
    """Hashable cache key for (possibly nested) keyword arguments.

    Delegates to :func:`repro.canon.freeze` -- the same canonicalisation
    the orchestrator's result store hashes -- so nested dict/list values
    (e.g. a ``topology_kwargs`` carrying a per-dimension size dict) key
    the memo caches instead of raising ``unhashable type``.
    """
    return freeze(kwargs)


def get_graph(topology: str, topology_kwargs: Mapping[str, Any]
              ) -> NetworkGraph:
    """Build (or fetch the cached) topology and validate it once."""
    key = (topology, _freeze_kwargs(topology_kwargs))
    g = _GRAPH_CACHE.get(key)
    if g is None:
        g = build_topology(topology, **dict(topology_kwargs))
        check_topology(g)
        _GRAPH_CACHE[key] = g
    return g


def get_tables(g: NetworkGraph, topology_key: Tuple, scheme: str,
               root: int = 0, max_routes_per_pair: int = 10,
               sort_by_itbs: bool = False) -> RoutingTables:
    """Compute (or fetch the cached) routing tables for a cached graph."""
    key = (topology_key, scheme, root, max_routes_per_pair, sort_by_itbs)
    t = _TABLE_CACHE.get(key)
    if t is None:
        t = compute_tables(g, scheme, root, max_routes_per_pair,
                           sort_by_itbs)
        _TABLE_CACHE[key] = t
    return t


def memo_routing(config: SimConfig, root: int = 0,
                 sort_by_itbs: bool = False,
                 tables: Optional[RoutingTables] = None
                 ) -> Tuple[Tuple, NetworkGraph, RoutingTables]:
    """``(topology key, graph, tables)`` of ``config`` through the memo.

    The one lookup both :func:`run_simulation` and the orchestrator's
    parent-side warm-up (:func:`repro.orchestrator.pool.warm_point_memo`)
    go through, so a warmed entry is exactly the entry a run fetches.
    Caller-injected ``tables`` are passed through; only the graph is
    then looked up.
    """
    topo_key = (config.topology, _freeze_kwargs(config.topology_kwargs))
    g = get_graph(config.topology, config.topology_kwargs)
    if tables is None:
        tables = get_tables(g, topo_key, config.routing, root,
                            config.params.max_routes_per_pair, sort_by_itbs)
    return topo_key, g, tables


def clear_caches() -> None:
    """Drop memoised graphs, tables and schedules (tests use this)."""
    _GRAPH_CACHE.clear()
    _TABLE_CACHE.clear()
    _SCHEDULE_CACHE.clear()


def run_simulation(config: SimConfig, collect_links: bool = False,
                   root: int = 0, sort_by_itbs: bool = False,
                   watchdog_ps: Optional[int] = None,
                   tables: Optional[RoutingTables] = None,
                   graph: Optional[NetworkGraph] = None,
                   perf: Optional[PerfRecorder] = None,
                   profile_path: Optional[str] = None,
                   fault_plan: Optional[Any] = None,
                   reliable: Optional[Any] = None,
                   reconfig: Optional[Any] = None,
                   recovery_threshold: float = 0.9,
                   collect_percentiles: bool = False,
                   check_invariants: bool = False) -> RunSummary:
    """Execute one simulation run described by ``config``.

    ``collect_links`` additionally gathers the per-link utilisation
    snapshot (Figures 8/9/11).  ``collect_percentiles`` keeps every
    per-message latency sample so the summary carries
    ``p99_latency_ns`` (costs one list append per delivery; off by
    default to keep long runs lean).  ``tables`` lets callers inject
    custom routing tables (the deadlock-demonstration tests route
    *without* ITBs on purpose); by default they are derived from
    ``config.routing``.  ``graph`` overrides the topology lookup with a
    pre-built network (failure studies run mutated copies that have no
    registry name); such graphs bypass the table cache.

    ``fault_plan`` (a :class:`repro.sim.FaultPlan` or its ``to_dict``
    form) schedules mid-run link deaths; requires an engine declaring
    ``CAP_DYNAMIC_FAULTS``.  Dropped messages appear in
    ``messages_dropped`` and never count as delivered.

    ``reliable`` (``True``, a :class:`repro.sim.ReliableParams` or its
    ``to_dict`` form) fronts the engine with the end-to-end
    retransmission protocol: message counts in the summary become
    *message*-level (unique deliveries; retransmitted attempts show up
    in ``retransmissions`` / ``duplicate_deliveries``).  ``reconfig``
    (``True``, a :class:`repro.sim.ReconfigParams` or a dict) installs
    the online reconfiguration manager that recomputes and hot-swaps
    the routing tables after each fault; with a fault plan present the
    summary additionally reports ``time_to_recover_ns``, the first
    post-fault window whose accepted traffic is back within
    ``recovery_threshold`` of the pre-fault mean.

    ``check_invariants`` audits the runtime invariant suite
    (:func:`repro.sim.invariants.audit`: message conservation, channel
    occupancy bounds, ITB byte-accounting) at the warm-up and
    measurement boundaries and raises
    :class:`~repro.sim.invariants.InvariantViolation` on the first
    failure; requires an engine declaring ``CAP_INVARIANTS``.

    ``perf`` (a :class:`repro.perf.PerfRecorder`) receives wall-clock
    and events/sec figures for the run; ``profile_path`` additionally
    dumps a :mod:`cProfile` trace of the whole call to that file.
    Neither affects the simulation itself or its summary.
    """
    with profile_to(profile_path):
        return _run_simulation(config, collect_links, root, sort_by_itbs,
                               watchdog_ps, tables, graph, perf,
                               fault_plan, reliable, reconfig,
                               recovery_threshold, collect_percentiles,
                               check_invariants)


def _coerce(value: Any, cls: type) -> Any:
    """``True`` -> defaults, mapping -> ``from_dict``, instance -> as-is."""
    if value is True:
        return cls()
    if isinstance(value, Mapping):
        return cls.from_dict(dict(value))
    return value


def _run_simulation(config: SimConfig, collect_links: bool,
                    root: int, sort_by_itbs: bool,
                    watchdog_ps: Optional[int],
                    tables: Optional[RoutingTables],
                    graph: Optional[NetworkGraph],
                    perf: Optional[PerfRecorder],
                    fault_plan: Optional[Any] = None,
                    reliable: Optional[Any] = None,
                    reconfig: Optional[Any] = None,
                    recovery_threshold: float = 0.9,
                    collect_percentiles: bool = False,
                    check_invariants: bool = False) -> RunSummary:
    t_start = _now()
    config.validate()
    if graph is not None:
        g = graph
        topo_key = None          # anonymous graph: schedules not memoised
        if tables is None:
            tables = compute_tables(g, config.routing, root,
                                    config.params.max_routes_per_pair,
                                    sort_by_itbs)
    else:
        topo_key, g, tables = memo_routing(config, root, sort_by_itbs,
                                           tables)

    sim = Simulator()
    policy = make_policy(config.policy, seed=config.seed)
    network = make_network(config.engine, sim, g, tables, policy,
                           config.params,
                           message_bytes=config.message_bytes)
    collector = LatencyCollector(keep_samples=collect_percentiles)
    caps = network.capabilities()
    transport = None
    if reliable:
        transport = ReliableTransport(network,
                                      _coerce(reliable, ReliableParams))
        # the collector sees unique messages at message latency, not
        # per-attempt deliveries (duplicates are suppressed upstream)
        transport.add_message_callback(collector.on_delivered)
    elif (CAP_BATCH_DELIVERY in caps and not policy.needs_feedback
          and fault_plan is None):
        # batch engines report delivery cohorts straight into the
        # collector; per-packet callbacks stay off the hot path
        network.delivery_sink = collector
    else:
        network.add_delivery_callback(collector.on_delivered)
    # adaptive policies learn from delivery latencies; stateless ones
    # declare needs_feedback=False and skip the per-delivery call
    if policy.needs_feedback:
        network.add_delivery_callback(policy.feedback)
    manager = None
    if reconfig:
        manager = ReconfigurationManager(
            network, _coerce(reconfig, ReconfigParams),
            max_routes_per_pair=config.params.max_routes_per_pair,
            sort_by_itbs=sort_by_itbs)

    interval = per_host_interval_ps(config.injection_rate,
                                    config.message_bytes, g)
    pattern, arrivals = make_workload(g, config.traffic,
                                      config.traffic_kwargs,
                                      config.arrival, config.arrival_kwargs,
                                      interval)
    # permutations may silence some hosts (e.g. the 32 palindromic ids
    # under bit-reversal): the load actually offered to the network is
    # proportionally lower than the nominal per-host rate
    effective_rate = (config.injection_rate
                      * len(pattern.active_hosts()) / g.num_hosts)
    traffic = TrafficProcess(sim,
                             transport if transport is not None else network,
                             pattern, arrivals, seed=config.seed,
                             max_messages=config.max_messages)

    if watchdog_ps is None:
        # generous: many times the zero-load service time of a message
        watchdog_ps = 200 * (config.message_bytes
                             * config.params.flit_cycle_ps
                             + 20 * config.params.routing_delay_ps)
    network.install_watchdog(watchdog_ps)

    if fault_plan is not None:
        if isinstance(fault_plan, Mapping):
            fault_plan = FaultPlan.from_dict(fault_plan)
        network.install_fault_plan(fault_plan)

    tracker = None
    if fault_plan:
        tracker = RecoveryTracker(max(1, config.measure_ps // 20))
        if transport is not None:
            transport.add_message_callback(tracker.on_delivered)
        else:
            network.add_delivery_callback(tracker.on_delivered)

    t_setup_done = _now()
    if (CAP_BATCH_INJECT in caps and transport is None
            and not config.max_messages):
        # batch engines take the whole deterministic schedule up front
        # (identical RNG streams, see TrafficProcess.pregenerate) so no
        # per-message generation events hit the heap
        t_end = config.warmup_ps + config.measure_ps
        skey = None
        if topo_key is not None:
            skey = (topo_key, config.traffic,
                    _freeze_kwargs(config.traffic_kwargs),
                    config.arrival, _freeze_kwargs(config.arrival_kwargs),
                    interval, config.seed, t_end)
        schedule = _SCHEDULE_CACHE.get(skey) if skey is not None else None
        if schedule is None:
            schedule = traffic.pregenerate(t_end)
            if skey is not None:
                if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
                    _SCHEDULE_CACHE.pop(next(iter(_SCHEDULE_CACHE)))
                _SCHEDULE_CACHE[skey] = schedule
        else:
            traffic.adopt_schedule(schedule)
        network.prime_schedule(schedule)
    else:
        traffic.start()
    sim.run_until(config.warmup_ps)
    # engine first: batch engines flush work at or before the warm-up
    # boundary into the collector, which the reset below then discards
    network.reset_stats()
    collector.reset()
    if check_invariants:
        # warm-up boundary: conservation laws, occupancy bounds and
        # ITB byte-accounting must hold exactly here (CAP_INVARIANTS)
        audit_invariants(network).raise_if_failed()
    if tracker is not None:
        tracker.start(config.warmup_ps)
    delivered_before = network.delivered
    generated_before = network.generated
    dropped_before = network.dropped
    unroutable_before = network.dropped_unroutable
    transport_before = transport.stats() if transport is not None else None
    reconfig_before = manager.reconfigurations if manager is not None else 0
    backlog_before = network.in_flight
    sim.run_until(config.warmup_ps + config.measure_ps)
    network.finalize()
    if check_invariants:
        # measurement boundary; with traffic stopped and the fabric
        # drained the stricter quiescent-state laws apply too
        audit_invariants(network,
                         drained=network.in_flight == 0
                         and sim.pending_events == 0).raise_if_failed()
    t_sim_done = _now()
    backlog_growth = network.in_flight - backlog_before

    if perf is not None:
        perf.record(wall_s=t_sim_done - t_start,
                    setup_wall_s=t_setup_done - t_start,
                    sim_wall_s=t_sim_done - t_setup_done,
                    events=sim.events,
                    messages_delivered=network.delivered,
                    sim_time_ps=sim.now)

    links = None
    if collect_links:
        links = collect_link_stats(network, config.measure_ps, config.params)

    dropped = network.dropped - dropped_before
    unroutable = network.dropped_unroutable - unroutable_before
    if transport is not None:
        ts = transport.stats()
        tdelta = {k: ts[k] - transport_before[k] for k in ts}
        messages_generated = tdelta["messages"]
        messages_delivered = tdelta["delivered"]
    else:
        tdelta = {"retransmissions": 0, "duplicates": 0,
                  "permanent_losses": 0, "recovered": 0}
        messages_generated = network.generated - generated_before
        messages_delivered = network.delivered - delivered_before

    time_to_recover_ns = None
    if tracker is not None:
        ttr = tracker.time_to_recover_ps(
            fault_plan.first_t_ps, config.warmup_ps + config.measure_ps,
            recovery_threshold)
        if ttr is not None:
            time_to_recover_ns = ttr / 1_000

    # engines without a finite-pool model have no ITB statistics to
    # report; zeros are the true values for an unbounded pool
    itb = (network.itb_stats() if CAP_ITB_POOL in caps
           else NO_ITB_STATS)
    return RunSummary(
        config=config,
        offered_flits_ns_switch=effective_rate,
        accepted_flits_ns_switch=collector.accepted_flits_ns_switch(
            config.measure_ps, g.num_switches),
        messages_delivered=messages_delivered,
        messages_generated=messages_generated,
        messages_dropped=dropped,
        dropped_in_flight=dropped - unroutable,
        dropped_unroutable=unroutable,
        retransmissions=tdelta["retransmissions"],
        duplicate_deliveries=tdelta["duplicates"],
        permanent_losses=tdelta["permanent_losses"],
        recovered_messages=tdelta["recovered"],
        reconfigurations=(manager.reconfigurations - reconfig_before
                          if manager is not None else 0),
        time_to_recover_ns=time_to_recover_ns,
        avg_latency_ns=collector.avg_latency_ns(),
        avg_network_latency_ns=collector.avg_network_latency_ns(),
        max_latency_ns=(collector.max_latency_ps / 1_000
                        if collector.messages else None),
        avg_itbs_per_message=collector.avg_itbs_per_message(),
        itb_overflow_count=itb.overflow_count,
        itb_peak_bytes=itb.peak_bytes,
        link_utilization=links,
        backlog_growth=backlog_growth,
        p99_latency_ns=(collector.percentile_ns(0.99)
                        if collect_percentiles else None),
    )
