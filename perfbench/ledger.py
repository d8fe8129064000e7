"""Traced run: the workload's campaign plus probes, one span per call.

In a fresh interpreter, in this order:

1. ``cli.import`` -- import ``repro.cli``;
2. ``orchestrator.campaign`` -- the cold campaign, in process, into an
   empty store (the same commands the untraced run starts as
   interpreters); each stored task becomes an ``orchestrator.task``
   child span from its ``elapsed_s`` and write time;
3. ``orchestrator.warm_rerun`` -- the campaign again, from the store;
4. ``experiments.point`` -- every stored task re-run in process with
   warm graph/table memos, its loop as a ``sim.loop`` child (from
   ``PerfRecorder.sim_wall_s``): the warm in-process reference that
   ``orchestrator.task_inflation`` divides by;
5. ``orchestrator.store_get`` / ``store_put`` -- each record read back
   and written to a scratch store;
6. ``orchestrator.pool_probe`` / ``fabric_probe`` -- no-op tasks through
   ``WorkerPool(2)`` and through ``FabricPool`` to two localhost
   ``repro fabric worker`` processes.

Prints one JSON line: spans, counters, and the monotonic time the
campaign ended (the caller knows when it launched this interpreter)::

    python -m perfbench.ledger --workload fig7a --seed 1 --cache-dir S \
        --scratch-dir T --run-id r1
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import Dict, List, Optional, Tuple

from perfbench import checks, workloads
from perfbench.spans import Tracer

NOOP_FN = "perfbench.ledger:noop"
PROBE_TASKS = 16


def noop(payload: dict) -> dict:
    """Task that does nothing: what remains is the pool's own cost."""
    return {}


def run_command(argv: List[str]) -> Tuple[int, str, str]:
    """Run ``python -m MODULE ARGS`` in this process via ``MODULE.main``."""
    if argv[0] != "-m":
        raise ValueError(f"campaign command must be -m MODULE: {argv}")
    module = "repro.cli" if argv[1] == "repro" else argv[1]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = importlib.import_module(module).main(argv[2:])
    return rc, out.getvalue(), err.getvalue()


def run_campaign(tracer: Tracer, name: str, argvs: List[List[str]]
                 ) -> Tuple[List[int], str, Dict[str, int], int]:
    rcs, stdout, stats = [], "", {"simulated": 0, "cached": 0, "failed": 0}
    with tracer.span(name) as span_id:
        for argv in argvs:
            rc, out, err = run_command(argv)
            rcs.append(rc)
            stdout += out
            for k, v in checks.parse_points(out + err).items():
                if k in stats:
                    stats[k] += v
    return rcs, stdout, stats, span_id


def _task_fn(kind: str):
    module, _, name = kind.partition(":")
    return getattr(importlib.import_module(module), name)


def warm_points(tracer: Tracer, records: List[dict]) -> Dict[str, float]:
    """Re-run every stored task in process with warm memo caches.

    Each task module's ``run_simulation`` is wrapped for the duration
    so every call hands back its ``PerfRecorder`` report; the loop
    time is the report's ``sim_wall_s``.
    """
    from repro.perf import PerfRecorder
    calls: List[Tuple[float, object]] = []
    patched = []
    for kind in sorted({r["kind"] for r in records}):
        module = importlib.import_module(kind.partition(":")[0])
        real = module.run_simulation

        def recording(config, _real=real, **kw):
            rec = PerfRecorder()
            start = time.monotonic()
            summary = _real(config, perf=rec, **kw)
            calls.append((start, rec.report))
            return summary

        module.run_simulation = recording
        patched.append((module, real))
    try:
        warmed = set()
        for r in records:  # fill the graph/table memos, untimed
            cfg = r["payload"].get("config", r["payload"])
            key = (r["kind"], cfg["topology"],
                   checks.canonical(cfg["topology_kwargs"]), cfg["routing"])
            if key not in warmed:
                warmed.add(key)
                _task_fn(r["kind"])(r["payload"])
        del calls[:]
        point_s = []
        for r in records:
            fn = _task_fn(r["kind"])
            first = len(calls)
            with tracer.span("experiments.point") as span_id:
                fn(r["payload"])
            point_s.append(tracer.spans[-1].duration)
            for start, rep in calls[first:]:
                loop_start = start + rep.setup_wall_s
                tracer.add("sim.loop", loop_start,
                           loop_start + rep.sim_wall_s, parent=span_id)
    finally:
        for module, real in patched:
            module.run_simulation = real
    loop_s = sum(rep.sim_wall_s for _, rep in calls)
    events = sum(rep.events for _, rep in calls)
    msgs = sum(rep.messages_delivered for _, rep in calls)
    return {"warm_point_s": statistics.median(point_s),
            "sim.loop_s": loop_s, "sim.events": events,
            "sim.msgs_delivered": msgs,
            "sim.events_per_s": events / loop_s,
            "sim.msgs_per_s": msgs / loop_s}


def store_probes(tracer: Tracer, store_dir: str, scratch_dir: str,
                 records: List[dict]) -> Dict[str, float]:
    from repro.orchestrator import ResultStore
    store, scratch = ResultStore(store_dir), ResultStore(scratch_dir)
    get_s, put_s = [], []
    for r in records:
        with tracer.span("orchestrator.store_get"):
            if store.get(r["key"]) is None:
                raise RuntimeError(f"stored record {r['key']} unreadable")
        get_s.append(tracer.spans[-1].duration)
        with tracer.span("orchestrator.store_put"):
            scratch.put(r["key"], r["kind"], r["payload"], r["result"],
                        elapsed_s=r["elapsed_s"])
        put_s.append(tracer.spans[-1].duration)
    return {"orchestrator.store_get_s": statistics.median(get_s),
            "orchestrator.store_put_s": statistics.median(put_s)}


def _noop_tasks(n: int) -> list:
    from repro.orchestrator.pool import Task
    return [Task(str(i), NOOP_FN, {}) for i in range(n)]


def pool_probe(tracer: Tracer) -> float:
    from repro.orchestrator.pool import WorkerPool
    pool = WorkerPool(2)
    pool.run(_noop_tasks(2))  # warm-up, untimed
    with tracer.span("orchestrator.pool_probe"):
        pool.run(_noop_tasks(PROBE_TASKS))
    return tracer.spans[-1].duration / PROBE_TASKS


def fabric_probe(tracer: Tracer) -> float:
    from repro.orchestrator.fabric import FabricPool
    marker = "fabric worker listening on "
    procs: List[subprocess.Popen] = []
    try:
        addrs = []
        for _ in range(2):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "fabric", "worker",
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            procs.append(proc)
            line = proc.stdout.readline()
            if marker not in line:
                raise RuntimeError(f"fabric worker did not announce: {line!r}")
            addrs.append(line.split(marker, 1)[1].split()[0])
        pool = FabricPool(",".join(addrs))
        pool.run(_noop_tasks(2))  # warm-up: connect, import this module
        with tracer.span("orchestrator.fabric_probe"):
            pool.run(_noop_tasks(PROBE_TASKS))
        return tracer.spans[-1].duration / PROBE_TASKS
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=30)
            proc.stdout.close()


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--scratch-dir", required=True)
    p.add_argument("--run-id", default="ledger")
    p.add_argument("--span-base", type=int, default=1)
    args = p.parse_args(argv)
    w = workloads.get(args.workload)
    tracer = Tracer(args.run_id, first_id=args.span_base)

    with tracer.span("cli.import"):
        import repro.cli  # noqa: F401
    argvs = w.argv(args.seed, args.cache_dir)
    rcs, cold_out, cold, campaign_id = run_campaign(
        tracer, "orchestrator.campaign", argvs)
    campaign_end = time.monotonic()

    records = checks.store_records(args.cache_dir)
    offset = time.time() - time.monotonic()
    for r in records:
        end = r["created"] - offset
        tracer.add("orchestrator.task", end - r["elapsed_s"], end,
                   parent=campaign_id)

    warm_rcs, warm_out, warm, _ = run_campaign(
        tracer, "orchestrator.warm_rerun", argvs)
    counters = warm_points(tracer, records)
    task_s = statistics.median(r["elapsed_s"] for r in records)
    kept = checks.kept_points(cold_out)
    counters.update({
        "orchestrator.task_s": task_s,
        "orchestrator.task_inflation": task_s / counters.pop("warm_point_s"),
        "orchestrator.cache_hit_ratio":
            warm["cached"] / max(1, warm["cached"] + warm["simulated"]),
        "experiments.useful_point_ratio":
            (kept if kept is not None else cold["simulated"])
            / max(1, cold["simulated"]),
    })
    counters.update(store_probes(tracer, args.cache_dir, args.scratch_dir,
                                 records))
    counters["orchestrator.pool_overhead_s"] = pool_probe(tracer)
    counters["orchestrator.fabric_roundtrip_s"] = fabric_probe(tracer)
    print(json.dumps({
        "campaign_end": campaign_end,
        "rcs": rcs + warm_rcs,
        "cold": cold, "warm": warm,
        "warm_identical": (checks.without_points(cold_out)
                           == checks.without_points(warm_out)),
        "counters": counters,
        "spans": tracer.to_dicts(),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
