"""Parallel sweep orchestrator: worker pool, result store, campaigns.

Six layers, composable and individually testable:

* :mod:`~repro.orchestrator.lease` -- :class:`~.lease.LeaseLedger`, the
  one attempt/retry state machine both pools run (pending queue with
  retry backoff, attempt-tagged leases, retry-or-fail, give-up,
  input-ordered results); pure bookkeeping with an injectable clock;
* :mod:`~repro.orchestrator.pool` -- fault-tolerant multiprocessing
  worker pool over the ledger (one process per task, per-task
  timeout, crash detection, inline degradation at ``workers=1``);
* :mod:`~repro.orchestrator.store` -- content-addressed on-disk result
  store keyed by a canonical hash of the full point description,
  giving checkpoint/resume, a stable results-artifact format, and a
  concurrent-writer discipline safe for many processes (atomic
  ``meta.json``, sharded objects, ``compact()`` + ``index.json``);
* :mod:`~repro.orchestrator.fabric` -- the distributed campaign
  fabric: :class:`FabricWorker` remote work-queue processes and the
  pool-compatible :class:`FabricPool` coordinator (the same ledger,
  leased across worker connections over a length-prefixed JSON TCP
  protocol);
* :mod:`~repro.orchestrator.serve` -- ``repro serve``:
  :class:`ReproServer`, a long-running HTTP service that accepts
  campaign specs, reuses the warm cache across requests and streams
  NDJSON progress;
* :mod:`~repro.orchestrator.campaign` -- the :class:`Executor` front
  door (store-first, then whichever pool: inline, local processes or
  fabric) plus :class:`Campaign` progress streaming; this is what
  ``sweep_rates(..., executor=)``, the experiment registry, the CLI
  and ``benchmarks/run_paper_profile.py`` route through.
"""

from __future__ import annotations

import importlib
from typing import Any

from .campaign import (Campaign, CampaignError, Executor, ExecutorStats,
                       Point, ProgressReporter)
from .pool import Task, TaskResult, WorkerPool
from .store import (CompactStats, DEFAULT_CACHE_DIR, ResultStore,
                    StoreInfo)

#: exports resolved on first use: the fabric pulls in ``ssl`` and the
#: server ``http.server``, which a local campaign never needs
_LAZY = {"FabricPool": ".fabric", "FabricWorker": ".fabric",
         "ReproServer": ".serve"}


def __getattr__(name: str) -> Any:
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "Campaign",
    "CampaignError",
    "CompactStats",
    "DEFAULT_CACHE_DIR",
    "Executor",
    "ExecutorStats",
    "FabricPool",
    "FabricWorker",
    "Point",
    "ProgressReporter",
    "ReproServer",
    "ResultStore",
    "StoreInfo",
    "Task",
    "TaskResult",
    "WorkerPool",
]
