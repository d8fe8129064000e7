"""Campaign layer: whole figures/tables as lists of cached points.

The :class:`Executor` is the single entry point the rest of the code
base routes bulk simulation through (``sweep_rates(...,
executor=...)``, the experiment registry, the CLI and the paper-profile
benchmark runner).  It composes the two lower layers:

* every task is first looked up in the :class:`~.store.ResultStore`
  (when one is attached) -- an already-completed point costs one file
  read and **zero** ``run_simulation`` calls;
* the misses are fanned out through the
  :class:`~.pool.WorkerPool` (inline when ``workers=1``) and each
  result is persisted the moment it arrives, so an interrupted or
  crashed campaign resumes from exactly where it stopped.  Before a
  pool that forks runs simulation points, the parent builds each
  distinct graph and routing-table set the missed points need into its
  memo (:func:`~.pool.warm_point_memo`), so every child inherits them
  instead of rebuilding them.

:class:`Campaign` expresses one named artefact (a figure panel, a
table) as an explicit point list and streams per-point progress --
completed/total, cache hits, ETA -- through a
:class:`ProgressReporter`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    TextIO)

from ..config import SimConfig
from ..metrics.summary import RunSummary
from .fabric import FabricPool
from .pool import (POINT_TASK_FN, Task, TaskResult, WorkerPool,
                   warm_point_memo)
from .store import ResultStore

__all__ = ["Campaign", "CampaignError", "Executor", "ExecutorStats",
           "Point", "ProgressReporter"]

#: runner kwargs that carry live objects and cannot cross a process
#: or disk boundary -- callers holding these must run sequentially
UNSERIALIZABLE_RUNNER_KWARGS = ("graph", "tables")


class CampaignError(RuntimeError):
    """One or more points failed after all retries."""


@dataclass(frozen=True)
class Point:
    """One simulation point of a campaign."""

    point_id: str
    config: SimConfig
    runner_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def payload(self) -> Dict[str, Any]:
        return {"config": self.config.to_dict(),
                "runner_kwargs": dict(self.runner_kwargs)}

    def describe(self) -> str:
        return (f"{self.config.label()} @ "
                f"{self.config.injection_rate:.4g} "
                f"({self.config.topology}/{self.config.traffic})")


@dataclass
class ExecutorStats:
    """Running totals over an executor's lifetime."""

    simulated: int = 0
    cached: int = 0
    failed: int = 0

    @property
    def completed(self) -> int:
        return self.simulated + self.cached

    def oneline(self) -> str:
        return (f"{self.simulated} simulated, {self.cached} from cache"
                + (f", {self.failed} failed" if self.failed else ""))


class ProgressReporter:
    """Streams per-point campaign status lines to a text stream.

    ETA is the mean wall time of the *simulated* points so far times
    the remaining count -- cache hits are treated as instantaneous.
    """

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream if stream is not None else sys.stderr
        self.total = 0
        self.completed = 0
        self._sim_time = 0.0
        self._sim_count = 0

    def announce(self, n: int) -> None:
        self.total += n

    def eta_s(self) -> Optional[float]:
        if self._sim_count == 0 or self.completed >= self.total:
            return None
        mean = self._sim_time / self._sim_count
        return mean * (self.total - self.completed)

    def point_done(self, label: str, status: str,
                   elapsed_s: float = 0.0) -> None:
        self.completed += 1
        if status == "done":
            self._sim_time += elapsed_s
            self._sim_count += 1
        eta = self.eta_s()
        eta_txt = f"  eta {eta:.0f}s" if eta is not None else ""
        took = f" {elapsed_s:.1f}s" if status == "done" else ""
        self.stream.write(
            f"[{self.completed}/{self.total}] {label}: {status}{took}"
            f"{eta_txt}\n")
        self.stream.flush()


class Executor:
    """Cache-aware parallel task runner (the orchestrator's front door).

    ``workers=1`` (the default) degrades to in-process execution, still
    with store lookups; ``store=None`` disables caching entirely.

    ``fabric="host:port,..."`` (or, equivalently, passing that string
    as ``workers``) swaps the local process pool for a
    :class:`~repro.orchestrator.fabric.FabricPool` leasing tasks to
    remote fabric workers; ``timeout_s`` then becomes the lease
    timeout and ``retries``/``retry_backoff_s`` the re-lease budget.
    ``tls_ca`` (fabric only) pins every worker connection to the given
    PEM CA bundle -- workers must serve the matching certificate
    (``repro fabric worker --tls ...``).  Everything above this class
    -- sweeps, experiments, tournaments, the CLI -- is oblivious to
    which pool executes the points.
    """

    def __init__(self, workers=1,
                 store: Optional[ResultStore] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 1,
                 retry_backoff_s: float = 0.0,
                 reporter: Optional[ProgressReporter] = None,
                 fabric: Optional[str] = None,
                 tls_ca: Optional[str] = None):
        if fabric is None and isinstance(workers, str):
            fabric, workers = workers, 1
        if tls_ca is not None and fabric is None:
            raise ValueError("tls_ca applies to fabric workers only")
        if fabric is not None:
            self.pool = FabricPool(fabric, lease_timeout_s=timeout_s,
                                   retries=retries,
                                   retry_backoff_s=retry_backoff_s,
                                   tls_ca=tls_ca)
        else:
            self.pool = WorkerPool(workers, timeout_s=timeout_s,
                                   retries=retries,
                                   retry_backoff_s=retry_backoff_s)
        self.store = store
        self.reporter = reporter
        self.stats = ExecutorStats()

    @property
    def workers(self) -> int:
        return self.pool.workers

    # -- generic task execution ----------------------------------------

    def run_tasks(self, fn: str, payloads: Sequence[Dict[str, Any]],
                  labels: Optional[Sequence[str]] = None) -> List[Any]:
        """Run ``fn`` over every payload, store-first, in input order.

        ``fn`` is a ``"module:callable"`` worker function; payloads and
        results must be JSON-safe.  Raises :class:`CampaignError` if
        any task still fails after the pool's retries.
        """
        labels = list(labels) if labels is not None else \
            [f"{fn.rsplit(':', 1)[-1]}#{i}" for i in range(len(payloads))]
        if self.reporter:
            self.reporter.announce(len(payloads))
        results: Dict[int, Any] = {}
        misses: List[int] = []
        keys: Dict[int, str] = {}
        for i, payload in enumerate(payloads):
            if self.store is not None:
                key = self.store.key(fn, payload)
                keys[i] = key
                record = self.store.get(key)
                if record is not None:
                    results[i] = record["result"]
                    self.stats.cached += 1
                    if self.reporter:
                        self.reporter.point_done(labels[i], "cached")
                    continue
            misses.append(i)

        failures: List[str] = []
        if misses:
            if (fn == POINT_TASK_FN and isinstance(self.pool, WorkerPool)
                    and self.pool.forks):
                # build each distinct graph/table set once, here: every
                # forked child then inherits it instead of rebuilding it
                for i in misses:
                    warm_point_memo(payloads[i])
            tasks = [Task(task_id=str(i), fn=fn, payload=payloads[i])
                     for i in misses]

            def on_result(res: TaskResult) -> None:
                i = int(res.task_id)
                if res.ok:
                    results[i] = res.value
                    self.stats.simulated += 1
                    if self.store is not None:
                        self.store.put(keys.get(i)
                                       or self.store.key(fn, payloads[i]),
                                       fn, payloads[i], res.value,
                                       elapsed_s=res.elapsed_s)
                    if self.reporter:
                        self.reporter.point_done(labels[i], "done",
                                                 res.elapsed_s)
                else:
                    self.stats.failed += 1
                    failures.append(f"{labels[i]}: {res.error}")
                    if self.reporter:
                        self.reporter.point_done(labels[i], "FAILED")

            self.pool.run(tasks, on_result=on_result)

        if failures:
            raise CampaignError(
                f"{len(failures)} of {len(payloads)} points failed:\n"
                + "\n".join(failures))
        return [results[i] for i in range(len(payloads))]

    # -- simulation points ---------------------------------------------

    def run_points(self, points: Sequence[Point]) -> List[RunSummary]:
        """Run simulation points (store-first), in input order."""
        for p in points:
            for k in UNSERIALIZABLE_RUNNER_KWARGS:
                if p.runner_kwargs.get(k) is not None:
                    raise ValueError(
                        f"runner kwarg {k!r} holds a live object and cannot "
                        "be executed through the orchestrator; run these "
                        "points sequentially via run_simulation()")
        values = self.run_tasks(POINT_TASK_FN,
                                [p.payload() for p in points],
                                labels=[p.describe() for p in points])
        return [RunSummary.from_dict(v) for v in values]

    def run_configs(self, configs: Sequence[SimConfig],
                    **runner_kwargs: Any) -> List[RunSummary]:
        """Convenience: one point per config, shared runner kwargs."""
        points = [Point(point_id=str(i), config=cfg,
                        runner_kwargs=runner_kwargs)
                  for i, cfg in enumerate(configs)]
        return self.run_points(points)


@dataclass(frozen=True)
class Campaign:
    """A named list of simulation points (one figure/table artefact)."""

    name: str
    points: List[Point]

    @classmethod
    def from_sweep(cls, name: str, base: SimConfig,
                   rates: Sequence[float],
                   **runner_kwargs: Any) -> "Campaign":
        """A latency-vs-traffic curve as a campaign (ascending rates)."""
        points = [Point(point_id=f"{name}:{rate:.6g}",
                        config=base.with_overrides(injection_rate=rate),
                        runner_kwargs=runner_kwargs)
                  for rate in sorted(rates)]
        return cls(name, points)

    def run(self, executor: Executor) -> Dict[str, RunSummary]:
        """Execute every point; returns ``point_id -> RunSummary``."""
        t0 = time.monotonic()
        summaries = executor.run_points(self.points)
        if executor.reporter:
            executor.reporter.stream.write(
                f"{self.name}: {executor.stats.oneline()} "
                f"in {time.monotonic() - t0:.1f}s\n")
        return {p.point_id: s for p, s in zip(self.points, summaries)}
