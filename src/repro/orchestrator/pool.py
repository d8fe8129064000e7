"""Fault-tolerant multiprocessing worker pool.

Fans independent simulation tasks out across cores.  The attempt and
retry rules -- attempt tags, retry backoff, "fail after N attempts",
input-order results -- live in :class:`~repro.orchestrator.lease.
LeaseLedger`; this module is the local transport over it.  Design
choices, driven by the failure modes of long campaigns:

* **one process per task**, bounded to ``workers`` concurrent
  processes.  Fork start-up (a few ms on Linux) is negligible next to
  a multi-second simulation point, and it makes fault handling clean:
  a crashed or killed worker can never corrupt a shared task queue,
  it simply never reports, and the ledger re-leases its task to a
  fresh process.  Children are forked where the platform can (else
  spawned); forked children also inherit the parent's graph/table
  memo caches -- which hold something only because the campaign
  layer fills them first (:func:`warm_point_memo`); a child never
  passes a table it built back to the parent or to its siblings.
  The parent's objects are frozen out of the cyclic collector's reach
  (:func:`gc.freeze`) across each fork, so a child's collections never
  walk the inherited tables.
* **per-task timeout**: a hung worker (e.g. a pathological parameter
  point that never saturates the watchdog) is terminated and its task
  retried, up to ``retries`` extra attempts, then reported as failed.
* **crash containment**: a worker that dies (segfault, OOM kill,
  ``os._exit``) is detected via its exit code and retried the same
  way.  A *clean* Python exception inside the task is deterministic
  and is **not** retried -- it is reported as a failure immediately.
* **graceful degradation**: ``workers <= 1`` executes tasks inline in
  the calling process -- same interface, no multiprocessing at all --
  so single-core environments and debuggers see ordinary stack traces.

Tasks name their worker function as a ``"module:callable"`` string
(resolved inside the worker), taking one JSON-safe payload dict and
returning a JSON-safe result dict.  Keeping the boundary plain-data is
what lets the campaign layer persist every result in the
content-addressed store.
"""

from __future__ import annotations

import gc
import importlib
import multiprocessing as mp
import queue
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..config import SimConfig
from ..experiments.runner import memo_routing, run_simulation
from .lease import LeaseLedger, Task, TaskResult, retry_delay_s

__all__ = ["Task", "TaskResult", "WorkerPool", "retry_delay_s",
           "run_point_task", "warm_point_memo"]

#: fork where the platform has it (children inherit the warm memo)
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"

#: seconds to keep waiting for the result of a worker that exited
#: cleanly (exit code 0) before declaring it lost -- covers the queue
#: feeder-thread flush racing the supervisor's liveness check
_EXIT_GRACE_S = 10.0


def _resolve(fn_path: str) -> Callable[[Dict[str, Any]], Any]:
    module_name, _, attr = fn_path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"task fn must be 'module:callable', got {fn_path!r}")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


def run_point_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker function for one simulation point.

    ``payload`` is ``{"config": SimConfig dict, "runner_kwargs":
    plain dict}``; the result is the ``RunSummary`` dict.
    """
    cfg = SimConfig.from_dict(payload["config"])
    kwargs = dict(payload.get("runner_kwargs") or {})
    summary = run_simulation(cfg, **kwargs)
    return summary.to_dict()


#: fn-path of :func:`run_point_task`, used by the campaign layer
POINT_TASK_FN = "repro.orchestrator.pool:run_point_task"

#: runner kwargs that select a point's routing tables in the memo
_MEMO_RUNNER_KWARGS = ("root", "sort_by_itbs")


def warm_point_memo(payload: Dict[str, Any]) -> None:
    """Build the graph and tables of one point task into this process's
    memo, through the same lookup :func:`run_point_task` makes.

    Best effort: a point that cannot be built is skipped, so its task
    fails in its own worker exactly as it would unwarmed.
    """
    try:
        cfg = SimConfig.from_dict(payload["config"])
        cfg.validate()
        kwargs = payload.get("runner_kwargs") or {}
        memo_routing(cfg, **{k: kwargs[k] for k in _MEMO_RUNNER_KWARGS
                             if k in kwargs})
    except Exception:
        pass


def _task_main(result_q, task_id: str, attempt: int, fn_path: str,
               payload: Dict[str, Any]) -> None:
    """Child-process entry point: run one task, report, exit.

    The queue entry carries the ``attempt`` tag it was launched under:
    a result flushed by an attempt the supervisor has since abandoned
    (timed out and terminated mid-flush) must not be attributed to a
    live retry of the same task.
    """
    try:
        fn = _resolve(fn_path)
        value = fn(payload)
        result_q.put((task_id, attempt, "ok", value))
    except BaseException:
        result_q.put((task_id, attempt, "err", traceback.format_exc()))


class WorkerPool:
    """Bounded pool of single-task worker processes.

    ``timeout_s`` bounds each *attempt*; ``retries`` is how many extra
    attempts a crashed or timed-out task gets before it is reported
    failed (clean exceptions are never retried -- they are
    deterministic).

    ``retry_backoff_s`` delays each re-run: attempt ``n+1`` starts no
    sooner than ``retry_backoff_s * 2**(n-1)`` seconds after attempt
    ``n`` failed, plus random jitter
    (:data:`~repro.orchestrator.lease.RETRY_JITTER`).  The default 0
    keeps the historical immediate-retry behaviour; a machine whose
    workers die from memory pressure wants a second or two of
    breathing room instead of being hammered.
    """

    def __init__(self, workers: int = 1, timeout_s: Optional[float] = None,
                 retries: int = 1, retry_backoff_s: float = 0.0):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s

    @property
    def forks(self) -> bool:
        """Whether :meth:`run` forks children that inherit this
        process's memory (and so its memo caches)."""
        return self.workers > 1 and _START_METHOD == "fork"

    def run(self, tasks: Sequence[Task],
            on_result: Optional[Callable[[TaskResult], None]] = None
            ) -> List[TaskResult]:
        """Execute every task; results come back in input order.

        ``on_result`` fires as each task finishes (completion order),
        which is what streams per-point progress to the CLI.  An
        exception it raises stops the run and propagates.
        """
        ledger = LeaseLedger(tasks, self.retries, self.retry_backoff_s,
                             on_result)
        if tasks:
            if self.workers <= 1:
                self._run_inline(ledger)
            else:
                self._run_parallel(ledger)
        return ledger.results()

    # -- inline degradation --------------------------------------------

    @staticmethod
    def _run_inline(ledger: LeaseLedger) -> None:
        while not ledger.finished:
            task, attempt = ledger.lease()
            try:
                value = _resolve(task.fn)(task.payload)
            except Exception:
                ledger.result(task.task_id, attempt,
                              error=traceback.format_exc())
            else:
                ledger.result(task.task_id, attempt, value=value)

    # -- multiprocessing path ------------------------------------------

    def _run_parallel(self, ledger: LeaseLedger) -> None:
        ctx = mp.get_context(_START_METHOD)
        result_q = ctx.Queue()
        #: task_id -> (process, attempt, started_at)
        active: Dict[str, tuple] = {}
        #: task_id -> monotonic time its process was first seen exited
        exited_at: Dict[str, float] = {}
        try:
            while not ledger.finished:
                while len(active) < self.workers:
                    lease = ledger.lease()
                    if lease is None:
                        # nothing ready: the rest is in flight or
                        # backing off
                        break
                    task, attempt = lease
                    proc = ctx.Process(
                        target=_task_main,
                        args=(result_q, task.task_id, attempt, task.fn,
                              task.payload),
                        daemon=True)
                    # a forked child inherits the fresh tables in the
                    # young generations; frozen, its collector never
                    # walks (and so never copies) them
                    gc.freeze()
                    try:
                        proc.start()
                    finally:
                        gc.unfreeze()
                    active[task.task_id] = (proc, attempt, time.monotonic())

                if not active:
                    # every pending attempt is backing off and nothing
                    # is in flight: no result can arrive, so polling
                    # the queue would be a pure busy-wait -- sleep
                    # until the earliest one may start instead
                    time.sleep(ledger.wait_s())
                    continue

                try:
                    task_id, attempt, status, value = \
                        result_q.get(timeout=0.05)
                except queue.Empty:
                    pass
                else:
                    # the ledger drops a stale flush from a terminated
                    # earlier attempt; a clean exception ("err") is
                    # deterministic and is credited, not retried
                    ok = status == "ok"
                    if ledger.result(task_id, attempt,
                                     value=value if ok else None,
                                     error=None if ok else value):
                        proc = active.pop(task_id)[0]
                        exited_at.pop(task_id, None)
                        proc.join(timeout=5.0)
                    continue

                now = time.monotonic()
                for task_id, (proc, attempt, started) in \
                        list(active.items()):
                    if (self.timeout_s is not None
                            and now - started > self.timeout_s):
                        proc.terminate()
                        proc.join(timeout=5.0)
                        reason = f"timed out after {self.timeout_s}s"
                    elif proc.is_alive():
                        continue
                    elif proc.exitcode not in (0, None):
                        # crashed: its result can no longer arrive
                        reason = f"worker died with exit code {proc.exitcode}"
                    elif now - exited_at.setdefault(task_id, now) \
                            > _EXIT_GRACE_S:
                        # exited cleanly, but the queue flush it raced
                        # never arrived
                        reason = "worker exited without a result"
                    else:
                        continue
                    del active[task_id]
                    exited_at.pop(task_id, None)
                    ledger.lost(task_id, attempt, reason)
        finally:
            for proc, _attempt, _started in active.values():
                proc.terminate()
            for proc, _attempt, _started in active.values():
                proc.join(timeout=5.0)
            result_q.close()
