"""Fault-tolerant multiprocessing worker pool.

Fans independent simulation tasks out across cores.  Design choices,
driven by the failure modes of long campaigns:

* **one process per task**, bounded to ``workers`` concurrent
  processes.  Fork start-up (a few ms on Linux) is negligible next to
  a multi-second simulation point, and it makes fault handling clean:
  a crashed or killed worker can never corrupt a shared task queue,
  it simply never reports, and the supervisor re-runs its task in a
  fresh process.  With the ``fork`` start method children also inherit
  the parent's graph/table memo caches -- which hold something only
  because the campaign layer fills them first
  (:func:`warm_point_memo`); a child never passes a table it built
  back to the parent or to its siblings.
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

import importlib
import multiprocessing as mp
import queue
import random
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..config import SimConfig
from ..experiments.runner import memo_routing, run_simulation
from ..metrics.summary import RunSummary

__all__ = ["Task", "TaskResult", "WorkerPool", "retry_delay_s",
           "run_point_task", "warm_point_memo"]

#: seconds to keep waiting for the result of a worker that exited
#: cleanly (exit code 0) before declaring it lost -- covers the queue
#: feeder-thread flush racing the supervisor's liveness check
_EXIT_GRACE_S = 10.0


@dataclass(frozen=True)
class Task:
    """One unit of work: a worker function name plus its payload."""

    task_id: str
    #: worker function as ``"module:callable"`` (resolved in the worker)
    fn: str
    #: JSON-safe argument dict passed to the function
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TaskResult:
    """Outcome of one task after all attempts."""

    task_id: str
    value: Optional[Dict[str, Any]]
    error: Optional[str]
    attempts: int
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return self.error is None


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


def retry_delay_s(backoff_s: float, jitter: float, failed_attempt: int,
                  rng: random.Random) -> float:
    """Seconds to wait before re-running after ``failed_attempt``.

    Exponential (doubling per attempt) from ``backoff_s``, stretched by
    up to ``jitter`` (a fraction) of random extra delay.  Shared by the
    local :class:`WorkerPool` and the remote fabric coordinator so both
    re-lease with identical pacing.
    """
    if backoff_s <= 0:
        return 0.0
    delay = backoff_s * (2.0 ** (failed_attempt - 1))
    return delay * (1.0 + jitter * rng.random())


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
    ``n`` failed, stretched by up to ``retry_jitter`` (a fraction) of
    random extra delay so simultaneous failures do not retry in
    lock-step.  The default 0 keeps the historical immediate-retry
    behaviour; a machine whose workers die from memory pressure wants
    a second or two of breathing room instead of being hammered.
    """

    def __init__(self, workers: int = 1, timeout_s: Optional[float] = None,
                 retries: int = 1, start_method: Optional[str] = None,
                 retry_backoff_s: float = 0.0, retry_jitter: float = 0.5):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if retry_jitter < 0:
            raise ValueError("retry_jitter must be >= 0")
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_jitter = retry_jitter
        self._rng = random.Random()
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        self.start_method = start_method

    @property
    def forks(self) -> bool:
        """Whether :meth:`run` forks children that inherit this
        process's memory (and so its memo caches)."""
        return self.workers > 1 and self.start_method == "fork"

    def _retry_delay_s(self, failed_attempt: int) -> float:
        """Seconds to wait before re-running after ``failed_attempt``."""
        return retry_delay_s(self.retry_backoff_s, self.retry_jitter,
                             failed_attempt, self._rng)

    @staticmethod
    def _claim(active: Dict[str, tuple], task_id: str,
               attempt: int) -> Optional[tuple]:
        """Match a result-queue entry to the live attempt of its task.

        Returns (and removes) the active record only when the entry's
        attempt tag matches the attempt currently in flight; a stale
        flush from a terminated earlier attempt returns ``None`` and
        leaves the live attempt untouched.
        """
        rec = active.get(task_id)
        if rec is None or rec[2] != attempt:
            return None
        return active.pop(task_id)

    @staticmethod
    def _backoff_wait_s(pending, now: float) -> float:
        """Idle seconds until the earliest pending attempt may start."""
        if not pending:
            return 0.0
        return max(0.0, min(entry[2] for entry in pending) - now)

    def run(self, tasks: Sequence[Task],
            on_result: Optional[Callable[[TaskResult], None]] = None
            ) -> List[TaskResult]:
        """Execute every task; results come back in input order.

        ``on_result`` fires as each task finishes (completion order),
        which is what streams per-point progress to the CLI.
        """
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task ids must be unique within one run() call")
        if not tasks:
            return []
        if self.workers <= 1:
            done = self._run_inline(tasks, on_result)
        else:
            done = self._run_parallel(tasks, on_result)
        return [done[t.task_id] for t in tasks]

    # -- inline degradation --------------------------------------------

    def _run_inline(self, tasks, on_result) -> Dict[str, TaskResult]:
        done: Dict[str, TaskResult] = {}
        for task in tasks:
            t0 = time.monotonic()
            try:
                value = _resolve(task.fn)(task.payload)
                res = TaskResult(task.task_id, value, None, 1,
                                 time.monotonic() - t0)
            except Exception:
                res = TaskResult(task.task_id, None, traceback.format_exc(),
                                 1, time.monotonic() - t0)
            done[task.task_id] = res
            if on_result:
                on_result(res)
        return done

    # -- multiprocessing path ------------------------------------------

    def _run_parallel(self, tasks, on_result) -> Dict[str, TaskResult]:
        ctx = mp.get_context(self.start_method)
        result_q = ctx.Queue()
        #: (task, attempt, not_before): the attempt may not start
        #: before the monotonic instant ``not_before`` (retry backoff)
        pending = deque((task, 1, 0.0) for task in tasks)
        #: task_id -> (process, task, attempt, started_at)
        active: Dict[str, tuple] = {}
        #: task_id -> monotonic time its process was first seen exited
        exited_at: Dict[str, float] = {}
        done: Dict[str, TaskResult] = {}

        def finish(res: TaskResult) -> None:
            done[res.task_id] = res
            if on_result:
                on_result(res)

        def retry_or_fail(task: Task, attempt: int, started: float,
                          reason: str) -> None:
            if attempt <= self.retries:
                not_before = time.monotonic() + self._retry_delay_s(attempt)
                pending.append((task, attempt + 1, not_before))
            else:
                finish(TaskResult(task.task_id, None,
                                  f"{reason} (after {attempt} attempts)",
                                  attempt, time.monotonic() - started))

        def next_ready() -> Optional[tuple]:
            """Pop the first pending attempt whose backoff has elapsed."""
            now = time.monotonic()
            for i, entry in enumerate(pending):
                if entry[2] <= now:
                    del pending[i]
                    return entry
            return None

        try:
            while pending or active:
                while pending and len(active) < self.workers:
                    entry = next_ready()
                    if entry is None:
                        # everything pending is backing off; the result
                        # poll below provides the pacing
                        break
                    task, attempt, _not_before = entry
                    proc = ctx.Process(
                        target=_task_main,
                        args=(result_q, task.task_id, attempt, task.fn,
                              task.payload),
                        daemon=True)
                    proc.start()
                    active[task.task_id] = (proc, task, attempt,
                                            time.monotonic())

                if not active:
                    # every pending attempt is backing off and nothing
                    # is in flight: no result can arrive, so polling
                    # the queue would be a pure busy-wait -- sleep
                    # until the earliest not_before instead
                    wait = self._backoff_wait_s(pending, time.monotonic())
                    if wait > 0:
                        time.sleep(wait)
                    continue

                try:
                    task_id, res_attempt, status, value = \
                        result_q.get(timeout=0.05)
                except queue.Empty:
                    pass
                else:
                    rec = self._claim(active, task_id, res_attempt)
                    if rec is not None:
                        proc, task, attempt, started = rec
                        exited_at.pop(task_id, None)
                        proc.join(timeout=5.0)
                        elapsed = time.monotonic() - started
                        if status == "ok":
                            finish(TaskResult(task_id, value, None, attempt,
                                              elapsed))
                        else:
                            # clean exception: deterministic, don't retry
                            finish(TaskResult(task_id, None, value, attempt,
                                              elapsed))
                    continue

                now = time.monotonic()
                for task_id, (proc, task, attempt, started) in \
                        list(active.items()):
                    if (self.timeout_s is not None
                            and now - started > self.timeout_s):
                        proc.terminate()
                        proc.join(timeout=5.0)
                        active.pop(task_id)
                        exited_at.pop(task_id, None)
                        retry_or_fail(task, attempt, started,
                                      f"timed out after {self.timeout_s}s")
                    elif not proc.is_alive():
                        if proc.exitcode not in (0, None):
                            # crashed: result can no longer arrive
                            active.pop(task_id)
                            exited_at.pop(task_id, None)
                            retry_or_fail(
                                task, attempt, started,
                                f"worker died with exit code {proc.exitcode}")
                        else:
                            # exited cleanly; allow the queue flush to race
                            first = exited_at.setdefault(task_id, now)
                            if now - first > _EXIT_GRACE_S:
                                active.pop(task_id)
                                exited_at.pop(task_id, None)
                                retry_or_fail(task, attempt, started,
                                              "worker exited without a result")
        finally:
            for proc, _task, _attempt, _started in active.values():
                proc.terminate()
            for proc, _task, _attempt, _started in active.values():
                proc.join(timeout=5.0)
            result_q.close()
        return done
