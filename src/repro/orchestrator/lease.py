"""The lease ledger: one attempt/retry state machine for every pool.

:class:`LeaseLedger` is pure bookkeeping -- no processes, sockets or
threads.  The local :class:`~repro.orchestrator.pool.WorkerPool` and
the remote :class:`~repro.orchestrator.fabric.FabricPool` are thin
transports over it: they ask for a lease, run the attempt however they
run things, and report how the lease ended.  A lease ends in exactly
one of four ways:

1. :meth:`~LeaseLedger.result` -- the attempt reported a value or a
   clean exception.  Only a report carrying the live attempt's tag is
   credited; a stale flush from an abandoned earlier attempt is
   dropped.  A clean exception is deterministic and is never retried.
2. :meth:`~LeaseLedger.lost` -- the attempt timed out, crashed or its
   connection died.  The task is re-queued after the exponential retry
   backoff, or failed ``"<reason> (after N attempts)"`` once it has
   used ``retries`` extra attempts.
3. :meth:`~LeaseLedger.undelivered` -- the attempt provably never
   started (dial or send failure); re-queued at once without counting
   an attempt.
4. :meth:`~LeaseLedger.give_up` -- the transport can run nothing more;
   every pending task fails with the given reason.

``clock`` and ``rng`` are injectable so tests drive backoff and
timing without sleeping.  Callers serialise access (the fabric holds
one lock around every call); the ledger itself takes no locks.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["LeaseLedger", "RETRY_JITTER", "Task", "TaskResult",
           "retry_delay_s"]

#: up to this fraction of random extra delay stretches each retry
#: backoff, so simultaneous failures do not retry in lock-step
RETRY_JITTER = 0.5


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


def retry_delay_s(backoff_s: float, failed_attempt: int,
                  rng: random.Random) -> float:
    """Seconds to wait before re-running after ``failed_attempt``.

    Exponential (doubling per attempt) from ``backoff_s``, stretched by
    up to :data:`RETRY_JITTER` of random extra delay.
    """
    if backoff_s <= 0:
        return 0.0
    delay = backoff_s * (2.0 ** (failed_attempt - 1))
    return delay * (1.0 + RETRY_JITTER * rng.random())


class LeaseLedger:
    """Pending queue, live leases and results of one pool ``run()``.

    ``on_result`` fires once per task as it finishes (completion
    order); :meth:`results` returns them in input order.
    """

    def __init__(self, tasks: Sequence[Task], retries: int = 1,
                 retry_backoff_s: float = 0.0,
                 on_result: Optional[Callable[[TaskResult], None]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 rng: Optional[random.Random] = None):
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task ids must be unique within one run() call")
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.on_result = on_result
        self.clock = clock
        self.rng = rng if rng is not None else random.Random()
        self._tasks = list(tasks)
        #: (task, attempt, not_before): the attempt may not start
        #: before the clock reads ``not_before`` (retry backoff)
        self._pending = deque((t, 1, 0.0) for t in tasks)
        #: task_id -> (task, attempt, leased_at)
        self._leased: Dict[str, Tuple[Task, int, float]] = {}
        self._done: Dict[str, TaskResult] = {}

    @property
    def finished(self) -> bool:
        return len(self._done) == len(self._tasks)

    def lease(self) -> Optional[Tuple[Task, int]]:
        """Lease the first pending attempt whose backoff has elapsed,
        as ``(task, attempt)``; ``None`` if none is ready."""
        now = self.clock()
        for i, (task, attempt, not_before) in enumerate(self._pending):
            if not_before <= now:
                del self._pending[i]
                self._leased[task.task_id] = (task, attempt, now)
                return task, attempt
        return None

    def wait_s(self) -> float:
        """Seconds until the earliest pending attempt may be leased."""
        if not self._pending:
            return 0.0
        return max(0.0, min(e[2] for e in self._pending) - self.clock())

    def result(self, task_id: str, attempt: Any,
               value: Optional[Dict[str, Any]] = None,
               error: Optional[str] = None,
               elapsed_s: Optional[float] = None) -> bool:
        """Credit the live attempt's value or clean exception; ``False``
        (and nothing changes) for a stale or unknown attempt."""
        lease = self._end(task_id, attempt)
        if lease is None:
            return False
        _task, attempt, leased_at = lease
        if elapsed_s is None:
            elapsed_s = self.clock() - leased_at
        self._finish(TaskResult(task_id, value, error, attempt,
                                float(elapsed_s)))
        return True

    def lost(self, task_id: str, attempt: int, reason: str) -> bool:
        """The attempt died unreported: retry after backoff, or fail."""
        lease = self._end(task_id, attempt)
        if lease is None:
            return False
        task, attempt, leased_at = lease
        now = self.clock()
        if attempt <= self.retries:
            not_before = now + retry_delay_s(self.retry_backoff_s, attempt,
                                             self.rng)
            self._pending.append((task, attempt + 1, not_before))
        else:
            self._finish(TaskResult(task_id, None,
                                    f"{reason} (after {attempt} attempts)",
                                    attempt, now - leased_at))
        return True

    def undelivered(self, task_id: str, attempt: int) -> bool:
        """The attempt never started: re-queue it, uncounted."""
        lease = self._end(task_id, attempt)
        if lease is None:
            return False
        self._pending.append((lease[0], attempt, 0.0))
        return True

    def give_up(self, reason: str) -> None:
        """Fail every pending task with ``reason``."""
        while self._pending:
            task, attempt, _not_before = self._pending.popleft()
            self._finish(TaskResult(task.task_id, None, reason, attempt,
                                    0.0))

    def results(self) -> List[TaskResult]:
        """Every task's outcome, in input order (once finished)."""
        return [self._done[t.task_id] for t in self._tasks]

    def _end(self, task_id: str,
             attempt: Any) -> Optional[Tuple[Task, int, float]]:
        """Remove and return the live lease if ``attempt`` is its tag."""
        lease = self._leased.get(task_id)
        if lease is None or lease[1] != attempt:
            return None
        return self._leased.pop(task_id)

    def _finish(self, res: TaskResult) -> None:
        self._done[res.task_id] = res
        if self.on_result:
            self.on_result(res)
