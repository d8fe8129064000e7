"""Distributed campaign fabric: remote work-queue workers + coordinator.

Scales the orchestrator from one box to a fleet.  Two halves, speaking
the length-prefixed JSON frames of :mod:`~repro.orchestrator.wire`:

* :class:`FabricWorker` -- a long-running process (``repro fabric
  worker --listen host:port``) that accepts one coordinator session at
  a time and executes tasks sequentially, exactly like an inline
  :class:`~repro.orchestrator.pool.WorkerPool` worker: resolve the
  ``"module:callable"`` function, call it on the JSON payload, frame
  the JSON result back.  Nothing about a task is fabric-specific, so
  sweeps, tournaments and resilience campaigns run unchanged.
* :class:`FabricPool` -- the coordinator.  It is interface-compatible
  with :class:`~repro.orchestrator.pool.WorkerPool` (``run(tasks,
  on_result)`` returning input-ordered :class:`TaskResult`\\ s), which
  is what lets :class:`~repro.orchestrator.campaign.Executor` swap it
  in behind ``fabric="host:port,..."`` with zero changes above.

**Lease discipline.**  One thread per worker address leases the next
ready attempt from a shared
:class:`~repro.orchestrator.lease.LeaseLedger` -- the same attempt and
retry state machine the local pool runs -- and sends it to its worker.
The ledger owns the books; this module maps wire events onto its four
lease endings:

1. a ``result`` frame -> :meth:`~LeaseLedger.result`, which credits it
   only under the live attempt's tag (``ok`` finishes the task;
   ``err`` is a deterministic Python exception and fails immediately,
   never retried -- same contract as the local pool);
2. the lease timeout (``lease_timeout_s``, the Executor's
   ``timeout_s``) expires, or the connection dies mid-task (worker
   SIGKILLed, machine lost) -> the session is abandoned and
   :meth:`~LeaseLedger.lost` re-leases the task after the exponential
   retry backoff, counting an attempt like a hung or crashed local
   worker (a late result on the abandoned session can never be read);
3. the task could not be *delivered* (connect refused, send failed) ->
   :meth:`~LeaseLedger.undelivered` re-queues it without consuming an
   attempt: it provably never started;
4. every worker thread has gone -> :meth:`~LeaseLedger.give_up` fails
   what is left loudly rather than hang.

A worker whose address stays unreachable for ``connect_attempts``
consecutive tries is declared dead and its thread exits.  All ledger
calls happen under one ``threading.Condition``, so ``on_result``
fires serialised, in completion order, and progress reporting and
incremental store writes behave exactly as with local workers.

Determinism: task execution is ``_resolve(fn)(payload)`` in a single
worker process, the same call the inline pool makes, and the caller
reassembles results by ``task_id`` in input order -- so a campaign
sharded across N fabric workers is bit-identical to sequential
execution no matter how leases interleave.
"""

from __future__ import annotations

import os
import socket
import ssl
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .lease import LeaseLedger, Task, TaskResult
from .pool import _resolve
from .wire import (WIRE_FORMAT, FrameError, format_addr, parse_addrs,
                   recv_frame, send_frame)

__all__ = ["FabricPool", "FabricWorker", "worker_main"]


def _code_version() -> str:
    from .. import __version__
    return __version__


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

class FabricWorker:
    """Serves tasks to one coordinator at a time over TCP.

    ``bind`` is ``"host:port"`` (port 0 picks a free one -- read
    :attr:`address` after :meth:`listen`).  ``max_sessions`` bounds how
    many coordinator sessions are served before returning (``None`` =
    forever), which is what lets tests and smoke scripts run a worker
    to natural completion.

    ``tls_cert``/``tls_key`` (both PEM paths, given together) wrap every
    accepted session in TLS.  The model is CA pinning, not a PKI: the
    coordinator verifies the worker's certificate against exactly the
    bundle it was given (``FabricPool(tls_ca=...)``), so a worker
    serving any other certificate -- or a plaintext impostor on the
    same port -- fails the handshake and is treated as unreachable.
    """

    def __init__(self, bind: str = "127.0.0.1:0",
                 max_sessions: Optional[int] = None,
                 tls_cert: Optional[str] = None,
                 tls_key: Optional[str] = None):
        (self._host, self._port), = parse_addrs(bind)
        self.max_sessions = max_sessions
        if (tls_cert is None) != (tls_key is None):
            raise ValueError("tls_cert and tls_key must be given together")
        self._tls: Optional[ssl.SSLContext] = None
        if tls_cert is not None:
            self._tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            self._tls.load_cert_chain(tls_cert, tls_key)
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()

    @property
    def address(self) -> str:
        if self._sock is None:
            raise RuntimeError("worker is not listening yet")
        host, port = self._sock.getsockname()[:2]
        return format_addr((host, port))

    def listen(self) -> str:
        """Bind + listen; returns the resolved ``host:port``.

        Split from :meth:`serve_forever` so a parent process can bind
        (learning the port), fork, and let the child inherit the live
        socket -- the pattern the tests and CI smoke use.
        """
        if self._sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self._host, self._port))
            sock.listen(8)
            sock.settimeout(0.5)       # poll the stop flag in accept()
            self._sock = sock
        return self.address

    def close(self) -> None:
        self._stop.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass

    def serve_forever(self) -> None:
        """Accept coordinator sessions until stopped."""
        self.listen()
        served = 0
        try:
            while not self._stop.is_set():
                if self.max_sessions is not None \
                        and served >= self.max_sessions:
                    break
                try:
                    conn, _peer = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break              # socket closed under us
                if self._tls is not None:
                    try:
                        conn.settimeout(5.0)   # bound the handshake
                        conn = self._tls.wrap_socket(conn,
                                                     server_side=True)
                    except (OSError, ssl.SSLError):
                        # failed handshake (plaintext probe, wrong CA):
                        # not a session -- drop it and keep serving
                        try:
                            conn.close()
                        except OSError:
                            pass
                        continue
                served += 1
                self._serve_session(conn)
        finally:
            self.close()

    def _serve_session(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        try:
            send_frame(conn, {"type": "hello", "pid": os.getpid(),
                              "version": _code_version(),
                              "wire": WIRE_FORMAT})
            while True:
                try:
                    msg = recv_frame(conn)
                except FrameError:
                    return
                if msg is None:
                    return             # coordinator went away
                kind = msg.get("type")
                if kind == "ping":
                    send_frame(conn, {"type": "pong"})
                elif kind == "task":
                    send_frame(conn, self._execute(msg))
                elif kind == "shutdown":
                    if msg.get("stop_server"):
                        self._stop.set()
                    return
                # unknown frame types are ignored: a newer coordinator
                # may probe with messages an older worker predates
        except OSError:
            pass                       # session over; back to accept()
        finally:
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _execute(msg: Dict) -> Dict:
        t0 = time.monotonic()
        try:
            value = _resolve(msg["fn"])(msg["payload"])
            status, out = "ok", value
        except BaseException:
            status, out = "err", traceback.format_exc()
        return {"type": "result", "task_id": msg["task_id"],
                "attempt": msg["attempt"], "status": status,
                "value": out, "elapsed_s": time.monotonic() - t0}


def worker_main(bind: str = "127.0.0.1:0",
                max_sessions: Optional[int] = None,
                announce: Optional[Callable[[str], None]] = None,
                tls_cert: Optional[str] = None,
                tls_key: Optional[str] = None) -> None:
    """Run one fabric worker until interrupted (CLI entry point)."""
    worker = FabricWorker(bind, max_sessions=max_sessions,
                          tls_cert=tls_cert, tls_key=tls_key)
    addr = worker.listen()
    if announce:
        announce(addr)
    worker.serve_forever()


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------

class FabricPool:
    """Lease tasks across remote fabric workers (drop-in pool).

    ``addrs`` is ``"host:port,..."`` or a list of ``(host, port)``
    tuples.  ``lease_timeout_s`` bounds one attempt on one worker
    (``None`` = unbounded: worker *death* is still detected promptly
    via connection loss, only a live-but-hung worker can then stall
    the campaign, mirroring the local pool without ``timeout_s``).
    ``retries``/``retry_backoff_s`` follow
    :class:`~repro.orchestrator.pool.WorkerPool` exactly: both pools
    keep their books in a :class:`~repro.orchestrator.lease.LeaseLedger`.

    ``tls_ca`` (a PEM bundle path) turns every dial into a TLS
    handshake verified against exactly that bundle (CA pinning --
    hostname checks are off because workers are addressed by IP; the
    pinned CA is the identity).  A worker presenting a certificate the
    bundle does not vouch for fails the handshake, which counts as a
    dial failure like any refused connection.
    """

    def __init__(self, addrs, lease_timeout_s: Optional[float] = None,
                 retries: int = 1, retry_backoff_s: float = 0.0,
                 connect_attempts: int = 5,
                 connect_backoff_s: float = 0.2,
                 tls_ca: Optional[str] = None):
        if isinstance(addrs, str):
            addrs = parse_addrs(addrs)
        self.addrs: List[Tuple[str, int]] = list(addrs)
        if not self.addrs:
            raise ValueError("fabric needs at least one worker address")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if lease_timeout_s is not None and lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        self.lease_timeout_s = lease_timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.connect_attempts = max(1, connect_attempts)
        self.connect_backoff_s = connect_backoff_s
        self._tls: Optional[ssl.SSLContext] = None
        if tls_ca is not None:
            self._tls = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
            self._tls.check_hostname = False   # workers addressed by IP
            self._tls.verify_mode = ssl.CERT_REQUIRED
            self._tls.load_verify_locations(cafile=tls_ca)

    @property
    def workers(self) -> int:
        """Fleet size (drives the Executor's wave dispatch width)."""
        return len(self.addrs)

    # -- public API -----------------------------------------------------

    def run(self, tasks: Sequence[Task],
            on_result: Optional[Callable[[TaskResult], None]] = None
            ) -> List[TaskResult]:
        """Execute every task on the fleet; results in input order.

        An exception raised by ``on_result`` stops the run and
        propagates, as from the local pool: no further result is
        delivered and every lease thread exits at its next lease.
        """
        errors: List[BaseException] = []

        def deliver(res: TaskResult) -> None:
            # called under ``cond``, so completion handling (store
            # writes, progress lines, executor stats) is serialised
            # exactly as on the single-threaded local-pool path; an
            # exception is kept for run() to re-raise, since raising it
            # here would only kill one lease thread
            if on_result is None or errors:
                return
            try:
                on_result(res)
            except BaseException as exc:
                errors.append(exc)

        ledger = LeaseLedger(tasks, self.retries, self.retry_backoff_s,
                             deliver)
        if not tasks:
            return []
        cond = threading.Condition()
        threads = [
            threading.Thread(target=self._worker_loop,
                             args=(addr, ledger, cond, errors),
                             name=f"fabric-{format_addr(addr)}",
                             daemon=True)
            for addr in self.addrs
        ]
        for t in threads:
            t.start()
        with cond:
            while not (ledger.finished or errors) \
                    and any(t.is_alive() for t in threads):
                cond.wait(timeout=0.2)
            if not (ledger.finished or errors):
                # every worker is gone; whatever is left can never run
                # -- fail loudly instead of hanging
                ledger.give_up("no reachable fabric workers "
                               f"(fleet: {self.describe_fleet()})")
            cond.notify_all()
        if errors:
            raise errors[0]
        for t in threads:
            t.join(timeout=10.0)
        return ledger.results()

    def describe_fleet(self) -> str:
        return ",".join(format_addr(a) for a in self.addrs)

    # -- per-worker lease thread ----------------------------------------

    def _connect(self, addr: Tuple[str, int]) -> socket.socket:
        """Dial a worker and validate its hello (5 s handshake cap)."""
        sock = socket.create_connection(addr, timeout=5.0)
        if self._tls is not None:
            try:
                sock = self._tls.wrap_socket(sock)
            except (OSError, ssl.SSLError):
                sock.close()
                raise
        try:
            hello = recv_frame(sock)
            if hello is None or hello.get("type") != "hello":
                raise FrameError(f"worker {format_addr(addr)} sent no hello")
            if hello.get("wire") != WIRE_FORMAT:
                raise FrameError(
                    f"worker {format_addr(addr)} speaks wire format "
                    f"{hello.get('wire')}, coordinator {WIRE_FORMAT}")
            if hello.get("version") != _code_version():
                # results are content-addressed by code version; a
                # mismatched worker would silently compute under
                # different sources
                raise FrameError(
                    f"worker {format_addr(addr)} runs repro "
                    f"{hello.get('version')}, coordinator "
                    f"{_code_version()}")
            sock.settimeout(None)
            return sock
        except BaseException:
            sock.close()
            raise

    def _worker_loop(self, addr: Tuple[str, int], ledger: LeaseLedger,
                     cond: threading.Condition,
                     errors: List[BaseException]) -> None:
        name = format_addr(addr)
        conn: Optional[socket.socket] = None
        dial_failures = 0
        try:
            while True:
                # -- lease the next ready attempt ----------------------
                with cond:
                    while True:
                        if ledger.finished or errors:
                            return
                        lease = ledger.lease()
                        if lease is not None:
                            break
                        # leased elsewhere or backing off: wake when
                        # notified, or poll for backoff expiry
                        cond.wait(timeout=0.1)
                task, attempt = lease

                # -- deliver it over a live session --------------------
                if conn is None:
                    try:
                        conn = self._connect(addr)
                        dial_failures = 0
                    except (OSError, FrameError):
                        pass
                if conn is not None:
                    try:
                        send_frame(conn, {"type": "task",
                                          "task_id": task.task_id,
                                          "attempt": attempt,
                                          "fn": task.fn,
                                          "payload": dict(task.payload)})
                    except OSError:
                        self._drop_conn(conn)
                        conn = None
                if conn is None:
                    # the task never reached the worker, so no attempt
                    # is used; a failed send counts against the dial
                    # budget too, so an accept-then-die worker cannot
                    # spin forever
                    dial_failures += 1
                    with cond:
                        ledger.undelivered(task.task_id, attempt)
                        cond.notify_all()
                    if dial_failures >= self.connect_attempts:
                        return
                    time.sleep(self.connect_backoff_s * dial_failures)
                    continue

                # -- await the outcome ---------------------------------
                conn.settimeout(self.lease_timeout_s)
                reason = f"worker {name} lost mid-task"
                try:
                    msg = recv_frame(conn)
                except socket.timeout:
                    # lease expired: abandon the whole session -- the
                    # worker may still be computing the stale attempt,
                    # and a fresh dial will queue behind it
                    msg = None
                    reason = (f"lease expired after {self.lease_timeout_s}s "
                              f"on {name}")
                except (OSError, FrameError):
                    msg = None         # connection died mid-task
                credited = False
                if msg is not None and msg.get("type") == "result" \
                        and msg.get("task_id") == task.task_id:
                    ok = msg.get("status") == "ok"
                    elapsed = msg.get("elapsed_s")
                    with cond:
                        # the ledger checks the attempt tag; a clean
                        # exception on the worker is deterministic and
                        # is credited, never retried (pool contract)
                        credited = ledger.result(
                            task.task_id, msg.get("attempt"),
                            value=msg.get("value") if ok else None,
                            error=None if ok else str(msg.get("value")),
                            elapsed_s=elapsed if isinstance(
                                elapsed, (int, float)) else None)
                        cond.notify_all()
                if credited:
                    dial_failures = 0  # the worker is demonstrably live
                    conn.settimeout(None)
                    continue
                if msg is not None:
                    # protocol desync (e.g. a stale result from a lease
                    # this coordinator never made): drop the session and
                    # re-lease; the attempt tag makes this safe
                    reason = f"worker {name} answered out of protocol"
                self._drop_conn(conn)
                conn = None
                with cond:
                    ledger.lost(task.task_id, attempt, reason)
                    cond.notify_all()
        finally:
            if conn is not None:
                try:
                    send_frame(conn, {"type": "shutdown"})
                except OSError:
                    pass
                self._drop_conn(conn)

    @staticmethod
    def _drop_conn(conn: Optional[socket.socket]) -> None:
        if conn is None:
            return
        try:
            conn.close()
        except OSError:
            pass
