"""Orchestrator: worker pool fault tolerance, executor caching,
campaign resume and parallel-vs-sequential determinism.

The crash/timeout task functions live at module level so worker
processes (forked children) can resolve them by ``module:callable``
path exactly like the real simulation tasks.
"""

import multiprocessing as mp
import os
import signal
import time
from collections import deque

import pytest

import repro.experiments.runner as runner_mod
import repro.orchestrator.campaign as campaign_mod
import repro.orchestrator.pool as pool_mod
from repro.experiments.sweep import sweep_rates
from repro.orchestrator import (Campaign, CampaignError, Executor,
                                FabricWorker, Point, ProgressReporter,
                                ResultStore, Task, WorkerPool)
from repro.units import ns
from tests.conftest import small_config

_HERE = "tests.test_orchestrator"


def double_task(payload):
    return {"value": payload["x"] * 2}


def boom_task(payload):
    raise ValueError("boom")


def crash_task(payload):
    os._exit(5)


def crash_once_task(payload):
    # crashes on the first attempt, succeeds on the retry: the flag
    # file is the only state surviving the dead worker process
    flag = payload["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("attempt 1\n")
        os._exit(3)
    return {"recovered": True}


def sleep_task(payload):
    time.sleep(payload["seconds"])
    return {"slept": True}


def hang_once_task(payload):
    """Hangs on the first attempt (until timed out), then succeeds.

    The flag file is the only state surviving the terminated worker.
    """
    flag = payload["flag"]
    if not os.path.exists(flag):
        with open(flag, "w") as fh:
            fh.write("attempt 1\n")
        time.sleep(60)
    return {"attempt": 2}


class TestWorkerPoolInline:
    def test_runs_in_order(self):
        pool = WorkerPool(workers=1)
        tasks = [Task(str(i), f"{_HERE}:double_task", {"x": i})
                 for i in range(5)]
        results = pool.run(tasks)
        assert [r.value["value"] for r in results] == [0, 2, 4, 6, 8]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_exception_reported_not_raised(self):
        pool = WorkerPool(workers=1)
        results = pool.run([Task("t", f"{_HERE}:boom_task", {})])
        assert not results[0].ok
        assert "ValueError: boom" in results[0].error

    def test_on_result_streams(self):
        seen = []
        pool = WorkerPool(workers=1)
        pool.run([Task(str(i), f"{_HERE}:double_task", {"x": i})
                  for i in range(3)],
                 on_result=lambda r: seen.append(r.task_id))
        assert seen == ["0", "1", "2"]

    def test_duplicate_ids_rejected(self):
        pool = WorkerPool(workers=1)
        with pytest.raises(ValueError, match="unique"):
            pool.run([Task("a", f"{_HERE}:double_task", {"x": 1}),
                      Task("a", f"{_HERE}:double_task", {"x": 2})])


class TestWorkerPoolParallel:
    def test_results_in_input_order(self):
        pool = WorkerPool(workers=3)
        tasks = [Task(str(i), f"{_HERE}:double_task", {"x": i})
                 for i in range(7)]
        results = pool.run(tasks)
        assert [r.value["value"] for r in results] == \
            [2 * i for i in range(7)]

    def test_clean_exception_not_retried(self):
        pool = WorkerPool(workers=2, retries=3)
        results = pool.run([Task("t", f"{_HERE}:boom_task", {})])
        assert not results[0].ok
        assert results[0].attempts == 1
        assert "ValueError: boom" in results[0].error

    def test_crashed_worker_retried_then_fails(self):
        pool = WorkerPool(workers=2, retries=1)
        results = pool.run([Task("t", f"{_HERE}:crash_task", {})])
        assert not results[0].ok
        assert results[0].attempts == 2
        assert "exit code 5" in results[0].error

    def test_crashed_worker_recovers_on_retry(self, tmp_path):
        pool = WorkerPool(workers=2, retries=1)
        flag = str(tmp_path / "flag")
        results = pool.run([Task("t", f"{_HERE}:crash_once_task",
                                 {"flag": flag})])
        assert results[0].ok
        assert results[0].value == {"recovered": True}
        assert results[0].attempts == 2

    def test_crash_does_not_poison_other_tasks(self, tmp_path):
        pool = WorkerPool(workers=2, retries=0)
        tasks = [Task("ok1", f"{_HERE}:double_task", {"x": 1}),
                 Task("bad", f"{_HERE}:crash_task", {}),
                 Task("ok2", f"{_HERE}:double_task", {"x": 2})]
        results = pool.run(tasks)
        assert results[0].ok and results[2].ok
        assert not results[1].ok

    def test_hung_worker_times_out(self):
        pool = WorkerPool(workers=2, timeout_s=0.5, retries=0)
        t0 = time.monotonic()
        results = pool.run([Task("t", f"{_HERE}:sleep_task",
                                 {"seconds": 60})])
        assert time.monotonic() - t0 < 30
        assert not results[0].ok
        assert "timed out" in results[0].error


class TestStaleResultAttribution:
    """Queue entries are attempt-tagged: a result flushed by a
    terminated earlier attempt must never be credited to a live retry
    of the same task (regression for the untagged-tuple race)."""

    def test_claim_accepts_matching_attempt(self):
        active = {"t": ("proc", "task", 2, 0.0)}
        rec = WorkerPool._claim(active, "t", 2)
        assert rec == ("proc", "task", 2, 0.0)
        assert "t" not in active        # claimed records leave the map

    def test_claim_drops_stale_attempt(self):
        # attempt 1 was timed out and terminated, but its result hit
        # the queue first; attempt 2 is the live one
        active = {"t": ("proc", "task", 2, 0.0)}
        assert WorkerPool._claim(active, "t", 1) is None
        assert "t" in active            # the live attempt stays in flight

    def test_claim_drops_unknown_task(self):
        assert WorkerPool._claim({}, "ghost", 1) is None

    def test_timed_out_task_result_comes_from_the_retry(self, tmp_path):
        """End to end: attempt 1 hangs past the timeout and is killed;
        the reported value must be attempt 2's."""
        pool = WorkerPool(workers=2, timeout_s=0.5, retries=1)
        flag = str(tmp_path / "flag")
        results = pool.run([Task("t", f"{_HERE}:hang_once_task",
                                 {"flag": flag})])
        assert results[0].ok
        assert results[0].value == {"attempt": 2}
        assert results[0].attempts == 2


class TestBackoffIdleSleep:
    """With every pending attempt backing off and nothing active, the
    supervisor sleeps until the earliest not_before instead of
    spinning on the result queue at 20 Hz."""

    def test_backoff_wait_helper(self):
        now = 100.0
        pending = deque([("t1", 2, 103.5), ("t2", 2, 101.25)])
        assert WorkerPool._backoff_wait_s(pending, now) == \
            pytest.approx(1.25)
        assert WorkerPool._backoff_wait_s(deque(), now) == 0.0
        # an already-expired backoff never produces a negative sleep
        assert WorkerPool._backoff_wait_s(
            deque([("t", 2, 99.0)]), now) == 0.0

    def test_idle_backoff_sleeps_instead_of_polling(self, tmp_path,
                                                    monkeypatch):
        """The sole pending task is backing off and nothing is active:
        the supervisor must cover the window with sleep, not with
        dozens of 50 ms queue polls."""
        sleeps = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(pool_mod.time, "sleep", recording_sleep)
        pool = WorkerPool(workers=2, retries=1, retry_backoff_s=0.6,
                          retry_jitter=0.0)
        flag = str(tmp_path / "flag")
        results = pool.run([Task("t", f"{_HERE}:crash_once_task",
                                 {"flag": flag})])
        assert results[0].ok and results[0].attempts == 2
        # one sleep spanning (most of) the 0.6 s backoff window
        assert any(s > 0.4 for s in sleeps)


class TestRetryBackoff:
    def test_zero_backoff_means_no_delay(self):
        pool = WorkerPool(workers=2)
        assert pool._retry_delay_s(1) == 0.0
        assert pool._retry_delay_s(5) == 0.0

    def test_delay_doubles_and_jitter_is_bounded(self):
        pool = WorkerPool(workers=2, retry_backoff_s=0.5,
                          retry_jitter=0.5)
        for attempt in (1, 2, 3):
            base = 0.5 * 2 ** (attempt - 1)
            for _ in range(20):
                d = pool._retry_delay_s(attempt)
                assert base <= d <= base * 1.5

    def test_no_jitter_is_deterministic(self):
        pool = WorkerPool(workers=2, retry_backoff_s=1.0,
                          retry_jitter=0.0)
        assert pool._retry_delay_s(1) == 1.0
        assert pool._retry_delay_s(3) == 4.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="retry_backoff_s"):
            WorkerPool(retry_backoff_s=-1.0)
        with pytest.raises(ValueError, match="retry_jitter"):
            WorkerPool(retry_jitter=-0.1)

    def test_crash_retry_waits_out_the_backoff(self, tmp_path):
        pool = WorkerPool(workers=2, retries=1, retry_backoff_s=0.5,
                          retry_jitter=0.0)
        flag = str(tmp_path / "flag")
        t0 = time.monotonic()
        results = pool.run([Task("t", f"{_HERE}:crash_once_task",
                                 {"flag": flag})])
        assert results[0].ok
        assert results[0].attempts == 2
        assert time.monotonic() - t0 >= 0.5

    def test_backoff_does_not_stall_other_tasks(self, tmp_path):
        """While one task sits out its backoff, fresh tasks keep
        launching."""
        pool = WorkerPool(workers=2, retries=1, retry_backoff_s=1.0,
                          retry_jitter=0.0)
        flag = str(tmp_path / "flag")
        tasks = [Task("crash", f"{_HERE}:crash_once_task",
                      {"flag": flag})] + \
            [Task(f"ok{i}", f"{_HERE}:double_task", {"x": i})
             for i in range(4)]
        results = pool.run(tasks)
        assert all(r.ok for r in results)
        assert results[0].attempts == 2

    def test_executor_threads_backoff_through(self):
        executor = Executor(workers=2, retry_backoff_s=1.5)
        assert executor.pool.retry_backoff_s == 1.5


def _count_calls(monkeypatch):
    """Wrap the pool's run_simulation with a call counter (only
    observable on the in-process path, which is exactly the point:
    cached campaigns must not reach it at all)."""
    calls = []
    real = pool_mod.run_simulation

    def counting(config, **kwargs):
        calls.append(config)
        return real(config, **kwargs)

    monkeypatch.setattr(pool_mod, "run_simulation", counting)
    return calls


class TestExecutor:
    def test_completed_campaign_runs_zero_simulations(self, tmp_path,
                                                      monkeypatch):
        calls = _count_calls(monkeypatch)
        store = ResultStore(tmp_path)
        configs = [small_config(injection_rate=r) for r in (0.005, 0.01)]

        first = Executor(workers=1, store=store).run_configs(configs)
        assert len(calls) == 2

        ex = Executor(workers=1, store=store)
        second = ex.run_configs(configs)
        assert len(calls) == 2        # zero new run_simulation calls
        assert ex.stats.cached == 2 and ex.stats.simulated == 0
        assert [s.to_dict() for s in second] == \
            [s.to_dict() for s in first]

    def test_interrupted_campaign_resumes_missing_points_only(
            self, tmp_path, monkeypatch):
        calls = _count_calls(monkeypatch)
        store = ResultStore(tmp_path)
        rates = (0.004, 0.008, 0.012, 0.016)
        configs = [small_config(injection_rate=r) for r in rates]

        # campaign dies after two points (a killed worker / ^C leaves
        # exactly this on disk: the finished prefix, nothing else)
        Executor(workers=1, store=store).run_configs(configs[:2])
        assert len(calls) == 2

        ex = Executor(workers=1, store=store)
        summaries = ex.run_configs(configs)
        assert len(calls) == 4        # only the two missing points ran
        assert ex.stats.cached == 2 and ex.stats.simulated == 2
        assert [s.offered_flits_ns_switch for s in summaries] == \
            pytest.approx(list(rates))

    def test_failed_point_raises_campaign_error(self, tmp_path):
        ex = Executor(workers=1, store=ResultStore(tmp_path))
        bad = small_config().with_overrides(injection_rate=-1.0)
        with pytest.raises(CampaignError, match="1 of 1"):
            ex.run_configs([bad])
        assert ResultStore(tmp_path).info().entries == 0

    def test_live_graph_kwarg_rejected(self, torus44):
        ex = Executor(workers=1)
        with pytest.raises(ValueError, match="graph"):
            ex.run_points([Point("p", small_config(),
                                 {"graph": torus44})])

    def test_no_store_executor_works(self):
        ex = Executor(workers=1, store=None)
        out = ex.run_configs([small_config()])
        assert out[0].messages_delivered > 0
        assert ex.stats.simulated == 1 and ex.stats.cached == 0


def _watch_builds(monkeypatch, children_may_build=False):
    """Wrap the runner's graph and table builders.

    Returns the list of builders called in this process, in call
    order.  Unless ``children_may_build``, a call from any other
    process (a forked child inherits the wrapper) raises, which fails
    that child's task.
    """
    parent = os.getpid()
    builds = []

    def watch(name):
        real = getattr(runner_mod, name)

        def watched(*args, **kwargs):
            if os.getpid() != parent:
                if not children_may_build:
                    raise AssertionError(f"{name} ran in a forked child")
            else:
                builds.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, name, watched)

    watch("build_topology")
    watch("compute_tables")
    return builds


def _watch_warms(monkeypatch):
    """Record every parent-side warm-up the executor asks for."""
    warms = []
    real = campaign_mod.warm_point_memo

    def watched(payload):
        warms.append(payload)
        return real(payload)

    monkeypatch.setattr(campaign_mod, "warm_point_memo", watched)
    return warms


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="children inherit the warm memo only via fork")
class TestParentWarm:
    """Forking executors build every table once, in the parent."""

    CONFIGS = [small_config(injection_rate=0.005),
               small_config(injection_rate=0.01),
               small_config(routing="updown", policy="sp",
                            injection_rate=0.005)]

    def test_forked_children_build_nothing(self, tmp_path, monkeypatch):
        builds = _watch_builds(monkeypatch)
        ex = Executor(workers=2, store=ResultStore(tmp_path))
        par = ex.run_configs(self.CONFIGS)
        assert ex.stats.simulated == 3
        # one graph and two table sets (itb, updown), each built once
        assert builds == ["build_topology", "compute_tables",
                          "compute_tables"]
        runner_mod.clear_caches()
        seq = Executor(workers=1).run_configs(self.CONFIGS)
        assert [s.to_dict() for s in par] == [s.to_dict() for s in seq]

    def test_cached_rerun_builds_nothing(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        Executor(workers=2, store=store).run_configs(self.CONFIGS)
        runner_mod.clear_caches()
        builds = _watch_builds(monkeypatch)
        ex = Executor(workers=2, store=store)
        ex.run_configs(self.CONFIGS)
        assert ex.stats.cached == 3 and ex.stats.simulated == 0
        assert builds == []

    def test_inline_executor_does_not_warm(self, monkeypatch):
        warms = _watch_warms(monkeypatch)
        builds = _watch_builds(monkeypatch)
        Executor(workers=1).run_configs(self.CONFIGS)
        assert warms == []
        # the runs' own memo lookups, nothing more
        assert builds == ["build_topology", "compute_tables",
                          "compute_tables"]

    def test_fabric_executor_does_not_warm(self, monkeypatch):
        warms = _watch_warms(monkeypatch)
        builds = _watch_builds(monkeypatch, children_may_build=True)
        worker = FabricWorker()
        addr = worker.listen()
        proc = mp.get_context("fork").Process(target=worker.serve_forever,
                                              daemon=True)
        proc.start()
        worker._sock.close()           # parent's copy; the child serves
        try:
            ex = Executor(fabric=addr)
            out = ex.run_configs(self.CONFIGS[:1])
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5.0)
        assert out[0].messages_delivered > 0
        assert warms == [] and builds == []

    def test_failing_table_build_fails_only_its_point(self, tmp_path,
                                                      monkeypatch):
        real = runner_mod.compute_tables

        def updown_breaks(g, scheme, *args):
            if scheme == "updown":
                raise RuntimeError("table build exploded")
            return real(g, scheme, *args)

        monkeypatch.setattr(runner_mod, "compute_tables", updown_breaks)
        ex = Executor(workers=2, store=ResultStore(tmp_path))
        with pytest.raises(CampaignError, match="1 of 3") as err:
            ex.run_configs(self.CONFIGS)
        assert "table build exploded" in str(err.value)
        assert ex.stats.simulated == 2 and ex.stats.failed == 1
        assert ResultStore(tmp_path).info().entries == 2


class TestDeterminism:
    def test_parallel_campaign_bit_identical_to_sequential(self, tmp_path):
        """4-worker campaign == sequential path, field for field."""
        base = small_config()
        rates = [0.004, 0.008, 0.02, 0.04]
        seq = sweep_rates(base, rates)
        ex = Executor(workers=4, store=ResultStore(tmp_path))
        par = sweep_rates(base, rates, executor=ex)
        assert ex.stats.simulated == len(rates)
        assert len(par.runs) == len(seq.runs)
        # to_dict comparison pins *bit* equality of every float field
        assert [r.to_dict() for r in par.runs] == \
            [r.to_dict() for r in seq.runs]

    def test_wave_dispatch_preserves_early_stop(self, tmp_path):
        """Ascending waves keep stop_after_saturation's kept prefix
        identical to the sequential path's."""
        base = small_config(warmup_ps=ns(10_000), measure_ps=ns(40_000))
        rates = [0.004, 0.3, 0.4, 0.5, 0.6]
        seq = sweep_rates(base, rates, stop_after_saturation=1)
        assert 2 <= len(seq.runs) < len(rates)  # the stop actually fired
        ex = Executor(workers=2, store=ResultStore(tmp_path))
        par = sweep_rates(base, rates, stop_after_saturation=1,
                          executor=ex)
        assert [r.to_dict() for r in par.runs] == \
            [r.to_dict() for r in seq.runs]


class TestCampaign:
    def test_from_sweep_runs_and_reports(self, tmp_path, capsys):
        import io
        stream = io.StringIO()
        ex = Executor(workers=1, store=ResultStore(tmp_path),
                      reporter=ProgressReporter(stream))
        camp = Campaign.from_sweep("demo", small_config(), [0.01, 0.005])
        results = camp.run(ex)
        assert set(results) == {"demo:0.005", "demo:0.01"}
        assert results["demo:0.01"].messages_delivered > 0
        out = stream.getvalue()
        assert "[1/2]" in out and "[2/2]" in out
        assert "demo:" in out

    def test_rerun_is_all_cache_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        camp = Campaign.from_sweep("demo", small_config(), [0.01, 0.005])
        camp.run(Executor(workers=1, store=store))
        ex = Executor(workers=1, store=store)
        camp.run(ex)
        assert ex.stats.cached == 2 and ex.stats.simulated == 0
