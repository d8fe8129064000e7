#!/usr/bin/env python3
"""Campaign benchmark: end-to-end metrics, or a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload fig7a --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` seconds (at least
once), repetition i at seed ``--seed + i * SEED_STRIDE``.  Each
repetition, every step a fresh interpreter:

* ``setup_s`` -- the set-up probe (:mod:`perfbench.setup_probe`);
* ``campaign_s``, ``cpu_s``, ``peak_rss_mb`` -- the campaign into an
  empty result store: wall time from launch to exit, user+sys CPU of
  the whole process tree, highest RSS of any process in it;
* ``warm_rerun_s`` -- the campaign again against the store it filled
  (``WARM_RERUNS`` times); every point must come from the store.

It prints each metric's median by name and unit, with the sample count
and range, then ``error_rate`` (failed / attempted points) and, for
``fig7a``, ``paper_tput_err`` (simulated knees against the paper's).
Those two stay out of the JSON metrics: ``error_rate`` is 0 whenever
the outputs are right and travels as ``failed``/``attempted``, and
only ``fig7a`` has paper values.  ``--trace 1`` instead
runs the traced set-up probe, one untraced cold campaign and the traced
run (:mod:`perfbench.ledger`), writes the spans to
``.perfbench/ledger-<workload>-<seed>.jsonl`` and prints the per-layer
metrics; ``trace.overhead_s`` is the traced campaign's wall time minus
the untraced one's.

Every campaign's simulated results are checked (:mod:`perfbench.checks`);
the last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Only the ``packet`` engine
runs, and no ratio across engines is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import checks, spans, workloads  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench")
#: a run stops every process it started this long after it began
RUN_LIMIT_S = 170.0
WARM_RERUNS = 6
#: repetition i of a run simulates seed + i * SEED_STRIDE
SEED_STRIDE = 7919

UNITS = {"campaign_s": "s", "cpu_s": "s", "warm_rerun_s": "s",
         "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.import_s": "s", "topology.build_s": "s", "routing.orient_s": "s",
    "routing.updown_build_s": "s", "routing.itb_build_s": "s",
    "routing.route_alternatives": "count", "routing.table_rss_mb": "MB",
    "routing.build_share": "ratio",
    "sim.network_build_s": "s", "sim.loop_s": "s", "sim.events": "count",
    "sim.msgs_delivered": "count", "sim.events_per_s": "1/s",
    "sim.msgs_per_s": "1/s", "experiments.useful_point_ratio": "ratio",
    "orchestrator.task_s": "s", "orchestrator.task_inflation": "ratio",
    "orchestrator.pool_overhead_s": "s", "orchestrator.store_put_s": "s",
    "orchestrator.store_get_s": "s", "orchestrator.cache_hit_ratio": "ratio",
    "orchestrator.fabric_roundtrip_s": "s", "trace.overhead_s": "s",
}


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [ROOT, os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@dataclass
class Proc:
    argv: List[str]
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    launched: float


class Runner:
    """Starts every process of one benchmark run, inside its time limit."""

    def __init__(self, tmp: str, deadline: float):
        self.tmp = tmp
        self.deadline = deadline

    def run(self, argv: List[str]) -> Proc:
        """Run ``python ARGV`` to completion; account for its process tree.

        ``wait4`` returns the child's resource use including every
        descendant it waited for (the pool's forked workers), so CPU
        time and peak RSS cover the whole tree.  A child still running
        at the deadline is killed with its whole session.
        """
        out_path = os.path.join(self.tmp, "stdout")
        err_path = os.path.join(self.tmp, "stderr")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            launched = time.monotonic()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                                    env=_env(), stdout=out, stderr=err,
                                    start_new_session=True)
            watchdog = threading.Timer(max(0.0, self.deadline - launched),
                                       _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
                # reaped above, so Popen must not wait for it again
                proc.returncode = -1
            wall = time.monotonic() - launched
            # anything the child left running in its session goes too
            _kill_group(proc.pid)
            out.seek(0)
            err.seek(0)
            return Proc(argv, os.waitstatus_to_exitcode(status), wall,
                        usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0,
                        out.read().decode(), err.read().decode(), launched)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def last_json(proc: Proc) -> dict:
    if proc.rc != 0:
        raise RuntimeError(f"{' '.join(proc.argv)} exited {proc.rc}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Tally:
    """Points attempted and failed, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.reasons.append(why)


class Campaign:
    """One cold run of a workload's commands, then warm reruns."""

    def __init__(self, w: workloads.Workload, seed: int, runner: Runner,
                 tally: Tally):
        self.w, self.seed, self.runner, self.tally = w, seed, runner, tally

    def _run(self, store: str) -> List[Proc]:
        return [self.runner.run(a) for a in self.w.argv(self.seed, store)]

    def cold(self, store: str) -> List[Proc]:
        procs = self._run(store)
        self.cold_out = [checks.without_points(p.stdout) for p in procs]
        points = self._points(procs, "cold")
        records = checks.store_records(store)
        self.check_records(records, points)
        self.stdout = procs[0].stdout
        return procs

    def warm(self, store: str) -> List[Proc]:
        procs = self._run(store)
        points = self._points(procs, "warm")
        if points["simulated"]:
            self.tally.fail(points["simulated"],
                            "warm rerun simulated points the cold run stored")
        if [checks.without_points(p.stdout) for p in procs] != self.cold_out:
            self.tally.fail(points["cached"],
                            "warm rerun output differs from the cold run's")
        return procs

    def _points(self, procs: List[Proc], phase: str) -> Dict[str, int]:
        total = {"simulated": 0, "cached": 0, "failed": 0}
        for p in procs:
            stats = checks.parse_points(p.stdout + p.stderr)
            if p.rc != 0 or not stats["found"]:
                self.tally.attempted += 1
                self.tally.fail(1, f"{phase} command {' '.join(p.argv)} "
                                   f"exited {p.rc}: {p.stderr[-2000:]}")
                continue
            for k in total:
                total[k] += stats[k]
        self.tally.attempted += total["simulated"] + total["cached"]
        if total["failed"]:
            self.tally.fail(total["failed"], f"{phase}: points failed")
        return total

    def check_records(self, records: List[dict],
                      points: Dict[str, int]) -> None:
        if len(records) != points["simulated"]:
            self.tally.fail(max(1, abs(len(records) - points["simulated"])),
                            f"store holds {len(records)} records for "
                            f"{points['simulated']} simulated points")
        for r in records:
            problems = checks.structural_problems(r["result"])
            if problems:
                self.tally.fail(1, f"{r['key'][:12]}: {'; '.join(problems)}")
        self.digests = [checks.point_digest(r["result"]) for r in records]
        self.digest = checks.campaign_digest(self.digests)
        if self.seed == workloads.REFERENCE_SEED:
            bad = checks.reference_mismatches(
                self.digests, workloads.load_reference().get(self.w.name, []))
            if bad:
                self.tally.fail(bad, f"{bad} points differ from the "
                                     "reference digests")


def fresh_dir(tmp: str, name: str) -> str:
    path = os.path.join(tmp, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def end_to_end(w: workloads.Workload, seed: int, seconds: float,
               runner: Runner, tally: Tally, update_reference: bool = False
               ) -> Tuple[Dict[str, float], Dict[str, object]]:
    samples: Dict[str, List[float]] = {k: [] for k in UNITS}
    extra: Dict[str, float] = {}
    start = time.monotonic()
    rep_s = 0.0
    first = True
    # another repetition only if it should end within the time asked for
    while first or time.monotonic() - start + rep_s <= seconds:
        rep_start = time.monotonic()
        probe = runner.run(["-m", "perfbench.setup_probe",
                            "--workload", w.name])
        samples["setup_s"].append(last_json(probe)["setup_s"])
        store = fresh_dir(runner.tmp, "store")
        # each repetition simulates its own inputs, so a run's medians
        # average over how much work a seed happens to make (sweeps stop
        # a seed-dependent number of points past saturation)
        rep_seed = seed + SEED_STRIDE * len(samples["campaign_s"])
        c = Campaign(w, rep_seed, runner, tally)
        cold = c.cold(store)
        samples["campaign_s"].append(sum(p.wall_s for p in cold))
        samples["cpu_s"].append(sum(p.cpu_s for p in cold))
        samples["peak_rss_mb"].append(max(p.maxrss_mb for p in cold))
        for _ in range(WARM_RERUNS):
            warm = c.warm(store)
            samples["warm_rerun_s"].append(sum(p.wall_s for p in warm))
        if first:
            extra["digest"] = c.digest
            if update_reference:
                workloads.save_reference(w.name, c.digests)
            if w.name == "fig7a":
                extra.update(fig7a_checks(c, seed, store, runner, tally))
        first = False
        rep_s = time.monotonic() - rep_start
    extra["repetitions"] = len(samples["campaign_s"])
    extra["samples"] = samples
    return {k: statistics.median(v) for k, v in samples.items()}, extra


def fig7a_checks(c: Campaign, seed: int, store: str, runner: Runner,
                 tally: Tally) -> Dict[str, float]:
    """Accuracy against the paper, and identity with the CLI campaign."""
    if not c.stdout.startswith("{"):
        return {}   # the cold run failed and is already counted
    if seed == workloads.REFERENCE_SEED:
        check = runner.run(["-m", "perfbench.fig7a", "--seed", str(seed),
                            "--cache-dir", store, "--check-cli"])
        mismatch = (json.loads(check.stdout.split("\n", 1)[0])["cli_mismatch"]
                    if check.rc == 0 else f"exited {check.rc}")
        if mismatch:
            tally.fail(1, "perfbench.fig7a does not reproduce "
                          f"`repro experiment fig7a`: {mismatch}")
    out = json.loads(c.stdout.split("\n", 1)[0])
    return {"paper_tput_err": out["paper_tput_err"]}


def per_layer(w: workloads.Workload, seed: int, runner: Runner,
              tally: Tally, run_id: str) -> Dict[str, float]:
    tmp = runner.tmp
    setup = last_json(runner.run(
        ["-m", "perfbench.setup_probe", "--workload", w.name,
         "--run-id", run_id, "--span-base", "1"]))
    c = Campaign(w, seed, runner, tally)
    untraced_s = sum(p.wall_s for p in c.cold(fresh_dir(tmp, "store")))
    store = fresh_dir(tmp, "traced-store")
    ledger_proc = runner.run(
        ["-m", "perfbench.ledger", "--workload", w.name, "--seed",
         str(seed), "--cache-dir", store, "--scratch-dir",
         fresh_dir(tmp, "scratch-store"), "--run-id", run_id,
         "--span-base", "1000000"])
    ledger = last_json(ledger_proc)
    tally.attempted += ledger["cold"]["simulated"] + ledger["warm"]["cached"]
    Campaign(w, seed, runner, tally).check_records(checks.store_records(store),
                                                ledger["cold"])
    if any(ledger["rcs"]) or ledger["warm"]["simulated"] \
            or not ledger["warm_identical"]:
        tally.fail(1, f"traced campaign: rcs {ledger['rcs']}, warm "
                      f"{ledger['warm']}, identical "
                      f"{ledger['warm_identical']}")

    all_spans = spans.from_dicts(setup["spans"] + ledger["spans"])
    setup_spans = spans.from_dicts(setup["spans"])
    metrics = {
        "cli.import_s": spans.total(setup_spans, "cli.import"),
        "topology.build_s": spans.total(setup_spans, "topology.build"),
        "routing.orient_s": spans.total(setup_spans, "routing.orient"),
        "routing.updown_build_s":
            spans.total(setup_spans, "routing.updown_build"),
        "routing.itb_build_s": spans.total(setup_spans, "routing.itb_build"),
        "sim.network_build_s": spans.total(setup_spans, "sim.network_build"),
    }
    metrics.update(setup["counters"])
    metrics.update(ledger["counters"])
    metrics["routing.build_share"] = (
        (metrics["routing.updown_build_s"] + metrics["routing.itb_build_s"])
        / untraced_s)
    traced_s = ledger["campaign_end"] - ledger_proc.launched
    metrics["trace.overhead_s"] = traced_s - untraced_s
    os.makedirs(WORK_DIR, exist_ok=True)
    spans.write_ledger(
        os.path.join(WORK_DIR, f"ledger-{w.name}-{seed}.jsonl"), all_spans,
        {"workload": w.name, "seed": seed})
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-reference", action="store_true",
                   help="record this run's point digests as the workload's "
                        "reference (reference seed only)")
    args = p.parse_args(argv)
    if args.update_reference and args.seed != workloads.REFERENCE_SEED:
        p.error(f"--update-reference needs --seed {workloads.REFERENCE_SEED}")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src: nothing to benchmark",
              file=sys.stderr)
        return 2
    w = workloads.get(args.workload)
    run_id = f"{w.name}-{args.seed}-{os.getpid()}"
    tmp = os.path.join(WORK_DIR, run_id)
    os.makedirs(tmp, exist_ok=True)
    runner = Runner(tmp, time.monotonic() + RUN_LIMIT_S)
    tally = Tally()
    try:
        # compile once up front so no timed interpreter pays for it
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(ROOT, "src"),
                        os.path.join(ROOT, "perfbench")],
                       check=True, stdout=subprocess.DEVNULL)
        if args.trace:
            metrics = per_layer(w, args.seed, runner, tally, run_id)
            units, extra = LAYER_UNITS, {}
        else:
            metrics, extra = end_to_end(w, args.seed, args.seconds, runner,
                                        tally, args.update_reference)
            units = UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    samples = extra.pop("samples", {})
    print(f"workload {w.name}  seed {args.seed}  engine "
          f"{workloads.ENGINE}  " + "  ".join(
              f"{k} {v}" for k, v in sorted(extra.items())))
    for name in units:
        spread = ""
        if samples.get(name):
            v = samples[name]
            spread = (f"  median of {len(v)}, min {min(v):.6g}, "
                      f"max {max(v):.6g}")
        print(f"  {name:34s} {metrics[name]:14.6g} {units[name]}{spread}")
    print(f"  {'error_rate':34s} "
          f"{tally.failed / max(1, tally.attempted):14.6g} ratio")
    if "paper_tput_err" in extra:
        print(f"  {'paper_tput_err':34s} {extra['paper_tput_err']:14.6g} "
              "fraction (simulated knees vs the paper's)")
    for why in tally.reasons:
        print(f"FAILED: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
