"""Output checks: digests, structural laws and the failure tally."""

import math
import time

from perfbench import checks, run, workloads
from repro.config import SimConfig
from repro.experiments.runner import run_simulation

TINY_SWEEP = ("-m", "repro", "sweep", "--rows", "4", "--cols", "4",
              "--hosts-per-switch", "2", "--rates", "0.004,0.008",
              "--warmup-ns", "20000", "--measure-ns", "60000")


def _summary() -> dict:
    cfg = SimConfig(topology="torus",
                    topology_kwargs={"rows": 4, "cols": 4,
                                     "hosts_per_switch": 2},
                    routing="itb", policy="rr", injection_rate=0.01,
                    warmup_ps=20_000_000, measure_ps=60_000_000)
    return run_simulation(cfg).to_dict()


def test_perturbed_summary_fails_the_digest_check():
    summary = _summary()
    reference = [checks.point_digest(summary), "0" * 16]
    assert checks.reference_mismatches(
        [checks.point_digest(summary), "0" * 16], reference) == 0
    perturbed = dict(summary, avg_latency_ns=math.nextafter(
        summary["avg_latency_ns"], math.inf))
    assert checks.reference_mismatches(
        [checks.point_digest(perturbed), "0" * 16], reference) == 1
    # a missing point is a mismatch too
    assert checks.reference_mismatches([reference[0]], reference) == 1


def test_structural_check_is_message_conservation():
    summary = _summary()
    assert checks.structural_problems(summary) == []
    # a shrinking backlog lets delivered exceed generated legitimately
    drained = dict(summary,
                   messages_delivered=summary["messages_generated"] + 3)
    drained["backlog_growth"] = (drained["messages_generated"]
                                 - drained["messages_delivered"]
                                 - drained["messages_dropped"])
    assert checks.structural_problems(drained) == []
    leaked = dict(summary, messages_delivered=summary["messages_delivered"]
                  + 1)
    assert checks.structural_problems(leaked)
    cell = {"throughput": 0.02, "runs": 4}
    assert checks.structural_problems(cell) == []
    assert checks.structural_problems(dict(cell, throughput=math.nan))
    assert checks.structural_problems({"other": 1})


def _campaign(tmp_path, commands, seed=3):
    w = workloads.Workload(name="tiny", why="test", commands=commands,
                           graphs=())
    tally = run.Tally()
    runner = run.Runner(str(tmp_path), time.monotonic() + 120)
    return run.Campaign(w, seed, runner, tally), tally


def test_clean_campaign_counts_points_and_no_failures(tmp_path):
    c, tally = _campaign(tmp_path, (TINY_SWEEP,))
    store = str(tmp_path / "store")
    c.cold(store)
    c.warm(store)
    assert tally.failed == 0, tally.reasons
    assert tally.attempted == 4   # 2 simulated + 2 from the store


def test_forced_failing_point_raises_error_rate(tmp_path):
    # the config passes the CLI but the point raises in its worker
    # process; the campaign reports it FAILED and exits non-zero
    failing = TINY_SWEEP + ("--workers", "2", "--message-bytes", "0")
    c, tally = _campaign(tmp_path, (failing,))
    c.cold(str(tmp_path / "store"))
    assert tally.failed >= 1
    assert tally.failed / max(1, tally.attempted) > 0


def test_digest_mismatch_at_reference_seed_counts_every_point(
        tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "load_reference",
                        lambda: {"tiny": ["0" * 16, "1" * 16]})
    c, tally = _campaign(tmp_path, (TINY_SWEEP,),
                         seed=workloads.REFERENCE_SEED)
    c.cold(str(tmp_path / "store"))
    assert tally.failed == 2


def test_points_line_parsing():
    text = "x\npoints: 5 simulated, 2 from cache, 1 failed\n"
    assert checks.parse_points(text) == {"simulated": 5, "cached": 2,
                                         "failed": 1, "found": 1}
    assert checks.parse_points("nothing")["found"] == 0
    assert checks.without_points(text) == "x\n\n"
