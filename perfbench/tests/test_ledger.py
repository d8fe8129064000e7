"""The traced run on a tiny campaign, and ``perfbench.fig7a``'s identity
with ``repro experiment fig7a``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import ledger, run, workloads

from .test_checks import TINY_SWEEP


@pytest.fixture
def tiny(monkeypatch):
    w = workloads.Workload(
        name="tiny", why="test", commands=(TINY_SWEEP,),
        graphs=(("torus", {"rows": 4, "cols": 4, "hosts_per_switch": 2},
                 ("updown", "itb")),))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", w)
    # the fabric workers import this package to run the no-op task
    monkeypatch.setenv("PYTHONPATH", run._env()["PYTHONPATH"])
    return w


def test_warm_rerun_is_all_cache_hits(tmp_path, capsys, tiny):
    assert ledger.main(["--workload", "tiny", "--seed", "3",
                        "--cache-dir", str(tmp_path / "store"),
                        "--scratch-dir", str(tmp_path / "scratch")]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    counters = out["counters"]
    assert counters["orchestrator.cache_hit_ratio"] == 1.0
    assert out["warm"] == {"simulated": 0, "cached": 2, "failed": 0}
    assert out["warm_identical"] and out["rcs"] == [0, 0]
    assert counters["experiments.useful_point_ratio"] == 1.0
    assert counters["sim.events"] > 0 and counters["sim.loop_s"] > 0
    for name in ("orchestrator.pool_overhead_s",
                 "orchestrator.fabric_roundtrip_s",
                 "orchestrator.store_get_s", "orchestrator.store_put_s"):
        assert counters[name] > 0
    names = {s["name"] for s in out["spans"]}
    assert {"cli.import", "orchestrator.campaign", "orchestrator.task",
            "experiments.point", "sim.loop"} <= names


def test_fig7a_script_reproduces_the_cli_at_the_reference_seed(tmp_path):
    store = str(tmp_path / "store")
    env = run._env()
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "fig7a", "--profile",
         "bench", "--workers", "2", "--cache-dir", store],
        cwd=run.ROOT, env=env, capture_output=True, text=True, check=True)
    assert "18 simulated" in cli.stdout + cli.stderr
    # the script finds every point the CLI stored: same configs, same keys
    drv = subprocess.run(
        [sys.executable, "-m", "perfbench.fig7a", "--seed",
         str(workloads.REFERENCE_SEED), "--cache-dir", store, "--check-cli"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, check=True)
    first, points = drv.stdout.strip().splitlines()
    assert points == "points: 0 simulated, 18 from cache"
    assert json.loads(first)["cli_mismatch"] is None


def test_refuses_to_run_without_the_sources(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's files
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
