"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.topology == "torus"
        assert args.routing == "itb"
        assert args.rate == 0.01

    def test_bad_topology_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "hypercube"])

    def test_sweep_orchestrator_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.workers == 1
        assert args.cache_dir == ".repro_cache"
        assert args.no_cache is False
        assert args.retries == 1

    def test_experiment_accepts_workers(self):
        args = build_parser().parse_args(
            ["experiment", "fig7a", "--workers", "4", "--no-cache"])
        assert args.workers == 4 and args.no_cache

    def test_fabric_exec_option(self):
        args = build_parser().parse_args(
            ["sweep", "--fabric", "127.0.0.1:9001,127.0.0.1:9002"])
        assert args.fabric == "127.0.0.1:9001,127.0.0.1:9002"
        args = build_parser().parse_args(["sweep"])
        assert args.fabric is None

    def test_fabric_worker_subcommand(self):
        args = build_parser().parse_args(["fabric", "worker"])
        assert args.fabric_cmd == "worker"
        assert args.listen == "127.0.0.1:0"
        assert args.max_sessions is None
        args = build_parser().parse_args(
            ["fabric", "worker", "--listen", "0.0.0.0:9001",
             "--max-sessions", "3"])
        assert args.listen == "0.0.0.0:9001"
        assert args.max_sessions == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fabric", "frobnicate"])

    def test_serve_subcommand(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8651
        args = build_parser().parse_args(
            ["serve", "--port", "9000", "--workers", "2",
             "--fabric", "127.0.0.1:9001"])
        assert args.port == 9000
        assert args.workers == 2
        assert args.fabric == "127.0.0.1:9001"

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache", "info"])
        assert args.cache_cmd == "info"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "frobnicate"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out and "table3" in out
        assert "latency-panel" in out and "hotspot-table" in out

    def test_info_irregular(self, capsys):
        assert main(["info", "irregular"]) == 0
        out = capsys.readouterr().out
        assert "switches" in out
        assert "updown" in out and "itb" in out
        assert "minimal" in out

    def test_run_small(self, capsys):
        rc = main(["run", "--topology", "irregular", "--rate", "0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "offered=0.0100" in out
        assert "delivered" in out

    def test_run_with_links(self, capsys):
        rc = main(["run", "--topology", "irregular", "--rate", "0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000",
                   "--links"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "link utilisation" in out
        assert "hottest" in out

    def test_run_hotspot_options(self, capsys):
        rc = main(["run", "--topology", "irregular", "--traffic", "hotspot",
                   "--hotspot", "3", "--hotspot-fraction", "0.2",
                   "--rate", "0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000"])
        assert rc == 0

    def test_run_traffic_and_arrival_args(self, capsys):
        rc = main(["run", "--topology", "irregular", "--traffic", "hotspot",
                   "--traffic-arg", "hotspot=3",
                   "--traffic-arg", "fraction=0.2",
                   "--arrival", "onoff", "--arrival-arg", "duty=0.2",
                   "--rate", "0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000"])
        assert rc == 0

    def test_run_undeclared_traffic_arg_rejected(self, capsys):
        with pytest.raises(ValueError, match="declares no kwarg"):
            main(["run", "--topology", "irregular",
                  "--traffic-arg", "alpha=2", "--rate", "0.01",
                  "--warmup-ns", "20000", "--measure-ns", "80000"])

    def test_traffic_listing(self, capsys):
        rc = main(["traffic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "destination patterns" in out
        assert "arrival processes" in out
        assert "incast" in out and "adversarial" in out
        assert "power-of-two host count" in out  # capability surfaced
        assert "duty:float=0.25" in out          # declared kwargs surfaced

    def test_info_lists_supported_patterns(self, capsys):
        rc = main(["info", "irregular"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traffic patterns:" in out

    def test_sweep(self, capsys):
        rc = main(["sweep", "--topology", "irregular",
                   "--rates", "0.005,0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput (knee)" in out
        assert "0.0050" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_smoke(self, capsys):
        assert main(["experiment", "fig7a", "--profile", "test"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out
        assert "(paper: 0.015)" in out

    def test_experiment_with_plot(self, capsys):
        assert main(["experiment", "fig7a", "--profile", "test",
                     "--plot"]) == 0
        out = capsys.readouterr().out
        assert "o UP/DOWN" in out
        assert "accepted traffic" in out

    def test_adaptive_policy_accepted(self, capsys):
        rc = main(["run", "--topology", "irregular", "--policy",
                   "adaptive", "--rate", "0.01",
                   "--warmup-ns", "20000", "--measure-ns", "80000"])
        assert rc == 0
        assert "ITB-ADAPTIVE" in capsys.readouterr().out


class TestOrchestratorCommands:
    SWEEP = ["sweep", "--rows", "4", "--cols", "4",
             "--hosts-per-switch", "2", "--rates", "0.005,0.01",
             "--warmup-ns", "20000", "--measure-ns", "60000"]

    def test_sweep_no_cache_sequential(self, capsys):
        assert main(self.SWEEP + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "throughput (knee)" in out
        assert "points:" not in out  # plain path, no orchestrator

    def test_sweep_repeat_served_from_cache(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + cache) == 0
        first = capsys.readouterr().out
        assert "2 simulated, 0 from cache" in first

        assert main(self.SWEEP + ["--workers", "2"] + cache) == 0
        second = capsys.readouterr().out
        assert "0 simulated, 2 from cache" in second
        # identical curve, point for point
        strip = lambda s: [ln for ln in s.splitlines()
                           if not ln.startswith("points:")]
        assert strip(first) == strip(second)

    def test_sweep_parallel_workers(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + ["--workers", "2"] + cache) == 0
        out = capsys.readouterr().out
        assert "2 simulated" in out

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + cache) == 0
        capsys.readouterr()
        assert main(["cache", "info"] + cache) == 0
        assert "2 results" in capsys.readouterr().out
        assert main(["cache", "clear"] + cache) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["cache", "info"] + cache) == 0
        assert "0 results" in capsys.readouterr().out

    def test_cache_compact(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(self.SWEEP + cache) == 0
        capsys.readouterr()
        assert main(["cache", "compact"] + cache) == 0
        out = capsys.readouterr().out
        assert "2 records indexed" in out
        assert "0 corrupt pruned" in out

    def test_custom_grid_size_flags(self, capsys):
        assert main(["run", "--rows", "4", "--cols", "4",
                     "--hosts-per-switch", "2", "--rate", "0.01",
                     "--warmup-ns", "20000", "--measure-ns",
                     "60000"]) == 0
        assert "delivered" in capsys.readouterr().out


def test_cli_import_leaves_numpy_unloaded():
    """``import repro.cli`` must not pay for numpy: only the array
    engine's cohort kernel and the link-statistics helpers need it,
    and they import it when they run."""
    import os
    import subprocess
    import sys

    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("import sys, repro.cli\n"
            "assert 'numpy' not in sys.modules, sorted(\n"
            "    m for m in sys.modules if m.startswith('numpy'))[:5]\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
