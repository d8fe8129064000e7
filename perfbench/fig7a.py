"""Seeded fig7a campaign through the public sweep API.

``repro experiment fig7a --profile bench --workers 2`` takes no seed.
This script runs the same three sweeps -- UP/DOWN, ITB-SP and ITB-RR on
the 8x8 torus with 512 hosts, uniform traffic, the ``bench`` profile's
windows and thinned rate grid -- through ``sweep_rates`` and an
``Executor(workers=2, store=...)``, with the seed passed in.  At the
reference seed it reproduces the CLI run point for point; ``--check-cli``
asserts that against a store the script has filled::

    python -m perfbench.fig7a --seed 1 --cache-dir STORE
    python -m perfbench.fig7a --seed 1 --cache-dir STORE --check-cli

Prints one JSON line (summaries per curve, measured and paper knees,
``paper_tput_err``), then the executor's ``points:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

#: the figure's rate grid and the paper's knees, as
#: ``repro.experiments.figures.fig7a`` carries them (``--check-cli``
#: fails if they drift apart)
RATES = [0.004, 0.008, 0.011, 0.014, 0.017, 0.021, 0.025, 0.029, 0.033,
         0.038]
PAPER_KNEES = {"UP/DOWN": 0.015, "ITB-SP": 0.029, "ITB-RR": 0.032}


def run_fig7a(seed: int, executor) -> Dict[str, object]:
    """The three curves at ``seed``, label -> ``SweepResult``."""
    from repro.config import SimConfig
    from repro.experiments.figures import ROUTINGS
    from repro.experiments.profiles import BENCH
    from repro.experiments.sweep import sweep_rates
    curves = {}
    for routing, policy in ROUTINGS:
        base = SimConfig(topology="torus", routing=routing, policy=policy,
                         traffic="uniform", traffic_kwargs={},
                         warmup_ps=BENCH.warmup_ps,
                         measure_ps=BENCH.measure_ps, seed=seed)
        curve = sweep_rates(base, BENCH.thin(RATES), executor=executor)
        curves[curve.label] = curve
    return curves


def paper_tput_err(knees: Dict[str, float]) -> float:
    """Mean relative distance of the measured knees from the paper's."""
    errs = [abs(knees[label] - paper) / paper
            for label, paper in PAPER_KNEES.items()]
    return sum(errs) / len(errs)


def report(curves: Dict[str, object]) -> Dict[str, object]:
    knees = {label: c.throughput() for label, c in curves.items()}
    return {
        "series": {label: [r.to_dict() for r in c.runs]
                   for label, c in curves.items()},
        "knees": knees,
        "paper_tput_err": paper_tput_err(knees),
    }


def check_cli(store_dir: str, series: Dict[str, List[dict]]
              ) -> Optional[str]:
    """``None`` if ``repro experiment fig7a`` (which runs at seed 1)
    reads back this script's summaries from the store without simulating
    anything, else why not.  Meaningful at seed 1 only."""
    from repro.experiments.profiles import BENCH
    from repro.experiments.registry import run_experiment
    from repro.orchestrator import Executor, ResultStore
    executor = Executor(workers=2, store=ResultStore(store_dir))
    fig = run_experiment("fig7a", BENCH, executor=executor)
    if executor.stats.simulated:
        return (f"the CLI campaign needed {executor.stats.simulated} "
                "points this script did not run")
    cli_series = {s.label: [r.to_dict() for r in s.runs] for s in fig.series}
    if cli_series != series:
        return "summaries differ from the CLI campaign's"
    if dict(fig.paper_throughput) != PAPER_KNEES:
        return "paper knees differ from the figure's"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--check-cli", action="store_true")
    args = p.parse_args(argv)
    from repro.orchestrator import Executor, ResultStore
    executor = Executor(workers=2, store=ResultStore(args.cache_dir))
    out = report(run_fig7a(args.seed, executor))
    if args.check_cli:
        if args.seed != 1:
            p.error("--check-cli compares with the CLI's seed, 1")
        out["cli_mismatch"] = check_cli(args.cache_dir, out["series"])
    print(json.dumps(out, sort_keys=True))
    print(f"points: {executor.stats.oneline()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
