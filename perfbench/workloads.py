"""The benchmark's workloads: what each campaign runs and why.

Every workload is a campaign a user waits on, started as fresh
interpreters (``python -m ...`` argument lists) against a result
store.  Only the default ``packet`` engine runs: the ``array`` engine
disagrees with ``packet`` on where the torus saturates, so timing it
against ``packet`` would compare different work.

Plain data only: importing this module must not import ``repro``,
because the set-up probe times that import.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: seed at which simulated outputs must match the reference digests;
#: ``repro experiment fig7a`` and the CLI defaults run at this seed
REFERENCE_SEED = 1

#: the only engine measured (see module docstring)
ENGINE = "packet"

#: per-point digests of each workload's simulated results at
#: REFERENCE_SEED (``run.py --update-reference`` rewrites an entry)
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: (topology, topology kwargs, schemes or None for every supported one)
GraphSpec = Tuple[str, dict, Optional[Tuple[str, ...]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: campaign commands, run one after another: ``python <argv>``
    commands: Tuple[Tuple[str, ...], ...]
    #: graphs and routing tables the campaign builds (set-up probe)
    graphs: Tuple[GraphSpec, ...]

    def argv(self, seed: int, store: str) -> List[List[str]]:
        return [list(cmd) + ["--seed", str(seed), "--cache-dir", store]
                for cmd in self.commands]


_TORUS12 = ("-m", "repro", "sweep", "--rows", "12", "--cols", "12",
            "--workers", "1", "--rates", "0.004,0.008",
            "--warmup-ns", "10000", "--measure-ns", "30000")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="fig7a",
        why="the paper's headline campaign; per-task table rebuilds in "
            "forked workers dominate it, the event loop is a minority",
        commands=(("-m", "perfbench.fig7a"),),
        graphs=(("torus", {}, ("updown", "itb")),),
    ),
    Workload(
        name="tournament",
        why="many short saturation-search tasks on 4x4 fabrics; tables "
            "cost ms, so the event loop and per-task pool overhead work",
        commands=(("-m", "repro", "tournament", "--profile", "bench",
                   "--patterns", "uniform,bit-reversal,incast,uniform+onoff",
                   "--workers", "2"),),
        graphs=(("torus", {"rows": 4, "cols": 4, "hosts_per_switch": 2},
                 None),
                ("mesh", {"rows": 4, "cols": 4, "hosts_per_switch": 2},
                 None)),
    ),
    # Not in BENCHMARK.json: one campaign of ~16 s is all a run fits, and
    # its host time swings with the machine's load (IQR/median 0.12-0.29
    # over ten runs on a shared 2-core host), past any allowed bound.
    # Run it by hand for the table-scale ledger (--trace 1).
    Workload(
        name="torus12-cold",
        why="144 switches, 1152 hosts, two short sweeps; the cold table "
            "build and its memory dominate, the loop and pool barely run",
        commands=(_TORUS12 + ("--routing", "updown", "--policy", "sp"),
                  _TORUS12 + ("--routing", "itb", "--policy", "rr")),
        graphs=(("torus", {"rows": 12, "cols": 12}, ("updown", "itb")),),
    ),
)}


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}") from None


def load_reference() -> Dict[str, List[str]]:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(name: str, digests: Sequence[str]) -> None:
    ref = load_reference()
    ref[name] = sorted(digests)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
