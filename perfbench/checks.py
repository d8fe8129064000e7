"""Output checks: reference digests and structural sanity.

The simulated results of a campaign are the ``result`` values of the
records in its result store: ``RunSummary`` dicts for the sweeps, cell
records for the tournament.  Each is hashed over its canonical JSON.
At the reference seed the multiset of point digests must equal the one
recorded in :mod:`perfbench.workloads`; at any seed a point must pass
the structural checks below, and a warm rerun must reproduce the cold
run's output byte for byte.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import re
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Sequence


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def point_digest(result: Any) -> str:
    return hashlib.sha256(canonical(result).encode()).hexdigest()[:16]


def campaign_digest(point_digests: Iterable[str]) -> str:
    joined = ",".join(sorted(point_digests))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def store_records(store_dir: str) -> List[Dict[str, Any]]:
    """Every record in a result-store directory, in key order."""
    pattern = os.path.join(store_dir, "objects", "*", "*.json")
    records = []
    for path in sorted(glob.glob(pattern)):
        with open(path, "r", encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def reference_mismatches(digests: Sequence[str],
                         reference: Sequence[str]) -> int:
    """Points whose digest is not matched by one in the reference
    (a missing or extra point counts as a mismatch too)."""
    have, want = Counter(digests), Counter(reference)
    return max(sum((have - want).values()), sum((want - have).values()))


def structural_problems(result: Dict[str, Any]) -> List[str]:
    """Why one simulated result cannot be right, whatever the seed.

    A run summary must conserve messages over the measurement window:
    every message generated in it was delivered, dropped or is still
    in flight (``backlog_growth``).  Delivered may exceed generated in
    one window -- the backlog can shrink -- so the check is the
    conservation law, not ``delivered <= generated``.  A tournament
    cell must carry a finite, non-negative throughput from at least
    one run.
    """
    problems = []
    if "messages_delivered" in result:
        counts = ("messages_generated", "messages_delivered",
                  "messages_dropped")
        if any(result[k] < 0 for k in counts):
            problems.append("negative message count")
        balance = (result["messages_delivered"] + result["messages_dropped"]
                   + result["backlog_growth"])
        if balance != result["messages_generated"]:
            problems.append(
                f"message conservation: delivered+dropped+backlog "
                f"{balance} != generated {result['messages_generated']}")
        if not 0.0 <= result["accepted_flits_ns_switch"] < math.inf:
            problems.append("accepted traffic out of range")
    elif "throughput" in result:
        if not 0.0 <= result["throughput"] < math.inf:
            problems.append("throughput out of range")
        if result.get("runs", 0) < 1:
            problems.append("cell ran no simulation")
    else:
        problems.append("unrecognised result record")
    return problems


_POINTS = re.compile(r"^points: (\d+) simulated, (\d+) from cache"
                     r"(?:, (\d+) failed)?$", re.M)
_SWEEP_ROW = re.compile(r"^\s*\d+\.\d+\s+\d+\.\d+\s+(?:\d+|n/a)\s+(?:yes|no)$",
                        re.M)


def parse_points(text: str) -> Dict[str, int]:
    """The executor's ``points:`` line as counts (zeros when absent)."""
    m = _POINTS.search(text)
    if m is None:
        return {"simulated": 0, "cached": 0, "failed": 0, "found": 0}
    return {"simulated": int(m.group(1)), "cached": int(m.group(2)),
            "failed": int(m.group(3) or 0), "found": 1}


def without_points(stdout: str) -> str:
    """Output with the ``points:`` line removed, for cold/warm identity."""
    return _POINTS.sub("", stdout)


def kept_points(stdout: str) -> Optional[int]:
    """Points a campaign reports on its curves, or ``None`` when its
    output has no curves (tournament cells are all kept)."""
    first = stdout.split("\n", 1)[0]
    if first.startswith("{"):
        return sum(len(runs) for runs in json.loads(first)["series"].values())
    rows = _SWEEP_ROW.findall(stdout)
    return len(rows) if rows else None
