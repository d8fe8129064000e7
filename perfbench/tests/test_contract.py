"""BENCHMARK.json, the interaction map and the code name the same metrics."""

import json
import os

from perfbench import run, workloads

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_and_units_agree():
    bench = _load(os.path.join(run.ROOT, "BENCHMARK.json"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.LAYER_UNITS
    for w in bench["workloads"]:
        assert workloads.get(w["name"]).why == w["why"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_interaction_map_covers_every_layer_metric():
    imap = _load(os.path.join(HERE, "interactions.json"))
    assert [e["metric"] for e in imap["per_layer"]] == list(run.LAYER_UNITS)
    names = set(workloads.WORKLOADS)
    for entry in imap["per_layer"]:
        assert set(entry["moves"]) <= set(run.UNITS), entry
        assert set(entry["on"]) | set(entry["no_change_on"]) <= names, entry
    assert set(imap["workloads"]) == names
    assert imap["engine"]["measured"] == workloads.ENGINE


def test_reference_digests_cover_every_workload():
    ref = workloads.load_reference()
    assert set(ref) == set(workloads.WORKLOADS)
    assert all(len(d) > 0 for d in ref.values())
