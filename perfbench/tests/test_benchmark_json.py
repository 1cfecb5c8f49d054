"""BENCHMARK.json names exactly what the benchmark prints."""

import json
import os

from perfbench import layers
from perfbench.workloads import WORKLOADS, end_to_end

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match():
    assert [w["name"] for w in _bench()["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match_what_a_run_reports():
    reported = end_to_end([1.0], (2.0, 0.1, 0.2), (100.0, 0.01, 0.02), 50.0)
    declared = {m["name"]: m for m in _bench()["end_to_end"]}
    assert set(declared) == set(reported)
    for name, (_, unit) in reported.items():
        assert declared[name]["unit"] == unit
        assert 0 < declared[name]["bound"] <= 0.25
    assert declared["setup_s"]["bound"] == max(
        m["bound"] for m in declared.values())


def test_per_layer_metrics_match_the_layer_table():
    declared = [(m["name"], m["unit"], m["better"])
                for m in _bench()["per_layer"]]
    assert declared == [(n, u, b) for n, u, b, *_ in layers.METRICS]
    assert set(layers.ROW_METRICS.values()) <= {n for n, *_ in declared}
