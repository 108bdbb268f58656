"""BENCHMARK.json names exactly the metrics and workloads run.py prints."""

import json
from pathlib import Path

import layers
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json")
                  .read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    import run
    assert ({m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            == run.END_TO_END_UNITS)


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.METRICS
