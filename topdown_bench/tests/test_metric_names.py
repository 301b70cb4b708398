"""Metric names are well formed and BENCHMARK.json lists exactly the reported ones."""

import json
import re
from pathlib import Path

import layers
from run import END_TO_END

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_every_metric_name_matches_the_pattern():
    names = [n for n, _, _ in END_TO_END + layers.PER_LAYER]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) * 2 == len(names)  # each once per list, lists agree


def test_benchmark_json_matches_what_the_benchmark_reports():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
