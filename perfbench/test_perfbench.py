"""Tests of the benchmark itself, at sizes small enough for the unit suite.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import harness
import spans
from spans import ROOT, SpanRecorder
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def _names(section):
    return [m["name"] for m in SPEC[section]]


def test_benchmark_json_within_format_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["command"]) <= 32 and all(len(a) <= 200 for a in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    assert all(PATH.fullmatch(p) and ".." not in p.split("/") for p in SPEC["paths"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]] + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024
    assert set(_names("per_layer")) == {
        *(f"{span}.self_s" for span in harness.SELF_TIME_SPANS), *harness.COUNTERS,
        "serving.useful_row_ratio", "serving.cache_hit_ratio",
        "resilience.degraded_ratio", "trace.unattributed_frac", "trace.overhead_ratio",
    }
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_reports_every_metric(name, trace):
    result = harness.run(name, seed=3, seconds=0.0, trace=trace, tiny=True)
    assert result["problems"] == [] and result["errors"] == []
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _names("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)
    assert all(math.isfinite(v) and v >= 0 for v in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][m["name"]] > 0 for m in SPEC["end_to_end"])
    assert re.fullmatch(r"[0-9a-f]{64}", result["digest"])


def test_digest_repeats_for_one_seed():
    first = harness.run("tenant-traffic", seed=5, seconds=0.0, trace=False, tiny=True)
    again = harness.run("tenant-traffic", seed=5, seconds=0.0, trace=True, tiny=True)
    assert first["digest"] == again["digest"]


def test_changing_one_served_row_fails_the_check():
    workload = WORKLOADS["tenant-traffic"](2, tiny=True)
    workload.prepare()
    workload.begin_round()
    assert workload.check(workload.run_round(harness.Ops())) == []

    tampered = []

    def tamper(fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        if not tampered:
            out = out.copy()
            out[0, 0] = np.nextafter(out[0, 0], 2.0)
            tampered.append(True)
        return out

    workload.begin_round()
    problems = workload.check(workload.run_round(tamper))
    assert len(problems) == 1 and "event 0" in problems[0]


@pytest.mark.parametrize("name", ["tenant-traffic", "grna-train"])
def test_layer_self_times_and_unattributed_add_up_to_round_wall(name):
    workload = WORKLOADS[name](4, tiny=True)
    workload.prepare()
    rec = SpanRecorder()
    wall, problems, _ = harness._round(workload, harness.Ops(rec), rec)
    assert problems == []
    assert {span[0] for span in rec.spans} <= {ROOT, *harness.SELF_TIME_SPANS}
    metrics = harness._layer_metrics(rec, 1, [wall], [wall])
    layers = sum(metrics[f"{span}.self_s"] for span in harness.SELF_TIME_SPANS)
    root = rec.root_wall()
    assert layers + metrics["trace.unattributed_frac"] * root == pytest.approx(root, rel=1e-9)
    assert root <= wall
    assert all(end >= start for _, start, end, _, _ in rec.spans)
    # The wrappers are gone once the traced round ends.
    for module, cls_name, method, *_ in spans.METHODS:
        assert not hasattr(getattr(importlib.import_module(module), cls_name).__dict__[method],
                           "__wrapped__")


def test_median_round_keeps_every_position_once():
    # Three rounds of five operations, windows of two: positions [0:2], [2:4], [4:5].
    latencies = [3.0, 1.0, 1.0, 1.0, 9.0,
                 2.0, 1.0, 2.0, 5.0, 0.5,
                 4.0, 4.0, 1.0, 2.0, 1.0]
    assert harness._median_round(latencies, per_round=5, window=2).tolist() == [
        3.0, 1.0, 1.0, 2.0, 1.0
    ]
    assert harness._median_round(latencies, per_round=5, window=None).tolist() == latencies[10:]
    # Two rounds keep the lower median, one round is kept as measured.
    assert harness._median_round(latencies[:10], per_round=5, window=None).tolist() == (
        latencies[5:10]
    )
    assert harness._median_round(latencies[:5], per_round=5, window=2).tolist() == latencies[:5]
