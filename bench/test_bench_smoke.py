"""Self-tests of the benchmark: smoke-size runs, tracing and the checks."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    SPEC = json.load(_fp)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(tmp_path, name, trace):
    result, report = workloads.run(name, str(tmp_path), seed=3, seconds=0, trace=trace,
                                   smoke=True, spans_path=str(tmp_path / "spans.json"))
    assert report["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        assert spans and all(s["end_s"] >= s["start_s"] for s in spans)


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    assert sorted(bench_run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    for listed, spec in ((SPEC["end_to_end"], workloads.END_TO_END),
                         (SPEC["per_layer"], workloads.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in listed] == list(spec)


def test_tracer_self_time_excludes_children_and_restores_targets():
    class Module:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.leaf(x) + Module.leaf(x)

    tracer = Tracer()
    original = Module.leaf
    with tracer.installed([(Module, "leaf", "leaf", None),
                           (Module, "outer", "outer", lambda x: {"x": x})]):
        assert Module.outer(1) == 4
    assert Module.leaf is original
    assert tracer.names == ["outer", "leaf", "leaf"]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.attrs[0] == {"x": 1}
    dur, own = tracer.durations(), tracer.self_times()
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert own[1:] == dur[1:]


def test_checks_catch_a_wrong_stored_delta_and_a_changed_digest(tmp_path):
    rng = np.random.default_rng(0)
    path = workloads.write_mlp(str(tmp_path), rng, workloads.SIZES["smoke"]["convert_mlp"])
    _, _, weights, model, _ = workloads.quantize_path(path, str(tmp_path / "m.tq"), "uniform")
    failures = []
    workloads.check_deltas(model, weights, failures, within_budget=True)
    assert failures == []

    first = replace(model.layers[0], delta=model.layers[0].delta * 0.5)
    lied = replace(model, layers=(first,) + model.layers[1:])
    workloads.check_deltas(lied, weights, failures, within_budget=True)
    assert len(failures) == 1 and "stored delta" in failures[0]

    digests = workloads.model_digests(model)
    changed = {k: dict(v) for k, v in digests.items()}
    changed["fc2"]["reconstruction"] = "0" * 64
    failures = []
    workloads.check_digests("convert", digests, changed, failures)
    assert failures == ["convert fc2: reconstruction digest differs"]


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench_run.main(["--workload", "convert_mlp", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
