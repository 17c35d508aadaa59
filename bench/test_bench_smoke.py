"""Smoke test of the benchmark harness itself.

Not part of the tier-1 ``testpaths``; run it explicitly:

    PYTHONPATH=src python -m pytest bench/test_bench_smoke.py
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import report  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
LOSS_FREE = [name for name in spec.WORKLOADS if name != "lossy_p2ps"]


def run_bench(tmp_path: Path, tag: str, *args: str) -> tuple[dict, str, float]:
    out = tmp_path / f"{tag}.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "0.2", "--repeats", "1",
         "--out", str(out), *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.read_text()), done.stdout, time.monotonic() - started


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("bench"), "smoke")


def count_clock(result: dict) -> dict:
    """Every metric that is a count or a model output, none that is timed."""
    return {
        (workload, section, name): entry["value"]
        for workload, summary in result["workloads"].items()
        for section in ("end_to_end", "per_layer")
        for name, entry in summary[section].items()
        if entry["clock"] != "wall" and name != "fail_share"
    }


def test_finishes_in_under_twenty_seconds(smoke):
    assert smoke[2] < 20.0


def test_every_end_to_end_metric_is_reported_for_every_workload(smoke):
    result, stdout, _ = smoke
    assert list(result["workloads"]) == list(spec.WORKLOADS)
    for workload, summary in result["workloads"].items():
        for name, metric in spec.END_TO_END.items():
            entry = summary["end_to_end"][name]
            assert math.isfinite(entry["value"]), (workload, name)
            assert (entry["unit"], entry["better"], entry["clock"]) == metric[:3]
            assert entry["n"] >= 1
            assert re.search(rf"^\s+{re.escape(name)}\s.*{re.escape(metric.unit)}\s+clock={metric.clock}\s+n=\d+",
                             stdout, re.M), (workload, name)
        assert set(summary["per_layer"]) == set(spec.per_layer_metrics())
        assert not summary["warnings"]


def test_envelope_says_what_was_measured(smoke):
    result = smoke[0]
    assert result["schema"] == spec.SCHEMA
    assert result["seed"] == 1 and result["repeats"] == 1 and result["seconds"] == 0.2
    for key in ("git", "python", "platform", "nproc"):
        assert key in result


def test_names_are_plain(smoke):
    names = [*spec.WORKLOADS, *spec.END_TO_END, *spec.per_layer_metrics()]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)


def test_benchmark_json_agrees_with_the_spec():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in declared["workloads"]} == spec.WORKLOADS
    assert [m["name"] for m in declared["end_to_end"]] == list(spec.DRIVER_END_TO_END)
    for metric in declared["end_to_end"]:
        ours = spec.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (ours.unit, ours.better)
        assert metric["bound"] == spec.DRIVER_BOUNDS.get(metric["name"], ours.bound)
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == {
        name: (m.unit, m.better) for name, m in spec.driver_per_layer_metrics().items()
    }


def test_no_operation_fails_and_nothing_runs_twice(smoke):
    for workload, summary in smoke[0]["workloads"].items():
        assert summary["failed"] == 0, summary["errors"]
        assert summary["executions"] == summary["attempted"], workload
    for workload in LOSS_FREE:
        assert smoke[0]["workloads"][workload]["end_to_end"]["fail_share"]["value"] == 0


def test_idle_layers_read_zero(smoke):
    per_layer = {w: s["per_layer"] for w, s in smoke[0]["workloads"].items()}
    idle = {
        "echo_http": ("transport.connection", "uddi.client", "uddi.registry", "p2ps.pipes", "p2ps.peer"),
        "echo_p2ps": ("transport.http", "transport.connection", "uddi.client", "uddi.registry"),
        "pipelined_http": ("p2ps.pipes", "p2ps.peer"),
        "lossy_p2ps": ("transport.http", "uddi.registry"),
    }
    for workload, layers in idle.items():
        for layer in layers:
            assert per_layer[workload][f"{layer}.calls_per_op"]["value"] == 0, (workload, layer)
            assert per_layer[workload][f"{layer}.self_us_per_op"]["value"] == 0
    assert per_layer["pipelined_http"]["transport.connection.calls_per_op"]["value"] > 0
    assert per_layer["pipelined_http"]["supervision.admission.calls_per_op"]["value"] > 0
    assert per_layer["lifecycle_http"]["uddi.registry.calls_per_op"]["value"] > 0
    assert per_layer["lossy_p2ps"]["reliability.executor.retransmits_per_op"]["value"] > 0
    assert per_layer["echo_p2ps"]["reliability.executor.retransmits_per_op"]["value"] == 0


def test_self_times_sum_to_the_root_span(smoke):
    for workload in spec.WORKLOADS:
        lines = (HERE / "out" / f"trace-{workload}.jsonl").read_text().splitlines()
        header, spans = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
        assert header["schema"] == spec.TRACE_SCHEMA and header["workload"] == workload
        own: dict[int, int] = {}
        for span in spans:
            own[span["op"]] = own.get(span["op"], 0) + span["self_ns"]
        roots = [span for span in spans if span["parent"] is None]
        assert sum(root["ops"] for root in roots) == header["ops"]
        for root in roots:
            assert root["name"] == "op"
            duration = root["end_ns"] - root["start_ns"]
            assert abs(own[root["op"]] - duration) <= 0.01 * duration


def test_counts_repeat_for_a_seed_and_inputs_follow_the_seed(smoke, tmp_path):
    again, _, _ = run_bench(tmp_path, "again", "--trace", "0")
    first = count_clock(smoke[0])
    for key, value in count_clock(again).items():
        assert first[key] == value, key
    other, _, _ = run_bench(
        tmp_path, "other", "--trace", "0", "--seed", "2",
        "--workload", "wide_http", "--workload", "lossy_p2ps",
    )
    for workload in ("wide_http", "lossy_p2ps"):
        key = (workload, "end_to_end", "wire_bytes_per_op")
        assert count_clock(other)[key] != first[key]


def test_compare_passes_a_result_against_itself_and_catches_a_regression(smoke, tmp_path, capsys):
    result = smoke[0]
    assert report.compare(result, result) == 0
    assert " worse" not in capsys.readouterr().out.replace("no metric is worse", "")
    slower = json.loads(json.dumps(result))
    slower["workloads"]["echo_http"]["end_to_end"]["wire_bytes_per_op"]["value"] += 1
    assert report.compare(result, slower) == 1


def test_verdicts():
    wall = spec.Metric("us", "lower", "wall", 0.10)

    def entry(*runs):
        q1, value, q3 = report.quartiles(list(runs))
        return {"value": value, "runs": list(runs), "q1": q1, "q3": q3}

    steady = entry(100, 101, 102, 103, 104)
    assert report.verdict(wall, steady, entry(101, 102, 103, 104, 105)) == "within"
    assert report.verdict(wall, steady, entry(120, 121, 122, 123, 124)) == "worse"
    assert report.verdict(wall, steady, entry(80, 81, 82, 83, 84)) == "better"
    assert report.verdict(wall, steady, entry(70, 90, 103, 130, 150)) == "unresolved"


def test_a_lost_span_target_reads_null_and_warns(monkeypatch):
    import spans

    monkeypatch.setitem(spans.SPAN_TABLE, "wsdl", ["repro.wsdl.generator:no_such_function"])
    tracer = spans.Tracer()
    warnings = tracer.install()
    tracer.switch(False)
    assert len(warnings) == 1 and "wsdl" in warnings[0]
    tracer.begin(0)
    tracer.end()
    metrics = tracer.layer_metrics()
    assert metrics["wsdl.self_us_per_op"] is None and metrics["wsdl.calls_per_op"] is None
    assert metrics["soap.rpc.calls_per_op"] == 0
