"""Turn child results into metrics, print them, compare two result files."""

from __future__ import annotations

import math
import statistics
from typing import Any, Optional

from spec import (
    DRIVER_END_TO_END,
    DRIVER_VIRTUAL,
    END_TO_END,
    Metric,
    driver_per_layer_metrics,
    per_layer_metrics,
)

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


def _entry(spec: Metric, value: Optional[float], n: int, runs: Optional[list[float]] = None) -> dict:
    entry: dict[str, Any] = {
        "value": value, "unit": spec.unit, "better": spec.better, "clock": spec.clock, "n": n,
    }
    if spec.bound is not None:
        entry["bound"] = spec.bound
    if runs:
        entry["runs"] = runs
        entry["q1"], _, entry["q3"] = quartiles(runs)
    return entry


def summarise(timed: list[dict], counted: Optional[dict]) -> dict:
    """One workload's metrics from its timed children (one per repeat)
    and its counted child; either may be missing."""
    children = timed + ([counted] if counted else [])
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    out: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "executions": sum(c["executions"] for c in children),
        "errors": [e for c in children for e in c["errors"]],
        "warnings": sorted({w for c in children for w in c["warnings"]}),
        #: machine speed read by the calibration kernel (1.0 = nominal);
        #: wall-clock metrics are already scaled by it
        "speed": statistics.median(c["speed"] for c in timed) if timed else None,
        "end_to_end": {},
        "per_layer": {},
    }
    e2e = out["end_to_end"]
    if timed:
        setups = [c["setup_s"] for c in timed]
        e2e["setup_s"] = _entry(END_TO_END["setup_s"], statistics.median(setups), len(setups), setups)
        # throughput is the median over ~100 ms windows, so that a noisy
        # second on a shared machine moves a few windows, not the result
        rates = [c["window_rates"] for c in timed]
        pooled_rates = [r for child in rates for r in child]
        e2e["ops_per_s"] = _entry(
            END_TO_END["ops_per_s"], statistics.median(pooled_rates), len(pooled_rates),
            [statistics.median(r) for r in rates],
        )
        latencies = [sorted(ns / 1e3 for ns in c["latencies_ns"]) for c in timed]
        pooled = sorted(v for child in latencies for v in child)
        for name, share in (("op_p50_us", 0.50), ("op_p99_us", 0.99)):
            e2e[name] = _entry(
                END_TO_END[name], percentile(pooled, share), len(pooled),
                [percentile(child, share) for child in latencies if child],
            )
        rss = [c["peak_rss_mb"] for c in timed]
        e2e["peak_rss_mb"] = _entry(END_TO_END["peak_rss_mb"], statistics.median(rss), len(rss), rss)
    e2e["fail_share"] = _entry(END_TO_END["fail_share"], failed / attempted, attempted)
    if counted:
        ops = counted["count_ops"]
        counts = dict(counted["counts"])
        e2e["wire_bytes_per_op"] = _entry(
            END_TO_END["wire_bytes_per_op"], counts.pop("wire_bytes_per_op"), ops
        )
        e2e["virtual_ms_per_op"] = _entry(
            END_TO_END["virtual_ms_per_op"], counted["virtual_ms_per_op"], ops
        )
        traced = counted.get("traced")
        if traced:
            counts.update(traced["metrics"])
        specs = per_layer_metrics()
        for name, value in counts.items():
            traced_metric = traced and name in traced["metrics"]
            out["per_layer"][name] = _entry(
                specs[name], value, traced["ops"] if traced_metric else ops
            )
    return out


def _format(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def print_workload(name: str, summary: dict) -> None:
    """Every metric by name, with its unit, clock and sample count."""
    print(f"\n== {name}: {summary['attempted']} ops attempted, {summary['failed']} failed, "
          f"{summary['executions']} provider executions")
    for section in ("end_to_end", "per_layer"):
        rows = summary[section]
        if not rows:
            continue
        print(f"  -- {section}")
        for metric, entry in rows.items():
            spread = f"  q1..q3 {_format(entry['q1'])}..{_format(entry['q3'])}" if "runs" in entry else ""
            print(f"  {metric:<44} {_format(entry['value']):>10} {entry['unit']:<6}"
                  f" clock={entry['clock']:<7} n={entry['n']}{spread}")
    for line in summary["errors"]:
        print(f"  failed: {line}")
    for line in summary["warnings"]:
        print(f"  warning: {line}")


def driver_line(summary: dict, traced: bool) -> dict:
    """The one-line result the PR driver reads for a single workload."""
    if traced:
        per_layer = dict(summary["per_layer"])
        per_layer[DRIVER_VIRTUAL] = summary["end_to_end"]["virtual_ms_per_op"]
        entries = {name: per_layer[name] for name in driver_per_layer_metrics()}
    else:
        entries = {name: summary["end_to_end"][name] for name in DRIVER_END_TO_END}
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]} for name, entry in entries.items()
        },
    }


# ----------------------------------------------------------------------
# comparing two result files
# ----------------------------------------------------------------------
def _worse_by(spec: Metric, a: float, b: float) -> float:
    """How much worse *b* is than *a*, as a share of *a* (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else math.copysign(math.inf, b if spec.better == "lower" else -b)
    change = (b - a) / abs(a)
    return change if spec.better == "lower" else -change


def _span(entry: dict) -> tuple[float, float]:
    """The quartiles of an entry's runs (its value when it has one run)."""
    return entry.get("q1", entry["value"]), entry.get("q3", entry["value"])


def verdict(spec: Metric, a: dict, b: dict) -> str:
    """``better | within | worse | unresolved`` for one metric of one workload."""
    worse_by = _worse_by(spec, a["value"], b["value"])
    if spec.clock != "wall":  # exact: any movement counts
        return "worse" if worse_by > 0 else "better" if worse_by < 0 else "within"
    runs_a, runs_b = a.get("runs", [a["value"]]), b.get("runs", [b["value"]])
    if spec.better == "lower":
        clear_win = max(runs_b) < min(runs_a)
    else:
        clear_win = min(runs_b) > max(runs_a)
    if clear_win:
        return "better"
    (a_q1, a_q3), (b_q1, b_q3) = _span(a), _span(b)
    spread = max((a_q3 - a_q1) / abs(a["value"]), (b_q3 - b_q1) / abs(b["value"]))
    if spread > spec.bound and a_q1 <= b_q3 and b_q1 <= a_q3:
        return "unresolved"
    return "worse" if worse_by > spec.bound else "within"


def compare(a: dict, b: dict) -> int:
    """Print one row per (workload, end-to-end metric); non-zero when any
    metric is worse or more operations fail."""
    bad = 0
    print(f"{'workload':<15} {'metric':<18} {'A':>10} {'A q1..q3':>21} {'B':>10} {'B q1..q3':>21} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload, summary_a in a["workloads"].items():
        summary_b = b["workloads"].get(workload)
        if summary_b is None:
            print(f"{workload:<15} missing from B")
            bad += 1
            continue
        for metric, spec in END_TO_END.items():
            ea, eb = summary_a["end_to_end"].get(metric), summary_b["end_to_end"].get(metric)
            if ea is None or eb is None or ea["value"] is None or eb["value"] is None:
                continue
            result = verdict(spec, ea, eb)
            bad += result == "worse"
            span_a, span_b = ("..".join(map(_format, _span(e))) for e in (ea, eb))
            change = _worse_by(spec, ea["value"], eb["value"])
            if spec.better == "higher":
                change = -change
            print(f"{workload:<15} {metric:<18} {_format(ea['value']):>10} {span_a:>21} "
                  f"{_format(eb['value']):>10} {span_b:>21} {change:>+8.1%} {spec.bound:>6.0%}  {result}")
    print(f"\n{bad} worse" if bad else "\nno metric is worse")
    return 1 if bad else 0
