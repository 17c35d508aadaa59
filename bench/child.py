"""One fresh process: set up one workload, run its passes, print JSON.

A child is either *timed* (``--seconds``: set-up, then a timed pass with
no hook, listener or wrapper installed) or *counted* (set-up, then the
count pass and, with ``--trace-file``, the codec rates and the traced
pass).  Everything a counted child does has a fixed length, so its
counts repeat exactly for a seed.

Wall-clock results leave this process already scaled to the nominal
machine speed (see ``calibration.py``).

Run by ``run.py``, which stays small so that this process's peak RSS is
its own.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: the timed pass is cut into windows, each between two readings of the
#: machine's speed
WINDOW_S = 0.1
#: the traced pass alternates plain and traced blocks, so that a slow
#: phase of the machine lands on both sides of the overhead ratio
TRACE_BLOCKS = 16


def fresh_world(name: str, seed: int, warmup_share: int = 1):
    """Set-up proper: build, deploy, publish, locate, stub, warm up."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.build()
    warmup = workload.run(ops=workload.warmup_ops // warmup_share)
    gc.collect()
    return workload, warmup


def timed_pass(workload, seconds: float) -> tuple[list, dict]:
    """Windows of ``WINDOW_S`` until *seconds* have passed.  Returns the
    window tallies and the calibrated results."""
    from calibration import kernel_seconds, speed

    tallies, rates, speeds = [], [], []
    latencies = array("q")
    deadline = time.perf_counter() + seconds
    before = kernel_seconds()
    while time.perf_counter() < deadline:
        first = len(latencies)
        tally = workload.run(seconds=WINDOW_S, samples=latencies)
        after = kernel_seconds()
        factor = speed((before + after) / 2)
        before = after
        for i in range(first, len(latencies)):
            latencies[i] = round(latencies[i] * factor)
        tallies.append(tally)
        rates.append(tally.attempted / (tally.elapsed_s * factor))
        speeds.append(factor)
    return tallies, {
        "latencies_ns": latencies.tolist(),
        "window_rates": rates,
        "speed": statistics.median(speeds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(name: str, seed: int, trace_file: str, warnings: list[str]) -> tuple[list, dict]:
    """Two fresh worlds, one built with nothing installed and one built
    under the span wrappers (so that its frame handlers are wrapped as
    they register), run in alternating blocks of equal length."""
    from calibration import kernel_seconds, speed
    from spans import Tracer
    from workloads import REGISTRY_NODE

    tracer = Tracer(node_layers={REGISTRY_NODE: "uddi.registry"})
    # the process-wide caches are warm by now; only the new worlds' own
    # state (connections, resolver tables) still needs a few calls
    plain_world, _ = fresh_world(name, seed, warmup_share=4)
    warnings.extend(tracer.install())
    try:
        traced_world, _ = fresh_world(name, seed, warmup_share=4)
        block = max(1, traced_world.traced_ops // TRACE_BLOCKS)
        plain, traced, kernels = [], [], [kernel_seconds()]
        for _ in range(TRACE_BLOCKS):
            tracer.switch(False)
            plain.append(plain_world.run(ops=block))
            tracer.switch(True)
            traced.append(traced_world.run(ops=block, tracer=tracer))
            kernels.append(kernel_seconds())
    finally:
        tracer.switch(False)
    factor = speed(statistics.median(kernels))
    metrics = {
        metric: value * factor if value is not None and metric.endswith("us_per_op") else value
        for metric, value in tracer.layer_metrics().items()
    }
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(t.elapsed_s / p.elapsed_s for t, p in zip(traced, plain)) - 1.0
    )
    ops = sum(t.attempted for t in traced)
    tracer.write(
        trace_file,
        {"workload": name, "seed": seed, "ops": ops, "speed": factor,
         "names": tracer.names, "lost": tracer.lost},
    )
    return plain + traced, {"metrics": metrics, "ops": ops, "spans": len(tracer.spans), "speed": factor}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before it started this process")
    parser.add_argument("--seconds", type=float,
                        help="timed child: length of the timed pass (omit for a counted child)")
    parser.add_argument("--trace-file", help="counted child: also run the traced pass")
    args = parser.parse_args(argv)

    # ---- set-up: import, build, deploy, publish, locate, stub, warm up
    sys.path.insert(0, str(HERE.parent / "src"))
    warnings: list[str] = []
    workload, warmup = fresh_world(args.workload, args.seed)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": time.time() - args.spawned_at,
        "warnings": warnings,
    }

    if args.seconds is not None:
        # ---- timed pass: nothing of the bench is installed in the program
        tallies, timed = timed_pass(workload, args.seconds)
        result.update(timed)
        # set-up ran in the same phase of the machine as the windows that
        # followed it; unscaled, a slow quarter of an hour moved the
        # median of ten runs by 22 %
        result["setup_stopwatch_s"] = result["setup_s"]
        result["setup_s"] *= timed["speed"]
    else:
        from counters import codec_rates, count_pass

        tally, counts, envelopes = count_pass(workload, warnings)
        tallies = [tally]
        result["count_ops"] = tally.attempted
        result["virtual_ms_per_op"] = tally.virtual_s / max(tally.attempted, 1) * 1e3
        result["counts"] = counts
        if args.trace_file:
            counts.update(codec_rates(envelopes, warnings))
            traced_tallies, result["traced"] = traced_pass(
                args.workload, args.seed, args.trace_file, warnings
            )
            tallies += traced_tallies
    for key in ("attempted", "failed", "executions"):
        result[key] = sum(getattr(t, key) for t in tallies)
    result["errors"] = [f"warm-up {e}" for e in warmup.errors] + [e for t in tallies for e in t.errors]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
