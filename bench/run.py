#!/usr/bin/env python3
"""The repo benchmark: six closed-loop WSPeer workloads, one command.

    python3 bench/run.py                         # every workload, every pass
    python3 bench/run.py --workload echo_http    # one workload
    python3 bench/run.py --compare A.json B.json # two result files

Each (workload, repeat) runs in a fresh child process (``child.py``);
repeats are interleaved round-robin over the workloads so that a noisy
phase of the machine lands on all of them.  ``--seconds`` is the timed
time per workload, split evenly over ``--repeats`` children.  One more
child per workload makes the exact counts and, unless ``--trace 0``,
the per-layer traced run; ``--trace 1`` runs only that child.

With exactly one ``--workload`` the last line of standard output is the
one-object result the PR driver reads (see ``BENCHMARK.json``).

This process imports nothing of ``repro`` and stays small, because a
child's ``ru_maxrss`` cannot read lower than its parent's was at fork.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import report
from spec import SCHEMA, WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """Run one child to completion and return the object it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--spawned-at", repr(time.time()), *extra,
    ]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def git_state() -> dict:
    """The commit being measured; nulls outside a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(HERE), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}


def measure(workloads: list[str], seed: int, seconds: float, repeats: int, passes: str, out_dir: Path) -> dict:
    """Run the children and fold their output into one result envelope."""
    timed: dict[str, list[dict]] = {name: [] for name in workloads}
    counted: dict[str, dict] = {}
    if passes != "traced":
        for _ in range(repeats):
            for name in workloads:
                timed[name].append(spawn(name, seed, "--seconds", repr(seconds / repeats)))
    for name in workloads:
        trace = [] if passes == "timed" else ["--trace-file", str(out_dir / f"trace-{name}.jsonl")]
        counted[name] = spawn(name, seed, *trace)
    return {
        "schema": SCHEMA,
        "git": git_state(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "workloads": {name: report.summarise(timed[name], counted[name]) for name in workloads},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives payload text, the service-name order and the drop schedule")
    parser.add_argument("--seconds", type=float, default=12.5,
                        help="timed seconds per workload, split over the repeats")
    parser.add_argument("--repeats", type=int, default=5, help="timed children per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed and count passes only; 1: count and traced passes only")
    parser.add_argument("--out", type=Path, help="result file (default: bench/out/result.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), type=Path,
                        help="compare two result files and exit non-zero on any regression")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        return report.compare(a, b)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workloads = args.workload or list(WORKLOADS)
    passes = {None: "all", 0: "timed", 1: "traced"}[args.trace]
    try:
        result = measure(workloads, args.seed, args.seconds, args.repeats, passes, out_dir)
    except subprocess.CalledProcessError as exc:
        # the child has already said why on standard error
        print(f"bench: a child process failed ({exc.returncode}); no result", file=sys.stderr)
        return 1
    out_file = args.out or out_dir / "result.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    print(f"{SCHEMA} seed={args.seed} repeats={args.repeats} seconds={args.seconds} "
          f"python={result['python']} nproc={result['nproc']} git={result['git']['sha']}")
    for name in workloads:
        report.print_workload(name, result["workloads"][name])
    print(f"\nwrote {out_file}")
    if len(workloads) == 1:
        print(json.dumps(report.driver_line(result["workloads"][workloads[0]], traced=passes == "traced")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
