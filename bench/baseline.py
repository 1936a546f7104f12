"""Run every workload over several seeds and report medians and spreads.

    python3 bench/baseline.py --seeds 10            # print only
    python3 bench/baseline.py --seeds 10 --write    # also write baseline.json

Each workload runs once per seed with ``--trace 0`` and once (first seed)
with ``--trace 1``, one run at a time.  For every end-to-end metric the
spread is the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; it is
flagged when it reaches a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable if a == "python3" else a for a in spec["command"]]
    proc = subprocess.run(
        argv + ["--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--write", action="store_true",
                        help="write bench/baseline.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    report = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "layers": LAYERS,
        "workloads": {},
    }
    ok = True
    for name in args.workload or list(WORKLOADS):
        wl = WORKLOADS[name]
        runs, started = [], time.perf_counter()
        for seed in seeds:
            runs.append(run_once(spec, name, seed, 0))
        wall = (time.perf_counter() - started) / len(seeds)
        traced = run_once(spec, name, seeds[0], 1)
        entry = {
            "why": wl.why,
            "commands": [["domdensity", *c.argv] for c in wl.commands],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "wall_s_per_run": wall,
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            stats = spread(values)
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = stats
            flag = ""
            if metric != "setup_s" and stats["spread"] >= bound / 3:
                flag, ok = "  <-- spread at or above bound/3", False
            print(f"{name:14} {metric:12} median {stats['median']:10.4f} "
                  f"{stats['unit']:4} spread {stats['spread']:.3f} "
                  f"(bound {bound}){flag}")
        print(f"{name:14} {entry['failed']} failed of "
              f"{entry['attempted'] + traced['attempted']}, {wall:.1f} s per run")
        ok = ok and entry["failed"] == 0
        report["workloads"][name] = entry
    if args.write:
        (BENCH / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
