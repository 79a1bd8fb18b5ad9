"""Measure the baseline: every workload on several seeds, plus one traced run each.

    python3 perfbench/baseline.py      # every workload on seeds 1..10, writes perfbench/baseline.json

For every end-to-end metric of every workload it records the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance between the
quartiles as a share of the median.  It also records the per-kind latencies
from the readable lines, the per-layer metrics of one traced run on the default
seed, and which end-to-end metric each per-layer metric should move.  The
holdout seed is kept out of every run made here.  Every baseline comes from
one full run over all workloads; nothing is merged from an earlier file.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HOLDOUT_SEED = 9001
SEEDS = tuple(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    record = json.loads((ROOT / ".bench_out" / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()},
            "report": record["report"]}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    out = {
        "machine": f"{platform.python_implementation()} {platform.python_version()}, "
                   f"{os.cpu_count()} CPUs, {platform.machine()}",
        "run_seconds": seconds,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "seeds": list(SEEDS),
        "workloads": {},
        "layer_moves": {name: list(moves) for name, _, _, moves in PER_LAYER},
    }
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds, 0))
            print(workload, seed, runs[-1]["metrics"], flush=True)
        entry = {
            "end_to_end": {
                name: dict(summarize([r["metrics"][name] for r in runs]), unit=unit)
                for name, unit in runs[0]["units"].items()
            },
            "per_kind": {
                name: summarize([r["report"][name] for r in runs])
                for name in runs[0]["report"]
                if all(name in r["report"] for r in runs)
            },
        }
        entry["per_layer_seed_%d" % DEFAULT_SEED] = run_once(workload, DEFAULT_SEED, seconds, 1)["metrics"]
        out["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.4f} spread {s['spread']:.3f}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
