"""Record the benchmark's baseline: medians and run-to-run spread per metric.

    python3 perfbench/baseline.py

For each workload in BENCHMARK.json, runs ``run.py`` once per seed with
tracing off, in SETS independent sets of SEEDS seeds each (seeds count up
from FIRST_SEED), then one traced run per set.
Each set reports, per end-to-end metric, the median of the per-seed values
and the spread (interquartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles).  The file also
holds the per-seed values, ``trace.overhead_ratio`` and each run's
provenance, so a later change can be compared with the same method.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
SEEDS = 10
FIRST_SEED = 301
OUT = BENCH / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=600)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])["provenance"]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "iqr_over_median": (q3 - q1) / med if med else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"run_seconds": spec["run_seconds"], "sets": []}
    seed = FIRST_SEED
    for _ in range(SETS):
        record = {"workloads": {}}
        for wl in spec["workloads"]:
            name = wl["name"]
            runs = []
            for _ in range(SEEDS):
                t0 = time.perf_counter()
                res, prov = run_once(name, seed, spec["run_seconds"], 0)
                runs.append({"seed": seed, "duration_s": time.perf_counter() - t0,
                             "result": res, "provenance": prov})
                print(name, seed, res["correct"], {k: v["value"] for k, v in res["metrics"].items()},
                      file=sys.stderr, flush=True)
                seed += 1
            traced, _ = run_once(name, seed, spec["run_seconds"], 1)
            seed += 1
            metrics = {m["name"]: spread([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                       for m in spec["end_to_end"]}
            record["workloads"][name] = {
                "metrics": metrics,
                "all_correct": all(r["result"]["correct"] for r in runs) and traced["correct"],
                "trace.overhead_ratio": traced["metrics"]["trace.overhead_ratio"]["value"],
                "runs": runs,
            }
        result["sets"].append(record)
    OUT.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
