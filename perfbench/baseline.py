"""Run every workload over seeds 1..10 and record the baseline.

    python3 perfbench/baseline.py

For each workload of BENCHMARK.json this makes one untraced run per seed
and one traced run, then reports each metric's median, quartiles and
spread (the interquartile range over the median) next to its bound.  The
result, with the machine it ran on, goes to perfbench/BASELINE.json.  The
exit status is 1 if any run failed a check.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = list(range(1, 11))
OUT = HERE / "BASELINE.json"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "named": report["named"], "environment": report["environment"],
            "wall_s": wall}


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "mean": statistics.fmean(values), "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, s, seconds, 0) for s in SEEDS]
        doc["environment"] = runs[0]["environment"]
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "run_wall_s": _stats([r["wall_s"] for r in runs]),
            "end_to_end": {
                name: _stats([r["result"]["metrics"][name]["value"] for r in runs])
                for name in bounds
            },
            "named": {
                name: {**_stats([r["named"][name]["value"] for r in runs]),
                       "unit": runs[0]["named"][name]["unit"]}
                for name in runs[0]["named"]
            },
        }
        traced = _run(workload, SEEDS[0], seconds, 1)
        entry["traced_seed"] = SEEDS[0]
        entry["traced_correct"] = traced["result"]["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        entry["traced_wall_s"] = traced["wall_s"]
        doc["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}"
              f" run wall median {entry['run_wall_s']['median']:.1f}s")
        for name, st in entry["end_to_end"].items():
            flag = ("under a third of the bound" if st["spread"] < bounds[name] / 3
                    else "within the bound" if st["spread"] <= bounds[name] else "OVER THE BOUND")
            print(f"  {name:12s} median {st['median']:.6g}  spread {st['spread']:.4f}"
                  f"  bound {bounds[name]}  {flag}")
        for name, st in entry["named"].items():
            print(f"  [{name}] median {st['median']:.6g} {st['unit']}  spread {st['spread']:.4f}")
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(e["correct"] and e["traced_correct"] for e in doc["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
