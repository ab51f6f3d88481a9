"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload enum_p6 --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; jointdag is imported from
``src/``.  With ``--trace 0`` the run times the workload's closed loop
for ``--seconds`` and reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs the workload once untraced and once under the
tracer and reports the per-layer metrics.  Lines before the last one are
for people: the metrics the workload defines, by name and unit, and the
environment.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Reports and span
files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def _setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, each importing from scratch."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def untraced(wl, args, out) -> tuple[dict, dict]:
    wl.setup()  # imports jointdag and compiles it once before the probes time it
    wl.loop(args.seconds, out)
    # The probes run after the loop: the peak resident set read during the
    # loop must cover this process and the pool workers, not a probe.
    setup_s = _setup_seconds(args.workload, args.seed)
    rss = out.peak_rss_mb
    named = {"setup_s": (setup_s, "s"), **wl.named_metrics(out), "peak_rss_mb": (rss, "MB"),
             "failed_frac": (out.failed / max(out.attempted, 1), "frac")}
    return {"setup_s": setup_s, "ops_per_s": named[wl.ops_metric][0], "peak_rss_mb": rss}, named


def traced(wl, args, out, report_stem: Path) -> dict:
    from tracer import Tracer, layer_metrics

    wl.setup()
    tracer = Tracer()
    extra = wl.traced(args.seconds, out, tracer)
    if any(s < 0.0 for s in tracer.self_times("sampler.run_chain")):
        out.fail("sampler.run_chain children cover more than its span")
    tracer.write(report_stem.with_name(report_stem.name + "-spans.json"))
    return {**layer_metrics(tracer), "sampler.ess_size_per_s": 0.0,
            "sampler.ess_logp_per_s": 0.0, **extra}


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, Outcome

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "jointdag" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a jointdag checkout ({ROOT} lacks src/jointdag or BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        t0 = time.perf_counter()
        WORKLOADS[args.workload](args.seed, ROOT).setup()
        print(time.perf_counter() - t0)
        return 0

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = ROOT / ".bench_out"
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"{stem.name}-work-{os.getpid()}"
    work.mkdir(parents=True)
    out = Outcome()
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            values = traced(wl, args, out, stem)
            named = {m["name"]: (values[m["name"]], m["unit"]) for m in wanted}
        else:
            values, named = untraced(wl, args, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for note in out.notes:
        print(f"{args.workload} check failed: {note}")
    print(f"{args.workload} environment: {json.dumps(env, sort_keys=True)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "op_s": out.op_s, "notes": out.notes}
    stem.with_name(stem.name + ".json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
