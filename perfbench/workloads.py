"""The two workloads: inputs, set-up, the timed closed loop, checks, traced pass.

Every workload is one client in a closed loop: the next operation starts
when the previous one has finished and been checked.  A seed fixes every
input of a run.  Only the call into jointdag is timed; input generation
and output checks sit outside the timed region.  A run starts another
operation only while one more of average length still fits in its
seconds, so a run ends close to its length whatever an operation costs.

Module-level code imports only the standard library, so that a set-up
probe can time the import of numpy, scipy and jointdag itself.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import ratio

# Scenario 3 replicate batches.  Chains are shorter than criterion 9's
# 10000 sweeps so that a batch fits in a run; at 4000 sweeps a batch
# still met the criterion's floors in trials, at 2000 it did not always.
S3_ITERS, S3_BURNIN, S3_REPS, S3_WORKERS = 4000, 2000, 2, 2
# Criterion 9's floors, applied to every batch's b = 0.5 means.
CRITERION_9 = {"sens": (0.9, 1.0), "spec": (0.85, 1.0)}
# Identities between two code paths of the program; both sides are sums of
# the same integer counts, so only rounding separates them.
IDENTITY_TOL = 1e-9
# Exact enumeration at p = 6, shaped like acceptance criterion 4: two
# datasets per sample size, cycled through for the whole run.
ENUM_NS = (50, 200, 800)
ENUM_INPUTS = 2 * len(ENUM_NS)
ENUM_NORM_TOL, ENUM_ARGMAX_TOL = 1e-9, 1e-8


@dataclass
class Outcome:
    """What one run measured: op timings, failures and named metrics."""

    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def timed(self, wall: float) -> None:
        """Record one operation's wall time.

        After the first operation, also read the peak resident set of one
        process: this one or a child it waited for.  Later operations run
        on other inputs, whose footprints differ, so a reading at the end
        of the run would depend on how many operations fit in it.
        """
        self.op_s.append(wall)
        if len(self.op_s) == 1:
            kb = max(resource.getrusage(who).ru_maxrss
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            self.peak_rss_mb = kb / 1024.0

    def fail(self, msg: str, count: int = 1) -> None:
        self.failed = min(self.failed + count, self.attempted)
        self.notes.append(msg)


def _agree(a: float, b: float) -> bool:
    return abs(a - b) <= IDENTITY_TOL * max(1.0, abs(b))


def _seeds(seed: int, i: int, k: int = 2) -> list[int]:
    import numpy as np

    return [int(v) for v in np.random.SeedSequence([seed, i]).generate_state(k)]


def _another_fits(start: float, seconds: float, done: int) -> bool:
    """Whether one more operation of the average length so far ends in time."""
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed * (done + 1) / done <= seconds


class _Workload:
    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work  # scratch directory for the run's output files


# ---------------------------------------------------------------------------
# enum_p6: exact posterior tables at p = 6


class EnumP6(_Workload):
    """Cycles through ENUM_INPUTS tables and times each one many times.

    Each input's fastest time counts.  A shared 2-core host can run up
    to 1.5 times slower for minutes at a time; the fastest of an input's
    repeats, spread over the whole run, is the figure such a phase moves
    least.
    """

    name = "enum_p6"
    ops_metric = "tables_per_s"

    def inputs(self, k: int):
        import numpy as np
        from jointdag import simdata
        from jointdag.spike_slab import Hyperparameters

        n = ENUM_NS[k % len(ENUM_NS)]
        rng = np.random.default_rng([self.seed, k])
        X = rng.standard_normal((n, 6))
        X[:, 0] += 0.8 * X[:, 1]
        X[:, 2] += 0.55 * X[:, 4]
        Y = X @ np.array([1.2, -0.75, 0.0, 0.0, 0.0, 0.0]) + rng.standard_normal(n)
        return simdata.Dataset(X, Y), Hyperparameters()

    def setup(self) -> None:
        import jointdag.cli  # noqa: F401  (the whole package)
        from jointdag import scoring

        data, hyper = self.inputs(0)
        scoring.ScoreEngine(data, hyper)

    def run_op(self, data, hyper):
        from jointdag import scoring

        t0 = time.perf_counter()
        table = scoring.enumerate_posterior(data, hyper)
        return time.perf_counter() - t0, table

    @staticmethod
    def figures(table) -> tuple:
        """The table's key figures, which a repeat must reproduce exactly."""
        return (table.log_normalizer, table.argmax_log_score, tuple(table.argmax_gamma),
                table.argmax_dag.parents)

    def check(self, table, data, hyper, out: Outcome, k: int) -> tuple | None:
        """Normalization and argmax checks; returns the table's key figures."""
        import numpy as np
        from jointdag import scoring
        from scipy.special import logsumexp

        mass = float(logsumexp(table.gamma_log_marginals()))
        marg = table.variable_marginals()
        ref = scoring.log_joint_score(table.argmax_gamma, table.argmax_dag, data, hyper).log_score
        if abs(mass) > ENUM_NORM_TOL or np.any(marg < -ENUM_NORM_TOL) or np.any(marg > 1 + ENUM_NORM_TOL):
            out.fail(f"table {k}: does not normalize (log mass {mass:.3e})")
            return None
        if abs(ref - table.argmax_log_score) > ENUM_ARGMAX_TOL:
            out.fail(f"table {k}: argmax score {table.argmax_log_score!r} != log_joint_score {ref!r}")
            return None
        return self.figures(table)

    def loop(self, seconds: float, out: Outcome) -> list:
        """Tables until `seconds` pass, at least one round of every input.

        The first table of each input is checked in full, and every repeat
        must give the same key figures.  Returns each input's figures
        (None where its check failed) and keeps each input's fastest time
        in `self.best`.
        """
        self.data = inputs = [self.inputs(k) for k in range(ENUM_INPUTS)]
        self.best = [math.inf] * ENUM_INPUTS
        figures: list = [None] * ENUM_INPUTS
        start = time.perf_counter()
        i = 0
        while i < ENUM_INPUTS or _another_fits(start, seconds, i):
            k = i % ENUM_INPUTS
            out.attempted += 1
            try:
                wall, table = self.run_op(*inputs[k])
                out.timed(wall)
                self.best[k] = min(self.best[k], wall)
                if i < ENUM_INPUTS:
                    figures[k] = self.check(table, *inputs[k], out, k)
                elif self.figures(table) != figures[k]:
                    out.fail(f"table {k}: repeat {i // ENUM_INPUTS} differs from its first result")
            except Exception as exc:
                traceback.print_exc()
                out.fail(f"table {k}: {exc!r}")
            i += 1
        return figures

    def named_metrics(self, out: Outcome) -> dict:
        ms = [1e3 * s for s in out.op_s]
        deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
        best = [s for s in self.best if math.isfinite(s)]
        return {
            "tables_per_s": (ratio(len(best), sum(best)), "1/s"),
            "table_ms_p50": (statistics.median(ms), "ms"),
            "table_ms_p90": (deciles[8], "ms"),
        }

    def traced(self, seconds: float, out: Outcome, tracer) -> dict:
        """Untraced tables for half the run, then as many traced; the traced
        tables must give the untraced figures."""
        ref = self.loop(seconds / 2.0, out)
        n_ops, untraced_s = len(out.op_s), sum(out.op_s)
        traced_s = 0.0
        out.attempted += n_ops
        with tracer:
            for i in range(n_ops):
                k = i % ENUM_INPUTS
                wall, table = self.run_op(*self.data[k])
                traced_s += wall
                if self.figures(table) != ref[k]:
                    out.fail(f"table {k}: traced table differs from the untraced one")
        return {"trace.overhead_frac": traced_s / untraced_s - 1.0}


# ---------------------------------------------------------------------------
# s3_replicate: `jointdag replicate` batches on Scenario 3 Setting 1


def _chain_trace_ess(path: Path, summary, out: Outcome) -> tuple[float, float] | None:
    """Check one chain's per-sweep trace against its summary; returns the
    bulk-ESS of its model-size and log-score traces over the kept sweeps.

    The trace and the summary's accumulators are separate code paths in
    run_chain, so their totals must agree.
    """
    import numpy as np
    from ess import bulk_ess

    records = [json.loads(ln) for ln in path.read_text().splitlines()]
    if [r["iter"] for r in records] != list(range(1, summary.iters + 1)):
        out.fail(f"{path.name}: trace does not hold one record per sweep 1..{summary.iters}")
        return None
    kept = records[summary.burnin:]
    n_cols = summary.p - 1
    pairs = {
        "mean model size": (sum(r["size"] for r in kept) / len(kept),
                            float(summary.inclusion_probs.sum())),
        "mean edge count": (sum(r["edges"] for r in kept) / len(kept),
                            float(summary.edge_probs.sum())),
        "gamma acceptance": (sum(r["accept_gamma"] for r in records) / summary.iters,
                             summary.gamma_acceptance),
        "column acceptance": (sum(r["dag_accepts"] for r in records) / (summary.iters * n_cols),
                              float(np.nanmean(summary.dag_acceptance))),
    }
    problems = [f"{k}: trace {a!r} != summary {b!r}" for k, (a, b) in pairs.items()
                if not _agree(a, b)]
    if abs(records[-1]["log_score"] - summary.final_log_score) > 1e-6:
        problems.append("last traced log score differs from the summary's final score")
    ess_size = bulk_ess([r["size"] for r in kept])
    ess_logp = bulk_ess([r["log_score"] for r in kept])
    if not (ess_size > 0 and ess_logp > 0):
        problems.append(f"ESS not positive: size {ess_size}, log score {ess_logp}")
    if problems:
        out.fail(f"{path.name}: " + "; ".join(problems))
        return None
    return ess_size, ess_logp


class S3Replicate(_Workload):
    name = "s3_replicate"
    ops_metric = "reps_per_s"

    def argv(self, i: int, workers: int, out_dir: Path) -> list[str]:
        root = _seeds(self.seed, i, 1)[0]
        return [
            "replicate", "--scenario", "3", "--setting", "1", "--reps", str(S3_REPS),
            "--seed", str(root), "--iters", str(S3_ITERS), "--burnin", str(S3_BURNIN),
            "--init", "corr", "--workers", str(workers), "--out", str(out_dir),
        ]

    def setup(self) -> None:
        import jointdag.cli  # noqa: F401  (the whole package)
        from jointdag import sampler, simdata
        from jointdag.spike_slab import Hyperparameters

        _, train, _ = simdata.generate(3, 1, _seeds(self.seed, 0, 1)[0])
        sampler.init_state(train, Hyperparameters(), init="corr")

    def run_op(self, i: int, workers: int, tag: str, tracer=None):
        """One `replicate` batch; returns (wall seconds, output directory)."""
        from jointdag import cli

        out_dir = self.work / f"s3-{i}-{tag}"
        argv = self.argv(i, workers, out_dir)
        t0 = time.perf_counter()
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span("cli.replicate"):
                rc = cli.main(argv)
        wall = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"jointdag replicate exited with {rc}")
        return wall, out_dir

    @staticmethod
    def read_batch(out_dir: Path) -> tuple[bytes, list[tuple[float, float]]]:
        """Check one batch's CSVs; returns replicates.csv bytes and the
        (sensitivity, specificity) of each b = 0.5 replicate.

        table.csv must hold the exact means of the replicates.csv rows, and
        the b = 0.5 means must meet criterion 9's sensitivity and
        specificity floors.
        """
        import numpy as np
        from jointdag.cli import METRIC_KEYS

        blob = (out_dir / "replicates.csv").read_bytes()
        rows = [ln.split(",") for ln in blob.decode().splitlines()[1:]]
        if len(rows) != 2 * S3_REPS:
            raise ValueError(f"replicates.csv has {len(rows)} rows, expected {2 * S3_REPS}")
        by_method: dict[str, list[list[float]]] = {}
        for row in rows:
            vals = [float(v) for v in row[2:]]
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"non-finite metric in replicates.csv row {row}")
            by_method.setdefault(row[1], []).append(vals)
        for line in (out_dir / "table.csv").read_text().splitlines()[1:]:
            method, *cells = line.split(",")
            means = np.mean(np.array(by_method[method]), axis=0)
            if not all(_agree(float(c), float(v)) for c, v in zip(cells, means, strict=True)):
                raise ValueError(f"table.csv row {method} is not the mean of its replicates")
        b05 = [dict(zip(METRIC_KEYS, v)) for v in by_method["joint_b0.5"]]
        for key, (lo, hi) in CRITERION_9.items():
            mean = statistics.fmean(r[key] for r in b05)
            if not lo <= mean <= hi:
                raise ValueError(f"b = 0.5 mean {key} {mean:.4f} misses criterion 9's [{lo}, {hi}]")
        return blob, [(r["sens"], r["spec"]) for r in b05]

    def loop(self, seconds: float, out: Outcome) -> None:
        start = time.perf_counter()
        self.quality = []
        i = 0
        while _another_fits(start, seconds, i):
            out.attempted += S3_REPS
            try:
                wall, out_dir = self.run_op(i, S3_WORKERS, "w2")
                out.timed(wall)
                self.quality += self.read_batch(out_dir)[1]
            except Exception as exc:
                traceback.print_exc()
                out.fail(f"batch {i}: {exc!r}", S3_REPS)
            shutil.rmtree(self.work / f"s3-{i}-w2", ignore_errors=True)
            i += 1

    def named_metrics(self, out: Outcome) -> dict:
        reps = S3_REPS * len(out.op_s)
        batch_s = sum(out.op_s)
        n = len(self.quality)
        return {
            "sweeps_per_s": (ratio(2 * S3_ITERS * reps, batch_s), "1/s"),
            "reps_per_s": (ratio(reps, batch_s), "1/s"),
            "sens": (ratio(sum(q[0] for q in self.quality), n), "frac"),
            "spec": (ratio(sum(q[1] for q in self.quality), n), "frac"),
        }

    def traced(self, seconds: float, out: Outcome, tracer) -> dict:
        """Batch 0 untraced at 2 workers, then traced at 1 worker.

        Tracing overhead compares CPU seconds, not wall seconds: the pool
        workers' CPU time for the untraced batch against this process's
        CPU time for the traced one.  An untraced serial batch would give
        a wall-time baseline but would double the length of the run.  The
        traced batch's chains also write their per-sweep trace
        (`ChainControl.trace`), which gives their ESS and is checked
        against their summaries.
        """
        from jointdag import cli
        from ess import self_test as ess_self_test

        def children_cpu() -> float:
            ru = resource.getrusage(resource.RUSAGE_CHILDREN)
            return ru.ru_utime + ru.ru_stime

        traces: list[Path] = []
        chain_control = cli.ChainControl

        def control_with_trace(**kw):
            traces.append(self.work / f"chain-{len(traces)}.jsonl")
            return chain_control(**kw, trace=str(traces[-1]))

        out.attempted += 2 * S3_REPS
        cpu0 = children_cpu()
        _, d2 = self.run_op(0, S3_WORKERS, "w2")
        untraced_cpu = children_cpu() - cpu0
        cpu0 = time.process_time()
        cli.ChainControl = control_with_trace
        try:
            with tracer:
                _, dt = self.run_op(0, 1, "traced", tracer)
        finally:
            cli.ChainControl = chain_control
        traced_cpu = time.process_time() - cpu0
        if self.read_batch(d2)[0] != self.read_batch(dt)[0]:
            out.fail("replicates.csv differs between --workers 2 and the traced --workers 1 run")
        summaries = tracer.results_of("sampler.run_chain")
        ess = [_chain_trace_ess(p, s, out) for p, s in zip(traces, summaries, strict=True)]
        if not ess_self_test():
            out.fail("bulk-ESS self-test on an AR(1) series failed")
        chain_s = sum(tracer.durations("sampler.run_chain"))
        ess = [e for e in ess if e is not None]
        return {
            "trace.overhead_frac": traced_cpu / untraced_cpu - 1.0,
            "sampler.ess_size_per_s": ratio(sum(e[0] for e in ess), chain_s),
            "sampler.ess_logp_per_s": ratio(sum(e[1] for e in ess), chain_s),
        }


WORKLOADS = {w.name: w for w in (EnumP6, S3Replicate)}
