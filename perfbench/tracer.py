"""Spans around jointdag's public calls, recorded from outside the package.

``Tracer.install()`` replaces the functions and methods listed in SPANS
and MEMO_CALLS with timing wrappers and ``uninstall()`` puts the
originals back.  Each call to a SPANS target becomes one span (name,
start, end, parent).  The memoized lookups in MEMO_CALLS run millions of
times per chain, so their calls are folded into one aggregate record per
(name, parent span) with call, miss and time totals; a miss is the first
time the wrapper sees a key on a given cache object.  Everything stays in
memory until ``write()``.

The targets are named by attribute path.  If jointdag renames or retires
one of them, ``install()`` raises AttributeError and the benchmark fails
instead of silently measuring nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import weakref

# (owner, attribute, span name).  A function imported by name into another
# module is patched under every module that calls it.
SPANS = (
    ("jointdag.sampler", "run_chain", "sampler.run_chain"),
    ("jointdag.cli", "run_chain", "sampler.run_chain"),
    ("jointdag.sampler", "check_state_consistency", "sampler.check_state_consistency"),
    ("jointdag.scoring:ScoreEngine", "__init__", "scoring.engine_init"),
    ("jointdag.scoring", "enumerate_posterior", "scoring.enumerate_posterior"),
    ("jointdag.simdata", "generate", "simdata.generate"),
    ("jointdag.cli", "generate", "simdata.generate"),
    ("jointdag.simdata:Dataset", "__post_init__", "simdata.dataset"),
    ("jointdag.metrics", "evaluate_selection", "metrics.evaluate_selection"),
    ("jointdag.cli", "evaluate_selection", "metrics.evaluate_selection"),
    ("jointdag.cli", "_replicate_task", "cli.replicate_task"),
)

# Spans whose return values the layer metrics read.
KEEP_RESULTS = ("sampler.run_chain", "sampler.check_state_consistency")

# (owner, method, record name, size of the key): memoized per-key lookups.
MEMO_CALLS = (
    ("jointdag.dag_wishart:ColumnZDeltaCache", "delta", "dag_wishart.delta", lambda key: len(key[1])),
    ("jointdag.scoring:ScoreEngine", "marginal", "scoring.marginal", lambda key: len(key[0])),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.results: dict[int, object] = {}  # span index -> return value
        self.memo: dict[tuple[str, int | None], list] = {}  # -> [calls, s, misses, miss_s, size]
        self._stack: list[int | None] = [None]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the enclosed code; yields its index."""
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1]])
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid][2] = time.perf_counter()

    def _span_wrapper(self, fn, name: str):
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sid:
                res = fn(*args, **kwargs)
            if keep:
                self.results[sid] = res
            return res

        return wrapper

    def _memo_wrapper(self, fn, name: str, size_of):
        clock = time.perf_counter
        stack = self._stack
        memo = self.memo
        seen_by: dict[int, set] = {}

        @functools.wraps(fn)
        def wrapper(obj, *key):
            t0 = clock()
            val = fn(obj, *key)
            dt = clock() - t0
            seen = seen_by.get(id(obj))
            if seen is None:
                seen = seen_by[id(obj)] = set()
                weakref.finalize(obj, seen_by.pop, id(obj), None)
            rec = memo.get((name, stack[-1]))
            if rec is None:
                rec = memo[(name, stack[-1])] = [0, 0.0, 0, 0.0, 0]
            rec[0] += 1
            rec[1] += dt
            if key not in seen:
                seen.add(key)
                rec[2] += 1
                rec[3] += dt
                rec[4] += size_of(key)
            return val

        return wrapper

    def install(self) -> "Tracer":
        patches = [(o, a, self._span_wrapper, (n,)) for o, a, n in SPANS]
        patches += [(o, a, self._memo_wrapper, (n, s)) for o, a, n, s in MEMO_CALLS]
        try:
            for path, attr, make, extra in patches:
                owner = _owner(path)
                orig = getattr(owner, attr)
                setattr(owner, attr, make(orig, *extra))
                self._undo.append((owner, attr, orig))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- queries ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list[float]:
        """Duration of each `name` span minus what its direct children cover."""
        child_s: dict[int, float] = {}
        for s in self.spans:
            if s[3] is not None:
                child_s[s[3]] = child_s.get(s[3], 0.0) + (s[2] - s[1])
        for (_, parent), rec in self.memo.items():
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + rec[1]
        return [
            s[2] - s[1] - child_s.get(i, 0.0) for i, s in enumerate(self.spans) if s[0] == name
        ]

    def memo_totals(self, name: str, under: str | None = None) -> list:
        """[calls, s, misses, miss_s, size] summed over records of `name`,
        optionally only those whose parent span is named `under`."""
        tot = [0, 0.0, 0, 0.0, 0]
        for (rec_name, parent), rec in self.memo.items():
            if rec_name != name:
                continue
            if under is not None and (parent is None or self.spans[parent][0] != under):
                continue
            tot = [a + b for a, b in zip(tot, rec)]
        return tot

    def top_level(self, prefix: str) -> list[float]:
        """Durations of spans under `prefix` whose parent is not under it."""
        out = []
        for s in self.spans:
            parent = s[3]
            if s[0].startswith(prefix) and (parent is None or not self.spans[parent][0].startswith(prefix)):
                out.append(s[2] - s[1])
        return out

    def results_of(self, name: str) -> list:
        return [self.results[i] for i, s in enumerate(self.spans) if s[0] == name and i in self.results]

    def write(self, path) -> None:
        """Spans and memo aggregates as JSON, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [
                {"id": i, "name": n, "start": a - t0, "end": b - t0, "parent": p}
                for i, (n, a, b, p) in enumerate(self.spans)
            ],
            "memo_calls": [
                {"name": n, "parent": p, "calls": r[0], "total_s": r[1], "misses": r[2],
                 "miss_s": r[3], "miss_key_size_sum": r[4]}
                for (n, p), r in self.memo.items()
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when nothing was measured."""
    return a / b if b else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass; a layer that did not run reads 0."""
    import numpy as np

    d = t.memo_totals("dag_wishart.delta")
    d_chain = t.memo_totals("dag_wishart.delta", under="sampler.run_chain")
    m = t.memo_totals("scoring.marginal")
    sampler_self = sum(t.self_times("sampler.run_chain"))
    summaries = t.results_of("sampler.run_chain")
    drifts = t.results_of("sampler.check_state_consistency")
    tables = t.durations("scoring.enumerate_posterior")
    tasks = t.durations("cli.replicate_task")
    return {
        "dag_wishart.delta_calls": d[0],
        "dag_wishart.delta_misses": d[2],
        "dag_wishart.delta_hit_rate": ratio(d[0] - d[2], d[0]),
        "dag_wishart.delta_miss_s": d[3],
        "dag_wishart.delta_miss_us": 1e6 * ratio(d[3], d[2]),
        "dag_wishart.delta_hit_s": d[1] - d[3],
        "dag_wishart.miss_mean_parents": ratio(d[4], d[2]),
        "sampler.self_s": sampler_self,
        "sampler.self_us_per_col_eval": 1e6 * ratio(sampler_self, d_chain[0]),
        "sampler.gamma_accept": ratio(sum(s.gamma_acceptance for s in summaries), len(summaries)),
        "sampler.col_accept": ratio(
            sum(float(np.nanmean(s.dag_acceptance)) for s in summaries), len(summaries)
        ),
        "sampler.check_s": sum(t.durations("sampler.check_state_consistency")),
        "sampler.check_drift_max": max(drifts, default=0.0),
        "scoring.marginal_calls": m[0],
        "scoring.marginal_misses": m[2],
        "scoring.marginal_hit_rate": ratio(m[0] - m[2], m[0]),
        "scoring.marginal_miss_s": m[3],
        "scoring.marginal_miss_us": 1e6 * ratio(m[3], m[2]),
        "scoring.marginal_miss_mean_k": ratio(m[4], m[2]),
        "scoring.engine_init_s": sum(t.durations("scoring.engine_init")),
        "scoring.enum_self_s": sum(t.self_times("scoring.enumerate_posterior")),
        "scoring.enum_ms_per_table": 1e3 * ratio(sum(tables), len(tables)),
        "simdata.generate_s": sum(t.top_level("simdata.")),
        "metrics.evaluate_s": sum(t.top_level("metrics.")),
        "cli.replicate_s": sum(t.durations("cli.replicate")),
        "cli.rep_imbalance": ratio(max(tasks, default=0.0), ratio(sum(tasks), len(tasks))),
    }
