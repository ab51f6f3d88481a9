"""Batch experiment runner.

Subcommands: ``simulate`` writes a synthetic dataset and its truth,
``fit`` runs one chain on CSV data, ``evaluate`` scores a fitted summary
against a truth file, and ``replicate`` repeats
simulate+fit+evaluate and aggregates a benchmark table.  Options come
from a flat key=value config file, command-line flags override file
values, and every run writes a manifest echoing the effective
configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, sampler
from .errors import ConfigError, DataError, DimensionError, RankDeficientError, UndefinedAUCError
from .graphs import dag_to_edge_csv
from .metrics import evaluate_selection
from .sampler import ChainControl, ChainSummary, median_probability_model, run_chain
from .scoring import ScoreEngine
from .simdata import (
    Dataset,
    GroundTruth,
    generate,
    read_inclusion,
    read_json_object,
    read_numbers,
    save_matrix_csv,
)
from .spike_slab import Hyperparameters

METRIC_KEYS = ("sens", "spec", "auc", "mcc", "n_error", "mspe")


@dataclass
class RunConfig:
    """Effective options of one run; defaults are the benchmark values.

    The fields are the config schema: each is a key of the config file
    and the flag ``--<key>`` (``_`` written ``-``), and its annotation
    says how a string value is cast.
    """

    mode: str = "fit"
    scenario: int = 1
    setting: int = 1
    reps: int = 10
    seed: int = 0
    iters: int = 10000
    burnin: int = 5000
    workers: int = field(default=1, metadata={"help": "replicate's process count"})
    a: float = 2.75
    b: float = 0.5
    tau2: float = 1.0
    q: float = 0.005
    R: int | None = None
    a0: float = 0.1
    b0: float = 0.01
    alpha_offset: float = 10.0
    sigma2: float | None = field(
        default=None, metadata={"help": "known noise variance; omit for the unknown-variance model"}
    )
    init: str = field(default="empty", metadata={"help": "DAG start: 'empty' or 'corr'"})
    n: int = 100
    n_test: int = 100
    x: str | None = None
    y: str | None = None
    x_test: str | None = None
    y_test: str | None = None
    truth: str | None = None
    summary: str | None = None
    out: str = "."
    trace: str | None = None
    baseline: tuple[str, ...] = field(
        default=(),
        metadata={"help": "name=path of precomputed selections, one bitstring per replicate"},
    )

    def hyper(self, b: float | None = None) -> Hyperparameters:
        return Hyperparameters(
            tau2=self.tau2,
            sigma2=self.sigma2,
            a0=self.a0,
            b0=self.b0,
            a=self.a,
            b=self.b if b is None else b,
            q=self.q,
            R=self.R,
            alpha_offset=self.alpha_offset,
        )

    def control(self, trace: str | None = None) -> ChainControl:
        return ChainControl(
            iters=self.iters,
            burnin=self.burnin,
            seed=self.seed,
            init=self.init,
            trace=trace,
        )


_HINTS = typing.get_type_hints(RunConfig)


def _cast(key: str, raw):
    """Cast a config value to the type its RunConfig field declares.

    Strings (file values and flags) are parsed; ``none`` or an empty value
    is unset only where the field allows None.  Other values from Python
    callers pass through, except that a repeated ``--baseline`` flag's
    list becomes a tuple.
    """
    hint = _HINTS[key]
    if hint == tuple[str, ...]:
        if isinstance(raw, str):
            return tuple(s.strip() for s in raw.split(",") if s.strip())
        return tuple(raw)
    if not isinstance(raw, str):
        return raw
    kinds = typing.get_args(hint) or (hint,)  # int | None -> (int, NoneType)
    if raw.strip().lower() in ("none", ""):
        if type(None) in kinds:
            return None
        raise ConfigError(f"config key {key!r}: a value is required, got {raw!r}")
    try:
        return kinds[0](raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse value {raw!r}") from exc


def _baseline_lines(path) -> list[str]:
    """The selection bitstrings of a baseline file, one per replicate."""
    return [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]


def _validate(cfg: RunConfig) -> RunConfig:
    def fail(key, msg):
        raise ConfigError(f"config key {key!r}: {msg}")

    if cfg.mode not in ("simulate", "fit", "evaluate", "replicate"):
        fail("mode", f"unknown mode {cfg.mode!r}")
    if cfg.scenario not in (1, 2, 3):
        fail("scenario", "must be 1, 2, or 3")
    if cfg.setting < 1 or cfg.setting > (2 if cfg.scenario == 3 else 4):
        fail("setting", f"out of range for scenario {cfg.scenario}")
    if cfg.reps < 1:
        fail("reps", "must be at least 1")
    try:
        cfg.hyper()
        # Not cfg.control(): the benchmark's traced batch swaps
        # cli.ChainControl to give every chain a trace file.
        sampler.ChainControl(iters=cfg.iters, burnin=cfg.burnin, seed=cfg.seed)
    except ValueError as exc:  # their messages start with the offending key
        fail(str(exc).split()[0], str(exc))
    if cfg.workers < 1:
        fail("workers", "must be at least 1")
    if cfg.n < 1:
        fail("n", "must be at least 1")
    if cfg.n_test < 1:
        fail("n_test", "must be at least 1")
    if cfg.init not in ("empty", "corr"):
        fail("init", "must be 'empty' or 'corr'")
    for entry in cfg.baseline:
        name, eq, path = entry.partition("=")
        if not eq:
            fail("baseline", f"expected name=path, got {entry!r}")
        if cfg.mode != "replicate":
            continue
        if not Path(path).is_file():
            fail("baseline", f"selection file {path!r} does not exist or is not a file")
        lines = _baseline_lines(path)
        if len(lines) < cfg.reps:
            fail("baseline", f"{name!r}: {path!r} has {len(lines)} selection lines for {cfg.reps} replicates")
        for r, line in enumerate(lines[: cfg.reps], start=1):
            try:
                read_inclusion(line, path, f"replicate {r}'s selection")
            except DataError as exc:
                fail("baseline", f"{name!r}: {exc}")
    required = {
        "fit": ("x", "y"),
        "evaluate": ("summary", "truth", "x", "y", "x_test", "y_test"),
    }.get(cfg.mode, ())
    for key in required:
        val = getattr(cfg, key)
        if val is None:
            fail(key, f"required for mode {cfg.mode!r}")
        if not Path(val).is_file():
            fail(key, f"file {val!r} does not exist or is not a file")
    return cfg


def parse_config(
    config_path: str | None = None,
    overrides: dict | None = None,
    mode: str | None = None,
) -> RunConfig:
    """Assemble a validated RunConfig from a key=value file plus overrides."""
    values: dict = {}
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise ConfigError(f"{config_path}: cannot read config file ({exc.strerror})") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{config_path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _HINTS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _cast(key, raw.strip())
    for key, raw in (overrides or {}).items():
        if key not in _HINTS:
            raise ConfigError(f"unknown config key {key!r}")
        if raw is not None:
            values[key] = _cast(key, raw)
    if mode is not None:
        values["mode"] = mode
    return _validate(RunConfig(**values))


# ---------------------------------------------------------------------------
# Artifact writers


def _write_manifest(out: Path, cfg: RunConfig, runtime_s: float, extra: dict | None = None) -> None:
    doc = {
        "version": __version__,
        "config": asdict(cfg),
        "seed": cfg.seed,
        "runtime_s": runtime_s,
    }
    if extra:
        doc.update(extra)
    (out / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def summary_to_json(summary: ChainSummary, gamma_sel: np.ndarray, dag_sel) -> str:
    """Deterministic JSON encoding of a chain summary.

    Edge probabilities are stored sparsely as [child, parent, prob]
    triples with 1-based indices; volatile fields such as wall time never
    appear here, so identical runs are byte-identical.
    """
    p = summary.p
    edges = [
        [c + 1, j + 1, float(summary.edge_probs[c, j])]
        for c in range(p)
        for j in range(c + 1, p)
        if summary.edge_probs[c, j] > 0.0
    ]
    dag_acc = [float(v) for v in summary.dag_acceptance]
    doc = {
        "acceptance": {"gamma": float(summary.gamma_acceptance), "dag": dag_acc},
        "burnin": summary.burnin,
        "edge_probs": edges,
        "inclusion_probs": [float(v) for v in summary.inclusion_probs],
        "iters": summary.iters,
        "n_kept": summary.n_kept,
        "seed": summary.seed,
        "selected_edges": [[c + 1, j + 1] for c, j in dag_sel.edges()],
        "selected_gamma": "".join(str(int(v)) for v in gamma_sel),
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _load_summary_json(path) -> tuple[np.ndarray, np.ndarray]:
    doc = read_json_object(Path(path).read_text(), path, ("selected_gamma", "inclusion_probs"))
    gamma = read_inclusion(doc["selected_gamma"], path, "selected_gamma")
    probs = read_numbers(doc["inclusion_probs"], path, "inclusion_probs", ndim=1)
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise DataError(f"{path}: inclusion_probs must lie in [0, 1]")
    return gamma, probs


# ---------------------------------------------------------------------------
# Modes


def _run_simulate(cfg: RunConfig, out: Path) -> None:
    truth, train, test = generate(cfg.scenario, cfg.setting, cfg.seed, n=cfg.n, n_test=cfg.n_test)
    save_matrix_csv(out / "X.csv", train.X)
    save_matrix_csv(out / "Y.csv", train.Y[:, np.newaxis])
    save_matrix_csv(out / "X_test.csv", test.X)
    save_matrix_csv(out / "Y_test.csv", test.Y[:, np.newaxis])
    (out / "truth.json").write_text(truth.to_json() + "\n")


def _run_fit(cfg: RunConfig, out: Path) -> dict:
    data = Dataset.from_csv(cfg.x, cfg.y)
    trace_path = str(out / cfg.trace) if cfg.trace else None
    hyper = cfg.hyper()
    engine = ScoreEngine(data, hyper)
    summary = run_chain(data, hyper, cfg.control(trace=trace_path), engine)
    gamma_sel, dag_sel = median_probability_model(summary)
    (out / "summary.json").write_text(summary_to_json(summary, gamma_sel, dag_sel))
    (out / "selected_gamma.txt").write_text("".join(str(int(v)) for v in gamma_sel) + "\n")
    (out / "selected_edges.csv").write_text(dag_to_edge_csv(dag_sel))
    return {"memo_entries": engine.memo_entries()}


def _run_evaluate(cfg: RunConfig, out: Path) -> None:
    truth = GroundTruth.from_json(Path(cfg.truth).read_text(), cfg.truth)
    train = Dataset.from_csv(cfg.x, cfg.y)
    test = Dataset.from_csv(cfg.x_test, cfg.y_test)
    if train.p != truth.p:
        raise DimensionError(f"X has p={train.p} columns but truth has p={truth.p}")
    gamma_sel, probs = _load_summary_json(cfg.summary)
    if gamma_sel.shape[0] != truth.p:
        raise DimensionError(
            f"summary selection has p={gamma_sel.shape[0]} but truth has p={truth.p}"
        )
    report = evaluate_selection(gamma_sel, truth.gamma0, train, test, inclusion_probs=probs)
    (out / "metrics.json").write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")


def _rep_seeds(root_seed: int, r: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(r,))
    lo, hi = ss.generate_state(2)
    return int(lo), int(hi)


def _replicate_task(cfg: RunConfig, r: int) -> dict:
    """Replicate r: simulate, fit every method, evaluate. Pure in its arguments.

    The methods differ only in b, so their chains share one ScoreEngine:
    a later chain reuses the memo entries an earlier one filled.
    """
    data_seed, chain_seed = _rep_seeds(cfg.seed, r)
    truth, train, test = generate(cfg.scenario, cfg.setting, data_seed, n=cfg.n, n_test=cfg.n_test)
    engine = ScoreEngine(train, cfg.hyper())
    results = {}
    for b in [cfg.b] + ([0.0] if cfg.b != 0.0 else []):
        control = ChainControl(
            iters=cfg.iters,
            burnin=cfg.burnin,
            seed=chain_seed,
            init=cfg.init,
        )
        summary = run_chain(train, cfg.hyper(b=b), control, engine)
        gamma_sel, _ = median_probability_model(summary)
        results[f"joint_b{b:g}"] = evaluate_selection(
            gamma_sel, truth.gamma0, train, test, inclusion_probs=summary.inclusion_probs
        )
    for entry in cfg.baseline:
        name, _, path = entry.partition("=")
        sel = read_inclusion(_baseline_lines(path)[r - 1], path, f"replicate {r}'s selection")
        results[name] = evaluate_selection(sel, truth.gamma0, train, test)
    return results


def _fmt_metric(v) -> str:
    return "" if v is None else repr(float(v))


def _run_replicate(cfg: RunConfig, out: Path) -> None:
    reps = range(1, cfg.reps + 1)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_rep = list(pool.map(_replicate_task, [cfg] * cfg.reps, reps))
    else:
        per_rep = [_replicate_task(cfg, r) for r in reps]

    methods = list(per_rep[0])
    with (out / "replicates.csv").open("w") as fh:
        fh.write("rep,method," + ",".join(METRIC_KEYS) + "\n")
        for r, res in enumerate(per_rep, start=1):
            for m in methods:
                row = res[m]
                fh.write(f"{r},{m}," + ",".join(_fmt_metric(row[k]) for k in METRIC_KEYS) + "\n")
    with (out / "table.csv").open("w") as fh:
        fh.write("method," + ",".join(METRIC_KEYS) + "\n")
        for m in methods:
            cells = []
            for k in METRIC_KEYS:
                vals = [res[m][k] for res in per_rep]
                cells.append("" if any(v is None for v in vals) else repr(float(np.mean(vals))))
            fh.write(f"{m}," + ",".join(cells) + "\n")


def run(config: RunConfig) -> int:
    """Execute one configured run; returns a process exit status."""
    start = time.perf_counter()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "simulate": _run_simulate,
        "fit": _run_fit,
        "evaluate": _run_evaluate,
        "replicate": _run_replicate,
    }
    extra = dispatch[config.mode](config, out)
    _write_manifest(out, config, runtime_s=time.perf_counter() - start, extra=extra)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointdag",
        description="Joint Bayesian selection of regression variables and covariate DAG structure.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, help_text in (
        ("simulate", "generate a synthetic benchmark dataset"),
        ("fit", "run the sampler on CSV data"),
        ("evaluate", "score a fitted summary against a truth file"),
        ("replicate", "run repeated simulate+fit+evaluate and aggregate a table"),
    ):
        sp = sub.add_parser(mode, help=help_text)
        sp.add_argument("--config", help="key=value config file; flags override it")
        for f in fields(RunConfig):
            if f.name != "mode":
                sp.add_argument(
                    "--" + f.name.replace("_", "-"),
                    dest=f.name,
                    action="append" if _HINTS[f.name] == tuple[str, ...] else "store",
                    help=f.metadata.get("help"),
                )
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    mode = args.pop("mode")
    config_path = args.pop("config")
    try:
        return run(parse_config(config_path, args, mode=mode))
    except (ConfigError, DataError, DimensionError, RankDeficientError, UndefinedAUCError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
