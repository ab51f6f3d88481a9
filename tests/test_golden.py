"""Golden bytes: fixed-seed fits and exact posterior tables reproduce committed outputs.

Each fit case simulates one dataset, runs ``fit`` with a trace, and
compares ``summary.json`` byte for byte with ``tests/golden/<case>.json``
and the trace file with the SHA-256 digest in
``tests/golden/<case>.trace.sha256``.

Each enumeration case builds a p=6 posterior table and compares the
``repr`` of its log normalizer, argmax score, argmax pair, gamma log
marginals and variable marginals with ``tests/golden/enum_p6.json``;
p=4 tables are pinned by the SHA-256 of their ``to_csv`` text in
``tests/golden/enum_p4_csv.json``.

The replicate case runs a two-replicate Scenario 3 ``replicate``, which
fits b = 0.5 and b = 0 on each replicate's data, and compares the
SHA-256 of ``replicates.csv`` and ``table.csv`` with
``tests/golden/replicate_s3.json``.

A change that alters any of these on purpose (a new random-stream
layout, say) must regenerate the files and say why.  The last such change
took the normalizer's log-gamma from ``math.lgamma`` instead of
``scipy.special.gammaln`` and solves ``metrics.ls_refit`` through
``np.linalg``.  Both differ from the scipy routines in the last bits, so
``enum_p6.json``, ``enum_p4_csv.json`` and ``replicate_s3.json`` were
regenerated: only the n = 50 enumeration cases moved, by at most 1.2e-13
absolute and 6.4e-14 relative, with the same argmax pairs, and one
refit's ``mspe`` in ``replicates.csv`` (and so its mean in ``table.csv``)
moved in its last digit.  Both fit cases were unchanged.

The files were written with OpenBLAS's default threading, so run these
tests with it.  Under ``OPENBLAS_NUM_THREADS=1`` three of them fail: both
fit trace digests and the replicate digests.  Each fit's
``summary.json`` still matches.  OpenBLAS's single-threaded path gives
``simdata.generate(3, 1, 6, n=40)`` an ``X`` that differs in its last
bits; with 2, 3, 4 and 8 threads the bits are identical.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from jointdag import Dataset, Hyperparameters, enumerate_posterior
from jointdag.cli import main, parse_config, run

GOLDEN = Path(__file__).parent / "golden"
CASES = {
    "defaults": {},
    "corr_b0_sigma2_R4": {"init": "corr", "b": 0.0, "sigma2": 1.5, "R": 4},
}


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "sim"
    argv = ["simulate", "--scenario", "3", "--setting", "1", "--seed", "6"]
    assert main(argv + ["--n", "40", "--n-test", "10", "--out", str(out)]) == 0
    return out


def fit_case(sim: Path, out: Path, name: str) -> tuple[bytes, str]:
    """Run one golden case; return its summary bytes and trace digest."""
    overrides = {
        "x": str(sim / "X.csv"),
        "y": str(sim / "Y.csv"),
        "iters": 1500,
        "burnin": 500,
        "seed": 12,
        "trace": "trace.jsonl",
        "out": str(out),
    } | CASES[name]
    assert run(parse_config(None, overrides, mode="fit")) == 0
    digest = hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest()
    return (out / "summary.json").read_bytes(), digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_fit_matches_golden(sim, tmp_path, name):
    summary, digest = fit_case(sim, tmp_path, name)
    assert summary == (GOLDEN / f"{name}.json").read_bytes()
    assert digest == (GOLDEN / f"{name}.trace.sha256").read_text().strip()


ENUM_HYPER = {
    "defaults": {},
    "b0": {"b": 0.0},
    "sigma2_R3": {"sigma2": 1.5, "R": 3},
    "b1_R4": {"b": 1.0, "R": 4},
}
ENUM_NS = (50, 200, 800)


def enum_data(p: int, k: int) -> Dataset:
    """Fixed-seed dataset k: two correlated covariate pairs, two active."""
    rng = np.random.default_rng([p, k])
    n = ENUM_NS[k % len(ENUM_NS)]
    X = rng.standard_normal((n, p))
    X[:, 0] += 0.8 * X[:, 1]
    X[:, 2] += 0.55 * X[:, p - 2]
    beta = np.zeros(p)
    beta[:2] = (1.2, -0.75)
    return Dataset(X, X @ beta + rng.standard_normal(n))


def enum_cases(p: int) -> dict[str, tuple[Dataset, Hyperparameters]]:
    return {
        f"data{k}_{name}": (enum_data(p, k), Hyperparameters(**kw))
        for k in range(len(ENUM_NS))
        for name, kw in ENUM_HYPER.items()
    }


def enum_figures(data: Dataset, hyper: Hyperparameters) -> dict:
    """The reprs of a p=6 table's key figures."""
    t = enumerate_posterior(data, hyper)
    return {
        "log_normalizer": repr(t.log_normalizer),
        "argmax_log_score": repr(t.argmax_log_score),
        "argmax_gamma": repr(tuple(int(v) for v in t.argmax_gamma)),
        "argmax_dag": repr(t.argmax_dag.parents),
        "gamma_log_marginals": [repr(float(v)) for v in t.gamma_log_marginals()],
        "variable_marginals": [repr(float(v)) for v in t.variable_marginals()],
    }


def csv_digest(data: Dataset, hyper: Hyperparameters) -> str:
    fh = io.StringIO()
    enumerate_posterior(data, hyper).to_csv(fh)
    return hashlib.sha256(fh.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(enum_cases(6)))
def test_enum_p6_matches_golden(name):
    golden = json.loads((GOLDEN / "enum_p6.json").read_text())
    assert enum_figures(*enum_cases(6)[name]) == golden[name]


def test_enum_p4_csv_matches_golden():
    golden = json.loads((GOLDEN / "enum_p4_csv.json").read_text())
    assert {name: csv_digest(*case) for name, case in enum_cases(4).items()} == golden


def test_replicate_matches_golden(tmp_path):
    argv = ["replicate", "--scenario", "3", "--setting", "1", "--reps", "2", "--seed", "3",
            "--iters", "400", "--burnin", "100", "--b", "0.5", "--init", "corr",
            "--workers", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("replicates.csv", "table.csv")
    }
    assert digests == json.loads((GOLDEN / "replicate_s3.json").read_text())
