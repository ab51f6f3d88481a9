"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one summary line (visible with ``pytest -s``) and then
asserts the criterion.  The heavy benchmark replications use fixed root
seeds, so results are deterministic run to run.
"""

import time
from collections import Counter

import numpy as np
import pytest

from jointdag import (
    ChainControl,
    Confusion,
    Dag,
    Dataset,
    Hyperparameters,
    ScoreEngine,
    enumerate_posterior,
    gen_scenario1,
    gen_scenario3,
    log_joint_score,
    median_probability_model,
    run_chain,
    selection_metrics,
)
from jointdag.cli import _rep_seeds, main
from jointdag.metrics import evaluate_selection
from jointdag.sampler import ChainStreams, gibbs_sweep, init_state

from oracles import dense_log_joint_score, quadrature_normalization, random_dag

ROOT_SEED = 20250809


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_1_normalization_quadrature():
    """Quadrature of the normalized density over (D11, D22, L21) equals 1."""
    t0 = time.perf_counter()
    val = quadrature_normalization(alpha=(4.0, 3.0), n_nodes=32)
    runtime = time.perf_counter() - t0
    ok = abs(val - 1.0) <= 1e-3 and runtime < 60
    _report(1, ok, f"integral={val:.8f} (target 1 +- 1e-3), runtime={runtime:.1f}s < 60s")
    assert abs(val - 1.0) <= 1e-3
    assert runtime < 60


def test_criterion_2_dense_oracle_equivalence():
    """Fast-path scores match an independent dense evaluation to 1e-8."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(ROOT_SEED)
    n, p = 50, 5
    X = rng.standard_normal((n, p))
    X[:, 0] += 0.7 * X[:, 2]
    beta = np.array([1.3, 0.0, -0.9, 0.6, 0.0])
    Y = X @ beta + rng.standard_normal(n)
    data = Dataset(X, Y)
    worst = 0.0
    total = 0
    for hyper in (Hyperparameters(), Hyperparameters(sigma2=1.2)):
        engine = ScoreEngine(data, hyper)
        done = 0
        while done < 50:
            dag = random_dag(rng, p)
            gamma = rng.integers(0, 2, size=p)
            if gamma.sum() >= hyper.effective_R(p):
                continue
            fast = log_joint_score(gamma, dag, data, hyper, engine).log_score
            dense = dense_log_joint_score(gamma, dag, X, Y, hyper)
            worst = max(worst, abs(fast - dense))
            done += 1
            total += 1
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-8 and runtime < 60 and total == 100
    _report(2, ok, f"{total} pairs, worst |diff|={worst:.2e} <= 1e-8, runtime={runtime:.1f}s < 60s")
    assert worst <= 1e-8
    assert runtime < 60


def test_criterion_3_sampler_matches_enumeration():
    """Total variation between chain frequencies and the exact posterior."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    n, p = 40, 4
    X = rng.standard_normal((n, p))
    X[:, 0] += 0.8 * X[:, 1]
    beta = np.array([1.2, -1.0, 0.0, 0.0])
    Y = X @ beta + rng.standard_normal(n)
    data = Dataset(X, Y)
    hyper = Hyperparameters()
    table = enumerate_posterior(data, hyper)
    state = init_state(data, hyper)
    streams = ChainStreams(ROOT_SEED)
    counts: Counter = Counter()
    burnin, keep = 10000, 200000
    for s in range(burnin + keep):
        gibbs_sweep(state, streams)
        if s >= burnin:
            counts[(tuple(state.gamma_arr.tolist()), tuple(state.parents))] += 1
    tv = 0.0
    for gamma, dag, _, prob in table.entries():
        emp = counts.get((tuple(int(v) for v in gamma), dag.parents), 0) / keep
        tv += abs(emp - prob)
    tv /= 2
    runtime = time.perf_counter() - t0
    ok = tv <= 0.05 and runtime < 120
    _report(3, ok, f"TV={tv:.4f} <= 0.05 over 2e5 sweeps, runtime={runtime:.0f}s < 120s")
    assert tv <= 0.05
    assert runtime < 120


def test_criterion_4_consistency_trend():
    """Posterior-mode recovery of a sparse truth improves with sample size."""
    t0 = time.perf_counter()
    p = 6
    dag0 = Dag(p, ((1,), (), (4,), (), (), ()))
    gamma0 = (1, 1, 0, 0, 0, 0)
    beta = np.array([1.2, -0.75, 0, 0, 0, 0])
    hyper = Hyperparameters()
    rng = np.random.default_rng(314159)
    fractions = []
    for n in (50, 200, 800):
        hits = 0
        for _ in range(50):
            X = rng.standard_normal((n, p))
            X[:, 0] += 0.8 * X[:, 1]
            X[:, 2] += 0.55 * X[:, 4]
            Y = X @ beta + rng.standard_normal(n)
            table = enumerate_posterior(Dataset(X, Y), hyper)
            hits += tuple(table.argmax_gamma) == gamma0 and table.argmax_dag == dag0
        fractions.append(hits / 50)
    runtime = time.perf_counter() - t0
    monotone = fractions[0] <= fractions[1] <= fractions[2]
    ok = monotone and fractions[2] >= 0.8 and runtime < 600
    _report(
        4,
        ok,
        f"mode-recovery fractions at n=(50,200,800): {fractions}, "
        f"non-decreasing={monotone}, final >= 0.8, runtime={runtime:.0f}s < 600s",
    )
    assert monotone
    assert fractions[2] >= 0.8
    assert runtime < 600


def test_criterion_5_graph_coupling_raises_truth_probability():
    """With the active-network condition, coupling beats the decoupled prior."""
    rng = np.random.default_rng(202)
    p, n = 5, 50
    dag0 = Dag(p, ((1,), (2,), (), (), ()))
    gamma0 = np.array([1, 1, 1, 0, 0], dtype=np.int8)
    reps, wins = 50, 0
    violations = []
    for r in range(reps):
        X = rng.standard_normal((n, p))
        X[:, 1] += 0.8 * X[:, 2]
        X[:, 0] += 0.8 * X[:, 1]
        beta = np.array([1.5, -1.2, 0.4, 0.0, 0.0])
        Y = X @ beta + rng.standard_normal(n)
        data = Dataset(X, Y)
        p_b = enumerate_posterior(data, Hyperparameters(b=0.5)).prob(gamma0, dag0)
        p_0 = enumerate_posterior(data, Hyperparameters(b=0.0)).prob(gamma0, dag0)
        if p_b > p_0:
            wins += 1
        else:
            violations.append((r, p_b, p_0))
    ok = wins >= 0.95 * reps
    _report(
        5,
        ok,
        f"coupled prior raised truth probability in {wins}/{reps} replicates "
        f"(need >= 95%); violations: {violations if violations else 'none'}",
    )
    assert wins >= 0.95 * reps


@pytest.mark.slow
def test_criterion_6_benchmark_band_strong_signals():
    """Scenario 1 Setting 1 replication: accuracy band and coupling benefit."""
    results = {0.5: [], 0.0: []}
    rep_times = []
    for r in range(1, 11):
        t0 = time.perf_counter()
        data_seed, chain_seed = _rep_seeds(ROOT_SEED, r)
        truth, train, test = gen_scenario1(1, seed=data_seed)
        # The chains differ only in b, so they share one engine, as the
        # methods of a ``replicate`` run do.
        engine = ScoreEngine(train, Hyperparameters())
        for b in (0.5, 0.0):
            summary = run_chain(
                train,
                Hyperparameters(b=b),
                ChainControl(iters=10000, burnin=5000, seed=chain_seed, init="corr"),
                engine,
            )
            gamma, _ = median_probability_model(summary)
            results[b].append(
                evaluate_selection(
                    gamma, truth.gamma0, train, test, inclusion_probs=summary.inclusion_probs
                )
            )
        rep_times.append(time.perf_counter() - t0)
    mcc_b = float(np.mean([m["mcc"] for m in results[0.5]]))
    mcc_0 = float(np.mean([m["mcc"] for m in results[0.0]]))
    nerr_b = float(np.mean([m["n_error"] for m in results[0.5]]))
    ok = abs(mcc_b - 0.8611) <= 0.15 and mcc_b >= mcc_0 and nerr_b <= 12
    _report(
        6,
        ok,
        f"mean MCC(b=1/2)={mcc_b:.4f} (band 0.8611 +- 0.15), mean MCC(b=0)={mcc_0:.4f}, "
        f"mean #Error(b=1/2)={nerr_b:.1f} <= 12, "
        f"per-replicate runtime max={max(rep_times):.0f}s (target < 600s)",
    )
    assert abs(mcc_b - 0.8611) <= 0.15
    assert mcc_b >= mcc_0
    assert nerr_b <= 12


def test_criterion_7_metrics_exactness():
    """Reference confusion row reproduces the published metrics to 4 decimals."""
    m = selection_metrics(Confusion(tp=21, fp=3, tn=213, fn=3))
    vals = (round(m["sens"], 4), round(m["spec"], 4), round(m["mcc"], 4), m["n_error"])
    ok = vals == (0.8750, 0.9861, 0.8611, 6)
    _report(7, ok, f"(sens, spec, mcc, n_error)={vals} == (0.875, 0.9861, 0.8611, 6)")
    assert vals == (0.8750, 0.9861, 0.8611, 6)


def test_criterion_8_worker_count_determinism(tmp_path):
    """Identical config and seed give byte-identical replicate tables at any
    process count."""
    blobs = []
    for w in (1, 2, 4):
        out = tmp_path / f"w{w}"
        argv = ["replicate", "--scenario", "3", "--setting", "1", "--reps", "4", "--seed", "6"]
        argv += ["--n", "30", "--n-test", "10", "--iters", "80", "--burnin", "20"]
        assert main(argv + ["--init", "corr", "--workers", str(w), "--out", str(out)]) == 0
        blobs.append((out / "replicates.csv").read_bytes() + (out / "table.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(8, ok, f"replicates.csv and table.csv identical across workers (1, 2, 4): {ok}")
    assert ok


@pytest.mark.slow
def test_criterion_9_misspecified_ordering_robustness():
    """Scenario 3 probe: variable selection survives a wrong vertex order."""
    sens, spec = [], []
    for r in range(1, 6):
        data_seed, chain_seed = _rep_seeds(ROOT_SEED, r)
        truth, train, test = gen_scenario3(1, seed=data_seed)
        summary = run_chain(
            train,
            Hyperparameters(b=0.5),
            ChainControl(iters=10000, burnin=5000, seed=chain_seed, init="corr"),
        )
        gamma, _ = median_probability_model(summary)
        m = evaluate_selection(gamma, truth.gamma0, train, test, inclusion_probs=summary.inclusion_probs)
        sens.append(m["sens"])
        spec.append(m["spec"])
    mean_sens = float(np.mean(sens))
    mean_spec = float(np.mean(spec))
    ok = mean_sens >= 0.9 and mean_spec >= 0.85
    _report(9, ok, f"mean sens={mean_sens:.4f} >= 0.9, mean spec={mean_spec:.4f} >= 0.85")
    assert mean_sens >= 0.9
    assert mean_spec >= 0.85
