import itertools
import math

import numpy as np
import pytest

from jointdag import (
    Dag,
    Dataset,
    Hyperparameters,
    ScoreEngine,
    enumerate_posterior,
    log_joint_score,
)
from jointdag.errors import DimensionError, EnumerationLimitError

from oracles import dense_log_joint_score, random_dag


def toy_data(rng, n, p, sigma=1.0):
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[: max(p // 2, 1)] = rng.uniform(0.5, 1.5, size=max(p // 2, 1))
    Y = X @ beta + sigma * rng.standard_normal(n)
    return Dataset(X, Y)


class TestLogJointScore:
    def test_b_zero_decouples_gamma_from_graph(self):
        rng = np.random.default_rng(0)
        data = toy_data(rng, 20, 4)
        h = Hyperparameters(b=0.0)
        g1 = np.array([1, 0, 1, 0])
        g2 = np.array([0, 1, 0, 0])
        dags = [Dag.empty(4), random_dag(rng, 4), Dag.complete(4)]
        diffs = [
            log_joint_score(g1, d, data, h).log_score
            - log_joint_score(g2, d, data, h).log_score
            for d in dags
        ]
        assert max(diffs) - min(diffs) < 1e-9

    def test_no_data_degenerate(self):
        data = Dataset(np.zeros((0, 1)), np.zeros(0))
        h = Hyperparameters(sigma2=1.0, R=2)
        score = log_joint_score(np.zeros(1), Dag.empty(1), data, h)
        assert score.delta_log_z == pytest.approx(0.0, abs=1e-12)
        assert score.log_marginal == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("sigma2", [None, 1.3])
    def test_matches_dense_oracle(self, sigma2):
        rng = np.random.default_rng(1)
        data = toy_data(rng, 30, 4)
        h = Hyperparameters(sigma2=sigma2)
        engine = ScoreEngine(data, h)
        for _ in range(25):
            dag = random_dag(rng, 4)
            gamma = rng.integers(0, 2, size=4)
            if gamma.sum() >= h.effective_R(4):
                continue
            mine = log_joint_score(gamma, dag, data, h, engine).log_score
            dense = dense_log_joint_score(gamma, dag, data.X, data.Y, h)
            assert mine == pytest.approx(dense, abs=1e-8)

    def test_components_sum_exactly(self):
        rng = np.random.default_rng(2)
        data = toy_data(rng, 15, 4)
        h = Hyperparameters()
        s = log_joint_score(np.array([1, 1, 0, 0]), random_dag(rng, 4), data, h)
        assert s.log_score == s.log_gamma_prior + s.log_dag_prior + s.delta_log_z + s.log_marginal

    def test_bound_trip_gives_minus_inf(self):
        rng = np.random.default_rng(3)
        data = toy_data(rng, 10, 3)
        h = Hyperparameters(R=1)
        s = log_joint_score(np.array([1, 0, 0]), Dag.empty(3), data, h)
        assert s.log_gamma_prior == -math.inf and s.log_score == -math.inf
        s2 = log_joint_score(np.zeros(3), Dag(3, ((1,), (), ())), data, h)
        assert s2.log_dag_prior == -math.inf and s2.log_score == -math.inf

    def test_dimension_errors(self):
        data = toy_data(np.random.default_rng(4), 10, 3)
        with pytest.raises(DimensionError):
            log_joint_score(np.zeros(4), Dag.empty(3), data, Hyperparameters())
        with pytest.raises(DimensionError):
            log_joint_score(np.zeros(3), Dag.empty(4), data, Hyperparameters())


def wide_hyper(f):
    """Parametrize over b in {0, 0.5, 1}, sigma2 in {None, 1.5}, R in {None, 2, 3}."""
    for name, values in (("R", [None, 2, 3]), ("sigma2", [None, 1.5]), ("b", [0.0, 0.5, 1.0])):
        f = pytest.mark.parametrize(name, values, ids=[f"{name}={v}" for v in values])(f)
    return f


class TestEnumeratePosterior:
    def test_p1_domain(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((6, 1)), rng.standard_normal(6))
        table = enumerate_posterior(data, Hyperparameters(R=2))
        assert table.n_pairs == 2  # {0,1} x {empty graph}
        total = sum(prob for _, _, _, prob in table.entries())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain_size_p4(self):
        rng = np.random.default_rng(6)
        data = toy_data(rng, 12, 4)
        table = enumerate_posterior(data, Hyperparameters(R=4))
        assert table.n_pairs == 960  # 2^4 * 2^6 minus bound violations

    def test_refuses_large_p(self):
        rng = np.random.default_rng(7)
        data = toy_data(rng, 5, 7)
        with pytest.raises(EnumerationLimitError):
            enumerate_posterior(data, Hyperparameters())

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        data = toy_data(rng, 25, 4)
        table = enumerate_posterior(data, Hyperparameters())
        total = sum(prob for _, _, _, prob in table.entries())
        assert total == pytest.approx(1.0, abs=1e-12)

    @wide_hyper
    def test_argmax_matches_brute_force(self, b, sigma2, R):
        rng = np.random.default_rng(9)
        data = toy_data(rng, 30, 4)
        h = Hyperparameters(b=b, sigma2=sigma2, R=R)
        table = enumerate_posterior(data, h)
        engine = ScoreEngine(data, h)
        best = (-math.inf, None)
        for gamma in itertools.product((0, 1), repeat=4):
            if sum(gamma) >= h.effective_R(4):
                continue
            for _, dag, _, _ in _all_dags_iter(4):
                s = log_joint_score(np.array(gamma), dag, data, h, engine).log_score
                if s > best[0]:
                    best = (s, (gamma, dag))
        assert tuple(table.argmax_gamma) == best[1][0]
        assert table.argmax_dag == best[1][1]
        assert table.argmax_log_score == pytest.approx(best[0], abs=1e-9)

    @wide_hyper
    def test_point_probability_consistency(self, b, sigma2, R):
        rng = np.random.default_rng(10)
        data = toy_data(rng, 18, 4)
        h = Hyperparameters(b=b, sigma2=sigma2, R=R)
        table = enumerate_posterior(data, h)
        engine = ScoreEngine(data, h)
        for gamma, dag, log_score, prob in itertools.islice(table.entries(), 0, 300, 17):
            direct = log_joint_score(gamma, dag, data, h, engine).log_score
            assert log_score == pytest.approx(direct, abs=1e-9)
            assert table.prob(gamma, dag) == pytest.approx(prob, rel=1e-12)

    def test_relabeling_invariance(self):
        # A permutation that preserves the ordered-DAG structure: relabel
        # variables and data jointly, compare the induced distributions.
        rng = np.random.default_rng(11)
        n, p = 22, 4
        X = rng.standard_normal((n, p))
        Y = X[:, 0] * 1.2 + rng.standard_normal(n)
        h = Hyperparameters(b=0.0)  # graph decoupled: any relabeling works
        perm = np.array([2, 0, 3, 1])
        t1 = enumerate_posterior(Dataset(X, Y), h)
        t2 = enumerate_posterior(Dataset(X[:, perm], Y), h)
        m1 = t1.variable_marginals()
        m2 = t2.variable_marginals()
        assert np.allclose(m1[perm], m2, atol=1e-10)

    def test_variable_marginals_match_entries(self):
        rng = np.random.default_rng(12)
        data = toy_data(rng, 16, 3)
        table = enumerate_posterior(data, Hyperparameters())
        direct = np.zeros(3)
        for gamma, _, _, prob in table.entries():
            direct += prob * gamma
        assert np.allclose(table.variable_marginals(), direct, atol=1e-12)

    def test_shift_invariance_of_scores(self):
        # Adding a constant to every integrated likelihood must leave the
        # normalized table unchanged: only score differences matter.
        rng = np.random.default_rng(13)
        data = toy_data(rng, 14, 3)
        h = Hyperparameters()
        t1 = enumerate_posterior(data, h)

        engine = ScoreEngine(data, h)
        orig = engine.marginals

        def shifted(sets):
            return [v + 123.456 for v in orig(sets)]

        engine.marginals = shifted  # type: ignore[method-assign]
        from jointdag.scoring import PosteriorTable

        t2 = PosteriorTable(data, h, engine)
        assert np.allclose(t1.variable_marginals(), t2.variable_marginals(), atol=1e-10)
        assert tuple(t1.argmax_gamma) == tuple(t2.argmax_gamma)
        assert t1.argmax_dag == t2.argmax_dag

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(14)
        data = toy_data(rng, 10, 3)
        table = enumerate_posterior(data, Hyperparameters())
        out = tmp_path / "table.csv"
        with out.open("w") as fh:
            table.to_csv(fh)
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,dag_edges,log_score,probability"
        assert len(lines) == 1 + table.n_pairs
        probs = [float(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def _all_dags_iter(p):
    per_col = [
        list(
            itertools.chain.from_iterable(
                itertools.combinations(range(c + 1, p), r) for r in range(p - c)
            )
        )
        for c in range(p)
    ]
    for combo in itertools.product(*per_col):
        yield None, Dag(p, combo), None, None


def condition_one_replicate(rng, n=50, weak=0.4, corr=0.8):
    """One dataset whose truth satisfies the active-network condition:
    a chain of two edges inside the active set {0, 1, 2}, with one weak
    coefficient so inclusion keeps a little posterior uncertainty."""
    p = 5
    dag0 = Dag(p, ((1,), (2,), (), (), ()))
    gamma0 = np.array([1, 1, 1, 0, 0], dtype=np.int8)
    X = rng.standard_normal((n, p))
    X[:, 1] += corr * X[:, 2]
    X[:, 0] += corr * X[:, 1]
    beta = np.array([1.5, -1.2, weak, 0.0, 0.0])
    Y = X @ beta + rng.standard_normal(n)
    return gamma0, dag0, Dataset(X, Y)


class TestGraphCouplingTrend:
    def test_coupling_raises_truth_probability_on_favorable_data(self):
        # Compare the truth's normalized mass with and without the graph
        # coupling; violations are counted, not hidden.
        rng = np.random.default_rng(15)
        reps = 12
        wins = 0
        for _ in range(reps):
            gamma0, dag0, data = condition_one_replicate(rng)
            pb = enumerate_posterior(data, Hyperparameters(b=0.5)).prob(gamma0, dag0)
            p0 = enumerate_posterior(data, Hyperparameters(b=0.0)).prob(gamma0, dag0)
            wins += pb > p0
        assert wins >= reps - 1
