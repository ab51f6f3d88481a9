import itertools
import math

import numpy as np
import pytest

from jointdag import (
    Dag,
    Dataset,
    Hyperparameters,
    ScoreEngine,
    adjacency,
    log_joint_score,
    log_mrf_prior,
)
from jointdag.errors import DimensionError, NotPositiveDefiniteError
from jointdag import dag_wishart, sampler
from jointdag.scoring import PosteriorTable

from oracles import random_dag


def dense_marginal(Y, Xg, hyper):
    """n-dimensional evaluation with an explicit inverse."""
    n = len(Y)
    M = np.eye(n) + hyper.tau2 * (Xg @ Xg.T)
    sign, logdet = np.linalg.slogdet(M)
    quad = float(Y @ np.linalg.inv(M) @ Y)
    if hyper.known_variance:
        return -0.5 * logdet - quad / (2 * hyper.sigma2)
    return -0.5 * logdet - 0.5 * (n + 2 * hyper.a0) * math.log(hyper.b0 + 0.5 * quad)


class TestHyperparameters:
    def test_defaults(self):
        h = Hyperparameters()
        assert (h.tau2, h.a, h.b, h.q) == (1.0, 2.75, 0.5, 0.005)
        assert (h.a0, h.b0, h.alpha_offset) == (0.1, 0.01, 10.0)
        assert not h.known_variance
        assert h.effective_R(7) == 7

    def test_known_variance_mode(self):
        assert Hyperparameters(sigma2=2.0).known_variance

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau2": 0.0},
            {"sigma2": -1.0},
            {"a": 0.0},
            {"b": -0.1},
            {"q": 1.5},
            {"q": 0.0},
            {"R": -1},
            {"alpha_offset": 2.0},
            {"a0": 0.0},
            {"b0": -2.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparameters(**kwargs)

    def test_zero_bound_rejected_at_construction(self):
        # R = 0 would give every state, the empty model included, zero
        # prior mass; the error must name R first for the CLI's key lookup.
        with pytest.raises(ValueError, match=r"^R \(complexity bound\) must be a positive integer"):
            Hyperparameters(R=0)
        assert Hyperparameters(R=1).effective_R(5) == 1

    def test_accepts_pd_scale(self):
        U = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert Hyperparameters(U=U).U is U

    @pytest.mark.parametrize(
        "U,error,message",
        [
            (np.ones((2, 3)), DimensionError, "U must be square"),
            ([[2.0, 0.9], [0.0, 1.0]], NotPositiveDefiniteError, "U must be symmetric"),
            ([[1.0, 2.0], [2.0, 1.0]], NotPositiveDefiniteError, "U is not positive definite"),
        ],
    )
    def test_rejects_bad_scale(self, U, error, message):
        with pytest.raises(error, match=message):
            Hyperparameters(U=np.asarray(U))


class TestLogMrfPrior:
    def test_empty_indicator(self):
        G = np.zeros((3, 3))
        assert log_mrf_prior(np.zeros(3), G, Hyperparameters()) == 0.0

    def test_single_edge_pair(self):
        G = np.zeros((3, 3))
        G[0, 1] = G[1, 0] = 1
        val = log_mrf_prior(np.array([1, 1, 0]), G, Hyperparameters(a=2.75, b=0.5))
        assert val == pytest.approx(-5.5 + 1.0)

    def test_bound_active(self):
        G = np.zeros((3, 3))
        h = Hyperparameters(R=2)
        assert log_mrf_prior(np.array([1, 1, 0]), G, h) == -math.inf

    def test_factorizes_when_b_zero(self):
        rng = np.random.default_rng(0)
        h = Hyperparameters(b=0.0)
        for _ in range(10):
            G = adjacency(random_dag(rng, 6))
            g = rng.integers(0, 2, size=6)
            if g.sum() >= 6:
                continue
            assert log_mrf_prior(g, G, h) == pytest.approx(-h.a * g.sum())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        h = Hyperparameters()
        for _ in range(10):
            G = adjacency(random_dag(rng, 6))
            g = rng.integers(0, 2, size=6)
            perm = rng.permutation(6)
            Gp = G[np.ix_(perm, perm)]
            assert log_mrf_prior(g[perm], Gp, h) == pytest.approx(log_mrf_prior(g, G, h))

    def test_edge_monotone(self):
        rng = np.random.default_rng(6)
        h = Hyperparameters(b=0.5)
        for _ in range(10):
            G = adjacency(random_dag(rng, 6))
            g = rng.integers(0, 2, size=6)
            g[:2] = 1
            if g.sum() >= 6 or G[0, 1]:
                continue
            before = log_mrf_prior(g, G, h)
            G2 = G.copy()
            G2[0, 1] = G2[1, 0] = 1  # new edge between two included variables
            assert log_mrf_prior(g, G2, h) >= before

    def test_rejects_nonsymmetric(self):
        G = np.zeros((2, 2))
        G[0, 1] = 1
        with pytest.raises(ValueError):
            log_mrf_prior(np.zeros(2), G, Hyperparameters())


def engine_marginal(Y, Xg, hyper):
    """Gram-route integrated likelihood of all columns of Xg."""
    return ScoreEngine(Dataset(Xg, Y), hyper).marginal(tuple(range(Xg.shape[1])))


class TestLogMarginalLikelihood:
    def test_empty_model_known_variance(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal(6)
        Xg = rng.standard_normal((6, 2))
        h = Hyperparameters(sigma2=1.0)
        val = ScoreEngine(Dataset(Xg, Y), h).marginal(())
        assert val == pytest.approx(-0.5 * float(Y @ Y))
        assert val == pytest.approx(dense_marginal(Y, np.zeros((6, 0)), h), abs=1e-12)

    def test_slab_collapse_limit(self):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal(5)
        Xg = rng.standard_normal((5, 2))
        h = Hyperparameters(tau2=1e-14, sigma2=2.0)
        val = engine_marginal(Y, Xg, h)
        assert val == pytest.approx(-float(Y @ Y) / 4.0, rel=1e-6)
        assert val == pytest.approx(dense_marginal(Y, Xg, h), rel=1e-10)

    @pytest.mark.parametrize("sigma2", [None, 1.7])
    def test_matches_dense_inverse(self, sigma2):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal(8)
        Xg = rng.standard_normal((8, 3))
        h = Hyperparameters(tau2=1.0, sigma2=sigma2)
        assert engine_marginal(Y, Xg, h) == pytest.approx(dense_marginal(Y, Xg, h), abs=1e-10)

    def test_sylvester_identity(self):
        rng = np.random.default_rng(5)
        for n, k in ((6, 2), (9, 4), (5, 5)):
            Xg = rng.standard_normal((n, k))
            tau2 = 0.7
            big = np.linalg.slogdet(np.eye(n) + tau2 * Xg @ Xg.T)[1]
            small = np.linalg.slogdet(np.eye(k) + tau2 * Xg.T @ Xg)[1]
            assert big == pytest.approx(small, rel=1e-10, abs=1e-12)


@pytest.fixture
def design6():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((9, 6))
    X[:, 0] += 0.8 * X[:, 1]
    return Dataset(X, X[:, :2] @ np.array([1.2, -0.75]) + rng.standard_normal(9))


class TestMarginalBatch:
    @pytest.mark.parametrize("sigma2", [None, 1.5])
    def test_every_subset_matches_dense(self, design6, sigma2):
        h = Hyperparameters(sigma2=sigma2)
        engine = ScoreEngine(design6, h)
        for k in range(7):
            for s in itertools.combinations(range(6), k):
                dense = dense_marginal(design6.Y, design6.X[:, list(s)], h)
                assert engine.marginal(s) == pytest.approx(dense, rel=1e-10), s

    @pytest.mark.parametrize("sigma2", [None, 1.5])
    def test_zero_response_is_leading_block_only(self, design6, sigma2):
        # Y = 0 makes the augmented Gram matrix's last row zero; every
        # quadratic form is 0 and only log det(I + tau2 Xg'Xg) remains.
        h = Hyperparameters(tau2=0.7, sigma2=sigma2)
        data = Dataset(design6.X, np.zeros(design6.n))
        engine = ScoreEngine(data, h)
        for s in [(), (3,), (0, 1, 4), tuple(range(6))]:
            idx = list(s)
            logdet = np.linalg.slogdet(np.eye(len(s)) + h.tau2 * data.gram[np.ix_(idx, idx)])[1]
            expect = -0.5 * logdet
            if sigma2 is None:
                expect -= 0.5 * (data.n + 2.0 * h.a0) * math.log(h.b0)
            assert engine.marginal(s) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scale", ["identity", "general"])
    def test_table_makes_one_stack_per_block_size(self, design6, monkeypatch, scale):
        U = None
        if scale == "general":
            A = np.random.default_rng(8).standard_normal((6, 6))
            U = A @ A.T + 6.0 * np.eye(6)
        h = Hyperparameters(U=U)
        engine = ScoreEngine(design6, h)  # its full factor of A comes first
        blocks = []
        cholesky = dag_wishart._cholesky_lo
        monkeypatch.setattr(
            dag_wishart,
            "_cholesky_lo",
            lambda a, **kw: blocks.append(a.shape) or cholesky(a, **kw),
        )
        PosteriorTable(design6, h, engine)
        # Blocks of size m: the C(6, m - 1) likelihood blocks of models
        # with m - 1 columns and the C(6, m) U_post blocks of (column,
        # parent set) keys with m - 1 parents, and as many U blocks unless
        # U = I.  Sizes 1..6 lie below the default bound R = p = 6.
        per_key = 1 if scale == "identity" else 2
        expect = [(math.comb(6, m - 1) + per_key * math.comb(6, m), m, m) for m in range(1, 7)]
        assert blocks == expect

    def test_non_pd_likelihood_block_named(self):
        # tau2 = 1e20 and Y = X: the Schur complement 1 - (1e10 / 1e10)^2 is
        # exactly 0 in floating point, so the augmented block is singular.
        data = Dataset(np.ones((1, 1)), np.ones(1))
        h = Hyperparameters(tau2=1e20, R=2)
        with pytest.raises(NotPositiveDefiniteError, match="^likelihood matrix is not positive"):
            ScoreEngine(data, h).marginal((0,))
        with pytest.raises(NotPositiveDefiniteError, match=r"^\[log_marginal\] likelihood matrix"):
            log_joint_score(np.ones(1), Dag.empty(1), data, h)

    def test_non_pd_likelihood_matrix_fails_before_any_sweep(self, monkeypatch):
        data = Dataset(np.ones((1, 1)), np.ones(1))
        h = Hyperparameters(tau2=1e20, R=2)
        sweeps = []
        monkeypatch.setattr(sampler, "gibbs_sweep", lambda *a: sweeps.append(a))
        with pytest.raises(NotPositiveDefiniteError, match="^likelihood matrix is not positive"):
            sampler.init_state(data, h)
        with pytest.raises(NotPositiveDefiniteError, match="^likelihood matrix is not positive"):
            sampler.run_chain(data, h, sampler.ChainControl(iters=5, burnin=0, seed=0))
        assert sweeps == []
