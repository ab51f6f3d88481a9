import numpy as np
import pytest

from jointdag import CholeskyParam, Dag
from jointdag.errors import NotPositiveDefiniteError

from oracles import modified_cholesky, random_dag, reconstruct_precision, sparsity_dag


def bounded_param(rng, dag, lo=0.3, hi=1.5):
    """Cholesky point whose structural entries stay away from zero."""
    p = dag.p
    L = np.eye(p)
    for c in range(p):
        for j in dag.parents[c]:
            L[j, c] = rng.uniform(lo, hi) * rng.choice([-1.0, 1.0])
    return CholeskyParam(L=L, dvec=rng.uniform(0.5, 2.0, size=p))


class TestModifiedCholesky:
    def test_identity(self):
        param = modified_cholesky(np.eye(3))
        assert np.allclose(param.L, np.eye(3))
        assert np.allclose(param.dvec, 1.0)

    def test_two_by_two(self):
        param = modified_cholesky(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert param.L[1, 0] == pytest.approx(0.5)
        assert param.dvec == pytest.approx([0.5, 2.0])

    def test_roundtrip_random_pd(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6))
        omega = A @ A.T + 6 * np.eye(6)
        param = modified_cholesky(omega)
        assert np.max(np.abs(reconstruct_precision(param) - omega)) < 1e-10

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            modified_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            modified_cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestReconstruct:
    def test_identity(self):
        param = CholeskyParam(np.eye(2), np.ones(2))
        assert np.array_equal(reconstruct_precision(param), np.eye(2))

    def test_two_by_two_inverse_of_example(self):
        param = CholeskyParam(np.array([[1.0, 0.0], [0.5, 1.0]]), np.array([0.5, 2.0]))
        assert np.allclose(reconstruct_precision(param), [[2.0, 1.0], [1.0, 1.0]])

    def test_scaling_in_dvec(self):
        rng = np.random.default_rng(1)
        param = bounded_param(rng, random_dag(rng, 5))
        c = 3.7
        scaled = CholeskyParam(param.L, param.dvec * c)
        assert np.allclose(reconstruct_precision(scaled), reconstruct_precision(param) / c)

    def test_roundtrips_both_ways(self):
        rng = np.random.default_rng(2)
        for p in (2, 5, 12, 20):
            param = bounded_param(rng, random_dag(rng, p))
            omega = reconstruct_precision(param)
            back = modified_cholesky(omega)
            assert np.max(np.abs(back.L - param.L)) < 1e-10
            assert np.max(np.abs(back.dvec - param.dvec)) < 1e-10
            assert np.max(np.abs(reconstruct_precision(back) - omega)) < 1e-10


class TestSparsityDag:
    def test_identity_gives_empty(self):
        assert sparsity_dag(CholeskyParam(np.eye(3), np.ones(3))) == Dag.empty(3)

    def test_single_entry(self):
        param = CholeskyParam(np.array([[1.0, 0.0], [0.5, 1.0]]), np.ones(2))
        assert sparsity_dag(param, tol=0.0).parents[0] == (1,)

    def test_below_threshold(self):
        param = CholeskyParam(np.array([[1.0, 0.0], [1e-12, 1.0]]), np.ones(2))
        assert sparsity_dag(param, tol=1e-8) == Dag.empty(2)

    def test_recovers_generating_dag(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dag = random_dag(rng, 8)
            omega = reconstruct_precision(bounded_param(rng, dag))
            assert sparsity_dag(modified_cholesky(omega), 1e-10) == dag

    def test_recovers_simulated_truth(self):
        from jointdag import gen_scenario1, gen_scenario2

        for gen in (gen_scenario1, gen_scenario2):
            truth, _, _ = gen(1, seed=11, n=5, n_test=5)
            omega = reconstruct_precision(truth.chol0)
            assert sparsity_dag(modified_cholesky(omega), 1e-10) == truth.dag0


class TestValidation:
    def test_requires_unit_diagonal(self):
        with pytest.raises(ValueError):
            CholeskyParam(np.array([[2.0, 0.0], [0.0, 1.0]]), np.ones(2))

    def test_requires_lower_triangular(self):
        with pytest.raises(ValueError):
            CholeskyParam(np.array([[1.0, 0.3], [0.0, 1.0]]), np.ones(2))

    def test_requires_positive_dvec(self):
        with pytest.raises(ValueError):
            CholeskyParam(np.eye(2), np.array([1.0, 0.0]))
