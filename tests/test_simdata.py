import numpy as np
import pytest

from jointdag import (
    Dataset,
    gen_scenario1,
    gen_scenario2,
    gen_scenario3,
    modified_cholesky,
    reconstruct_precision,
    sparsity_dag,
)
from jointdag.errors import DataError, DimensionError
from jointdag.simdata import GroundTruth, generate, load_matrix_csv, save_matrix_csv


class TestDataset:
    def test_caches(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 3))
        Y = rng.standard_normal(7)
        d = Dataset(X, Y)
        assert np.allclose(d.gram, X.T @ X)
        assert np.allclose(d.xty, X.T @ Y)
        assert d.yty == pytest.approx(float(Y @ Y))

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            Dataset(np.array([[np.nan]]), np.array([1.0]))
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([1.0, np.nan]))
        with pytest.raises(DataError):
            Dataset(np.array([[np.inf], [0.0]]), np.ones(2))

    def test_rejects_zero_columns(self):
        with pytest.raises(DataError, match="X has no columns"):
            Dataset(np.zeros((5, 0)), np.ones(5))

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 3))
        Y = rng.standard_normal(5)
        save_matrix_csv(tmp_path / "X.csv", X)
        save_matrix_csv(tmp_path / "Y.csv", Y[:, None])
        d = Dataset.from_csv(tmp_path / "X.csv", tmp_path / "Y.csv")
        assert np.allclose(d.X, X) and np.allclose(d.Y, Y)

    def test_csv_header_autodetect(self, tmp_path):
        path = tmp_path / "X.csv"
        path.write_text("a,b\n1.5,2\n3,4\n")
        assert np.array_equal(load_matrix_csv(path), [[1.5, 2], [3, 4]])
        path.write_text("1.5,2\n3,4\n")
        assert np.array_equal(load_matrix_csv(path), [[1.5, 2], [3, 4]])


class TestScenario1:
    def test_dimensions_and_counts(self):
        truth, train, test = gen_scenario1(1, seed=0)
        assert (train.n, train.p) == (100, 240)
        assert test.n == 100
        assert int(truth.gamma0.sum()) == 24
        assert np.count_nonzero(truth.beta0) == 24

    def test_noise_variance_setting1(self):
        truth, _, _ = gen_scenario1(1, seed=0)
        assert truth.sigma_eps2 == pytest.approx((68 + 34) / 4)

    def test_noise_variance_small_signals(self):
        truth, _, _ = gen_scenario1(3, seed=0)
        assert truth.sigma_eps2 == pytest.approx((68 + 68 / 20) / 4)

    def test_sign_reversal_setting2(self):
        t1, _, _ = gen_scenario1(1, seed=5)
        t2, _, _ = gen_scenario1(2, seed=5)
        hub = 5  # first hub, 0-based
        assert t2.beta0[hub - 1] == -t1.beta0[hub - 1]
        assert t2.beta0[hub - 2] == -t1.beta0[hub - 2]
        assert t2.beta0[hub - 3] == t1.beta0[hub - 3]

    def test_dvec_range_and_pd(self):
        truth, _, _ = gen_scenario1(1, seed=2)
        assert np.all(truth.chol0.dvec >= 3) and np.all(truth.chol0.dvec <= 5)
        assert np.all(np.linalg.eigvalsh(truth.Sigma0) > 0)

    def test_support_matches_gamma(self):
        truth, _, _ = gen_scenario1(4, seed=3)
        assert np.array_equal(truth.beta0 != 0, truth.gamma0.astype(bool))

    def test_precision_reconstruction(self):
        truth, _, _ = gen_scenario1(1, seed=4)
        omega = reconstruct_precision(truth.chol0)
        assert np.max(np.abs(omega @ truth.Sigma0 - np.eye(240))) < 1e-8

    def test_dag_structure(self):
        truth, _, _ = gen_scenario1(1, seed=1)
        assert truth.dag0.parents[4] == (5,)  # child just below the first hub
        assert truth.dag0.parents[5] == ()  # hubs have no parents
        assert truth.dag0.n_edges == 200
        assert sparsity_dag(modified_cholesky(reconstruct_precision(truth.chol0))) == truth.dag0

    def test_condition_report(self):
        for setting in (1, 2):
            truth, _, _ = gen_scenario1(setting, seed=6)
            assert truth.condition_a is True

    def test_bit_identical_for_seed(self):
        a = gen_scenario1(1, seed=9)
        b = gen_scenario1(1, seed=9)
        assert np.array_equal(a[1].X, b[1].X)
        assert np.array_equal(a[2].Y, b[2].Y)
        assert np.array_equal(a[0].beta0, b[0].beta0)

    def test_sample_covariance_converges(self):
        truth, train, _ = gen_scenario1(1, seed=7, n=100000, n_test=2)
        emp = train.X.T @ train.X / train.n
        assert np.max(np.abs(emp - truth.Sigma0)) < 0.2


class TestScenario2:
    def test_dimensions(self):
        truth, train, _ = gen_scenario2(1, seed=0)
        assert (train.n, train.p) == (100, 150)
        assert int(truth.gamma0.sum()) == 20

    def test_signal_ranges(self):
        t1, _, _ = gen_scenario2(1, seed=1)
        nz = np.abs(t1.beta0[t1.beta0 != 0])
        assert np.all(nz >= 0.5) and np.all(nz <= 1.0)
        assert np.all(t1.beta0[t1.beta0 != 0] > 0)
        t3, _, _ = gen_scenario2(3, seed=1)
        nz3 = np.abs(t3.beta0[t3.beta0 != 0])
        assert np.all(nz3 >= 0.2) and nz3.min() < 0.5

    def test_sign_randomization(self):
        t2, _, _ = gen_scenario2(2, seed=2)
        signs = np.sign(t2.beta0[:20])
        assert (signs > 0).any() and (signs < 0).any()

    def test_noise_variance(self):
        truth, _, _ = gen_scenario2(1, seed=3)
        assert truth.sigma_eps2 == pytest.approx(float(truth.beta0 @ truth.beta0))

    def test_factor_entries(self):
        truth, _, _ = gen_scenario2(1, seed=4)
        L = truth.chol0.L
        vals = L[L != 0]
        off = vals[vals != 1.0]
        assert np.all(off >= 0.3) and np.all(off <= 0.7)
        assert truth.dag0.n_edges == 120

    def test_precision_reconstruction(self):
        truth, _, _ = gen_scenario2(2, seed=5)
        omega = reconstruct_precision(truth.chol0)
        assert np.max(np.abs(omega @ truth.Sigma0 - np.eye(150))) < 1e-8

    def test_sample_covariance_converges(self):
        truth, train, _ = gen_scenario2(1, seed=6, n=100000, n_test=2)
        emp = train.X.T @ train.X / train.n
        assert np.max(np.abs(emp - truth.Sigma0)) < 0.2


class TestScenario3:
    def test_dimensions(self):
        truth, train, test = gen_scenario3(1, seed=0)
        assert (train.n, train.p) == (100, 150)
        assert int(truth.gamma0.sum()) == 10
        assert truth.dag0 is None and truth.chol0 is None
        assert truth.condition_a is None

    def test_minimum_eigenvalue_exact(self):
        truth, _, _ = gen_scenario3(1, seed=1)
        assert np.linalg.eigvalsh(truth.Sigma0)[0] == pytest.approx(0.01, abs=1e-10)

    def test_band_structure_before_permutation(self):
        # undo the permutation by matching variances is not possible (all
        # equal), so check bandwidth via the eigenvalue-shifted band matrix
        truth, _, _ = gen_scenario3(1, seed=2)
        p = 150
        idx = np.arange(p)
        dist = np.abs(idx[:, None] - idx[None, :])
        base = np.where(dist <= 5, 2.0 * np.maximum(1.0 - dist / 10.0, 0.0), 0.0)
        base += (0.01 - np.linalg.eigvalsh(base)[0]) * np.eye(p)
        # the permuted covariance has the same sorted entries row-wise
        assert np.allclose(np.sort(truth.Sigma0, axis=None), np.sort(base, axis=None))

    def test_noise_variance(self):
        truth, _, _ = gen_scenario3(2, seed=3)
        assert truth.sigma_eps2 == pytest.approx(float(truth.beta0 @ truth.beta0) / 4)

    def test_sample_covariance_matches_permuted(self):
        truth, train, _ = gen_scenario3(1, seed=4, n=60000, n_test=2)
        emp = train.X.T @ train.X / train.n
        assert np.max(np.abs(emp - truth.Sigma0)) < 0.15

    def test_setting_range(self):
        with pytest.raises(ValueError):
            gen_scenario3(3, seed=0)


class TestGroundTruthJson:
    def test_roundtrip(self):
        truth, _, _ = gen_scenario1(1, seed=8, n=5, n_test=5)
        doc = truth.to_json()
        back = GroundTruth.from_json(doc)
        assert np.array_equal(back.gamma0, truth.gamma0)
        assert np.allclose(back.beta0, truth.beta0)
        assert back.dag0 == truth.dag0
        assert back.sigma_eps2 == truth.sigma_eps2
        assert back.condition_a is True

    def test_scenario3_without_graph(self):
        truth, _, _ = gen_scenario3(1, seed=9, n=5, n_test=5)
        back = GroundTruth.from_json(truth.to_json())
        assert back.dag0 is None


def test_generate_dispatch():
    truth, _, _ = generate(3, 1, seed=1, n=5, n_test=5)
    assert truth.p == 150
    with pytest.raises(ValueError):
        generate(4, 1, seed=1)
