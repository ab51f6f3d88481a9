import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from jointdag import Confusion, Dataset, auc, confusion, ls_refit, mspe, selection_metrics
from jointdag.errors import DimensionError, RankDeficientError, UndefinedAUCError
from jointdag.metrics import evaluate_selection

from oracles import mann_whitney_auc


class TestConfusion:
    def test_perfect(self):
        c = confusion(np.array([1, 0, 1]), np.array([1, 0, 1]))
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 0, 0)

    def test_complement(self):
        c = confusion(np.array([0, 1, 0]), np.array([1, 0, 1]))
        assert (c.tp, c.tn) == (0, 0) and (c.fp, c.fn) == (1, 2)

    def test_total_is_p(self):
        rng = np.random.default_rng(0)
        est, tru = rng.integers(0, 2, 20), rng.integers(0, 2, 20)
        assert confusion(est, tru).total == 20

    def test_benchmark_row_counts(self):
        # 24 active of 240 with 21 hits and 3 false alarms
        truth = np.zeros(240)
        truth[:24] = 1
        est = np.zeros(240)
        est[:21] = 1
        est[24:27] = 1
        c = confusion(est, truth)
        assert (c.tp, c.fp, c.fn, c.tn) == (21, 3, 3, 213)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            confusion(np.zeros(3), np.zeros(4))


class TestSelectionMetrics:
    def test_reference_row_to_four_decimals(self):
        m = selection_metrics(Confusion(tp=21, fp=3, tn=213, fn=3))
        assert round(m["sens"], 4) == 0.8750
        assert round(m["spec"], 4) == 0.9861
        assert round(m["mcc"], 4) == 0.8611
        assert m["n_error"] == 6

    def test_perfect(self):
        m = selection_metrics(Confusion(tp=4, fp=0, tn=6, fn=0))
        assert m["mcc"] == 1.0 and m["n_error"] == 0

    def test_hand_computed(self):
        m = selection_metrics(Confusion(tp=3, fp=1, tn=5, fn=1))
        assert m["sens"] == pytest.approx(0.75)
        assert m["spec"] == pytest.approx(5 / 6)
        assert m["mcc"] == pytest.approx(0.58333, abs=1e-5)

    def test_zero_denominator_convention(self):
        m = selection_metrics(Confusion(tp=0, fp=0, tn=5, fn=2))
        assert m["mcc"] == 0.0

    def test_n_error_is_hamming_distance(self):
        rng = np.random.default_rng(1)
        est, tru = rng.integers(0, 2, 30), rng.integers(0, 2, 30)
        m = selection_metrics(confusion(est, tru))
        assert m["n_error"] == int(np.sum(est != tru))

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        est, tru = rng.integers(0, 2, 15), rng.integers(0, 2, 15)
        perm = rng.permutation(15)
        m1 = selection_metrics(confusion(est, tru))
        m2 = selection_metrics(confusion(est[perm], tru[perm]))
        assert m1 == m2


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(np.array([1.0, 0.0, 1.0]), np.array([1, 0, 1])) == 1.0

    def test_all_ties_is_half(self):
        assert auc(np.full(4, 0.3), np.array([1, 0, 1, 0])) == pytest.approx(0.5)

    def test_hand_example(self):
        assert auc(np.array([0.9, 0.8, 0.3, 0.1]), np.array([1, 0, 1, 0])) == pytest.approx(0.75)

    def test_matches_rank_statistic(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            probs = rng.choice([0.0, 0.1, 0.4, 0.4, 0.7, 1.0], size=12)
            truth = rng.integers(0, 2, 12)
            if truth.sum() in (0, 12):
                continue
            assert auc(probs, truth) == pytest.approx(mann_whitney_auc(probs, truth), abs=1e-12)

    def test_undefined_for_constant_truth(self):
        with pytest.raises(UndefinedAUCError):
            auc(np.array([0.2, 0.4]), np.array([1, 1]))
        with pytest.raises(UndefinedAUCError):
            auc(np.array([0.2, 0.4]), np.array([0, 0]))

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            probs = rng.random(10)
            truth = rng.integers(0, 2, 10)
            if truth.sum() in (0, 10):
                continue
            assert 0.0 <= auc(probs, truth) <= 1.0


class TestLsRefit:
    def test_empty_selection(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.standard_normal((6, 3)), rng.standard_normal(6))
        beta = ls_refit(data, np.zeros(3))
        assert beta.shape == (0,)

    def test_orthonormal_design(self):
        Q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((8, 3)))
        Y = np.random.default_rng(7).standard_normal(8)
        data = Dataset(Q, Y)
        assert np.allclose(ls_refit(data, np.ones(3)), Q.T @ Y)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.standard_normal((20, 5)), rng.standard_normal(20))
        gamma = np.array([1, 0, 1, 1, 0])
        beta = ls_refit(data, gamma)
        Xg = data.X[:, np.flatnonzero(gamma)]
        resid = data.Y - Xg @ beta
        assert np.max(np.abs(Xg.T @ resid)) < 1e-10

    def test_rank_deficient(self):
        X = np.ones((4, 2))
        data = Dataset(X, np.ones(4))
        with pytest.raises(RankDeficientError):
            ls_refit(data, np.ones(2))

    @staticmethod
    def _correlated(seed, n=120, p=30):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        X[:, 1:] += 0.6 * X[:, :-1]
        beta = rng.uniform(0.5, 2.0, p) * rng.choice([-1.0, 1.0], p)
        return X, X @ beta + rng.standard_normal(n)

    def test_matches_scipy_cho_solve(self):
        X, Y = self._correlated(11)
        data = Dataset(X, Y)
        for k in range(1, 31):
            gamma = np.zeros(30, dtype=int)
            gamma[:k] = 1
            gram = data.gram[:k, :k]
            expect = cho_solve(cho_factor(gram, lower=True), data.xty[:k])
            np.testing.assert_allclose(ls_refit(data, gamma), expect, rtol=1e-12, atol=0.0)

    def test_collinear_columns(self):
        # Column j replaced by a combination of two other selected columns.
        X, Y = self._correlated(12)
        for a, c in [(0, 1), (2, 5), (7, 8), (29, 3)]:
            for j in range(X.shape[1]):
                if j in (a, c):
                    continue
                Xc = X.copy()
                Xc[:, j] = 0.3 * X[:, a] - 1.7 * X[:, c]
                gamma = np.zeros(X.shape[1], dtype=int)
                gamma[[a, c, j]] = 1
                with pytest.raises(RankDeficientError):
                    ls_refit(Dataset(Xc, Y), gamma)

    def test_duplicate_column_pairs(self):
        # The p=6, n=60 design of test_cli's sim fixture: whichever column
        # k is copied into column j, selecting both must be refused, even
        # where the Cholesky factorization meets only a rounding-level pivot.
        rng = np.random.default_rng(0)
        n, p = 60, 6
        X = rng.standard_normal((n, p))
        X[:, 0] += 0.8 * X[:, 1]
        Y = X @ np.array([1.4, -1.1, 0.9, 0, 0, 0]) + rng.standard_normal(n)
        for k in range(p):
            for j in range(p):
                if j == k:
                    continue
                Xd = X.copy()
                Xd[:, j] = X[:, k]
                gamma = np.zeros(p, dtype=int)
                gamma[[j, k]] = 1
                with pytest.raises(RankDeficientError):
                    ls_refit(Dataset(Xd, Y), gamma)


class TestMspe:
    def test_exact_fit_noiseless(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((10, 3))
        beta = np.array([1.0, -2.0, 0.5])
        test = Dataset(X, X @ beta)
        assert mspe(beta, np.ones(3), test) == pytest.approx(0.0, abs=1e-20)

    def test_empty_model(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal(7)
        test = Dataset(rng.standard_normal((7, 2)), Y)
        assert mspe(np.zeros(0), np.zeros(2), test) == pytest.approx(float(Y @ Y) / 7)

    def test_matches_loop(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((9, 4))
        Y = rng.standard_normal(9)
        test = Dataset(X, Y)
        gamma = np.array([1, 1, 0, 1])
        beta = rng.standard_normal(3)
        total = 0.0
        for i in range(9):
            pred = sum(b * x for b, x in zip(beta, X[i, [0, 1, 3]]))
            total += (pred - Y[i]) ** 2
        assert mspe(beta, gamma, test) == pytest.approx(total / 9, abs=1e-12)

    def test_empty_test_set(self):
        with pytest.raises(ValueError):
            mspe(np.zeros(0), np.zeros(2), Dataset(np.zeros((0, 2)), np.zeros(0)))


class TestEvaluateSelection:
    def test_six_keys(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((25, 4))
        beta = np.array([1.0, 0.0, -1.0, 0.0])
        Y = X @ beta + 0.1 * rng.standard_normal(25)
        train = Dataset(X, Y)
        test = Dataset(rng.standard_normal((10, 4)), rng.standard_normal(10))
        truth = np.array([1, 0, 1, 0])
        report = evaluate_selection(truth, truth, train, test, inclusion_probs=np.array([0.9, 0.1, 0.8, 0.2]))
        assert tuple(report) == ("sens", "spec", "auc", "mcc", "n_error", "mspe")
        assert report["mcc"] == 1.0 and report["auc"] == 1.0

    def test_auc_none_without_probs(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((15, 3))
        Y = rng.standard_normal(15)
        train = Dataset(X, Y)
        test = Dataset(rng.standard_normal((5, 3)), rng.standard_normal(5))
        report = evaluate_selection(np.array([1, 0, 0]), np.array([1, 1, 0]), train, test)
        assert report["auc"] is None
