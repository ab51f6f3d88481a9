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
from jointdag import scoring
from jointdag.errors import DimensionError, EnumerationLimitError
from jointdag.scoring import PosteriorTable, _domain

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

    @pytest.mark.parametrize(
        "sigma2, scale",
        [(None, "identity"), (1.3, "identity"), (None, "general"), (1.3, "general")],
        ids=["None", "1.3", "None-general", "1.3-general"],
    )
    def test_matches_dense_oracle(self, sigma2, scale):
        # A general U takes the normalizer memo's non-identity prior branch.
        rng = np.random.default_rng(1)
        if scale == "identity":
            p, pairs, U = 4, 25, None
        else:
            p, pairs = 5, 80
            A = rng.standard_normal((p, p))
            U = A @ A.T + p * np.eye(p)
        data = toy_data(rng, 30, p)
        h = Hyperparameters(sigma2=sigma2, U=U)
        engine = ScoreEngine(data, h)
        for _ in range(pairs):
            dag = random_dag(rng, p)
            gamma = rng.integers(0, 2, size=p)
            if gamma.sum() >= h.effective_R(p):
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
        # normalized table unchanged: only score differences matter.  The
        # shift goes into the likelihood helper, which the table calls on
        # its log sums and last pivots, and the normalizer moves by exactly
        # that much.
        rng = np.random.default_rng(13)
        data = toy_data(rng, 14, 3)
        h = Hyperparameters()
        t1 = enumerate_posterior(data, h)

        engine = ScoreEngine(data, h)
        orig = engine._likelihoods
        engine._likelihoods = lambda *sums: orig(*sums) + 123.456  # type: ignore[method-assign]
        t2 = PosteriorTable(data, h, engine)
        assert t2.log_normalizer == pytest.approx(t1.log_normalizer + 123.456, abs=1e-10)
        assert np.allclose(t1.variable_marginals(), t2.variable_marginals(), atol=1e-10)
        assert tuple(t1.argmax_gamma) == tuple(t2.argmax_gamma)
        assert t1.argmax_dag == t2.argmax_dag

    def test_domain_cache_isolates_tables(self):
        # Tables at one (p, R) share a cached domain; a table built on
        # other data first must not change a later one, and the shared
        # arrays must refuse writes.
        rng = np.random.default_rng(15)
        data_a, data_b = toy_data(rng, 20, 5), toy_data(rng, 40, 5)
        h = Hyperparameters(b=0.5, R=4)
        enumerate_posterior(data_a, h)
        warm = enumerate_posterior(data_b, h)
        _domain.cache_clear()
        cold = enumerate_posterior(data_b, h)
        assert warm.log_normalizer == cold.log_normalizer
        assert warm.argmax_log_score == cold.argmax_log_score
        assert tuple(warm.argmax_gamma) == tuple(cold.argmax_gamma)
        assert warm.argmax_dag == cold.argmax_dag
        assert np.array_equal(warm.variable_marginals(), cold.variable_marginals())
        assert np.array_equal(warm.gamma_log_marginals(), cold.gamma_log_marginals())
        dom = _domain(5, 4)
        plans = [(plan.gather, plan.diag_pos) for plan in (dom.identity_plan, dom.general_plan)]
        shared = (dom.gam, dom.gam_sizes, dom.key_nu, dom.key_rest, dom.coupling)
        for arr in (*shared, dom.col_starts, dom.col_counts, dom.col_keys, *itertools.chain(*plans)):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        with pytest.raises(TypeError):
            dom.gamma_index[(1, 1, 1, 1, 1)] = 0

    @pytest.mark.parametrize("p", range(1, 9))
    def test_domain_lists_gammas_in_product_order(self, p):
        for R in range(1, p + 3):
            expect = tuple(g for g in itertools.product((0, 1), repeat=p) if sum(g) < R)
            assert _domain(p, R).gammas == expect

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


def pd_scale(rng, p):
    A = rng.standard_normal((p, p))
    return A @ A.T + p * np.eye(p)


class TestTableValues:
    """A table's one-gather route and the engine's one-key memo routes give
    the same likelihood and normalizer values, bit for bit."""

    @staticmethod
    def _check(monkeypatch, data, h):
        engine = ScoreEngine(data, h)
        values = []
        table_values = scoring._table_values
        monkeypatch.setattr(
            scoring, "_table_values", lambda e, d: values.append(table_values(e, d)) or values[-1]
        )
        table = PosteriorTable(data, h, engine)
        monkeypatch.undo()
        assert engine.memo_entries() == {"normalizer": 0, "marginal": 0}
        [(marginal, delta)] = values
        actives = [tuple(j for j in range(data.p) if g[j]) for g in table.gammas]
        assert marginal.tolist() == [engine.marginal(s) for s in actives]
        keys = [(c, s) for c, subs in enumerate(table.col_subsets) for s in subs]
        assert delta.tolist() == [engine.zcache.delta(c, s) for c, s in keys]

    @pytest.mark.parametrize("response", ["data", "zero"])
    @pytest.mark.parametrize("b", [0.0, 0.5])
    @pytest.mark.parametrize("R", [None, 2, 3])
    @pytest.mark.parametrize("sigma2", [None, 1.5])
    @pytest.mark.parametrize("scale", ["identity", "general"])
    @pytest.mark.parametrize("p", [4, 6])
    def test_equal_to_memo_routes(self, monkeypatch, p, scale, sigma2, R, b, response):
        rng = np.random.default_rng(p)
        data = toy_data(rng, 12, p)
        if response == "zero":
            data = Dataset(data.X, np.zeros(data.n))
        U = pd_scale(rng, p) if scale == "general" else None
        self._check(monkeypatch, data, Hyperparameters(sigma2=sigma2, R=R, b=b, U=U))

    @pytest.mark.parametrize("scale", ["identity", "general"])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_every_size_and_bound(self, monkeypatch, p, scale):
        # Every complexity bound up to p + 1: R = 1 leaves every block's
        # leading part empty, p = 1 has a single column, and R = p + 1 adds
        # the model with every column active, whose block size holds no
        # normalizer block.
        rng = np.random.default_rng(40 + p)
        data = toy_data(rng, 12, p)
        U = pd_scale(rng, p) if scale == "general" else None
        for R in range(1, p + 2):
            self._check(monkeypatch, data, Hyperparameters(R=R, U=U))


class TestColumnReductions:
    """The table's column reductions over its one score matrix give the
    bits of a per-column loop: a contiguous copy of each column's scores,
    its maximum, a log-sum-exp over its row, and the column terms added to
    the inclusion vector's own score in column order."""

    @pytest.mark.parametrize("q", [0.005, 0.5])
    @pytest.mark.parametrize("b", [0.0, 0.5])
    @pytest.mark.parametrize("scale", ["identity", "general"])
    @pytest.mark.parametrize("p", [1, 4, 6])
    def test_equal_to_per_column_loop(self, p, scale, b, q):
        # q = 0.5 spreads each column's mass over its parent sets, so the
        # sums of many comparable terms expose any change in their order.
        rng = np.random.default_rng(60 + p)
        data = toy_data(rng, 8, p)
        U = pd_scale(rng, p) if scale == "general" else None
        table = enumerate_posterior(data, Hyperparameters(b=b, q=q, U=U))
        lse = table._gamma_base.copy()
        mx = table._gamma_base.copy()
        for cols in table._col_slices:
            vals = np.ascontiguousarray(table._scores[:, cols])
            top = vals.max(axis=1)
            lse += top + np.log(np.exp(vals - top[:, None]).sum(axis=1))
            mx += top
        assert table._gamma_lse.tolist() == lse.tolist()
        assert table.argmax_log_score == mx.max()


def _first_maximum(table):
    """The first maximum over ``table.entries()``, as (gamma, Dag, score).

    Per inclusion vector, every DAG's score is added up as ``entries()``
    adds it (the vector's own score plus the column scores summed from 0
    in column order), laid out in ``itertools.product`` order, so the
    first ``argmax`` is the first maximum among that vector's entries;
    the vectors are then compared in order with a strict ``>``."""
    best = None
    for k, g in enumerate(table.gammas):
        acc = np.zeros(())
        for cols in table._col_slices:
            acc = np.add.outer(acc, table._scores[k, cols])
        scores = (table._gamma_base[k] + acc).ravel()
        i = int(np.argmax(scores))
        if best is None or scores[i] > best[2]:
            pick = np.unravel_index(i, acc.shape)
            dag = Dag(table.p, tuple(subs[j] for subs, j in zip(table.col_subsets, pick)))
            best = (g, dag, float(scores[i]))
    return best


class TestArgmaxTies:
    """The table promises the first maximum, the lexicographically smallest
    parent set among tied ones.  Here X[:, 5] = X[:, 4], so column 3's
    parent sets (4,) and (5,) score exactly alike."""

    @staticmethod
    def _tied_data():
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 6))
        X[:, 5] = X[:, 4]
        X[:, 3] = X[:, 4] + 0.3 * rng.standard_normal(40)
        Y = X[:, 0] + rng.standard_normal(40)
        return Dataset(X, Y)

    @pytest.mark.parametrize("R", [None, 2])
    def test_first_of_tied_parent_sets(self, R):
        table = enumerate_posterior(self._tied_data(), Hyperparameters(b=0.0, R=R))
        parents = list(table.argmax_dag.parents)
        tied = []
        for pa in [(4,), (5,)]:
            parents[3] = pa
            tied.append(table.log_score(table.argmax_gamma, Dag(6, tuple(parents))))
        assert tied[0] == tied[1] == table.argmax_log_score
        assert table.argmax_dag.parents[3] == (4,)

    def test_matches_first_maximum_of_entries(self):
        # R = 2 keeps the domain to 5,040 pairs and the same tie.
        self._check_entries(2)

    def test_ragged_columns_match_first_maximum_of_entries(self):
        # At R = 3 the columns hold 16, 11, 7, 4, 2 and 1 parent sets, so
        # most rows of the padded per-column key index end in pads
        # (216,832 pairs).
        table = self._check_entries(3)
        assert [len(subs) for subs in table.col_subsets] == [16, 11, 7, 4, 2, 1]

    def _check_entries(self, R):
        table = enumerate_posterior(self._tied_data(), Hyperparameters(b=0.0, R=R))
        best = None
        for gamma, dag, score, _ in table.entries():
            if best is None or score > best[2]:
                best = (tuple(gamma), dag, score)
        assert best == _first_maximum(table)
        assert best[0] == tuple(table.argmax_gamma)
        assert best[1] == table.argmax_dag
        assert best[2] == pytest.approx(table.argmax_log_score, abs=1e-12)
        return table

    def test_matches_first_maximum_at_default_bound(self):
        # The default bound has 2,064,384 pairs, too many to walk through
        # entries() here; _first_maximum adds up the same scores in the
        # same order, and _check_entries ties it to entries() at R = 2 and 3.
        table = enumerate_posterior(self._tied_data(), Hyperparameters(b=0.0))
        gamma, dag, score = _first_maximum(table)
        assert gamma == tuple(table.argmax_gamma)
        assert dag == table.argmax_dag
        assert score == pytest.approx(table.argmax_log_score, abs=1e-12)


class TestTableEngine:
    """A table builds its own engine when given none, and then checks
    nothing; a given engine is checked.  Both routes give the same bits."""

    @staticmethod
    def _figures(table):
        return (
            table.log_normalizer,
            table.gamma_log_marginals().tolist(),
            table.variable_marginals().tolist(),
            tuple(table.argmax_gamma),
            table.argmax_dag,
            table.argmax_log_score,
            [table.log_score(g, dag) for g, dag, _, _ in table.entries()],
        )

    @pytest.mark.parametrize("case", ["None", "identity", "general", "sigma2", "R2"])
    def test_own_and_given_engine_agree(self, case):
        rng = np.random.default_rng(70)
        data = toy_data(rng, 20, 4)
        h = Hyperparameters(
            U={"identity": np.eye(4), "general": pd_scale(rng, 4)}.get(case),
            sigma2=1.5 if case == "sigma2" else None,
            R=2 if case == "R2" else None,
        )
        own = PosteriorTable(data, h)
        given = PosteriorTable(data, h, ScoreEngine(data, h))
        assert self._figures(own) == self._figures(given)

    def test_given_engine_is_checked(self):
        rng = np.random.default_rng(71)
        data = toy_data(rng, 20, 4)
        U = pd_scale(rng, 4)
        h = Hyperparameters()
        others = [
            (Dataset(data.X, data.Y), h),
            (data, Hyperparameters(tau2=2.0)),
            (data, Hyperparameters(U=U)),
        ]
        for other_data, other_h in others:
            with pytest.raises(ValueError, match="score engine was built for"):
                PosteriorTable(data, h, ScoreEngine(other_data, other_h))
        with pytest.raises(ValueError, match="score engine was built for"):
            PosteriorTable(data, Hyperparameters(U=U), ScoreEngine(data, h))

    def test_enumeration_builds_one_unchecked_engine(self, monkeypatch):
        rng = np.random.default_rng(72)
        data = toy_data(rng, 20, 4)
        engines = []
        init = ScoreEngine.__init__
        monkeypatch.setattr(
            ScoreEngine, "__init__", lambda self, *args: engines.append(self) or init(self, *args)
        )
        monkeypatch.setattr(ScoreEngine, "check_serves", lambda *args: pytest.fail("checked"))
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda *a: compared.append(a) or array_equal(*a))
        enumerate_posterior(data, Hyperparameters())
        assert len(engines) == 1 and engines[0].zcache._identity
        assert compared == []  # U = None is known to be the identity
        enumerate_posterior(data, Hyperparameters(U=np.eye(4)))
        assert len(compared) == 1 and engines[1].zcache._identity

    def test_queries_check_dimensions(self):
        rng = np.random.default_rng(73)
        table = enumerate_posterior(toy_data(rng, 20, 4), Hyperparameters())
        queries = (table.log_score, table.log_prob, table.prob)
        bad = [(np.zeros(3), Dag.empty(4)), (np.zeros(5), Dag.empty(4)), (np.zeros(4), Dag.empty(3))]
        for query in queries:
            for gamma, dag in bad:
                with pytest.raises(DimensionError):
                    query(gamma, dag)
            assert np.isfinite(query(np.zeros(4), Dag.empty(4)))


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
