import math
from collections import Counter

import numpy as np
import pytest

from jointdag import (
    ChainControl,
    ChainSummary,
    Dag,
    Dataset,
    Hyperparameters,
    ScoreEngine,
    enumerate_posterior,
    gibbs_sweep,
    init_state,
    log_joint_score,
    median_probability_model,
    propose_gamma,
    run_chain,
)
from jointdag.errors import InitializationError, InternalConsistencyError
from jointdag.sampler import (
    ChainStreams,
    _dag_delta,
    _gamma_flip_parts,
    _propose_in_column,
    check_state_consistency,
)
from jointdag.scoring import PosteriorTable

from oracles import random_dag


class FakeRng:
    """Scripted uniform stream for driving proposals deterministically."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def chain_data(rng, n=40, p=4):
    X = rng.standard_normal((n, p))
    X[:, 0] += 0.8 * X[:, 1]
    beta = np.array([1.2, -1.0] + [0.0] * (p - 2))
    Y = X @ beta + rng.standard_normal(n)
    return Dataset(X, Y)


def _force_gamma_move(gamma, k):
    """Drive propose_gamma so that it flips exactly coordinate k."""
    p = len(gamma)
    deleting = bool(gamma[k])
    pool = [i for i in range(p) if bool(gamma[i]) == deleting]
    draws = [0.25 if deleting else 0.75] if 0 < sum(gamma) < p else []
    draws.append((pool.index(k) + 0.5) / len(pool))
    rng = FakeRng(draws)
    move = propose_gamma(gamma, rng)
    assert move[:2] == (k, not deleting) and rng.values == []
    return move


def _force_column_move(parents, c, j, p):
    """Drive the column kernel so that it toggles exactly candidate j."""
    nu = len(parents)
    K = p - 1 - c
    deleting = j in parents
    draws = [0.25 if deleting else 0.75] if 0 < nu < K else []
    draws.append((parents.index(j) + 0.5) / nu if deleting else (j - c - 1 + 0.5) / K)
    rng = FakeRng(draws)
    move = _propose_in_column(parents, c, p, rng)
    assert move[:2] == (j, not deleting) and move[2] != parents and rng.values == []
    return move


class TestProposeGamma:
    def test_exact_kernel_probs(self):
        g = np.array([1, 0, 0], dtype=np.int8)
        # forced path values: move type then coordinate
        k, adding, lqf, lqr = propose_gamma(g, FakeRng([0.3, 0.5]))  # delete the only 1
        assert (k, adding) == (0, False)
        assert lqf == pytest.approx(math.log(0.5))
        assert lqr == pytest.approx(math.log(1 / 3))  # back from empty: forced add
        k, adding, lqf, lqr = propose_gamma(g, FakeRng([0.7, 0.1]))  # add first zero
        assert (k, adding) == (1, True)
        assert lqf == pytest.approx(math.log(0.25))

    def test_degenerate_all_zero(self):
        g = np.zeros(3, dtype=np.int8)
        k, adding, lqf, _ = propose_gamma(g, FakeRng([0.9]))
        assert (k, adding) == (2, True)
        assert lqf == pytest.approx(math.log(1 / 3))

    def test_degenerate_all_one(self):
        g = np.ones(3, dtype=np.int8)
        k, adding, lqf, lqr = propose_gamma(g, FakeRng([0.0]))
        assert (k, adding) == (0, False)
        assert lqf == pytest.approx(math.log(1 / 3))
        assert lqr == pytest.approx(math.log(0.5 / 1))

    def test_p1_roundtrip(self):
        move = propose_gamma(np.zeros(1, dtype=np.int8), FakeRng([0.2]))
        assert move == (0, True, 0.0, 0.0)

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(0)
        g = np.array([1, 0, 0], dtype=np.int8)
        counts = Counter()
        n = 100000
        for _ in range(n):
            k, adding, _, _ = propose_gamma(g, rng)
            counts[(k, adding)] += 1
        for outcome, prob in {(0, False): 0.5, (1, True): 0.25, (2, True): 0.25}.items():
            sd = math.sqrt(n * prob * (1 - prob))
            assert abs(counts[outcome] - n * prob) < 3 * sd


class TestProposeDagColumn:
    def test_forced_add(self):
        counts = Counter()
        rng = np.random.default_rng(1)
        for _ in range(4000):
            _, is_add, new_pa, lqf, _ = _propose_in_column((), 0, 3, rng)
            counts[new_pa] += 1
            assert is_add
            assert lqf == pytest.approx(math.log(0.5))  # forced add among {1, 2}
        assert abs(counts[(1,)] - 2000) < 3 * math.sqrt(4000 * 0.25)

    def test_forced_delete(self):
        _, is_add, new_pa, lqf, _ = _propose_in_column((1, 2), 0, 3, FakeRng([0.0]))
        assert not is_add and len(new_pa) == 1
        assert lqf == pytest.approx(math.log(0.5))

    def test_last_column_noop(self):
        # The last vertex can have no parents, so a sweep makes no move
        # there and never draws from its stream.
        data = chain_data(np.random.default_rng(12), n=25, p=3)
        state = init_state(data, Hyperparameters(), init="corr")
        streams = ChainStreams(3, 3)
        streams.columns[2] = FakeRng([])  # any draw raises IndexError
        for _ in range(200):
            gibbs_sweep(state, streams)
        assert state.parents[2] == () and len(state.col_proposals) == 2

    def test_reversibility_exhaustive_p4(self):
        # For every column state and every toggle, the forward log kernel
        # probability must equal the reverse one reported from the flipped
        # state, exactly.
        import itertools

        p = 4
        for c in range(p - 1):
            cands = list(range(c + 1, p))
            for r in range(len(cands) + 1):
                for S in itertools.combinations(cands, r):
                    for j in cands:
                        fwd = _force_column_move(S, c, j, p)
                        back = _force_column_move(fwd[2], c, j, p)
                        assert back[2] == S
                        assert fwd[3] == back[4]  # q(S'|S) both ways
                        assert fwd[4] == back[3]


class TestFlipRatios:
    def test_gamma_flip_matches_full_rescore(self):
        rng = np.random.default_rng(2)
        data = chain_data(rng)
        hyper = Hyperparameters()
        for _ in range(10):
            dag = random_dag(rng, 4)
            gamma = rng.integers(0, 2, size=4).astype(np.int8)
            if gamma.sum() >= 3:
                continue
            state = init_state(data, hyper, init=(gamma, dag))
            base = log_joint_score(gamma, dag, data, hyper, state.engine).log_score
            for k in range(4):
                g2 = gamma.copy()
                g2[k] ^= 1
                full = log_joint_score(g2, dag, data, hyper, state.engine).log_score - base
                inc = _gamma_flip_parts(state, k, bool(g2[k]))[0]
                if math.isinf(inc):
                    assert full == -math.inf or g2.sum() >= state.R
                else:
                    assert inc == pytest.approx(full, abs=1e-10)

    def test_dag_flip_matches_full_rescore(self):
        rng = np.random.default_rng(3)
        data = chain_data(rng)
        hyper = Hyperparameters()
        for _ in range(10):
            dag = random_dag(rng, 4)
            gamma = np.array([1, 1, 0, 0], dtype=np.int8)
            state = init_state(data, hyper, init=(gamma, dag))
            base = log_joint_score(gamma, dag, data, hyper, state.engine).log_score
            for c in range(3):
                for j in range(c + 1, 4):
                    _, is_add, new_pa, _, _ = _force_column_move(dag.parents[c], c, j, 4)
                    flipped = Dag(4, dag.parents[:c] + (new_pa,) + dag.parents[c + 1 :])
                    full = log_joint_score(gamma, flipped, data, hyper, state.engine).log_score - base
                    assert _dag_delta(state, c, j, is_add, new_pa)[0] == pytest.approx(full, abs=1e-10)

    def test_acceptance_ratio_against_two_full_scores(self):
        rng = np.random.default_rng(4)
        data = chain_data(rng)
        hyper = Hyperparameters()
        gamma = np.array([1, 0, 0, 0], dtype=np.int8)
        dag = Dag.empty(4)
        state = init_state(data, hyper, init=(gamma, dag))
        k, adding, lqf, lqr = propose_gamma(gamma, FakeRng([0.7, 0.1]))
        new_g = gamma.copy()
        new_g[k] = adding
        s_old = log_joint_score(gamma, dag, data, hyper, state.engine).log_score
        s_new = log_joint_score(new_g, dag, data, hyper, state.engine).log_score
        oracle = min(1.0, math.exp(s_new - s_old + lqr - lqf))
        sampler_ratio = min(1.0, math.exp(_gamma_flip_parts(state, k, adding)[0] + lqr - lqf))
        assert sampler_ratio == pytest.approx(oracle, rel=1e-10)
        assert 0.0 <= sampler_ratio <= 1.0


class TestDetailedBalance:
    """Exact detailed balance of every move type (Geweke 2004; Grosse &
    Duvenaud 2014).

    For every admissible state x at p = 3 and 4 and every proposal y the
    chain's kernels can make from it,
    ``log pi(x) + log q(x->y) + log alpha(x->y)`` must equal the same
    sum from y back to x.  pi is the enumerated table's score, q the
    kernels' own forward log probabilities (each kernel driven by scripted
    uniforms to make exactly the move y) and alpha the Metropolis
    acceptance built from the chain's delta functions.  Unlike a Monte
    Carlo TV check, this sees kernel errors at the bounds, where states
    carry almost no posterior mass.
    """

    GRID = [
        (b, sigma2, R, q)
        for b in (0.0, 0.5, 1.0)
        for sigma2 in (None, 1.5)
        for R in (None, 2, 3)
        for q in (0.005, 0.3)
    ]

    @pytest.mark.parametrize("p", [3, 4])
    @pytest.mark.parametrize("b,sigma2,R,q", GRID)
    def test_every_move_balances(self, p, b, sigma2, R, q):
        data = chain_data(np.random.default_rng(29), n=40, p=p)
        hyper = Hyperparameters(b=b, sigma2=sigma2, R=R, q=q)
        engine = ScoreEngine(data, hyper)
        table = PosteriorTable(data, hyper, engine)
        states = [(g, dag) for g, dag, _, _ in table.entries()]
        log_pi = {(tuple(int(v) for v in g), dag.parents): table.log_score(g, dag) for g, dag in states}
        flux = {}  # (x, y) -> log pi(x) + log q(x->y) + log alpha(x->y)
        for gamma, dag in states:
            state = init_state(data, hyper, init=(gamma, dag), engine=engine)
            x = (tuple(int(v) for v in gamma), dag.parents)
            moves = []
            for k in range(p):
                _, adding, lqf, lqr = _force_gamma_move(state.gamma_arr, k)
                delta = _gamma_flip_parts(state, k, adding)[0]
                new_g = x[0][:k] + (int(adding),) + x[0][k + 1 :]
                moves.append(((new_g, dag.parents), lqf, lqr, delta))
            # The scripted moves are every move: the forward probabilities sum
            # to one over the gamma moves and over each column's moves.
            assert math.fsum(math.exp(m[1]) for m in moves) == pytest.approx(1.0, abs=1e-12)
            for c in range(p - 1):
                start = len(moves)
                for j in range(c + 1, p):
                    _, is_add, new_pa, lqf, lqr = _force_column_move(dag.parents[c], c, j, p)
                    delta = _dag_delta(state, c, j, is_add, new_pa)[0]
                    parents = dag.parents[:c] + (new_pa,) + dag.parents[c + 1 :]
                    moves.append(((x[0], parents), lqf, lqr, delta))
                col = moves[start:]
                assert math.fsum(math.exp(m[1]) for m in col) == pytest.approx(1.0, abs=1e-12)
            for y, lqf, lqr, delta in moves:
                if y not in log_pi:
                    assert delta == -math.inf  # outside the complexity bound
                    continue
                assert math.isfinite(delta)
                flux[(x, y)] = log_pi[x] + lqf + min(0.0, delta + lqr - lqf)
        for (x, y), f in flux.items():
            assert abs(f - flux[(y, x)]) <= 1e-10, (x, y)


class TestGibbsSweep:
    def test_bound_never_crossed(self):
        rng = np.random.default_rng(5)
        data = chain_data(rng, n=25, p=4)
        hyper = Hyperparameters(R=2)
        state = init_state(data, hyper)
        streams = ChainStreams(7, 4)
        for _ in range(400):
            gibbs_sweep(state, streams)
            assert len(state.active) < 2
            assert all(len(pa) < 2 for pa in state.parents)
        check_state_consistency(state, tol=1e-8)

    def test_cached_components_track_full_scores(self):
        rng = np.random.default_rng(6)
        data = chain_data(rng, n=30, p=5)
        hyper = Hyperparameters()
        state = init_state(data, hyper)
        streams = ChainStreams(11, 5)
        worst = 0.0
        for s in range(3000):
            gibbs_sweep(state, streams)
            if (s + 1) % 1000 == 0:
                worst = max(worst, check_state_consistency(state, refresh=False))
        assert worst <= 1e-8

class TestCheckStateConsistency:
    # Cached part -> the matching component of a from-scratch score.
    PARTS = {
        "mrf_log": "log_gamma_prior",
        "dag_prior_log": "log_dag_prior",
        "dlz_total": "delta_log_z",
        "marginal_log": "log_marginal",
    }

    def _state(self):
        rng = np.random.default_rng(19)
        data = chain_data(rng, n=30, p=5)
        gamma = np.array([1, 1, 0, 1, 0], dtype=np.int8)
        dag = Dag.from_edges(5, [(0, 1), (1, 3), (2, 4)])
        return init_state(data, Hyperparameters(b=0.5), init=(gamma, dag))

    @pytest.mark.parametrize("part", list(PARTS))
    def test_drift_beyond_tol_raises(self, part):
        state = self._state()
        setattr(state, part, getattr(state, part) + 1e-3)
        with pytest.raises(InternalConsistencyError):
            check_state_consistency(state)

    @pytest.mark.parametrize("part", list(PARTS))
    def test_refresh_restores_part(self, part):
        state = self._state()
        engine = state.engine
        fresh = log_joint_score(state.gamma_arr, state.dag(), engine.data, state.hyper, engine)
        setattr(state, part, getattr(state, part) + 1e-9)
        assert check_state_consistency(state, refresh=True) == pytest.approx(1e-9, abs=1e-12)
        assert abs(getattr(state, part) - getattr(fresh, self.PARTS[part])) <= 1e-12


class TestSharedEngine:
    """One ScoreEngine lent to several chains on the same data."""

    CONTROL = {"iters": 600, "burnin": 200, "seed": 4, "init": "corr"}

    @staticmethod
    def _data():
        return chain_data(np.random.default_rng(23), n=40, p=8)

    @staticmethod
    def _assert_same(got: ChainSummary, want: ChainSummary):
        assert np.array_equal(got.inclusion_probs, want.inclusion_probs)
        assert np.array_equal(got.edge_probs, want.edge_probs)
        assert np.array_equal(got.dag_acceptance, want.dag_acceptance, equal_nan=True)
        assert got.gamma_acceptance == want.gamma_acceptance
        assert got.final_log_score == want.final_log_score

    @pytest.mark.parametrize(
        "second",
        [{"b": 0.0}, {"a": 2.0, "b": 0.25, "q": 0.1, "R": 4}],
        ids=["b0", "a-b-q-R"],
    )
    def test_second_chain_matches_fresh_engine(self, second):
        data = self._data()
        hypers = (Hyperparameters(b=0.5), Hyperparameters(**second))
        shared = ScoreEngine(data, hypers[0])
        sizes, fresh_sizes = [], []
        for h in hypers:
            fresh = ScoreEngine(data, h)
            self._assert_same(
                run_chain(data, h, ChainControl(**self.CONTROL), shared),
                run_chain(data, h, ChainControl(**self.CONTROL), fresh),
            )
            sizes.append(len(shared.zcache))
            fresh_sizes.append(len(fresh.zcache))
        assert sizes[0] == fresh_sizes[0]
        assert sizes[1] - sizes[0] < fresh_sizes[1]

    def test_spot_check_uses_the_chains_own_b(self):
        data = self._data()
        shared = ScoreEngine(data, Hyperparameters(b=0.5))
        gamma = np.array([1, 1, 0, 1, 0, 0, 0, 0], dtype=np.int8)
        dag = Dag.from_edges(8, [(0, 1), (1, 3), (2, 4)])
        h0 = Hyperparameters(b=0.0)
        state = init_state(data, h0, init=(gamma, dag), engine=shared)
        assert state.mrf_log == log_joint_score(gamma, dag, data, h0).log_gamma_prior
        streams = ChainStreams(5, data.p)
        for _ in range(50):
            gibbs_sweep(state, streams)
            assert check_state_consistency(state, tol=1e-9, refresh=False) <= 1e-9

    @pytest.mark.parametrize(
        "change",
        ["data", "tau2", "sigma2", "a0", "b0", "U", "alpha_offset"],
    )
    def test_engine_for_other_inputs_refused(self, change):
        data = self._data()
        engine = ScoreEngine(data, Hyperparameters())
        other = {
            "tau2": 2.0,
            "sigma2": 1.5,
            "a0": 0.2,
            "b0": 0.02,
            "U": np.diag(np.linspace(1.0, 2.0, data.p)),
            "alpha_offset": 12.0,
        }
        if change == "data":
            data, hyper = Dataset(data.X.copy(), data.Y.copy()), Hyperparameters()
        else:
            hyper = Hyperparameters(**{change: other[change]})
        with pytest.raises(ValueError, match="score engine was built for"):
            run_chain(data, hyper, ChainControl(**self.CONTROL), engine)


class TestRunChain:
    def test_p1_matches_enumeration(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 1))
        Y = 0.35 * X[:, 0] + rng.standard_normal(20)
        data = Dataset(X, Y)
        hyper = Hyperparameters(R=2)
        marginal = enumerate_posterior(data, hyper).variable_marginals()[0]
        assert 0.05 < marginal < 0.95, "tune the test data: marginal not interior"
        summary = run_chain(data, hyper, ChainControl(iters=110000, burnin=10000, seed=3))
        assert summary.inclusion_probs[0] == pytest.approx(marginal, abs=0.02)

    def test_empirical_joint_matches_enumeration(self):
        rng = np.random.default_rng(10)
        data = chain_data(rng, n=40, p=4)
        hyper = Hyperparameters()
        table = enumerate_posterior(data, hyper)
        state = init_state(data, hyper)
        streams = ChainStreams(17, 4)
        counts: Counter = Counter()
        burnin, keep = 5000, 50000
        for s in range(burnin + keep):
            gibbs_sweep(state, streams)
            if s >= burnin:
                counts[(tuple(state.gamma_list), tuple(state.parents))] += 1
        tv = 0.0
        emp_seen = 0.0
        for gamma, dag, _, prob in table.entries():
            emp = counts.get((tuple(int(v) for v in gamma), dag.parents), 0) / keep
            tv += abs(emp - prob)
            emp_seen += emp
        tv += 1.0 - emp_seen  # empirical mass outside the table domain (none expected)
        assert tv / 2 <= 0.1

    def test_acceptance_rates_within_unit_interval(self):
        rng = np.random.default_rng(11)
        data = chain_data(rng, n=25, p=5)
        summary = run_chain(data, Hyperparameters(), ChainControl(iters=500, burnin=100, seed=2))
        assert 0.0 <= summary.gamma_acceptance <= 1.0
        assert np.all(summary.dag_acceptance >= 0.0) and np.all(summary.dag_acceptance <= 1.0)
        assert summary.n_kept == 400

    def test_trace_records(self, tmp_path):
        rng = np.random.default_rng(12)
        data = chain_data(rng, n=20, p=4)
        trace = tmp_path / "trace.jsonl"
        run_chain(
            data,
            Hyperparameters(),
            ChainControl(iters=50, burnin=10, seed=1, trace=str(trace)),
        )
        import json

        lines = [json.loads(ln) for ln in trace.read_text().splitlines()]
        assert len(lines) == 50
        assert set(lines[0]) == {"iter", "size", "edges", "log_score", "accept_gamma", "dag_accepts"}
        assert lines[-1]["iter"] == 50

    @pytest.mark.parametrize("burnin", [0, 70])
    def test_kept_window_counts(self, burnin):
        # Snapshot t is the state after sweep t and is kept when
        # burnin < t <= iters; replay the chain by hand and count.
        rng = np.random.default_rng(17)
        data = chain_data(rng, n=30, p=5)
        hyper = Hyperparameters(b=0.5, R=3)
        control = ChainControl(iters=240, burnin=burnin, seed=9, init="corr")
        summary = run_chain(data, hyper, control)
        state = init_state(data, hyper, init="corr")
        streams = ChainStreams(control.seed, data.p)
        var_counts = np.zeros(data.p)
        edge_counts = np.zeros((data.p, data.p))
        for _ in range(control.iters):
            gibbs_sweep(state, streams)
            if state.iteration > burnin:
                var_counts += state.gamma_arr
                for c, pa in enumerate(state.parents):
                    edge_counts[c, list(pa)] += 1
        n_kept = control.iters - burnin
        assert summary.n_kept == n_kept
        assert edge_counts.sum() > 0 and 0 < var_counts.sum() < data.p * n_kept
        assert np.array_equal(summary.inclusion_probs, var_counts / n_kept)
        assert np.array_equal(summary.edge_probs, edge_counts / n_kept)

    def test_corr_init_runs(self):
        rng = np.random.default_rng(14)
        data = chain_data(rng, n=40, p=4)
        state = init_state(data, Hyperparameters(), init="corr", corr_threshold=0.2)
        assert sum(len(pa) for pa in state.parents) >= 1
        summary = run_chain(
            data, Hyperparameters(), ChainControl(iters=200, burnin=50, seed=6, init="corr")
        )
        assert np.isfinite(summary.final_log_score)

    def test_constant_column(self):
        # A constant column has a NaN correlation, which the corr start
        # reads as zero: no warm-start parents in or out.  The chain runs.
        rng = np.random.default_rng(18)
        X = rng.standard_normal((40, 5))
        X[:, 0] += 0.8 * X[:, 1]
        X[:, 3] += 0.9 * X[:, 2]
        X[:, 1] += 0.9 * X[:, 2]
        Y = X[:, 0] - X[:, 3] + rng.standard_normal(40)
        X[:, 2] = 3.0
        data = Dataset(X, Y)
        state = init_state(data, Hyperparameters(), init="corr", corr_threshold=0.2)
        assert state.parents == [(3,), (3,), (), (), ()]  # (2, 3) for the first two if not constant
        summary = run_chain(
            data, Hyperparameters(), ChainControl(iters=300, burnin=100, seed=4, init="corr")
        )
        assert np.isfinite(summary.final_log_score)
        assert np.all((summary.inclusion_probs >= 0) & (summary.inclusion_probs <= 1))

    def test_invalid_control(self):
        with pytest.raises(ValueError):
            ChainControl(iters=10, burnin=10)
        with pytest.raises(ValueError, match="^seed"):
            ChainControl(iters=10, burnin=5, seed=-1)

    def test_infinite_init_rejected(self):
        rng = np.random.default_rng(15)
        data = chain_data(rng, n=20, p=4)
        hyper = Hyperparameters(R=1)
        with pytest.raises(InitializationError):
            init_state(data, hyper, init=(np.array([1, 0, 0, 0], dtype=np.int8), Dag.empty(4)))


class TestMedianProbabilityModel:
    def _summary(self, probs, edges):
        p = len(probs)
        ep = np.zeros((p, p))
        for (c, j), v in edges.items():
            ep[c, j] = v
        return ChainSummary(
            inclusion_probs=np.asarray(probs, dtype=float),
            edge_probs=ep,
            gamma_acceptance=0.0,
            dag_acceptance=np.zeros(max(p - 1, 0)),
            n_kept=1,
            seed=0,
        )

    def test_strictly_above_half(self):
        gamma, dag = median_probability_model(self._summary([0.9, 0.4, 0.51], {}))
        assert gamma.tolist() == [1, 0, 1]
        assert dag == Dag.empty(3)

    def test_exact_half_excluded(self):
        gamma, dag = median_probability_model(self._summary([0.5, 0.5, 0.5], {(0, 1): 0.5}))
        assert gamma.tolist() == [0, 0, 0]
        assert dag.n_edges == 0

    def test_matches_enumeration_marginals(self):
        rng = np.random.default_rng(16)
        data = chain_data(rng, n=40, p=4)
        hyper = Hyperparameters()
        marginals = enumerate_posterior(data, hyper).variable_marginals()
        summary = run_chain(data, hyper, ChainControl(iters=60000, burnin=5000, seed=8))
        gamma, _ = median_probability_model(summary)
        assert gamma.tolist() == (marginals > 0.5).astype(int).tolist()
