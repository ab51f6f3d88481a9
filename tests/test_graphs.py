import itertools
import math

import numpy as np
import pytest

from jointdag import Dag, adjacency, log_prior_dag
from jointdag.graphs import dag_from_edge_csv, dag_to_edge_csv

from oracles import random_dag


def all_dags(p):
    """Every DAG under the ordering: independent subset choice per column."""
    per_col = [list(itertools.chain.from_iterable(
        itertools.combinations(range(c + 1, p), r) for r in range(p - c)
    )) for c in range(p)]
    for combo in itertools.product(*per_col):
        yield Dag(p, combo)


class TestDag:
    def test_parent_ordering_enforced(self):
        with pytest.raises(ValueError):
            Dag(3, ((0,), (), ()))
        with pytest.raises(ValueError):
            Dag(3, ((3,), (), ()))

    def test_parents_canonicalized(self):
        d = Dag(3, ((2, 1), (), ()))
        assert d.parents[0] == (1, 2)

    def test_nu_bounds(self):
        d = Dag(4, ((1, 3), (2,), (), ()))
        assert d.nu() == (2, 1, 0, 0)
        assert d.nu()[-1] == 0
        assert all(0 <= v <= d.p - 1 - i for i, v in enumerate(d.nu()))


class TestAdjacency:
    def test_empty(self):
        assert np.array_equal(adjacency(Dag.empty(3)), np.zeros((3, 3)))

    def test_single_edge(self):
        assert np.array_equal(adjacency(Dag(2, ((1,), ()))), [[0, 1], [1, 0]])

    def test_complete(self):
        G = adjacency(Dag.complete(3))
        assert np.array_equal(G, 1 - np.eye(3))

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            G = adjacency(random_dag(rng, 7))
            assert np.array_equal(G, G.T)
            assert not G.diagonal().any()


class TestLogPriorDag:
    def test_empty(self):
        assert log_prior_dag(Dag.empty(3), 0.005, 2) == pytest.approx(3 * math.log(0.995))

    def test_bound_trips(self):
        assert log_prior_dag(Dag.complete(3), 0.005, 1) == -math.inf

    def test_single_bernoulli_edge(self):
        assert log_prior_dag(Dag(2, ((1,), ())), 0.5, 2) == pytest.approx(math.log(0.5))

    def test_matches_edge_count_form(self):
        rng = np.random.default_rng(1)
        q = 0.3
        for _ in range(20):
            d = random_dag(rng, 6)
            total = d.n_edges
            pairs = 6 * 5 // 2
            expect = total * math.log(q) + (pairs - total) * math.log(1 - q)
            assert log_prior_dag(d, q, 6) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_normalizes_over_all_dags(self, p):
        q = 0.17
        total = sum(math.exp(log_prior_dag(d, q, p)) for d in all_dags(p))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_edge_csv_roundtrip(self):
        d = Dag(4, ((1, 3), (2,), (), ()))
        text = dag_to_edge_csv(d)
        assert "1,2" in text  # 1-based indices on disk
        assert dag_from_edge_csv(text, 4) == d

    def test_empty_roundtrip(self):
        assert dag_from_edge_csv(dag_to_edge_csv(Dag.empty(3)), 3) == Dag.empty(3)
