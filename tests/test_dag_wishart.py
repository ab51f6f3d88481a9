import math

import numpy as np
import pytest
from scipy.special import gammaln

from jointdag import CholeskyParam, Dag, Hyperparameters
from jointdag import dag_wishart
from jointdag.dag_wishart import ColumnZDeltaCache, pack_bitsets, packed_key, packed_keys
from jointdag.errors import ImproperPriorError, NotPositiveDefiniteError

from oracles import (
    dense_log_z,
    log_density,
    log_z,
    log_z_column,
    quadrature_normalization,
    random_cholesky_param,
    random_dag,
    reconstruct_precision,
)


def packed_lookup(cache, keys):
    """``cache.packed_deltas`` on a list of distinct (vertex, parent tuple)
    keys, packed as the sampler packs them."""
    member = np.zeros((len(keys), cache.p), dtype=bool)
    for row, (_, pa) in zip(member, keys):
        row[list(pa)] = True
    return cache.packed_deltas(np.array([i for i, _ in keys], dtype=np.intp), pack_bitsets(member))


class TestLogZColumn:
    def test_p1_closed_form(self):
        assert log_z_column(np.eye(1), 0, (), 3.0) == pytest.approx(
            math.log(math.sqrt(math.pi) * math.sqrt(2)), abs=1e-7
        )

    def test_one_parent_identity_scale(self):
        assert log_z_column(np.eye(2), 0, (1,), 4.0) == pytest.approx(
            math.log(2 * math.pi), abs=1e-7
        )

    def test_no_parent_diagonal_scale(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.uniform(0.2, 3.0, size=3)
            a = rng.uniform(3.0, 9.0, size=3)
            for i in range(3):
                expect = gammaln(a[i] / 2 - 1) + (a[i] / 2 - 1) * math.log(2 / u[i])
                assert log_z_column(np.diag(u), i, (), a[i]) == pytest.approx(expect, abs=1e-10)


class TestLogZCoefs:
    @pytest.mark.parametrize("offset", [2.5, 3.0, 4.0, 4.0001, 5.5, 10.0, 10.25, 37.3])
    def test_constant_matches_scipy_gammaln(self, offset):
        # The posterior and prior factors take log Gamma at
        # 0.5 * (n + offset) - 1 and 0.5 * offset - 1, for any parent count.
        worst = 0.0
        for nu in (0, 1, 7):
            for alpha in [nu + offset] + [n + nu + offset for n in range(1, 5001)]:
                const = dag_wishart._log_z_coefs(alpha, nu)[0]
                expect = (
                    gammaln(0.5 * (alpha - nu) - 1.0)
                    + (0.5 * alpha - 1.0) * math.log(2.0)
                    + 0.5 * nu * math.log(math.pi)
                )
                worst = max(worst, abs(const - expect) / abs(expect))
        assert worst <= 1e-14


class TestLogZ:
    def test_empty_p2(self):
        assert log_z(Dag.empty(2), np.eye(2), np.array([3.0, 3.0])) == pytest.approx(
            2 * math.log(math.sqrt(2 * math.pi))
        )

    def test_one_edge_p2(self):
        assert log_z(Dag(2, ((1,), ())), np.eye(2), np.array([4.0, 3.0])) == pytest.approx(
            math.log(2 * math.pi * math.sqrt(2 * math.pi))
        )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = 6
            dag = random_dag(rng, p)
            A = rng.standard_normal((p, p))
            U = A @ A.T + p * np.eye(p)
            alpha = np.array(dag.nu(), dtype=float) + rng.uniform(2.5, 8.0)
            assert log_z(dag, U, alpha) == pytest.approx(
                dense_log_z(U, dag.parents, alpha), abs=1e-9
            )

    def test_density_normalizes_by_quadrature(self):
        assert quadrature_normalization(n_nodes=24) == pytest.approx(1.0, abs=1e-3)

    def test_depends_only_on_parent_blocks(self):
        rng = np.random.default_rng(2)
        p = 8
        dag = random_dag(rng, p, max_parents=3)
        A = rng.standard_normal((p, p))
        U = A @ A.T + p * np.eye(p)
        alpha = np.array(dag.nu(), dtype=float) + 5.0
        base = log_z(dag, U, alpha)
        used = set()
        for i in range(p):
            idx = (i,) + dag.parents[i]
            used.update((a, b) for a in idx for b in idx)
        outside = [(a, b) for a in range(p) for b in range(p) if (a, b) not in used and a < b]
        assert outside, "test graph leaves no free entries"
        for a, b in outside[:10]:
            U2 = U.copy()
            U2[a, b] += 0.31
            U2[b, a] += 0.31
            assert log_z(dag, U2, alpha) == base


class TestLogDensity:
    def test_p1_value(self):
        param = CholeskyParam(np.eye(1), np.ones(1))
        val = log_density(param, Dag.empty(1), np.eye(1), np.array([3.0]))
        assert val == pytest.approx(-0.5 - 0.9189385, abs=1e-6)

    def test_outside_sparsity_space(self):
        param = CholeskyParam(np.array([[1.0, 0.0], [0.4, 1.0]]), np.ones(2))
        assert log_density(param, Dag.empty(2), np.eye(2), np.array([4.0, 3.0])) == -math.inf

    def test_ratio_independent_of_normalizer(self):
        rng = np.random.default_rng(3)
        dag = random_dag(rng, 4)
        alpha = np.array(dag.nu(), dtype=float) + 6.0
        U = np.eye(4)
        p1 = random_cholesky_param(rng, dag)
        p2 = random_cholesky_param(rng, dag)

        def kernel(cp):
            omega = reconstruct_precision(cp)
            return -0.5 * np.sum(omega * U) - 0.5 * np.sum(alpha * np.log(cp.dvec))

        diff = log_density(p1, dag, U, alpha) - log_density(p2, dag, U, alpha)
        assert diff == pytest.approx(kernel(p1) - kernel(p2), abs=1e-9)

    def test_conjugacy_pointwise(self):
        rng = np.random.default_rng(4)
        p, n = 4, 12
        dag = random_dag(rng, p)
        alpha = np.array(dag.nu(), dtype=float) + 7.0
        U = np.eye(p)
        X = rng.standard_normal((n, p))
        U_post, alpha_post = U + X.T @ X, alpha + n

        def loglik(cp):
            omega = reconstruct_precision(cp)
            quad = float(np.sum((X @ omega) * X))
            return 0.5 * n * float(np.sum(np.log(1.0 / cp.dvec))) - 0.5 * quad

        consts = []
        for _ in range(8):
            cp = random_cholesky_param(rng, dag)
            prior, post = log_density(cp, dag, U, alpha), log_density(cp, dag, U_post, alpha_post)
            consts.append(prior + loglik(cp) - post)
        assert max(consts) - min(consts) < 1e-8


class TestColumnZDeltaCache:
    def test_matches_direct_difference(self):
        rng = np.random.default_rng(6)
        p, n, offset = 5, 9, 10.0
        X = rng.standard_normal((n, p))
        U = np.eye(p)
        cache = ColumnZDeltaCache(U, U + X.T @ X, n, offset)
        for _ in range(10):
            dag = random_dag(rng, p)
            alpha = np.array(dag.nu(), dtype=float) + offset
            direct = log_z(dag, U + X.T @ X, alpha + n) - log_z(dag, U, alpha)
            total = sum(cache.delta(i, dag.parents[i]) for i in range(p))
            assert total == pytest.approx(direct, abs=1e-10)
            # second lookup hits the memo and is identical
            assert sum(cache.delta(i, dag.parents[i]) for i in range(p)) == total

    @staticmethod
    def _keys(rng, p, max_nu, count):
        """Random (column, parent set) keys; sizes cycle through 0..max_nu."""
        keys = []
        for k in range(count):
            nu = k % (max_nu + 1)
            i = int(rng.integers(0, p - nu))
            pa = rng.choice(np.arange(i + 1, p), size=nu, replace=False)
            keys.append((i, tuple(sorted(int(j) for j in pa))))
        return keys

    def test_identity_prior_memo_is_exact(self):
        # With U = I the prior factor is memoized by parent count; every
        # value must equal the two-sided difference bit for bit.
        rng = np.random.default_rng(31)
        p, n, offset, R = 40, 30, 10.0, 8
        X = rng.standard_normal((n, p))
        U = np.eye(p)
        U_post = U + X.T @ X
        cache = ColumnZDeltaCache(U, U_post, n, offset)
        keys = self._keys(rng, p, R - 1, 2000)
        assert {len(pa) for _, pa in keys} == set(range(R))
        for i, pa in keys:
            a = len(pa) + offset
            direct = log_z_column(U_post, i, pa, n + a) - log_z_column(U, i, pa, a)
            assert cache.delta(i, pa) == direct

    def test_diagonal_scale_matches_direct_difference(self):
        rng = np.random.default_rng(32)
        p, n, offset = 6, 12, 10.0
        X = rng.standard_normal((n, p))
        U = np.diag(np.linspace(0.5, 3.0, p))
        cache = ColumnZDeltaCache(U, U + X.T @ X, n, offset)
        for _ in range(20):
            dag = random_dag(rng, p)
            alpha = np.array(dag.nu(), dtype=float) + offset
            direct = log_z(dag, U + X.T @ X, alpha + n) - log_z(dag, U, alpha)
            total = sum(cache.delta(i, dag.parents[i]) for i in range(p))
            assert total == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("scale", ["identity", "diagonal"])
    def test_batch_matches_two_sided_difference(self, scale):
        rng = np.random.default_rng(34)
        p, n, offset, R = 30, 25, 10.0, 7
        X = rng.standard_normal((n, p))
        U = np.eye(p) if scale == "identity" else np.diag(np.linspace(0.5, 3.0, p))
        U_post = U + X.T @ X
        keys = list(dict.fromkeys(self._keys(rng, p, R - 1, 600)))
        assert {len(pa) for _, pa in keys} == set(range(R))
        vals = packed_lookup(ColumnZDeltaCache(U, U_post, n, offset), keys)
        for (i, pa), val in zip(keys, vals):
            a = len(pa) + offset
            direct = log_z_column(U_post, i, pa, n + a) - log_z_column(U, i, pa, a)
            assert abs(val - direct) <= 1e-10

    @pytest.mark.parametrize("scale", ["identity", "diagonal"])
    def test_batch_bit_identical_to_single_keys(self, scale):
        rng = np.random.default_rng(35)
        p, n = 20, 15
        X = rng.standard_normal((n, p))
        U = np.eye(p) if scale == "identity" else np.diag(np.linspace(0.5, 3.0, p))
        keys = list(dict.fromkeys(self._keys(rng, p, 6, 300)))
        batch = packed_lookup(ColumnZDeltaCache(U, U + X.T @ X, n, 10.0), keys)
        single = ColumnZDeltaCache(U, U + X.T @ X, n, 10.0)
        assert batch.tolist() == [single.delta(i, pa) for i, pa in keys]

    def test_improper_offset_rejected(self):
        # alpha_i - nu_i = offset must exceed 2 for every prior factor.  The
        # cache takes its offset from Hyperparameters, the one place that
        # checks it; the message names the key first for the CLI.
        with pytest.raises(ImproperPriorError, match=r"^alpha_offset must exceed 2"):
            Hyperparameters(alpha_offset=2.0)

    def test_batch_with_one_non_pd_block_raises(self):
        p = 5
        U_post = np.eye(p)
        U_post[3, 4] = U_post[4, 3] = 2.0  # the (3, 4) block is indefinite
        cache = ColumnZDeltaCache(np.eye(p), U_post, 4, 10.0)
        with pytest.raises(NotPositiveDefiniteError):
            packed_lookup(cache, [(0, (1,)), (3, (4,)), (1, (2,))])  # one stack of three blocks

    @pytest.mark.parametrize("scale, per_miss", [("identity", 1), ("diagonal", 2)])
    def test_factorizations_per_miss(self, monkeypatch, scale, per_miss):
        rng = np.random.default_rng(33)
        p, n = 8, 12
        X = rng.standard_normal((n, p))
        U = np.eye(p) if scale == "identity" else np.diag(np.linspace(0.5, 3.0, p))
        cache = ColumnZDeltaCache(U, U + X.T @ X, n, 10.0)
        cache.delta(0, (1, 2))  # fills the identity prior memo for two parents
        blocks = []
        cholesky = dag_wishart._cholesky_lo
        monkeypatch.setattr(
            dag_wishart,
            "_cholesky_lo",
            lambda a, **kw: blocks.append(a.shape[:-2]) or cholesky(a, **kw),
        )
        cache.delta(3, (4, 6))
        assert [math.prod(b) for b in blocks] == [1] * per_miss
        cache.delta(3, (4, 6))  # a hit factors nothing
        packed_lookup(cache, [(1, (2, 5)), (2, (3, 7)), (3, (4, 6))])
        assert sum(math.prod(b) for b in blocks) == 3 * per_miss


class TestCoefTable:
    """Every cache with one (n, offset, p) reads its coefficients from one
    shared, read-only table with a row per parent count 0..p."""

    @pytest.mark.parametrize("n, offset, p", [(9, 10.0, 5), (0, 2.5, 1), (800, 3.25, 12)])
    def test_rows_are_per_count_coefficients(self, n, offset, p):
        table = dag_wishart._coef_table(n, offset, p)
        assert table.shape == (p + 1, 6)
        for nu in range(p + 1):
            a = nu + offset
            assert table[nu].tolist() == list(
                dag_wishart._log_z_coefs(n + a, nu) + dag_wishart._log_z_coefs(a, nu)
            )
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0

    def test_caches_share_one_table(self, monkeypatch):
        p, n, offset = 7, 31, 10.0
        dag_wishart._coef_table.cache_clear()  # so the third cache's (n, offset, p) is new
        first = ColumnZDeltaCache(np.eye(p), 2.0 * np.eye(p), n, offset)
        calls = []
        log_z_coefs = dag_wishart._log_z_coefs
        monkeypatch.setattr(
            dag_wishart, "_log_z_coefs", lambda *a: calls.append(a) or log_z_coefs(*a)
        )
        second = ColumnZDeltaCache(np.eye(p), 3.0 * np.eye(p), n, offset)
        assert second._coef_rows is first._coef_rows and calls == []
        ColumnZDeltaCache(np.eye(p), 3.0 * np.eye(p), n + 1, offset)
        assert len(calls) == 2 * (p + 1)

    @pytest.mark.parametrize("scale", ["identity", "general"])
    def test_fill_up_to_p_minus_one_parents(self, scale):
        # Vertex 0 with every parent count 0..p - 1 in one fill: the last
        # key has every other vertex as a parent, the table's row p - 1.
        rng = np.random.default_rng(36)
        p, n, offset = 7, 20, 10.0
        X = rng.standard_normal((n, p))
        if scale == "identity":
            U = np.eye(p)
        else:
            B = rng.standard_normal((p, p))
            U = B @ B.T + p * np.eye(p)
        U_post = U + X.T @ X
        keys = [(0, tuple(range(1, 1 + nu))) for nu in range(p)]
        vals = packed_lookup(ColumnZDeltaCache(U, U_post, n, offset), keys)
        for (i, pa), val in zip(keys, vals):
            a = len(pa) + offset
            direct = log_z_column(U_post, i, pa, n + a) - log_z_column(U, i, pa, a)
            assert abs(val - direct) <= 1e-12 * abs(direct)


class TestPackedKeys:
    """A parent set's memo key round-trips: the key packed from a tuple
    equals the key the sampler reads off its packed bitset array, and the
    index row a miss factors, unpacked from the bitset, is the tuple's
    parents and then the vertex."""

    @staticmethod
    def _check(monkeypatch, p, keys):
        member = np.zeros((len(keys), p), dtype=bool)
        for row, (_, pa) in zip(member, keys):
            row[list(pa)] = True
        packed = [packed_key(pa, p) for _, pa in keys]
        assert all(len(k) == (p + 7) // 8 for k in packed)
        bits = pack_bitsets(member)
        assert packed_keys(bits) == packed
        assert packed == [np.packbits(row, bitorder="little").tobytes() for row in member]
        rows = []
        chol_diagonals = dag_wishart._chol_diagonals
        monkeypatch.setattr(
            dag_wishart,
            "_chol_diagonals",
            lambda M, idx, name: rows.extend(idx.tolist()) or chol_diagonals(M, idx, name),
        )
        cache = ColumnZDeltaCache(np.eye(p), 2.0 * np.eye(p), 5, 10.0)
        vals = cache.packed_deltas(np.array([i for i, _ in keys]), bits)
        assert sorted(rows) == sorted([*pa, i] for i, pa in keys)
        assert np.isfinite(vals).all() and len(cache) == len(keys)

    @pytest.mark.parametrize("p", range(1, 11))
    def test_every_subset(self, monkeypatch, p):
        import itertools

        cands = range(1, p)
        keys = [(0, s) for r in range(p) for s in itertools.combinations(cands, r)]
        self._check(monkeypatch, p, keys)

    @pytest.mark.parametrize("p", [9, 257, 1000])
    def test_random_sets(self, monkeypatch, p):
        # The last byte is partial at all three sizes, and 257 and 1000
        # have parents beyond any uint8 index.
        rng = np.random.default_rng(p)
        keys = {}
        while len(keys) < 200:
            i = int(rng.integers(0, p - 1))
            nu = int(rng.integers(0, min(p - 1 - i, 12) + 1))
            pa = tuple(sorted(int(j) for j in rng.choice(np.arange(i + 1, p), nu, replace=False)))
            keys[(i, pa)] = None
        self._check(monkeypatch, p, list(keys))
