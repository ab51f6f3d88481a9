"""Joint unnormalized log posterior of (inclusion vector, DAG).

The score decomposes into four additive parts:

* the graph-coupled inclusion prior,
* the edge-inclusion prior of the DAG,
* the posterior-vs-prior normalizer ratio of the Cholesky-factor law
  (carries all evidence the covariates hold about the DAG),
* the integrated likelihood of the response under the selected columns.

Given the inclusion vector, both the normalizer ratio and the edge prior
factor over DAG columns, so exhaustive enumeration and per-column
sampler moves only ever touch one column at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .dag_wishart import ColumnZDeltaCache
from .errors import DimensionError, EnumerationLimitError
from .graphs import Dag, adjacency, log_prior_dag
from .simdata import Dataset
from .spike_slab import Hyperparameters, log_mrf_prior
from .spike_slab import _log_marginal_from_stats


@dataclass(frozen=True)
class JointScore:
    """Named score components; the total is their exact float sum."""

    log_gamma_prior: float
    log_dag_prior: float
    delta_log_z: float
    log_marginal: float

    @property
    def log_score(self) -> float:
        return self.log_gamma_prior + self.log_dag_prior + self.delta_log_z + self.log_marginal


class ScoreEngine:
    """Per-dataset memos for repeated scoring of (gamma, DAG) pairs.

    Holds the memoized per-column normalizer deltas and a memo of
    integrated likelihood values keyed by the selected index tuple,
    together with the only inputs they depend on: the dataset, the scale
    matrix U and ``alpha_offset`` for the normalizer, and ``tau2``,
    ``sigma2``, ``a0`` and ``b0`` for the likelihood.  Neither memo
    depends on ``a``, ``b``, ``q`` or ``R``, which every caller takes
    from its own Hyperparameters, so chains that differ only in those
    share one engine (both chains of a ``replicate`` do).
    """

    def __init__(self, data: Dataset, hyper: Hyperparameters):
        p = data.p
        self.data = data
        self.p = p
        self.U = self._scale(hyper)
        if self.U.shape != (p, p):
            raise DimensionError(f"scale matrix shape {self.U.shape} does not match p={p}")
        self.memo_inputs = _memo_inputs(hyper)
        self.zcache = ColumnZDeltaCache(self.U, self.U + data.gram, data.n, hyper.alpha_offset)
        self._marginal_memo: dict[tuple[int, ...], float] = {}

    def _scale(self, hyper: Hyperparameters) -> np.ndarray:
        return np.asarray(hyper.U if hyper.U is not None else np.eye(self.p), dtype=float)

    def check_serves(self, data: Dataset, hyper: Hyperparameters) -> None:
        """Raise ValueError unless this engine's memos hold for (data, hyper)."""
        if data is not self.data:
            raise ValueError("score engine was built for another Dataset object")
        same_U = np.array_equal(self._scale(hyper), self.U)
        if _memo_inputs(hyper) != self.memo_inputs or not same_U:
            raise ValueError(
                "score engine was built for other memo inputs "
                "(tau2, sigma2, a0, b0, alpha_offset, U)"
            )

    def memo_entries(self) -> dict[str, int]:
        """Sizes of the normalizer and likelihood memos."""
        return {"normalizer": len(self.zcache), "marginal": len(self._marginal_memo)}

    def marginal(self, active: tuple[int, ...]) -> float:
        """Integrated response likelihood for the given active index tuple."""
        val = self._marginal_memo.get(active)
        if val is None:
            data = self.data
            if active:
                idx = np.fromiter(active, dtype=np.intp, count=len(active))
                gram = data.gram[np.ix_(idx, idx)]
                xty = data.xty[idx]
            else:
                gram = np.zeros((0, 0))
                xty = np.zeros(0)
            tau2, sigma2, a0, b0, _ = self.memo_inputs
            val = _log_marginal_from_stats(gram, xty, data.yty, data.n, tau2, sigma2, a0, b0)
            self._marginal_memo[active] = val
        return val


def _memo_inputs(hyper: Hyperparameters) -> tuple:
    """The scalar hyperparameters the engine's memos depend on (U aside)."""
    return (hyper.tau2, hyper.sigma2, hyper.a0, hyper.b0, hyper.alpha_offset)


def _annotated(component: str, exc: Exception) -> Exception:
    exc.args = (f"[{component}] {exc.args[0] if exc.args else ''}",) + exc.args[1:]
    return exc


def log_joint_score(
    gamma: np.ndarray,
    dag: Dag,
    data: Dataset,
    hyper: Hyperparameters,
    engine: ScoreEngine | None = None,
) -> JointScore:
    """Full unnormalized log posterior score of one (gamma, DAG) pair.

    Either complexity-bound violation yields a -inf component and hence a
    -inf total.  Numeric failures of the normalizer or the likelihood are
    re-raised with the failing component named.
    """
    g = np.asarray(gamma)
    if g.shape != (data.p,):
        raise DimensionError(f"gamma length {g.shape} does not match p={data.p}")
    if dag.p != data.p:
        raise DimensionError(f"dag has {dag.p} vertices but data has p={data.p}")
    if engine is None:
        engine = ScoreEngine(data, hyper)
    else:
        engine.check_serves(data, hyper)
    lgp = log_mrf_prior(g, adjacency(dag), hyper)
    ldp = log_prior_dag(dag, hyper.q, hyper.effective_R(data.p))
    try:
        dlz = sum(engine.zcache.delta(i, pa) for i, pa in enumerate(dag.parents))
    except Exception as exc:
        raise _annotated("delta_log_z", exc)
    try:
        lml = engine.marginal(tuple(int(j) for j in np.flatnonzero(g)))
    except Exception as exc:
        raise _annotated("log_marginal", exc)
    return JointScore(
        log_gamma_prior=lgp, log_dag_prior=ldp, delta_log_z=dlz, log_marginal=lml
    )


def _lex_subsets(candidates: range, max_size: int) -> list[tuple[int, ...]]:
    """All subsets with fewer than max_size elements, sorted so that the
    resulting edge lists compare lexicographically."""
    subs = [
        s
        for r in range(min(max_size, len(candidates) + 1))
        for s in itertools.combinations(candidates, r)
    ]
    subs.sort()
    return subs


class PosteriorTable:
    """Exact normalized posterior over all admissible (gamma, DAG) pairs.

    The domain is every inclusion vector below the complexity bound
    crossed with every DAG whose largest column stays below the bound.
    Given gamma the DAG part of the score factors over columns, so the
    table stores one (gamma x parent set) score matrix per column; the
    normalizer, argmax and point probabilities never materialize the
    full product space.  ``entries()`` iterates the full domain on demand.
    """

    def __init__(self, data: Dataset, hyper: Hyperparameters, engine: ScoreEngine):
        engine.check_serves(data, hyper)
        p = data.p
        R = hyper.effective_R(p)
        log_q, log_1mq = math.log(hyper.q), math.log1p(-hyper.q)
        self.p = p
        self.R = R

        # Admissible inclusion vectors in lexicographic order; the rows of gam.
        self.gammas: list[tuple[int, ...]] = [
            g for g in itertools.product((0, 1), repeat=p) if sum(g) < R
        ]
        self._gamma_index = {g: k for k, g in enumerate(self.gammas)}
        self._gam = gam = np.array(self.gammas, dtype=float)
        self._gamma_base = np.array(
            [-hyper.a * sum(g) + engine.marginal(tuple(j for j in range(p) if g[j]))
             for g in self.gammas]
        )

        # Per column: admissible parent sets (lexicographic, rows of member)
        # and the score of each (gamma, parent set) pair: edge prior plus
        # normalizer delta, plus the coupling bonus 2b * |gamma on the
        # parent set| when column c itself is active.
        self.col_subsets = [_lex_subsets(range(c + 1, p), R) for c in range(p)]
        self._col_index = [{s: k for k, s in enumerate(subs)} for subs in self.col_subsets]
        self._col_scores: list[np.ndarray] = []
        lse = self._gamma_base.copy()
        mx = self._gamma_base.copy()
        best_cols = []
        for c, subs in enumerate(self.col_subsets):
            member = np.array([[j in s for j in range(p)] for s in subs], dtype=float)
            nu = member.sum(axis=1)
            delta = np.array(engine.zcache.deltas([c] * len(subs), subs))
            terms = nu * log_q + (p - 1 - c - nu) * log_1mq + delta
            vals = terms + (2.0 * hyper.b) * (gam[:, [c]] * (gam @ member.T))
            lse += logsumexp(vals, axis=1)
            mx += vals.max(axis=1)
            best_cols.append(vals.argmax(axis=1))  # first maximum: lexicographically smallest
            self._col_scores.append(vals)
        self._gamma_lse = lse
        self.log_normalizer = float(logsumexp(lse))
        k = int(np.argmax(mx))  # first maximum, as for the parent sets
        self.argmax_gamma = np.array(self.gammas[k], dtype=np.int8)
        self.argmax_dag = Dag(p, tuple(subs[b[k]] for subs, b in zip(self.col_subsets, best_cols)))
        self.argmax_log_score = float(mx[k])

    # -- queries ---------------------------------------------------------

    def log_score(self, gamma, dag: Dag) -> float:
        g = tuple(int(v) for v in gamma)
        k = self._gamma_index.get(g)
        if k is None:
            return -math.inf
        total = self._gamma_base[k]
        for c in range(self.p):
            idx = self._col_index[c].get(dag.parents[c])
            if idx is None:
                return -math.inf
            total += self._col_scores[c][k, idx]
        return float(total)

    def log_prob(self, gamma, dag: Dag) -> float:
        return self.log_score(gamma, dag) - self.log_normalizer

    def prob(self, gamma, dag: Dag) -> float:
        return math.exp(self.log_prob(gamma, dag))

    def gamma_log_marginals(self) -> np.ndarray:
        """Log posterior mass of each admissible inclusion vector."""
        return self._gamma_lse - self.log_normalizer

    def variable_marginals(self) -> np.ndarray:
        """Posterior inclusion probability of each variable."""
        w = np.exp(self.gamma_log_marginals())
        return (w[:, None] * self._gam).sum(axis=0)

    @property
    def n_pairs(self) -> int:
        dags = 1
        for subs in self.col_subsets:
            dags *= len(subs)
        return len(self.gammas) * dags

    def entries(self):
        """Yield (gamma array, Dag, log_score, probability) over the domain."""
        for k, g in enumerate(self.gammas):
            base = self._gamma_base[k]
            cols = [v[k] for v in self._col_scores]
            for combo in itertools.product(*(range(len(s)) for s in self.col_subsets)):
                score = base + sum(cols[c][i] for c, i in enumerate(combo))
                dag = Dag(self.p, tuple(self.col_subsets[c][i] for c, i in enumerate(combo)))
                yield (
                    np.array(g, dtype=np.int8),
                    dag,
                    float(score),
                    math.exp(score - self.log_normalizer),
                )

    def to_csv(self, fh) -> None:
        """Stream the table as gamma-bitstring, edge list, log score, probability."""
        fh.write("gamma,dag_edges,log_score,probability\n")
        for g, dag, score, prob in self.entries():
            bits = "".join(str(int(v)) for v in g)
            edges = ";".join(f"{c + 1}-{j + 1}" for c, j in dag.edges())
            fh.write(f"{bits},{edges},{score!r},{prob!r}\n")


ENUMERATION_LIMIT = 6


def enumerate_posterior(data: Dataset, hyper: Hyperparameters) -> PosteriorTable:
    """Exhaustively normalized posterior table; refuses p above ENUMERATION_LIMIT."""
    if data.p > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"enumeration over p={data.p} exceeds the limit of {ENUMERATION_LIMIT}"
        )
    engine = ScoreEngine(data, hyper)
    return PosteriorTable(data, hyper, engine)
