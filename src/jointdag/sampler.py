"""Metropolis-within-Gibbs sampler over (inclusion vector, DAG).

Each sweep makes one add/delete move on the inclusion vector and then
one add/delete move on every DAG column.  Given the inclusion vector the
column moves are independent (each column's score terms are its own
normalizer factor, edge prior and coupling terms whose endpoints are
fixed), so a sweep proposes, scores and accepts them all at once.  Each
move type is one propose/delta/commit: a proposal kernel, a delta
function that returns the log posterior ratio (-inf outside the
complexity bound) with the increments to commit, and a step function
that decides and commits them.  The tests drive these same functions.

The state keeps the parent sets (the normalizer memo keys) beside one
dense symmetric adjacency matrix, whose rows give the graph neighbours
the coupling prior needs and whose running sum gives the edge inclusion
probabilities.

Reproducibility: a root seed derives two counter-based streams, one for
the inclusion moves and one for the column moves.  Each sweep draws one
(p - 1) x 3 block of uniforms from the column stream, row c holding
column c's direction, candidate and acceptance draws, so the chain
output is a pure function of (data, hyperparameters, control).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import compress, count

import numpy as np

from .errors import DimensionError, InitializationError, InternalConsistencyError
from .graphs import Dag, adjacency
from .scoring import ScoreEngine, log_joint_score
from .simdata import Dataset
from .spike_slab import Hyperparameters

_LOG_HALF = math.log(0.5)
SPOT_CHECK_EVERY = 1000  # sweeps between check_state_consistency calls


class _Stream:
    """Buffered uniform draws from one counter-based bit generator."""

    __slots__ = ("_gen", "_buf", "_i")
    _BLOCK = 1024

    def __init__(self, seedseq):
        self._gen = np.random.Generator(np.random.Philox(seedseq))
        self._buf = self._gen.random(self._BLOCK).tolist()
        self._i = 0

    def random(self) -> float:
        i = self._i
        if i == self._BLOCK:
            self._buf = self._gen.random(self._BLOCK).tolist()
            i = 0
        self._i = i + 1
        return self._buf[i]


class ChainStreams:
    """Independent random streams: one for the inclusion vector and one
    for the column moves, from which each sweep draws one block."""

    def __init__(self, seed: int):
        kids = np.random.SeedSequence(seed).spawn(2)
        self.gamma = _Stream(kids[0])
        self.columns = np.random.Generator(np.random.Philox(kids[1]))


# ---------------------------------------------------------------------------
# Proposal kernels


def propose_gamma(gamma: np.ndarray, rng):
    """Add/delete proposal on the inclusion vector.

    With probability 1/2 a uniformly chosen active coordinate is cleared,
    otherwise a uniformly chosen inactive coordinate is set; when only
    one direction exists it is taken with probability 1.  Returns (flipped
    coordinate, is_add, forward log prob, reverse log prob).
    """
    g = np.asarray(gamma)
    p = g.shape[0]
    ones = np.flatnonzero(g)
    k1 = ones.shape[0]
    k0 = p - k1
    if k1 == 0:
        do_delete = False
        lqf = -math.log(k0)
    elif k0 == 0:
        do_delete = True
        lqf = -math.log(k1)
    else:
        do_delete = rng.random() < 0.5
        lqf = _LOG_HALF - math.log(k1 if do_delete else k0)
    if do_delete:
        k = int(ones[int(rng.random() * k1)])
        n1 = k1 - 1
        lqr = -math.log(p - n1) if n1 == 0 else _LOG_HALF - math.log(p - n1)
    else:
        zeros = np.flatnonzero(g == 0)
        k = int(zeros[int(rng.random() * k0)])
        n1 = k1 + 1
        lqr = -math.log(n1) if n1 == p else _LOG_HALF - math.log(n1)
    return k, not do_delete, float(lqf), float(lqr)


def _propose_columns(parents: list[tuple[int, ...]], u: np.ndarray):
    """Add/delete proposal on the parent set of every column at once.

    Row c of ``u`` (one row per column but the last, which has no
    candidates) holds column c's uniforms: direction, candidate and
    acceptance; the kernel reads the first two.  Column c's candidates
    are ``c+1 .. p-1``.  A direction uniform below 1/2 deletes a
    uniformly chosen parent, otherwise a uniformly chosen absent
    candidate is added; when only one direction exists it is taken with
    probability 1.  Returns (toggled vertices, is_add, new parent tuples,
    forward log probs, reverse log probs), one entry per column.
    """
    m = u.shape[0]
    nu = np.fromiter(map(len, parents[:m]), dtype=np.intp, count=m)
    K = np.arange(m, 0, -1)
    is_add = (nu == 0) | ((nu < K) & (u[:, 0] >= 0.5))
    nu2 = np.where(is_add, nu + 1, nu - 1)
    pool = np.where(is_add, K - nu, nu)  # candidates of the chosen direction
    pool_r = np.where(is_add, nu2, K - nu2)
    lqf = np.where((nu == 0) | (nu == K), 0.0, _LOG_HALF) - np.log(pool)
    lqr = np.where((nu2 == 0) | (nu2 == K), 0.0, _LOG_HALF) - np.log(pool_r)
    js = []
    new_pa = []
    picks = (u[:, 1] * pool).astype(np.intp).tolist()
    for c, pa, add, k in zip(count(), parents, is_add.tolist(), picks):
        if add:  # the k-th absent candidate, counted over the sorted parents
            j = c + 1 + k
            pos = 0
            for x in pa:
                if x > j:
                    break
                j += 1
                pos += 1
            new_pa.append(pa[:pos] + (j,) + pa[pos:] if pa else (j,))
        else:
            j = pa[k]
            new_pa.append(pa[:k] + pa[k + 1 :])
        js.append(j)
    return js, is_add, new_pa, lqf, lqr


# ---------------------------------------------------------------------------
# Chain state


class ChainState:
    """Mutable sampler state with incrementally maintained score parts.

    ``engine`` holds the memos, which may be shared with other chains on
    the same data; ``hyper`` is this chain's own prior (``a``, ``b``,
    ``q``, ``R``).  The cached components always match a fresh scoring
    call up to float drift; ``check_state_consistency`` verifies and
    refreshes them.
    """

    __slots__ = (
        "engine",
        "hyper",
        "p",
        "R",
        "a_pen",
        "b2",
        "dprior_add",
        "gamma_arr",
        "active",
        "parents",
        "G",
        "col_dlz",
        "mrf_log",
        "dag_prior_log",
        "dlz_total",
        "marginal_log",
        "iteration",
        "gamma_accepts",
        "col_accepts",
    )

    def __init__(
        self,
        engine: ScoreEngine,
        hyper: Hyperparameters,
        gamma: np.ndarray,
        parents: list[tuple[int, ...]],
    ):
        p = engine.p
        self.engine = engine
        self.hyper = hyper
        self.p = p
        self.R = hyper.effective_R(p)
        self.a_pen = hyper.a
        self.b2 = 2.0 * hyper.b
        self.dprior_add = math.log(hyper.q) - math.log1p(-hyper.q)
        self.gamma_arr = np.asarray(gamma, dtype=np.int8).copy()
        self.active = [int(j) for j in np.flatnonzero(self.gamma_arr)]
        self.parents = list(parents)
        dag = self.dag()
        # Wide ints: row-times-gamma neighbour counts must not wrap.
        self.G = adjacency(dag).astype(np.intp)
        self.col_dlz = np.array(engine.zcache.deltas(range(p), self.parents))
        score = log_joint_score(self.gamma_arr, dag, engine.data, hyper, engine)
        self.mrf_log = score.log_gamma_prior
        self.dag_prior_log = score.log_dag_prior
        self.dlz_total = score.delta_log_z
        self.marginal_log = score.log_marginal
        self.iteration = 0
        self.gamma_accepts = 0
        self.col_accepts = np.zeros(max(p - 1, 0), dtype=np.intp)

    def dag(self) -> Dag:
        return Dag(self.p, tuple(self.parents))

    @property
    def log_score(self) -> float:
        return self.mrf_log + self.dag_prior_log + self.dlz_total + self.marginal_log


def init_state(
    data: Dataset,
    hyper: Hyperparameters,
    init="empty",
    corr_threshold: float = 0.25,
    engine: ScoreEngine | None = None,
) -> ChainState:
    """Build the starting state: empty model, a marginal-correlation
    warm start for the DAG, or an explicit (gamma, dag) pair.

    A given ``engine`` must have been built for this ``data`` object and
    the same memo inputs (see ``ScoreEngine``), else ValueError.
    """
    if engine is None:
        engine = ScoreEngine(data, hyper)
    else:
        engine.check_serves(data, hyper)
    p = data.p
    if isinstance(init, tuple):
        gamma0, dag0 = init
        gamma = np.asarray(gamma0, dtype=np.int8)
        if gamma.shape != (p,) or dag0.p != p:
            raise DimensionError("init state dimensions do not match the data")
        parents = list(dag0.parents)
    elif init == "empty":
        gamma = np.zeros(p, dtype=np.int8)
        parents = [() for _ in range(p)]
    elif init == "corr":
        gamma = np.zeros(p, dtype=np.int8)
        parents = _corr_init(data, corr_threshold, hyper.effective_R(p))
    else:
        raise ValueError(f"unknown init mode {init!r}")
    state = ChainState(engine, hyper, gamma, parents)
    if not np.isfinite(state.log_score):
        raise InitializationError(
            f"initial state has non-finite score {state.log_score}"
        )
    return state


def _corr_init(data: Dataset, threshold: float, R: int) -> list[tuple[int, ...]]:
    """Per-column warm start: parents are the larger-indexed covariates whose
    marginal correlation with the column exceeds the threshold (strongest
    first, capped below the complexity bound).

    A constant column has no defined correlation; it counts as zero, so
    such a column gets no warm-start parents and is never one.  The chain
    itself may still add its edges: scoring stays well defined because
    ``U + X'X`` and ``I + tau2 X'X`` remain positive definite.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(data.X.T)
    corr = np.nan_to_num(corr)
    p = data.p
    parents = []
    for c in range(p):
        cand = [(abs(corr[c, j]), j) for j in range(c + 1, p) if abs(corr[c, j]) > threshold]
        cand.sort(reverse=True)
        keep = sorted(j for _, j in cand[: max(R - 1, 0)])
        parents.append(tuple(keep))
    return parents


# ---------------------------------------------------------------------------
# Sweeps


def _gamma_flip_parts(state: ChainState, k: int, adding: bool):
    """Log posterior ratio of flipping variable k (kernel terms excluded),
    with the new active list, marginal and prior increment to commit;
    (-inf, None, 0.0, 0.0) when the flip reaches the complexity bound."""
    if adding and len(state.active) + 1 >= state.R:
        return -math.inf, None, 0.0, 0.0
    nbr = int(state.G[k] @ state.gamma_arr)
    dmrf = (-state.a_pen + state.b2 * nbr) if adding else (state.a_pen - state.b2 * nbr)
    if adding:
        new_active = sorted(state.active + [k])
    else:
        new_active = [x for x in state.active if x != k]
    new_marg = state.engine.marginal(tuple(new_active))
    return dmrf + (new_marg - state.marginal_log), new_active, new_marg, dmrf


def _column_deltas(state: ChainState, js: list[int], is_add: np.ndarray, new_pa):
    """Log posterior ratio of each column's proposed toggle (kernel terms
    excluded), with the new normalizer deltas, edge-prior increments and
    coupling increments to commit; a column whose new parent set reaches
    the complexity bound gets -inf and no normalizer lookup."""
    m = len(new_pa)
    is_open = np.fromiter(map(len, new_pa), dtype=np.intp, count=m) < state.R
    dlz_new = np.full(m, -np.inf)
    keep = is_open.tolist()
    cols, sets = list(compress(range(m), keep)), list(compress(new_pa, keep))
    dlz_new[is_open] = state.engine.zcache.deltas(cols, sets)
    sign = np.where(is_add, 1.0, -1.0)
    dprior = sign * state.dprior_add
    g = state.gamma_arr
    dmrf = sign * state.b2 * (g[:m] * g[js])  # both ends active
    return dlz_new - state.col_dlz[:m] + dprior + dmrf, dlz_new, dprior, dmrf


def _gamma_step(state: ChainState, stream) -> bool:
    k, adding, lqf, lqr = propose_gamma(state.gamma_arr, stream)
    delta, new_active, new_marg, dmrf = _gamma_flip_parts(state, k, adding)
    if new_active is None:
        return False  # prior bound: zero-probability proposal
    d = delta + (lqr - lqf)
    if d < 0.0 and stream.random() >= math.exp(d):
        return False
    state.gamma_arr[k] = 1 if adding else 0
    state.active = new_active
    state.mrf_log += dmrf
    state.marginal_log = new_marg
    state.gamma_accepts += 1
    return True


def _column_sweep(state: ChainState, u: np.ndarray) -> int:
    """One move per column from the uniform block ``u`` (see
    ``_propose_columns``); returns how many were accepted."""
    js, is_add, new_pa, lqf, lqr = _propose_columns(state.parents, u)
    d, dlz_new, dprior, dmrf = _column_deltas(state, js, is_add, new_pa)
    d += lqr - lqf
    acc = np.flatnonzero((d >= 0.0) | (u[:, 2] < np.exp(np.minimum(d, 0.0))))
    cols = acc.tolist()
    for c in cols:
        state.parents[c] = new_pa[c]
    jj = [js[c] for c in cols]
    state.G[acc, jj] = state.G[jj, acc] = is_add[acc]
    state.dlz_total += float(np.sum(dlz_new[acc] - state.col_dlz[acc]))
    state.col_dlz[acc] = dlz_new[acc]
    state.dag_prior_log += float(np.sum(dprior[acc]))
    state.mrf_log += float(np.sum(dmrf[acc]))
    state.col_accepts[acc] += 1
    return len(cols)


def gibbs_sweep(state: ChainState, streams: ChainStreams) -> tuple[bool, int]:
    """One full sweep, mutating the state.

    Returns whether the inclusion-vector move was accepted and how many
    column moves were.
    """
    accepted_gamma = _gamma_step(state, streams.gamma)
    n_col_accepts = _column_sweep(state, streams.columns.random((state.p - 1, 3)))
    state.iteration += 1
    return accepted_gamma, n_col_accepts


def check_state_consistency(state: ChainState, tol: float = 1e-6, refresh: bool = True) -> float:
    """Compare cached score parts against ``log_joint_score``.

    The fresh score reads the same normalizer and likelihood memos as the
    chain, so this checks the incremental bookkeeping, not the memoized
    values.  Raises InternalConsistencyError beyond ``tol`` (a
    delta-update bug); otherwise optionally refreshes the caches to stop
    float drift and returns the largest absolute difference seen.
    """
    engine = state.engine
    fresh = log_joint_score(state.gamma_arr, state.dag(), engine.data, state.hyper, engine)
    parts = (
        ("mrf_log", fresh.log_gamma_prior),
        ("dag_prior_log", fresh.log_dag_prior),
        ("dlz_total", fresh.delta_log_z),
        ("marginal_log", fresh.log_marginal),
    )
    worst = max(abs(value - getattr(state, name)) for name, value in parts)
    if worst > tol:
        raise InternalConsistencyError(
            f"cached score components diverged by {worst:.3e} at sweep {state.iteration}"
        )
    if refresh:
        for name, value in parts:
            setattr(state, name, value)
    return worst


# ---------------------------------------------------------------------------
# Chain driver


@dataclass
class ChainControl:
    """Run-length, seeding, and start options for one chain."""

    iters: int = 10000
    burnin: int = 5000
    seed: int = 0
    init: object = "empty"  # "empty" | "corr" | (gamma, dag)
    trace: object = None  # path for line-delimited sweep records

    def __post_init__(self):
        if self.burnin < 0 or self.iters <= self.burnin:
            raise ValueError(
                f"iters must exceed burnin >= 0, got iters={self.iters}, burnin={self.burnin}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class ChainSummary:
    """Post-burn-in averages and acceptance diagnostics of one chain."""

    inclusion_probs: np.ndarray
    edge_probs: np.ndarray  # [child, parent] with parent > child
    gamma_acceptance: float
    dag_acceptance: np.ndarray  # per column
    seed: int
    iters: int = 0
    burnin: int = 0
    final_log_score: float = field(default=math.nan)

    @property
    def p(self) -> int:
        return self.inclusion_probs.shape[0]

    @property
    def n_kept(self) -> int:
        return self.iters - self.burnin


def run_chain(
    data: Dataset,
    hyper: Hyperparameters,
    control: ChainControl,
    engine: ScoreEngine | None = None,
) -> ChainSummary:
    """Run one chain and average inclusion indicators over kept sweeps.

    Snapshot t is the state after sweep t; it is kept when
    burnin < t <= iters.  Variable and edge indicators are summed over
    kept snapshots as exact integer counts; the state's adjacency and the
    edge sums are dense p x p integer arrays, 2 * p**2 * 8 bytes per
    chain.  Output is deterministic in (data, hyper, control).

    ``engine`` lends the chain memos that other chains on the same
    ``data`` object filled (``init_state`` checks that it fits); it
    changes no output, only how many memo misses the chain makes.
    """
    state = init_state(data, hyper, init=control.init, engine=engine)
    streams = ChainStreams(control.seed)
    var_cum = np.zeros(data.p, dtype=np.intp)
    edge_cum = np.zeros((data.p, data.p), dtype=np.intp)

    trace_fh = open(control.trace, "w") if control.trace else None
    try:
        for s in range(1, control.iters + 1):
            acc_g, acc_d = gibbs_sweep(state, streams)
            if s > control.burnin:
                var_cum += state.gamma_arr
                edge_cum += state.G
            if trace_fh is not None:
                trace_fh.write(
                    json.dumps(
                        {
                            "iter": s,
                            "size": len(state.active),
                            "edges": sum(map(len, state.parents)),
                            "log_score": state.log_score,
                            "accept_gamma": bool(acc_g),
                            "dag_accepts": acc_d,
                        }
                    )
                    + "\n"
                )
            if s % SPOT_CHECK_EVERY == 0:
                check_state_consistency(state)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    check_state_consistency(state)

    # Every sweep proposes one inclusion move and one move per column.
    kept = control.iters - control.burnin
    return ChainSummary(
        inclusion_probs=var_cum / kept,
        edge_probs=np.triu(edge_cum, 1) / kept,
        gamma_acceptance=state.gamma_accepts / control.iters,
        dag_acceptance=state.col_accepts / control.iters,
        seed=control.seed,
        iters=control.iters,
        burnin=control.burnin,
        final_log_score=state.log_score,
    )


def median_probability_model(summary: ChainSummary) -> tuple[np.ndarray, Dag]:
    """Variables and edges whose inclusion probability strictly exceeds 1/2."""
    gamma = (summary.inclusion_probs > 0.5).astype(np.int8)
    p = summary.p
    edges = [
        (c, j)
        for c in range(p)
        for j in range(c + 1, p)
        if summary.edge_probs[c, j] > 0.5
    ]
    return gamma, Dag.from_edges(p, edges)
