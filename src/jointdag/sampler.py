"""Metropolis-within-Gibbs sampler over (inclusion vector, DAG).

Each sweep makes one add/delete move on the inclusion vector and then
one add/delete move on every DAG column, in column order.  Each move
type is one propose/delta/commit: a proposal kernel, a delta function
that returns the log posterior ratio (-inf outside the complexity
bound) with the increments to commit, and a step function that decides
and commits them.  The tests drive these same functions.

The state keeps the parent sets (the normalizer memo keys) beside one
dense symmetric adjacency matrix, whose rows give the graph neighbours
the coupling prior needs and whose running sum gives the edge inclusion
probabilities.

Reproducibility: a root seed derives one counter-based stream for the
inclusion moves and one per column, so the chain output is a pure
function of (data, hyperparameters, control).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
    per DAG column."""

    def __init__(self, seed: int, p: int):
        kids = np.random.SeedSequence(seed).spawn(p + 1)
        self.gamma = _Stream(kids[0])
        self.columns = [_Stream(kids[c + 1]) for c in range(p)]


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


def _propose_in_column(parents: tuple[int, ...], c: int, p: int, rng):
    """Add/delete proposal on the parent set of column c.

    Returns (toggled vertex, is_add, new parent tuple, forward log prob,
    reverse log prob).
    """
    nu = len(parents)
    K = p - 1 - c
    if nu == 0:
        is_add = True
        lqf = -math.log(K)
    elif nu == K:
        is_add = False
        lqf = -math.log(nu)
    elif rng.random() < 0.5:
        is_add = False
        lqf = _LOG_HALF - math.log(nu)
    else:
        is_add = True
        lqf = _LOG_HALF - math.log(K - nu)
    if is_add:
        nu2 = nu + 1
        base = c + 1
        while True:  # uniform over absent candidates by rejection
            j = base + int(rng.random() * K)
            if j not in parents:
                break
        new_pa = tuple(sorted(parents + (j,)))
        lqr = -math.log(nu2) if nu2 == K else _LOG_HALF - math.log(nu2)
    else:
        j = parents[int(rng.random() * nu)]
        nu2 = nu - 1
        new_pa = tuple(x for x in parents if x != j)
        lqr = -math.log(K - nu2) if nu2 == 0 else _LOG_HALF - math.log(K - nu2)
    return j, is_add, new_pa, lqf, lqr


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
        "gamma_list",
        "active",
        "parents",
        "G",
        "col_dlz",
        "n_edges",
        "mrf_log",
        "dag_prior_log",
        "dlz_total",
        "marginal_log",
        "iteration",
        "gamma_accepts",
        "gamma_proposals",
        "col_accepts",
        "col_proposals",
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
        self.gamma_list = [int(v) for v in self.gamma_arr]
        self.active = [int(j) for j in np.flatnonzero(self.gamma_arr)]
        self.parents = list(parents)
        dag = self.dag()
        # Wide ints: row-times-gamma neighbour counts must not wrap.
        self.G = adjacency(dag).astype(np.intp)
        self.n_edges = dag.n_edges
        self.col_dlz = [engine.zcache.delta(c, pa) for c, pa in enumerate(self.parents)]
        score = log_joint_score(self.gamma_arr, dag, engine.data, hyper, engine)
        self.mrf_log = score.log_gamma_prior
        self.dag_prior_log = score.log_dag_prior
        self.dlz_total = score.delta_log_z
        self.marginal_log = score.log_marginal
        self.iteration = 0
        self.gamma_accepts = 0
        self.gamma_proposals = 0
        self.col_accepts = [0] * max(p - 1, 0)
        self.col_proposals = [0] * max(p - 1, 0)

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


def _dag_delta(state: ChainState, c: int, j: int, is_add: bool, new_pa):
    """Log posterior ratio of toggling candidate j in column c (kernel terms
    excluded), with the new normalizer delta, edge-prior increment and
    coupling increment to commit; (-inf, None, 0.0, 0.0) when the new
    parent set reaches the complexity bound."""
    if is_add and len(new_pa) >= state.R:
        return -math.inf, None, 0.0, 0.0
    dlz_new = state.engine.zcache.delta(c, new_pa)
    dprior = state.dprior_add if is_add else -state.dprior_add
    dmrf = 0.0
    glist = state.gamma_list
    if state.b2 != 0.0 and glist[c] and glist[j]:
        dmrf = state.b2 if is_add else -state.b2
    return dlz_new - state.col_dlz[c] + dprior + dmrf, dlz_new, dprior, dmrf


def _gamma_step(state: ChainState, stream) -> bool:
    state.gamma_proposals += 1
    k, adding, lqf, lqr = propose_gamma(state.gamma_arr, stream)
    delta, new_active, new_marg, dmrf = _gamma_flip_parts(state, k, adding)
    if new_active is None:
        return False  # prior bound: zero-probability proposal
    d = delta + (lqr - lqf)
    if d < 0.0 and stream.random() >= math.exp(d):
        return False
    state.gamma_arr[k] = state.gamma_list[k] = 1 if adding else 0
    state.active = new_active
    state.mrf_log += dmrf
    state.marginal_log = new_marg
    state.gamma_accepts += 1
    return True


def _column_step(state: ChainState, c: int, stream) -> int:
    state.col_proposals[c] += 1
    j, is_add, new_pa, lqf, lqr = _propose_in_column(state.parents[c], c, state.p, stream)
    d, dlz_new, dprior, dmrf = _dag_delta(state, c, j, is_add, new_pa)
    if dlz_new is None:
        return 0  # prior bound: zero-probability proposal
    d += lqr - lqf
    if not (d >= 0.0 or stream.random() < math.exp(d)):
        return 0
    state.col_accepts[c] += 1
    state.parents[c] = new_pa
    state.dlz_total += dlz_new - state.col_dlz[c]
    state.col_dlz[c] = dlz_new
    state.dag_prior_log += dprior
    state.mrf_log += dmrf
    state.G[c, j] = state.G[j, c] = 1 if is_add else 0
    state.n_edges += 1 if is_add else -1
    return 1


def gibbs_sweep(state: ChainState, streams: ChainStreams) -> tuple[bool, int]:
    """One full sweep, mutating the state.

    Returns whether the inclusion-vector move was accepted and how many
    column moves were.
    """
    accepted_gamma = _gamma_step(state, streams.gamma)
    n_col_accepts = 0
    columns = streams.columns
    for c in range(state.p - 1):
        n_col_accepts += _column_step(state, c, columns[c])
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
    dag_acceptance: np.ndarray  # per column; NaN where never proposed
    n_kept: int
    seed: int
    iters: int = 0
    burnin: int = 0
    final_log_score: float = field(default=math.nan)

    @property
    def p(self) -> int:
        return self.inclusion_probs.shape[0]


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
    streams = ChainStreams(control.seed, data.p)
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
                            "edges": state.n_edges,
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

    kept = control.iters - control.burnin
    proposals = np.array(state.col_proposals, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        dag_acc = np.array(state.col_accepts, dtype=float) / proposals
    return ChainSummary(
        inclusion_probs=var_cum / kept,
        edge_probs=np.triu(edge_cum, 1) / kept,
        gamma_acceptance=state.gamma_accepts / max(state.gamma_proposals, 1),
        dag_acceptance=dag_acc,
        n_kept=kept,
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
