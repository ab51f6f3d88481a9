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

The state keeps one dense symmetric adjacency matrix, whose rows give
the graph neighbours the coupling prior needs, and three arrays over
columns 0 .. p-2 (the last column has no candidates): each column's
parent count, its packed parent bitset, whose bytes are its normalizer
memo key, and its row of an order table, which lists its parents and
then its absent candidates, each in ascending order.  One gather from
the order table gives every column's toggle target, and one
copy-and-xor of the bitsets gives every proposed memo key.  Only memo
misses are unpacked into index rows, and parent tuples are built only
for ``parents`` and ``dag()``.  The chain counts each variable's and
each edge's kept sweeps from the sweeps at which it switches, so the
counts cost one update per accepted move.

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

import numpy as np

from .dag_wishart import pack_bitsets
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


def propose_gamma(active: list[int], p: int, rng):
    """Add/delete proposal on a length-p inclusion vector whose active
    coordinates are the ascending list ``active``.

    With probability 1/2 a uniformly chosen active coordinate is cleared,
    otherwise a uniformly chosen inactive coordinate is set; when only
    one direction exists it is taken with probability 1.  Returns (flipped
    coordinate, is_add, forward log prob, reverse log prob).
    """
    k1 = len(active)
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
        k = active[int(rng.random() * k1)]
        n1 = k1 - 1
        lqr = -math.log(p - n1) if n1 == 0 else _LOG_HALF - math.log(p - n1)
    else:
        k = int(rng.random() * k0)  # the k-th inactive coordinate, counted from 0
        for j in active:
            if j > k:
                break
            k += 1
        n1 = k1 + 1
        lqr = -math.log(n1) if n1 == p else _LOG_HALF - math.log(n1)
    return k, not do_delete, float(lqf), float(lqr)


def _propose_columns(nu: np.ndarray, order: np.ndarray, u: np.ndarray):
    """Add/delete proposal on the parent set of every column at once.

    ``nu`` and ``order`` are the columns' parent counts and order table
    (see ``_order_rows``).  Row c of ``u`` (one row per column but the
    last, which has no candidates) holds column c's uniforms: direction,
    candidate and acceptance; the kernel reads the first two.  Column c's
    candidates are ``c+1 .. p-1``.  A direction uniform below 1/2 deletes
    a uniformly chosen parent, otherwise a uniformly chosen absent
    candidate is added; when only one direction exists it is taken with
    probability 1.  Returns (toggled vertices, is_add, forward log probs,
    reverse log probs), one entry per column.
    """
    m = u.shape[0]
    K = np.arange(m, 0, -1)  # candidates per column
    absent = K - nu
    one_way = nu * absent == 0
    is_add = np.where(one_way, nu == 0, u[:, 0] >= 0.5)
    pool = np.where(is_add, absent, nu)  # candidates of the chosen direction
    lqf = np.where(one_way, 0.0, _LOG_HALF) - np.log(pool)
    # The reverse move chooses among the other direction's candidates and
    # the toggled one; only its direction exists iff pool was 1.
    lqr = np.where(pool == 1, 0.0, _LOG_HALF) - np.log(K + 1 - pool)
    # The k-th parent sits at k in the order row, the k-th absent one at nu + k.
    picks = (u[:, 1] * pool).astype(np.intp)
    picks += nu * is_add
    js = order[np.arange(m), picks]
    return js, is_add, lqf, lqr


def _order_rows(G: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows ``cols`` of the order table of the adjacency ``G``: column c's
    parents in ascending order, then its absent candidates in ascending
    order, then the vertices up to c, which are no candidates of c; p - 1
    entries per row."""
    p = G.shape[0]
    rank = G[cols]
    np.subtract(1, rank, out=rank)  # 0 for a parent, 1 for an absent candidate
    rank[np.arange(p) <= cols[:, np.newaxis]] = 2
    return rank.argsort(axis=1, kind="stable")[:, : p - 1]


def _column_arrays(G: np.ndarray):
    """Parent counts, packed parent bitsets and order table of the columns
    0 .. p-2 of the adjacency ``G``; the table takes the smallest unsigned
    integer type that holds a vertex index."""
    p = G.shape[0]
    member = np.triu(G[: p - 1] != 0, 1)
    order = _order_rows(G, np.arange(p - 1)).astype(np.min_scalar_type(p))
    return member.sum(axis=1), pack_bitsets(member), order


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
        "G",
        "nu",
        "bits",
        "order",
        "singletons",
        "columns",
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
        dag = Dag(p, tuple(parents))
        # Wide ints: row-times-gamma neighbour counts must not wrap.
        self.G = adjacency(dag).astype(np.intp)
        self.nu, self.bits, self.order = _column_arrays(self.G)
        self.singletons = pack_bitsets(np.eye(p, dtype=bool))  # row j: the bitset of {j}
        self.columns = np.arange(p - 1)
        # The last column has no candidates, so its bitset is the empty set's.
        bits = np.concatenate([self.bits, np.zeros_like(self.singletons[:1])])
        self.col_dlz = engine.zcache.packed_deltas(np.arange(p), bits)
        score = log_joint_score(self.gamma_arr, dag, engine.data, hyper, engine)
        self.mrf_log = score.log_gamma_prior
        self.dag_prior_log = score.log_dag_prior
        self.dlz_total = score.delta_log_z
        self.marginal_log = score.log_marginal
        self.iteration = 0
        self.gamma_accepts = 0
        self.col_accepts = np.zeros(max(p - 1, 0), dtype=np.intp)

    @property
    def parents(self) -> list[tuple[int, ...]]:
        """Each column's parent set in ascending order, read from the order
        table; a new list on every access."""
        rows = zip(self.order, self.nu.tolist())
        return [tuple(row[:n].tolist()) for row, n in rows] + [()]

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


def _column_deltas(state: ChainState, js: np.ndarray, is_add: np.ndarray):
    """Log posterior ratio of each column's proposed toggle (kernel terms
    excluded), with the new normalizer deltas, the new packed parent
    bitsets and the increments of ``dlz_total``, ``dag_prior_log`` and
    ``mrf_log`` to commit, the rows of a 3 x m array; a column whose new
    parent set reaches the complexity bound gets -inf and no normalizer
    lookup."""
    m = js.shape[0]
    sign = np.where(is_add, 1.0, -1.0)
    new_bits = state.bits ^ state.singletons[js]
    lookup = state.engine.zcache.packed_deltas
    is_open = state.nu + sign < state.R
    if is_open.all():
        dlz_new = lookup(state.columns, new_bits)
    else:
        cols = is_open.nonzero()[0]
        dlz_new = np.full(m, -np.inf)
        dlz_new[cols] = lookup(cols, new_bits[cols])
    inc = np.empty((3, m))
    np.subtract(dlz_new, state.col_dlz[:m], out=inc[0])
    np.multiply(sign, state.dprior_add, out=inc[1])
    g = state.gamma_arr
    np.multiply(sign * state.b2, g[:m] * g[js], out=inc[2])  # both ends active
    return inc[0] + inc[1] + inc[2], dlz_new, new_bits, inc


def _gamma_step(state: ChainState, stream) -> int | None:
    """One inclusion-vector move; returns the flipped variable, or None."""
    k, adding, lqf, lqr = propose_gamma(state.active, state.p, stream)
    delta, new_active, new_marg, dmrf = _gamma_flip_parts(state, k, adding)
    if new_active is None:
        return None  # prior bound: zero-probability proposal
    d = delta + (lqr - lqf)
    if d < 0.0 and stream.random() >= math.exp(d):
        return None
    state.gamma_arr[k] = 1 if adding else 0
    state.active = new_active
    state.mrf_log += dmrf
    state.marginal_log = new_marg
    state.gamma_accepts += 1
    return k


def _column_sweep(state: ChainState, u: np.ndarray):
    """One move per column from the uniform block ``u`` (see
    ``_propose_columns``); returns the accepted columns, the candidates
    they toggled and whether each was added."""
    js, is_add, lqf, lqr = _propose_columns(state.nu, state.order, u)
    d, dlz_new, new_bits, inc = _column_deltas(state, js, is_add)
    d += lqr - lqf
    # Accept with probability min(1, exp(d)); exp(0) = 1 exceeds every uniform.
    np.minimum(d, 0.0, out=d)
    accepted = u[:, 2] < np.exp(d, out=d)
    acc = accepted.nonzero()[0]
    jj, added = js[acc], is_add[acc]
    state.G[acc, jj] = state.G[jj, acc] = added
    state.bits[acc] = new_bits[acc]
    state.nu[acc] += np.where(added, 1, -1)
    state.order[acc] = _order_rows(state.G, acc)
    dlz, dprior, dmrf = inc[:, acc]
    state.dlz_total += float(dlz.sum())
    state.dag_prior_log += float(dprior.sum())
    state.mrf_log += float(dmrf.sum())
    state.col_dlz[acc] = dlz_new[acc]
    state.col_accepts += accepted
    return acc, jj, added


def gibbs_sweep(state: ChainState, streams: ChainStreams):
    """One full sweep, mutating the state.

    Returns the variable the inclusion-vector move flipped (None when it
    was rejected), then the columns whose moves were accepted, the
    candidates they toggled and whether each was added, as arrays.
    """
    flipped = _gamma_step(state, streams.gamma)
    moves = _column_sweep(state, streams.columns.random((state.p - 1, 3)))
    state.iteration += 1
    return (flipped, *moves)


def check_state_consistency(state: ChainState, tol: float = 1e-6, refresh: bool = True) -> float:
    """Compare cached score parts against ``log_joint_score``.

    The column arrays (parent counts, packed parent bitsets and order
    table) must equal those rebuilt from the adjacency, else
    InternalConsistencyError.  The fresh score reads the same normalizer
    and likelihood memos as the chain, so this checks the incremental
    bookkeeping, not the memoized values.  Raises
    InternalConsistencyError beyond ``tol`` (a delta-update bug);
    otherwise optionally refreshes the caches to stop float drift and
    returns the largest absolute difference seen.
    """
    for name, fresh_arr in zip(("nu", "bits", "order"), _column_arrays(state.G)):
        if not np.array_equal(getattr(state, name), fresh_arr):
            raise InternalConsistencyError(
                f"column array {name} disagrees with the adjacency at sweep {state.iteration}"
            )
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
    burnin < t <= iters.  Variable and edge indicators are counted over
    kept snapshots as exact integers: a switch at sweep s changes the
    indicator in the kept snapshots max(s, burnin + 1) .. iters, so each
    accepted move adds or subtracts that many.  The state's adjacency and
    order table and the edge counts are dense integer arrays of about
    p x p, 3 * p**2 * 8 bytes per chain.  Output is deterministic in
    (data, hyper, control).

    ``engine`` lends the chain memos that other chains on the same
    ``data`` object filled (``init_state`` checks that it fits); it
    changes no output, only how many memo misses the chain makes.
    """
    state = init_state(data, hyper, init=control.init, engine=engine)
    streams = ChainStreams(control.seed)
    kept = control.iters - control.burnin
    var_cum = kept * state.gamma_arr.astype(np.intp)
    edge_cum = np.triu(state.G, 1)
    edge_cum *= kept

    trace_fh = open(control.trace, "w") if control.trace else None
    try:
        for s in range(1, control.iters + 1):
            flipped, cols, targets, added = gibbs_sweep(state, streams)
            w = control.iters + 1 - max(s, control.burnin + 1)
            if flipped is not None:
                var_cum[flipped] += w if state.gamma_arr[flipped] else -w
            edge_cum[cols, targets] += np.where(added, w, -w)
            if trace_fh is not None:
                trace_fh.write(
                    json.dumps(
                        {
                            "iter": s,
                            "size": len(state.active),
                            "edges": int(state.nu.sum()),
                            "log_score": state.log_score,
                            "accept_gamma": flipped is not None,
                            "dag_accepts": len(cols),
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
    return ChainSummary(
        inclusion_probs=var_cum / kept,
        edge_probs=edge_cum / kept,
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
