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

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .dag_wishart import ColumnZDeltaCache, _chol_diagonals, _cholesky, _log_sums
from .errors import DimensionError, EnumerationLimitError, NotPositiveDefiniteError
from .graphs import Dag, adjacency, log_prior_dag
from .simdata import Dataset
from .spike_slab import Hyperparameters, log_mrf_prior


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

    The integrated likelihood of the model g with k selected columns
    Xg integrates the slab coefficients out of Y ~ N(Xg beta, sigma2 I),
    beta ~ N(0, tau2 sigma2 I), which leaves Y ~ N(0, sigma2 (I_n + tau2
    Xg Xg')).  Up to model-independent constants its log is

        -logdet/2 - quad / (2 sigma2)                   (known sigma2)
        -logdet/2 - (n/2 + a0) log(b0 + quad/2)         (sigma2 ~ IG(a0, b0))

    with the n-dimensional terms taken in k dimensions: Sylvester's
    identity gives logdet = log det(I_n + tau2 Xg Xg') = log det(M) for
    M = I_k + tau2 Xg'Xg, and the Woodbury identity gives quad =
    Y'(I_n + tau2 Xg Xg')^-1 Y = Y'Y - tau2 Y'Xg M^-1 Xg'Y.  Both come
    from one Cholesky factor of a block of the augmented Gram matrix

        A = [[I_p + tau2 X'X, tau X'Y],
             [tau Y'X,        Y'Y    ]]

    on the rows g + (p,): the factor of its leading block M gives logdet,
    and the block's last pivot squared is the Schur complement of M,
    which is quad.  Reading quad off the pivot, not as a difference of
    two log determinants, keeps its relative rounding error near 1e-16.
    ``marginal`` factors a miss's block with the normalizer's kernel
    ``_chol_diagonals``, and ``_likelihoods`` turns a factor's sum of log
    leading diagonal entries and its last pivot into a value, for the memo
    and, in one pass over all inclusion vectors, for ``PosteriorTable``,
    which factors its own blocks.

    When Y'Y = 0, X'Y = 0 too and every quad is 0, but A's last row is
    zero, so no block is positive definite.  A[p, p] then holds 1: every
    last pivot is exactly 1, and quad is that pivot squared less 1.

    The constructor factors a copy of A once and raises
    NotPositiveDefiniteError if it is not positive definite.  By Cauchy
    interlacing every principal block of A is at least as well
    conditioned as A, so a dataset whose likelihood blocks cannot be
    factored fails here, not part-way through a chain.

    Without a given U the scale is the identity, and the engine tells its
    normalizer memo so; a given U is compared with the identity once,
    so an explicit identity takes the same route.
    """

    def __init__(self, data: Dataset, hyper: Hyperparameters):
        p = data.p
        self.data = data
        self.p = p
        eye = np.eye(p)
        if hyper.U is None:
            self.U, identity = eye, True
        else:
            self.U = np.asarray(hyper.U, dtype=float)
            if self.U.shape != (p, p):
                raise DimensionError(f"scale matrix shape {self.U.shape} does not match p={p}")
            identity = np.array_equal(self.U, eye)
        self.memo_inputs = _memo_inputs(hyper)
        self.zcache = ColumnZDeltaCache(
            self.U, self.U + data.gram, data.n, hyper.alpha_offset, identity
        )
        self._marginal_memo: dict[tuple[int, ...], float] = {}
        self._quad_pad = 1.0 if data.yty == 0.0 else 0.0
        A = np.empty((p + 1, p + 1))
        A[:p, :p] = hyper.tau2 * data.gram + eye
        A[:p, p] = A[p, :p] = math.sqrt(hyper.tau2) * data.xty
        A[p, p] = data.yty + self._quad_pad
        _cholesky((A[np.newaxis].copy(),), "likelihood matrix")
        self._A = A

    def check_serves(self, data: Dataset, hyper: Hyperparameters) -> None:
        """Raise ValueError unless this engine's memos hold for (data, hyper)."""
        if data is not self.data:
            raise ValueError("score engine was built for another Dataset object")
        if hyper.U is None:
            same_U = self.zcache._identity
        else:
            same_U = np.array_equal(hyper.U, self.U)
        if _memo_inputs(hyper) != self.memo_inputs or not same_U:
            raise ValueError(
                "score engine was built for other memo inputs "
                "(tau2, sigma2, a0, b0, alpha_offset, U)"
            )

    def memo_entries(self) -> dict[str, int]:
        """Sizes of the normalizer and likelihood memos."""
        return {"normalizer": len(self.zcache), "marginal": len(self._marginal_memo)}

    def _likelihoods(self, half_logdet: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Integrated likelihoods from the Cholesky factors of blocks of A
        on the rows ``g + (p,)``: ``half_logdet`` holds each factor's sum of
        log leading diagonal entries and ``last`` its last diagonal entry."""
        logdet = 2.0 * half_logdet
        quad = last**2 - self._quad_pad
        _, sigma2, a0, b0, _ = self.memo_inputs
        if sigma2 is not None:
            return -0.5 * logdet - quad / (2.0 * sigma2)
        return -0.5 * logdet - 0.5 * (self.data.n + 2.0 * a0) * np.log(b0 + 0.5 * quad)

    def marginal(self, active: tuple[int, ...]) -> float:
        """Integrated response likelihood for the given active index tuple."""
        val = self._marginal_memo.get(active)
        if val is None:
            idx = np.array([active + (self.p,)], dtype=np.intp)
            diag = _chol_diagonals(self._A, idx, "likelihood matrix")
            half_logdet, _ = _log_sums([diag])
            val = float(self._likelihoods(half_logdet, diag[:, -1])[0])
            self._marginal_memo[active] = val
        return val


def _memo_inputs(hyper: Hyperparameters) -> tuple:
    """The scalar hyperparameters the engine's memos depend on (U aside)."""
    return (hyper.tau2, hyper.sigma2, hyper.a0, hyper.b0, hyper.alpha_offset)


def _checked_gamma(gamma, dag: Dag, p: int) -> np.ndarray:
    """``gamma`` as an array, after checking it and ``dag`` against p."""
    g = np.asarray(gamma)
    if g.shape != (p,):
        raise DimensionError(f"gamma length {g.shape} does not match p={p}")
    if dag.p != p:
        raise DimensionError(f"dag has {dag.p} vertices but data has p={p}")
    return g


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
    g = _checked_gamma(gamma, dag, data.p)
    if engine is None:
        try:
            engine = ScoreEngine(data, hyper)
        except NotPositiveDefiniteError as exc:
            raise _annotated("log_marginal", exc)
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


def _logsumexp(vals: np.ndarray, top) -> np.ndarray:
    """log(sum(exp(vals))) over the last axis, given its maximum ``top``
    (one per row); every entry of ``vals`` is finite."""
    return top + np.log(np.exp(vals - top[..., None]).sum(axis=-1))


def _lex_subsets(candidates: range, max_size: int) -> tuple[tuple[int, ...], ...]:
    """All subsets with fewer than max_size elements, sorted so that the
    resulting edge lists compare lexicographically."""
    sizes = range(min(max_size, len(candidates) + 1))
    return tuple(sorted(s for r in sizes for s in itertools.combinations(candidates, r)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _Plan:
    """Where a table's blocks and Cholesky diagonals lie; see ``_domain``."""

    gather: np.ndarray
    spans: tuple[tuple[int, int, tuple[int, int, int]], ...]
    diag_pos: np.ndarray


@dataclass(frozen=True)
class _Domain:
    """The data-independent part of a table at (p, R); see ``_domain``."""

    gammas: tuple[tuple[int, ...], ...]
    gamma_index: MappingProxyType
    gam: np.ndarray
    gam_sizes: np.ndarray
    col_subsets: tuple[tuple[tuple[int, ...], ...], ...]
    col_index: tuple[MappingProxyType, ...]
    key_nu: np.ndarray
    key_rest: np.ndarray
    col_slices: tuple[slice, ...]
    col_starts: np.ndarray
    col_counts: np.ndarray
    col_keys: np.ndarray
    coupling: np.ndarray
    identity_plan: _Plan
    general_plan: _Plan


def _plan(p: int, stacks, n_values: int) -> _Plan:
    """The ``_Plan`` of the blocks ``stacks`` lists, per block size m, as
    (kind, rows, values) triples: the index rows (count, m) of that
    kind's blocks in its matrix and the value each block gives.  Kinds
    are 0, 1 and 2 for A, U_post and U, which lie one after another in
    a flat source whose last entry holds 1.0."""
    offsets = ((p + 1) ** 2, p * p, p * p)  # each matrix's entry count
    width = len(stacks) - 1
    gather, spans = [], []
    diag_pos = np.empty((n_values, width + 1), dtype=np.intp)
    pad = sum(len(rows) * rows.shape[1] ** 2 for stack in stacks for _, rows, _ in stack)
    lo = 0
    for m, stack in enumerate(stacks, start=1):
        count = 0
        for kind, rows, values in stack:
            base = sum(offsets[:kind])
            n = p + 1 if kind == 0 else p
            gather.append((base + rows[:, :, np.newaxis] * n + rows[:, np.newaxis, :]).ravel())
            starts = lo + (count + np.arange(len(rows))) * m * m
            diag_pos[values, : m - 1] = starts[:, np.newaxis] + (m + 1) * np.arange(m - 1)
            diag_pos[values, m - 1 : width] = pad
            diag_pos[values, width] = starts + (m + 1) * (m - 1)
            count += len(rows)
        spans.append((lo, lo + count * m * m, (count, m, m)))
        lo += count * m * m
    gather.append(np.array([sum(offsets)]))  # the 1.0 that pads diag_pos
    return _Plan(
        gather=_frozen(np.concatenate(gather)),
        spans=tuple(spans),
        diag_pos=_frozen(diag_pos),
    )


@functools.lru_cache(maxsize=32)
def _domain(p: int, R: int) -> _Domain:
    """Everything a table needs that depends on (p, R) alone.

    The admissible inclusion vectors in lexicographic order (the rows of
    ``gam``, with their sizes), listed by size with
    ``itertools.combinations``; per column, its lexicographic parent sets
    with their index; every (column, parent set) key in one flat list,
    column by column, with its parent count and its count of absent
    candidates, and each column's slice, start and count in it; a
    (column x largest column count) array ``col_keys`` of each column's
    key positions in that list, padded at the end by repeats of its first
    key, so that an argmax along a row of a column's scores taken through
    it is the first maximum among that column's keys: a pad equals the
    first entry and comes after it; and the coupling count |gamma on the
    parent set| of every (gamma, key) pair whose column is active in
    gamma, a (gamma x key) matrix.

    A table scores its blocks from a flat source that holds A, U_post
    and U one after another and then 1.0, and ``identity_plan`` and
    ``general_plan`` say where, for U = I and for a general U.  Per block
    size m there is one stack: the likelihood blocks on the rows ``active
    + (p,)`` of A of the inclusion vectors with m - 1 active columns, then
    the U_post blocks on the rows ``parents + (c,)`` of the keys with
    m - 1 parents, then (general U only) the same blocks of U.  A plan's
    ``gather`` indexes the source for every entry of every block, stack
    after stack, and then once for the 1.0; ``spans`` gives each stack's
    span and shape in it.  ``diag_pos`` has one row per value, in the
    order inclusion vectors, keys (U_post), keys (U): the positions in
    the gathered blocks of the block's leading Cholesky diagonal entries,
    padded with the position of the 1.0 to a fixed width, and then of its
    last entry.  The log of the padding is exactly 0, so a padded row
    sums to the same bits as the unpadded one while rows stay narrower
    than numpy's 8-wide pairwise-summation block: at most
    ``ENUMERATION_LIMIT`` = 6 entries wide.

    Arrays are read-only and sequences tuples, so tables can share one
    domain.
    """
    pairs = sorted(
        (tuple(int(j in s) for j in range(p)), s)
        for k in range(min(R, p + 1))
        for s in itertools.combinations(range(p), k)
    )
    gammas = tuple(g for g, _ in pairs)
    gam = np.array(gammas, dtype=float)
    col_subsets = tuple(_lex_subsets(range(c + 1, p), R) for c in range(p))
    keys = [(c, s) for c, subs in enumerate(col_subsets) for s in subs]
    member = np.array([[j in s for j in range(p)] for _, s in keys], dtype=float)
    key_vertices = np.array([c for c, _ in keys], dtype=np.intp)
    key_nu = member.sum(axis=1).astype(np.intp)
    col_counts = np.array([len(subs) for subs in col_subsets], dtype=np.intp)
    col_starts = np.concatenate([[0], np.cumsum(col_counts)[:-1]]).astype(np.intp)
    width = np.arange(col_counts.max())
    col_keys = col_starts[:, np.newaxis] + np.where(width < col_counts[:, np.newaxis], width, 0)
    n_gam, n_key = len(gammas), len(keys)
    identity, general = [], []
    for m in range(1, min(R, p + 1) + 1):
        lik = [k for k, (_, s) in enumerate(pairs) if len(s) == m - 1]
        key = [k for k, (_, s) in enumerate(keys) if len(s) == m - 1]
        lik_rows = np.array([pairs[k][1] + (p,) for k in lik], dtype=np.intp).reshape(-1, m)
        key_rows = np.array([keys[k][1] + (keys[k][0],) for k in key], dtype=np.intp).reshape(-1, m)
        stack = [(0, lik_rows, lik), (1, key_rows, [n_gam + k for k in key])]
        identity.append(stack)
        general.append(stack + [(2, key_rows, [n_gam + n_key + k for k in key])])
    return _Domain(
        gammas=gammas,
        gamma_index=MappingProxyType({g: k for k, g in enumerate(gammas)}),
        gam=_frozen(gam),
        gam_sizes=_frozen(gam.sum(axis=1)),
        col_subsets=col_subsets,
        col_index=tuple(
            MappingProxyType({s: k for k, s in enumerate(subs)}) for subs in col_subsets
        ),
        key_nu=_frozen(key_nu),
        key_rest=_frozen((p - 1 - key_vertices - key_nu).astype(float)),
        col_slices=tuple(map(slice, col_starts.tolist(), (col_starts + col_counts).tolist())),
        col_starts=_frozen(col_starts),
        col_counts=_frozen(col_counts),
        col_keys=_frozen(col_keys),
        coupling=_frozen(gam[:, key_vertices] * (gam @ member.T)),
        identity_plan=_plan(p, identity, n_gam + n_key),
        general_plan=_plan(p, general, n_gam + 2 * n_key),
    )


def _table_values(engine: ScoreEngine, dom: _Domain) -> tuple[np.ndarray, np.ndarray]:
    """The integrated likelihood of each of the domain's inclusion vectors
    and the normalizer delta of each of its (column, parent set) keys.

    Gathers every block the domain's plan lists from A, U_post and U with
    one ``take``, factors each block size's stack in place with
    ``_cholesky``, and reads every Cholesky diagonal with one more
    ``take`` and one log.  The helpers the engine's memos use then turn
    the log sums and last entries into values, each in one pass over all
    of them.
    """
    zc = engine.zcache
    plan = dom.identity_plan if zc._identity else dom.general_plan
    blocks = np.concatenate((engine._A, zc.U_post, zc.U, 1.0), axis=None).take(plan.gather)
    stacks = [blocks[lo:hi].reshape(shape) for lo, hi, shape in plan.spans]
    _cholesky(stacks, "likelihood or scale matrix")
    diags = blocks.take(plan.diag_pos)
    logs = np.log(diags)
    half_gt = logs[:, :-1].sum(axis=1)
    n_gam, n_key = len(dom.gammas), len(dom.key_nu)
    marginal = engine._likelihoods(half_gt[:n_gam], diags[:n_gam, -1])
    post = (half_gt[n_gam : n_gam + n_key], logs[n_gam : n_gam + n_key, -1])
    prior = None if zc._identity else (half_gt[n_gam + n_key :], logs[n_gam + n_key :, -1])
    return marginal, zc._deltas(dom.key_nu, post, prior)


class PosteriorTable:
    """Exact normalized posterior over all admissible (gamma, DAG) pairs.

    The domain is every inclusion vector below the complexity bound
    crossed with every DAG whose largest column stays below the bound.
    Given gamma the DAG part of the score factors over columns, so the
    table stores one (gamma x (column, parent set)) score matrix, column
    after column; the normalizer, argmax and point probabilities never
    materialize the full product space.  ``entries()`` iterates the full
    domain on demand.

    Everything that depends on (p, R) alone is built once per (p, R) and
    shared by every table (``_domain``), down to where each block a table
    factors and each Cholesky diagonal it reads lies.  ``_table_values``
    gathers all blocks at once, factors each block size's stack with one
    stacked Cholesky, likelihood and normalizer blocks alike, and neither
    reads nor fills the engine's memos.  The column reductions run over
    the whole score matrix: per-column maxima by ``np.maximum.reduceat``,
    one exp, per-column sums on slices, one log, and the column terms
    added up in column order by ``np.add.reduce`` along the column axis,
    which adds them one after another and so gives the bits of a
    per-column loop.  The argmax takes the argmax gamma's row through the
    domain's padded per-column key index (``col_keys``) and reads each
    column's first maximum off one ``argmax``.

    Without an ``engine`` the table builds its own and pays for nothing
    else; a given engine must have been built for this ``data`` object
    and the same memo inputs (see ``ScoreEngine``), else ValueError.  The
    table neither reads nor fills the engine's memos either way.
    """

    def __init__(self, data: Dataset, hyper: Hyperparameters, engine: ScoreEngine | None = None):
        if engine is None:
            engine = ScoreEngine(data, hyper)
        else:
            engine.check_serves(data, hyper)
        p = data.p
        R = hyper.effective_R(p)
        log_q, log_1mq = math.log(hyper.q), math.log1p(-hyper.q)
        self.p = p
        self.R = R
        dom = _domain(p, R)
        self.gammas = dom.gammas
        self.col_subsets = dom.col_subsets
        self._gamma_index = dom.gamma_index
        self._col_index = dom.col_index
        self._col_slices = dom.col_slices
        self._gam = dom.gam
        marginal, delta = _table_values(engine, dom)
        self._gamma_base = -hyper.a * dom.gam_sizes + marginal

        # Per (column, parent set) key: edge prior plus normalizer delta.
        # Each (gamma, key) pair adds the coupling bonus 2b * |gamma on the
        # parent set| when the key's column is active in gamma.
        terms = dom.key_nu * log_q + dom.key_rest * log_1mq + delta
        scores = self._scores = terms + 2.0 * hyper.b * dom.coupling
        top = np.maximum.reduceat(scores.T, dom.col_starts)  # (column x gamma)
        shifted = np.exp(scores - np.repeat(top, dom.col_counts, axis=0).T)
        # Row 0 adds each column's log-sum-exp to the inclusion vector's own
        # score and row 1 its maximum, in column order.
        parts = np.empty((2, p + 1, len(dom.gammas)))
        parts[:, 0] = self._gamma_base
        col_lse = parts[0, 1:]
        for c, cols in enumerate(dom.col_slices):
            np.add.reduce(shifted[:, cols], axis=1, out=col_lse[c])
        np.log(col_lse, out=col_lse)
        col_lse += top
        parts[1, 1:] = top
        lse, mx = np.add.reduce(parts, axis=1)
        self._gamma_lse = lse
        self.log_normalizer = float(_logsumexp(lse, lse.max()))
        k = int(np.argmax(mx))  # first maximum: lexicographically smallest
        # Per column, the first parent set that reaches the maximum on row k.
        best = scores[k].take(dom.col_keys).argmax(axis=1)
        self.argmax_gamma = np.array(self.gammas[k], dtype=np.int8)
        self.argmax_dag = Dag(p, tuple(subs[b] for subs, b in zip(self.col_subsets, best.tolist())))
        self.argmax_log_score = float(mx[k])

    # -- queries ---------------------------------------------------------

    def log_score(self, gamma, dag: Dag) -> float:
        g = tuple(int(v) for v in _checked_gamma(gamma, dag, self.p))
        k = self._gamma_index.get(g)
        if k is None:
            return -math.inf
        total = self._gamma_base[k]
        row = self._scores[k]
        for c in range(self.p):
            idx = self._col_index[c].get(dag.parents[c])
            if idx is None:
                return -math.inf
            total += row[self._col_slices[c].start + idx]
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
            cols = [self._scores[k, s] for s in self._col_slices]
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
    return PosteriorTable(data, hyper)
