"""Matrix-variate conjugate law on DAG-constrained Cholesky factors.

The density over (L, dvec) restricted to the sparsity space of a DAG is

    (1/z) * exp(-tr(L diag(1/dvec) L^T U) / 2) * prod_i dvec_i^(-alpha_i / 2)

with a scale matrix U and one shape parameter per vertex.  The
normalizer z factors over vertices; each factor involves determinants of
the principal submatrices of U indexed by a vertex's parent set.
Observing n rows X updates (U, alpha) conjugately to (U + X^T X, alpha + n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo
from scipy.special import gammaln

from .cholesky import CholeskyParam
from .errors import ImproperPriorError, NotPositiveDefiniteError
from .graphs import Dag

if TYPE_CHECKING:  # pragma: no cover
    from .simdata import Dataset

_LOG_2 = math.log(2.0)
_LOG_PI = math.log(math.pi)
_SCALE = "scale submatrix"


@dataclass(frozen=True)
class DagWishartParams:
    """Scale matrix U (p x p, positive definite) and per-vertex shapes alpha."""

    U: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError("U must be square")
        if alpha.shape != (U.shape[0],):
            raise ValueError("alpha length must match U")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "alpha", alpha)

    @property
    def p(self) -> int:
        return self.U.shape[0]


def _chol_diagonals(M: np.ndarray, idx: np.ndarray, name: str) -> np.ndarray:
    """Diagonals of the Cholesky factors of ``M[row, row]`` for each row of
    the integer array ``idx`` (all rows of one length), as one array.

    One stacked Cholesky factors every block.  A block that is not
    positive definite raises NotPositiveDefiniteError naming ``M`` by
    ``name``.  The factorization is the gufunc behind
    ``np.linalg.cholesky``, called directly: the samplers factor tens of
    thousands of small stacks per chain, and the wrapper's type checks
    cost twice the factorization itself.  The gufunc flags a block that
    is not positive definite as an invalid value.
    """
    blocks = M[idx[:, :, np.newaxis], idx[:, np.newaxis, :]]
    try:
        with np.errstate(invalid="raise"):
            chol = _cholesky_lo(blocks, signature="d->d")
    except FloatingPointError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc
    return np.diagonal(chol, axis1=1, axis2=2)


def _log_diag_sums(
    M: np.ndarray, idx: np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """For each row ``pa + (i,)`` of the integer array ``idx`` (all rows of
    one length), the sum of the log diagonal of the Cholesky factor of
    ``M[pa, pa]`` and the log of the last diagonal entry of the factor of
    ``M[pa + (i,), pa + (i,)]``.

    The factor of the leading ``pa`` block is the leading corner of the
    factor of the ``pa + (i,)`` block, so one factorization gives both.
    """
    log_diag = np.log(_chol_diagonals(M, idx, name))
    return log_diag[:, :-1].sum(axis=1), log_diag[:, -1]


def _logdet_pairs(
    M: np.ndarray, idx: np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """Log determinants of ``M[pa, pa]`` and ``M[pa + (i,), pa + (i,)]`` for
    each row ``pa + (i,)`` of the integer array ``idx`` (all rows of one
    length), from ``_log_diag_sums``.  The determinant of an empty block
    is 1.
    """
    half_gt, last = _log_diag_sums(M, idx, name)
    return 2.0 * half_gt, 2.0 * (half_gt + last)


def _log_z_coefs(alpha, nu: int) -> tuple[float, float, float]:
    """The constant and the coefficients of the two log determinants in
    ``_log_z_terms``, which depend on the shape and parent count alone."""
    half = 0.5 * (alpha - nu)
    const = gammaln(half - 1.0) + (0.5 * alpha - 1.0) * _LOG_2 + 0.5 * nu * _LOG_PI
    return float(const), half - 1.5, half - 1.0


def _log_z_from_coefs(coefs, ld_gt, ld_ge):
    """``_log_z_terms`` from the three ``_log_z_coefs``; elementwise over
    arrays of coefficients and log determinants."""
    const, c_gt, c_ge = coefs
    return const + c_gt * ld_gt - c_ge * ld_ge


def _log_z_terms(alpha, nu: int, ld_gt, ld_ge):
    """One vertex's factor of the log normalizer from its shape, parent
    count and the two log determinants of ``_logdet_pairs``; elementwise
    over arrays of log determinants."""
    return _log_z_from_coefs(_log_z_coefs(alpha, nu), ld_gt, ld_ge)


def _log_z_column_raw(U: np.ndarray, i: int, parents: tuple[int, ...], alpha_i: float) -> float:
    """One vertex's factor of the log normalizer."""
    nu = len(parents)
    if 0.5 * (alpha_i - nu) <= 1.0:
        raise ImproperPriorError(
            f"vertex {i}: alpha - nu = {alpha_i - nu} but must exceed 2"
        )
    ld_gt, ld_ge = _logdet_pairs(U, np.array([parents + (i,)], dtype=np.intp), _SCALE)
    return float(_log_z_terms(alpha_i, nu, ld_gt[0], ld_ge[0]))


def log_z_column(dag: Dag, params: DagWishartParams, i: int) -> float:
    """The i-th factor (0-based vertex) of the log normalizer."""
    if not 0 <= i < dag.p:
        raise ValueError(f"vertex {i} out of range")
    return _log_z_column_raw(params.U, i, dag.parents[i], float(params.alpha[i]))


def log_z(dag: Dag, params: DagWishartParams) -> float:
    """Log normalizer: sum of the per-vertex factors."""
    if params.p != dag.p:
        raise ValueError("params dimension must match dag")
    return sum(log_z_column(dag, params, i) for i in range(dag.p))


def log_density(param: CholeskyParam, dag: Dag, params: DagWishartParams) -> float:
    """Normalized log density at (L, dvec); -inf outside the sparsity space."""
    p = dag.p
    if param.p != p or params.p != p:
        raise ValueError("dimension mismatch between param, dag, and params")
    # Membership in the DAG's sparsity space: nonzero strictly-lower entries
    # of L are allowed only at parent positions.
    for j in range(p):
        allowed = set(dag.parents[j])
        for i in range(j + 1, p):
            if param.L[i, j] != 0.0 and i not in allowed:
                return -math.inf
    omega = (param.L / param.dvec[np.newaxis, :]) @ param.L.T
    kernel = -0.5 * float(np.sum(omega * params.U))
    kernel -= 0.5 * float(np.sum(params.alpha * np.log(param.dvec)))
    return kernel - log_z(dag, params)


def posterior_params(params: DagWishartParams, data: "Dataset", dag: Dag) -> DagWishartParams:
    """Conjugate update (U, alpha) -> (U + X^T X, alpha + n).

    Rejects prior shapes that violate propriety for the given graph
    rather than silently proceeding.
    """
    nu = np.array(dag.nu(), dtype=float)
    if params.p != dag.p:
        raise ValueError("params dimension must match dag")
    if np.any(params.alpha - nu <= 2.0):
        raise ImproperPriorError("prior shapes must satisfy alpha_i - nu_i > 2 for every vertex")
    return DagWishartParams(U=params.U + data.gram, alpha=params.alpha + data.n)


# Memo keys.  A parent set of a p-vertex graph is keyed by its packed
# bitset: ceil(p / 8) bytes in which bit j % 8 of byte j // 8 is set when
# j is a parent.  Equal sets give equal bytes, so keys never collide, and
# the XOR of two bitsets is the bitset of their symmetric difference.


def packed_key(parents, p: int) -> bytes:
    """The memo key of one parent set of a p-vertex graph."""
    return sum(1 << int(j) for j in parents).to_bytes((p + 7) // 8, "little")


def pack_bitsets(member: np.ndarray) -> np.ndarray:
    """Packed bitsets of the rows of a 2-D 0/1 membership array whose
    columns are the p vertices: one row of ceil(p / 8) uint8 per row."""
    return np.packbits(member, axis=1, bitorder="little")


def packed_keys(bits: np.ndarray) -> list[bytes]:
    """The memo key of each row of the packed bitsets ``bits``."""
    bits = np.ascontiguousarray(bits)
    return bits.view(np.dtype((np.void, bits.shape[1]))).ravel().tolist()


class ColumnZDeltaCache:
    """Memoized per-vertex normalizer ratio between posterior and prior scales.

    ``delta(i, parents)`` returns the i-th factor of
    log z(U_post, n + alpha) - log z(U, alpha) under the shape rule
    alpha_i = nu_i + offset, and ``deltas(vertices, parent_sets)`` returns
    it for many (vertex, parent set) keys at once.  Results are cached per
    vertex under the parent set's packed key (``packed_key``), so only a
    column whose parent set changes needs a new value; callers that hold
    packed bitsets look them up with ``packed_deltas``.  The misses of one
    call are unpacked together into index rows, each its parents in
    ascending order and then its vertex, and grouped by parent count;
    each group's ``U_post`` blocks are factored with one stacked Cholesky
    (``_log_diag_sums``): one factorization per miss, and one more of the
    same block of ``U``.  When ``U`` is the identity every prior-side log
    determinant is exactly 0.0, so the prior factor depends on the parent
    count alone; it is then memoized by that count and a miss factors
    only its posterior block.
    """

    def __init__(self, U: np.ndarray, U_post: np.ndarray, n: int, offset: float):
        if offset <= 2.0:
            raise ImproperPriorError(f"shape offset must exceed 2, got {offset}")
        self.U = np.asarray(U, dtype=float)
        self.U_post = np.asarray(U_post, dtype=float)
        self.n = int(n)
        self.offset = float(offset)
        self.p = self.U.shape[0]
        # One memo per vertex, keyed by packed parent set: each table stays
        # small, and a key is one short bytes object.
        self._memo: list[dict[bytes, float]] = [{} for _ in range(self.p)]
        self._identity = np.array_equal(self.U, np.eye(self.p))
        self._by_nu: dict[int, tuple[float, ...]] = {}  # see ``_coefs``

    def __len__(self) -> int:
        """Number of memoized (vertex, parent set) values."""
        return sum(map(len, self._memo))

    def _fill(self, vertices: np.ndarray, bits: np.ndarray, keys: list[bytes]) -> np.ndarray:
        """Compute, memoize and return the values of the distinct (vertex,
        parent set) pairs given by the integer array ``vertices`` and the
        rows of the packed bitsets ``bits``, whose memo keys are ``keys``;
        none of them is memoized.

        Each parent count's index rows are factored in one stack
        (``_log_diag_sums``); the arithmetic that turns log diagonals into
        values then runs once over all misses, with each miss's
        coefficients (``_coefs``) repeated from its parent count.
        """
        member = np.unpackbits(bits, axis=1, count=self.p, bitorder="little")
        nus = member.sum(axis=1, dtype=np.intp)
        by_nu = nus.argsort(kind="stable")  # grouped by parent count, in call order
        parents = member[by_nu].nonzero()[1]  # each miss's parents, ascending
        rows = vertices[by_nu]
        counts = np.bincount(nus)
        present = counts.nonzero()[0].tolist()
        sums = []
        lo = start = 0
        for nu in present:
            count = int(counts[nu])
            idx = np.empty((count, nu + 1), dtype=np.intp)
            idx[:, :nu] = parents[start : start + count * nu].reshape(count, nu)
            idx[:, nu] = rows[lo : lo + count]
            post = _log_diag_sums(self.U_post, idx, _SCALE)
            sums.append(post if self._identity else post + _log_diag_sums(self.U, idx, _SCALE))
            lo += count
            start += count * nu
        half_gt, last, *prior_sums = map(np.concatenate, zip(*sums))
        coefs = np.repeat(np.array([self._coefs(nu) for nu in present]), counts[present], axis=0).T
        vals = _log_z_from_coefs(coefs[:3], 2.0 * half_gt, 2.0 * (half_gt + last))
        if prior_sums:
            half_gt, last = prior_sums
            vals -= _log_z_from_coefs(coefs[3:], 2.0 * half_gt, 2.0 * (half_gt + last))
        else:
            vals -= coefs[3]  # U = I: every prior-side log determinant is 0.0
        out = np.empty(len(keys))
        out[by_nu] = vals
        memo = self._memo
        for i, key, val in zip(vertices.tolist(), keys, out.tolist()):
            memo[i][key] = val
        return out

    def _coefs(self, nu: int) -> tuple[float, ...]:
        """The ``_log_z_coefs`` of the posterior and then of the prior
        factor of a vertex with ``nu`` parents."""
        coefs = self._by_nu.get(nu)
        if coefs is None:
            a_prior = nu + self.offset
            coefs = _log_z_coefs(self.n + a_prior, nu) + _log_z_coefs(a_prior, nu)
            self._by_nu[nu] = coefs
        return coefs

    def delta(self, i: int, parents: tuple[int, ...]) -> float:
        key = packed_key(parents, self.p)
        val = self._memo[i].get(key)
        if val is None:
            bits = np.frombuffer(key, dtype=np.uint8)[np.newaxis]
            self._fill(np.array([i]), bits, [key])
            val = self._memo[i][key]
        return val

    def packed_deltas(self, vertices: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """The values of the distinct (vertex, parent set) pairs given by the
        integer array ``vertices`` and the rows of the packed bitsets
        ``bits``, in order, as an array; every miss among them is computed
        in one ``_fill``."""
        keys = packed_keys(bits)
        memos = map(self._memo.__getitem__, vertices.tolist())
        vals = np.fromiter(map(dict.get, memos, keys, repeat(math.nan)), dtype=float, count=len(keys))
        miss = np.isnan(vals).nonzero()[0]
        if miss.shape[0]:
            vals[miss] = self._fill(vertices[miss], bits[miss], [keys[k] for k in miss.tolist()])
        return vals

    def deltas(self, vertices, parent_sets) -> list[float]:
        """The values of the keys ``zip(vertices, parent_sets)`` in order;
        every miss among them is computed in one ``_fill``."""
        pairs = [(i, packed_key(pa, self.p)) for i, pa in zip(vertices, parent_sets)]
        distinct = list(dict.fromkeys(pairs))
        bits = np.frombuffer(b"".join(key for _, key in distinct), dtype=np.uint8)
        vals = self.packed_deltas(
            np.array([i for i, _ in distinct], dtype=np.intp),
            bits.reshape(len(distinct), (self.p + 7) // 8),
        )
        found = dict(zip(distinct, vals.tolist()))
        return [found[pair] for pair in pairs]
