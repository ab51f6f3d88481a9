"""The DAG-Wishart normalizer kernel and its memo.

The conjugate matrix law on the Cholesky factors (L, dvec) of a
precision matrix, restricted to the sparsity space of a DAG, has a
normalizer z(U, alpha) that factors over vertices.  Vertex i's factor,
with nu parents pa, is

    log z_i = const(alpha_i, nu) + c_gt * log det U[pa, pa]
              - c_ge * log det U[pa + (i,), pa + (i,)]

(``_log_z_coefs``), where const holds log Gamma((alpha_i - nu) / 2 - 1),
computed with ``math.lgamma``.  Observing n rows X updates (U, alpha) to
(U + X^T X, alpha + n), so the joint score needs, per column, the ratio
of its posterior factor to its prior factor.  ``ColumnZDeltaCache``
computes and memoizes that ratio; one stacked Cholesky factorization
gives both log determinants of every block in a batch.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo

from .errors import NotPositiveDefiniteError

_LOG_2 = math.log(2.0)
_LOG_PI = math.log(math.pi)
_SCALE = "scale submatrix"


def _cholesky(stacks, name: str) -> None:
    """Overwrite every block of each stack in ``stacks`` (arrays of shape
    (count, m, m)) with its lower Cholesky factor.

    One stacked Cholesky per stack, all under one error state.  A block
    that is not positive definite raises NotPositiveDefiniteError naming
    the matrix it came from by ``name``.  The factorization is the gufunc
    behind ``np.linalg.cholesky``, called directly: the samplers factor
    tens of thousands of small stacks per chain, and the wrapper's type
    checks cost twice the factorization itself.  The gufunc flags a block
    that is not positive definite as an invalid value.
    """
    try:
        with np.errstate(invalid="raise"):
            for blocks in stacks:
                _cholesky_lo(blocks, out=blocks, signature="d->d")
    except FloatingPointError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc


def _chol_diagonals(M: np.ndarray, idx: np.ndarray, name: str) -> np.ndarray:
    """Diagonals of the Cholesky factors of ``M[row, row]`` for each row of
    the integer array ``idx`` (all rows of one length), as one array;
    ``_cholesky`` factors the blocks as one stack."""
    blocks = M[idx[:, :, np.newaxis], idx[:, np.newaxis, :]]
    _cholesky((blocks,), name)
    return np.diagonal(blocks, axis1=1, axis2=2)


def _log_sums(diags) -> tuple[np.ndarray, np.ndarray]:
    """For each row of the Cholesky diagonals of blocks ``M[pa + (i,),
    pa + (i,)]``, given as a list of arrays whose rows each have one
    length, the sum of the log diagonal of the factor of ``M[pa, pa]`` and
    the log of the last diagonal entry; rows concatenated in order.

    The factor of the leading ``pa`` block is the leading corner of the
    factor of the ``pa + (i,)`` block, so one factorization gives both.
    """
    logs = [np.log(d) for d in diags]
    half_gt = np.concatenate([g[:, :-1].sum(axis=1) for g in logs])
    return half_gt, np.concatenate([g[:, -1] for g in logs])


def _log_z_coefs(alpha, nu: int) -> tuple[float, float, float]:
    """``(const, c_gt, c_ge)`` of one vertex's factor of the log normalizer
    (module docstring), which depend on its shape and parent count alone."""
    half = 0.5 * (alpha - nu)
    const = math.lgamma(half - 1.0) + (0.5 * alpha - 1.0) * _LOG_2 + 0.5 * nu * _LOG_PI
    return const, half - 1.5, half - 1.0


def _log_z_from_coefs(coefs, ld_gt, ld_ge):
    """One vertex's factor of the log normalizer from its ``_log_z_coefs``
    and the log determinants of its ``pa`` and ``pa + (i,)`` blocks;
    elementwise over arrays of coefficients and log determinants."""
    const, c_gt, c_ge = coefs
    return const + c_gt * ld_gt - c_ge * ld_ge


@functools.lru_cache(maxsize=64)
def _coef_table(n: int, offset: float, p: int) -> np.ndarray:
    """Row nu, for every parent count nu = 0..p: the ``_log_z_coefs`` of a
    vertex's posterior factor (shape n + nu + offset) and then of its
    prior factor (shape nu + offset), six entries in all; read-only.

    Under the shape rule ``half - 1`` is (n + offset) / 2 - 1 or
    offset / 2 - 1 whatever the parent count, positive for every offset
    above 2, so no row reaches a pole of the log-gamma.
    """
    rows = []
    for nu in range(p + 1):
        a_prior = nu + offset
        rows.append(_log_z_coefs(n + a_prior, nu) + _log_z_coefs(a_prior, nu))
    table = np.array(rows)
    table.flags.writeable = False
    return table


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
    alpha_i = nu_i + offset, and ``packed_deltas(vertices, bits)`` returns
    it for many (vertex, packed parent bitset) keys at once.  Results are
    cached per vertex under the parent set's packed key (``packed_key``),
    so only a column whose parent set changes needs a new value.  The
    misses of one call are unpacked together into index rows, each its
    parents in ascending order and then its vertex, and grouped by parent
    count; each group's ``U_post`` blocks are factored with one stacked
    Cholesky (``_chol_diagonals``): one factorization per miss, and one
    more of the same block of ``U``.  ``_deltas`` turns the log sums of
    the diagonals (``_log_sums``) into values in one pass, for the memo
    and for ``scoring.PosteriorTable``, which factors its own blocks and
    reads their log sums off one padded array.  When ``U`` is the
    identity every prior-side log determinant is exactly 0.0, so the
    prior factor depends on the parent count alone; it is then the
    constant of that count and a miss factors only its posterior block.
    ``identity`` says whether ``U`` is the identity; a caller that knows
    it (``ScoreEngine`` without a given U) passes True, and None compares
    ``U`` with the identity.  Every count's coefficients come from one
    read-only table per (n, offset, p) shared by all caches
    (``_coef_table``).  ``offset`` must exceed 2 for the prior to be
    proper; ``Hyperparameters`` checks it.
    """

    def __init__(
        self,
        U: np.ndarray,
        U_post: np.ndarray,
        n: int,
        offset: float,
        identity: bool | None = None,
    ):
        self.U = np.asarray(U, dtype=float)
        self.U_post = np.asarray(U_post, dtype=float)
        self.n = int(n)
        self.offset = float(offset)
        self.p = self.U.shape[0]
        # One memo per vertex, keyed by packed parent set: each table stays
        # small, and a key is one short bytes object.
        self._memo: list[dict[bytes, float]] = [{} for _ in range(self.p)]
        if identity is None:
            identity = np.array_equal(self.U, np.eye(self.p))
        self._identity = identity
        self._coef_rows = _coef_table(self.n, self.offset, self.p)

    def __len__(self) -> int:
        """Number of memoized (vertex, parent set) values."""
        return sum(map(len, self._memo))

    def _fill(self, vertices: np.ndarray, bits: np.ndarray, keys: list[bytes]) -> np.ndarray:
        """Compute, memoize and return the values of the distinct (vertex,
        parent set) pairs given by the integer array ``vertices`` and the
        rows of the packed bitsets ``bits``, whose memo keys are ``keys``;
        none of them is memoized.  Each parent count's index rows are
        factored in one stack, and ``_deltas`` turns the log sums of all of
        them into values at once.
        """
        member = np.unpackbits(bits, axis=1, count=self.p, bitorder="little")
        nus = member.sum(axis=1, dtype=np.intp)
        by_nu = nus.argsort(kind="stable")  # grouped by parent count, in call order
        parents = member[by_nu].nonzero()[1]  # each miss's parents, ascending
        rows = vertices[by_nu]
        counts = np.bincount(nus)
        post, prior = [], []
        lo = start = 0
        for nu in counts.nonzero()[0].tolist():
            count = int(counts[nu])
            idx = np.empty((count, nu + 1), dtype=np.intp)
            idx[:, :nu] = parents[start : start + count * nu].reshape(count, nu)
            idx[:, nu] = rows[lo : lo + count]
            post.append(_chol_diagonals(self.U_post, idx, _SCALE))
            if not self._identity:
                prior.append(_chol_diagonals(self.U, idx, _SCALE))
            lo += count
            start += count * nu
        out = np.empty(len(keys))
        prior = None if self._identity else _log_sums(prior)
        out[by_nu] = self._deltas(nus[by_nu], _log_sums(post), prior)
        memo = self._memo
        for i, key, val in zip(vertices.tolist(), keys, out.tolist()):
            memo[i][key] = val
        return out

    def _deltas(self, nus: np.ndarray, post, prior) -> np.ndarray:
        """The values of (vertex, parent set) keys with the parent counts
        ``nus`` from the ``_log_sums`` of their ``U_post`` blocks on the rows
        ``parents + (vertex,)``: ``post`` is the pair (sums of the log
        leading diagonal entries, logs of the last diagonal entries), and
        ``prior`` the same pair for the blocks of ``U``, or None when ``U``
        is the identity.  The arithmetic runs once over all keys, with each
        key's six coefficients (``_coef_table``) taken by its parent count.
        """
        coefs = self._coef_rows.take(nus, axis=0).T
        half_gt, last = post
        vals = _log_z_from_coefs(coefs[:3], 2.0 * half_gt, 2.0 * (half_gt + last))
        if prior is None:
            vals -= coefs[3]  # U = I: every prior-side log determinant is 0.0
        else:
            half_gt, last = prior
            vals -= _log_z_from_coefs(coefs[3:], 2.0 * half_gt, 2.0 * (half_gt + last))
        return vals

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
