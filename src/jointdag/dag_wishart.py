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
from itertools import compress, repeat
from operator import is_
from typing import TYPE_CHECKING

import numpy as np
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
    ``name``.
    """
    blocks = M[idx[:, :, np.newaxis], idx[:, np.newaxis, :]]
    try:
        chol = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc
    return np.diagonal(chol, axis1=1, axis2=2)


def _logdet_pairs(
    M: np.ndarray, idx: np.ndarray, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """Log determinants of ``M[pa, pa]`` and ``M[pa + (i,), pa + (i,)]`` for
    each row ``pa + (i,)`` of the integer array ``idx`` (all rows of one
    length).

    The factor of the leading ``pa`` block is the leading corner of the
    factor of the ``pa + (i,)`` block, so the two log determinants are
    twice the sum of the log diagonal without and with its last term.
    The determinant of an empty block is 1.
    """
    log_diag = np.log(_chol_diagonals(M, idx, name))
    half_gt = log_diag[:, :-1].sum(axis=1)
    return 2.0 * half_gt, 2.0 * (half_gt + log_diag[:, -1])


def _log_z_terms(alpha, nu: int, ld_gt, ld_ge):
    """One vertex's factor of the log normalizer from its shape, parent
    count and the two log determinants of ``_logdet_pairs``; elementwise
    over arrays of log determinants."""
    half = 0.5 * (alpha - nu)
    out = gammaln(half - 1.0) + (0.5 * alpha - 1.0) * _LOG_2 + 0.5 * nu * _LOG_PI
    return out + (half - 1.5) * ld_gt - (half - 1.0) * ld_ge


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


class ColumnZDeltaCache:
    """Memoized per-vertex normalizer ratio between posterior and prior scales.

    ``delta(i, parents)`` returns the i-th factor of
    log z(U_post, n + alpha) - log z(U, alpha) under the shape rule
    alpha_i = nu_i + offset, and ``deltas(vertices, parent_sets)`` returns
    it for many (vertex, parent set) keys at once.  Results are cached by
    key, so only a column whose parent set changes needs a new value.
    Misses are grouped by parent count, and each group's ``U_post`` blocks
    are factored with one stacked Cholesky (``_logdet_pairs``): one
    factorization per miss, and one more of the same block of ``U``.
    When ``U`` is the identity every prior-side log determinant is exactly
    0.0, so the prior factor depends on the parent count alone; it is then
    memoized by that count and a miss factors only its posterior block.
    """

    def __init__(self, U: np.ndarray, U_post: np.ndarray, n: int, offset: float):
        if offset <= 2.0:
            raise ImproperPriorError(f"shape offset must exceed 2, got {offset}")
        self.U = np.asarray(U, dtype=float)
        self.U_post = np.asarray(U_post, dtype=float)
        self.n = int(n)
        self.offset = float(offset)
        # One memo per vertex, keyed by parent set: a lookup hashes only the
        # parent tuple, and each table stays small.
        self._memo: list[dict[tuple[int, ...], float]] = [{} for _ in range(self.U.shape[0])]
        identity = np.array_equal(self.U, np.eye(self.U.shape[0]))
        self._prior_by_nu: dict[int, float] | None = {} if identity else None

    def __len__(self) -> int:
        """Number of memoized (vertex, parent set) values."""
        return sum(map(len, self._memo))

    def _fill(self, keys) -> None:
        """Compute and memoize the values of the (vertex, parent set)
        ``keys``, none of them memoized."""
        groups: dict[int, list] = {}
        for key in keys:
            groups.setdefault(len(key[1]), []).append(key)
        by_nu = self._prior_by_nu
        for nu, group in groups.items():
            idx = np.array([pa + (i,) for i, pa in group], dtype=np.intp)
            a_prior = nu + self.offset
            vals = _log_z_terms(self.n + a_prior, nu, *_logdet_pairs(self.U_post, idx, _SCALE))
            if by_nu is None:
                vals -= _log_z_terms(a_prior, nu, *_logdet_pairs(self.U, idx, _SCALE))
            else:
                prior = by_nu.get(nu)
                if prior is None:
                    prior = by_nu[nu] = float(_log_z_terms(a_prior, nu, 0.0, 0.0))
                vals -= prior
            for (i, pa), val in zip(group, vals.tolist()):
                self._memo[i][pa] = val

    def delta(self, i: int, parents: tuple[int, ...]) -> float:
        val = self._memo[i].get(parents)
        if val is None:
            self._fill(((i, parents),))
            val = self._memo[i][parents]
        return val

    def deltas(self, vertices, parent_sets) -> list[float]:
        """The values of the keys ``zip(vertices, parent_sets)`` in order,
        both sequences; every miss among them is computed in one ``_fill``."""
        memos = list(map(self._memo.__getitem__, vertices))
        vals = list(map(dict.get, memos, parent_sets))
        if None in vals:
            missing = map(is_, vals, repeat(None))
            self._fill(dict.fromkeys(compress(zip(vertices, parent_sets), missing)))
            vals = list(map(dict.__getitem__, memos, parent_sets))
        return vals
