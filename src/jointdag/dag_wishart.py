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


def _logdet_pd(block: np.ndarray) -> float:
    """Log determinant of a small positive definite block via Cholesky."""
    try:
        chol = np.linalg.cholesky(block)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("scale submatrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _log_z_column_raw(U: np.ndarray, i: int, parents: tuple[int, ...], alpha_i: float) -> float:
    """One vertex's factor of the log normalizer; determinant of an empty block is 1."""
    nu = len(parents)
    half = 0.5 * (alpha_i - nu)
    if half <= 1.0:
        raise ImproperPriorError(
            f"vertex {i}: alpha - nu = {alpha_i - nu} but must exceed 2"
        )
    out = gammaln(half - 1.0) + (0.5 * alpha_i - 1.0) * _LOG_2 + 0.5 * nu * _LOG_PI
    if nu == 0:
        u_ii = U[i, i]
        if u_ii <= 0.0:
            raise NotPositiveDefiniteError(f"U[{i},{i}] must be positive")
        return out - (half - 1.0) * math.log(u_ii)
    idx = np.fromiter(parents, dtype=np.intp, count=nu)
    ld_gt = _logdet_pd(U[np.ix_(idx, idx)])
    idx_ge = np.concatenate(([i], idx))
    ld_ge = _logdet_pd(U[np.ix_(idx_ge, idx_ge)])
    return out + (half - 1.5) * ld_gt - (half - 1.0) * ld_ge


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
    alpha_i = nu_i + offset.  Results are cached by (vertex, parent set),
    so only a column whose parent set changes needs a new value.  A miss
    factors two blocks of ``U_post`` and two of ``U``.  When ``U`` is the
    identity every prior-side log determinant is exactly 0.0, so the
    prior factor depends on the parent count alone; it is then memoized
    by that count and a miss factors only the two posterior blocks.
    """

    def __init__(self, U: np.ndarray, U_post: np.ndarray, n: int, offset: float):
        if offset <= 2.0:
            raise ImproperPriorError(f"shape offset must exceed 2, got {offset}")
        self.U = np.asarray(U, dtype=float)
        self.U_post = np.asarray(U_post, dtype=float)
        self.n = int(n)
        self.offset = float(offset)
        self._memo: dict[tuple[int, tuple[int, ...]], float] = {}
        identity = np.array_equal(self.U, np.eye(self.U.shape[0]))
        self._prior_by_nu: dict[int, float] | None = {} if identity else None

    def __len__(self) -> int:
        """Number of memoized (vertex, parent set) values."""
        return len(self._memo)

    def _log_z_prior(self, i: int, parents: tuple[int, ...], a_prior: float) -> float:
        by_nu = self._prior_by_nu
        if by_nu is None:
            return _log_z_column_raw(self.U, i, parents, a_prior)
        val = by_nu.get(len(parents))
        if val is None:
            val = by_nu[len(parents)] = _log_z_column_raw(self.U, i, parents, a_prior)
        return val

    def delta(self, i: int, parents: tuple[int, ...]) -> float:
        key = (i, parents)
        val = self._memo.get(key)
        if val is None:
            a_prior = len(parents) + self.offset
            val = _log_z_column_raw(self.U_post, i, parents, self.n + a_prior) - self._log_z_prior(
                i, parents, a_prior
            )
            self._memo[key] = val
        return val
