"""The modified Cholesky parameterization of precision matrices.

A positive definite matrix Omega factors uniquely as
``Omega = L @ diag(1/dvec) @ L.T`` with L unit lower-triangular and
dvec positive.  Off-diagonal zeros of L encode the DAG of the
corresponding Gaussian: ``L[i, j] != 0`` for i > j exactly when i is a
parent of j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError


@dataclass(frozen=True)
class CholeskyParam:
    """Unit lower-triangular factor L and positive diagonal vector dvec."""

    L: np.ndarray
    dvec: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        d = np.asarray(self.dvec, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError("L must be square")
        if d.shape != (L.shape[0],):
            raise ValueError("dvec length must match L")
        if np.any(np.triu(L, 1) != 0.0):
            raise ValueError("L must be lower triangular")
        if np.any(np.diag(L) != 1.0):
            raise ValueError("L must have a unit diagonal")
        if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
            raise ValueError("dvec entries must be positive and finite")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "dvec", d)

    @property
    def p(self) -> int:
        return self.L.shape[0]


def spd_cholesky(A, name: str) -> np.ndarray:
    """Lower Cholesky factor of a square, symmetric, positive definite
    matrix; ``name`` labels the error raised when A is not one."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    if not np.allclose(A, A.T, rtol=1e-10, atol=1e-12):
        raise NotPositiveDefiniteError(f"{name} must be symmetric")
    try:
        return np.linalg.cholesky((A + A.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc
