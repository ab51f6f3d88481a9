"""Model constants and the variable-inclusion prior.

An inclusion vector gamma selects columns of the design matrix.  Its
prior couples to the covariate graph through an Ising-type energy
``-a * sum(gamma) + b * gamma' G gamma`` truncated at the complexity
bound.  Coefficients carry a Gaussian slab with variance tau2 * sigma2,
either with known noise variance or under an inverse-gamma noise prior;
``scoring.ScoreEngine`` integrates them out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cholesky import spd_cholesky


@dataclass(frozen=True)
class Hyperparameters:
    """Model constants; defaults follow the benchmark configuration.

    ``sigma2 = None`` selects the unknown-variance model with an
    inverse-gamma(a0, b0) noise prior; setting ``sigma2`` to a positive
    number selects the known-variance model.  ``R = None`` resolves to
    the number of covariates at scoring time.  ``U = None`` means an
    identity scale matrix; a given ``U`` must be square, symmetric and
    positive definite.  Every range error names its field first.
    """

    tau2: float = 1.0
    sigma2: float | None = None
    a0: float = 0.1
    b0: float = 0.01
    a: float = 2.75
    b: float = 0.5
    q: float = 0.005
    R: int | None = None
    alpha_offset: float = 10.0
    U: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.tau2 <= 0:
            raise ValueError(f"tau2 must be positive, got {self.tau2}")
        if self.sigma2 is not None and self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.a0 <= 0:
            raise ValueError(f"a0 must be positive, got {self.a0}")
        if self.b0 <= 0:
            raise ValueError(f"b0 must be positive, got {self.b0}")
        if self.a <= 0:
            raise ValueError(f"a (sparsity penalty) must be positive, got {self.a}")
        if self.b < 0:
            raise ValueError(f"b (graph coupling) must be nonnegative, got {self.b}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q (edge probability) must lie in (0, 1), got {self.q}")
        if self.R is not None and (int(self.R) != self.R or self.R < 1):
            raise ValueError(f"R (complexity bound) must be a positive integer, got {self.R}")
        if self.alpha_offset <= 2:
            raise ValueError(f"alpha_offset must exceed 2, got {self.alpha_offset}")
        if self.U is not None:
            spd_cholesky(self.U, "U")

    @property
    def known_variance(self) -> bool:
        return self.sigma2 is not None

    def effective_R(self, p: int) -> int:
        return p if self.R is None else int(self.R)


def log_mrf_prior(gamma: np.ndarray, G: np.ndarray, hyper: Hyperparameters) -> float:
    """Unnormalized log prior of the inclusion vector given the graph.

    Returns ``-a * |gamma| + b * gamma' G gamma`` while ``|gamma|`` stays
    below the complexity bound, else -inf.  G is symmetric, so every
    included edge contributes twice to the quadratic term.
    """
    g = np.asarray(gamma, dtype=float)
    G = np.asarray(G)
    p = g.shape[0]
    if G.shape != (p, p):
        raise ValueError(f"adjacency shape {G.shape} does not match gamma length {p}")
    if np.any(np.diag(G) != 0):
        raise ValueError("adjacency matrix must have a zero diagonal")
    if not np.array_equal(G, G.T):
        raise ValueError("adjacency matrix must be symmetric")
    size = float(g.sum())
    if size >= hyper.effective_R(p):
        return -math.inf
    return -hyper.a * size + hyper.b * float(g @ G @ g)
