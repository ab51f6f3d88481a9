"""Reference implementations used to validate the package.

The first section is the restricted matrix law itself: its density, its
normalizer one vertex at a time and the modified Cholesky
parameterization.  Its normalizer is built on the primitives the
package's memo runs, so quadrature of the density tests the package's
own formula.  The dense references after it recompute quantities from
scratch along a different route than the library: dense n-by-n linear
algebra instead of the low-dimensional identities, fresh per-column
normalizer evaluation with no memoization, and explicit loops instead
of incremental updates.
"""

import math

import numpy as np
from scipy.special import gammaln

from jointdag import CholeskyParam, Dag
from jointdag.cholesky import spd_cholesky
from jointdag.dag_wishart import _chol_diagonals, _log_sums, _log_z_coefs, _log_z_from_coefs
from jointdag.spike_slab import Hyperparameters


# ---------------------------------------------------------------------------
# The restricted matrix law of dag_wishart, on the package's own kernel


def log_z_column(U, i, parents, alpha_i):
    """Vertex i's factor of the log normalizer, composed from the four
    primitives that ``ColumnZDeltaCache`` runs; ``parents`` is an
    ascending tuple."""
    half_gt, last = _log_sums([_chol_diagonals(U, np.array([parents + (i,)], dtype=np.intp), "U")])
    ld_gt, ld_ge = 2.0 * half_gt[0], 2.0 * (half_gt[0] + last[0])
    return float(_log_z_from_coefs(_log_z_coefs(alpha_i, len(parents)), ld_gt, ld_ge))


def log_z(dag: Dag, U, alpha):
    """Log normalizer: the sum of the per-vertex factors."""
    return sum(log_z_column(U, i, dag.parents[i], float(alpha[i])) for i in range(dag.p))


def log_density(param: CholeskyParam, dag: Dag, U, alpha):
    """Normalized log density at (L, dvec); -inf outside the sparsity space."""
    p = dag.p
    # Membership in the DAG's sparsity space: nonzero strictly-lower entries
    # of L are allowed only at parent positions.
    for j in range(p):
        allowed = set(dag.parents[j])
        for i in range(j + 1, p):
            if param.L[i, j] != 0.0 and i not in allowed:
                return -math.inf
    kernel = -0.5 * float(np.sum(reconstruct_precision(param) * U))
    kernel -= 0.5 * float(np.sum(alpha * np.log(param.dvec)))
    return kernel - log_z(dag, U, alpha)


def modified_cholesky(omega) -> CholeskyParam:
    """Factor a symmetric positive definite matrix as L diag(1/dvec) L^T,
    by normalizing the columns of its lower Cholesky factor."""
    C = spd_cholesky(omega, "omega")
    diag = np.diag(C).copy()
    return CholeskyParam(L=C / diag[np.newaxis, :], dvec=1.0 / diag**2)


def reconstruct_precision(param: CholeskyParam):
    """Rebuild the precision matrix L diag(1/dvec) L^T."""
    return (param.L / param.dvec[np.newaxis, :]) @ param.L.T


def sparsity_dag(param: CholeskyParam, tol: float = 1e-10) -> Dag:
    """DAG read off the factor: i parents j when ``|L[i, j]| > tol``."""
    p = param.p
    parents = tuple(
        tuple(i for i in range(j + 1, p) if abs(param.L[i, j]) > tol) for j in range(p)
    )
    return Dag(p, parents)


# ---------------------------------------------------------------------------
# Dense references


def dense_log_z(U, parents_per_vertex, alpha):
    """Log normalizer evaluated column by column with raw slogdet calls."""
    p = U.shape[0]
    total = 0.0
    for i in range(p):
        pa = list(parents_per_vertex[i])
        nu = len(pa)
        a = alpha[i]
        half = 0.5 * (a - nu)
        term = gammaln(half - 1.0) + (0.5 * a - 1.0) * math.log(2.0)
        term += 0.5 * nu * math.log(math.pi)
        if nu:
            sub = U[np.ix_(pa, pa)]
            term += (half - 1.5) * np.linalg.slogdet(sub)[1]
            idx = [i] + pa
            term -= (half - 1.0) * np.linalg.slogdet(U[np.ix_(idx, idx)])[1]
        else:
            term -= (half - 1.0) * math.log(U[i, i])
        total += term
    return total


def dense_log_joint_score(gamma, dag: Dag, X, Y, hyper: Hyperparameters):
    """From-scratch joint score: explicit adjacency loops, fresh normalizers,
    and the n-dimensional determinant and inverse for the response term."""
    n, p = X.shape
    g = np.asarray(gamma, dtype=float)
    R = hyper.effective_R(p)

    # inclusion prior via an explicitly built adjacency matrix
    G = np.zeros((p, p))
    for child in range(p):
        for parent in dag.parents[child]:
            G[child, parent] = 1.0
            G[parent, child] = 1.0
    quad = 0.0
    for i in range(p):
        for j in range(p):
            quad += g[i] * G[i, j] * g[j]
    if g.sum() >= R:
        lgp = -math.inf
    else:
        lgp = -hyper.a * g.sum() + hyper.b * quad

    # edge prior
    nu = [len(dag.parents[c]) for c in range(p)]
    if p > 1 and max(nu[:-1]) >= R:
        ldp = -math.inf
    else:
        ldp = 0.0
        for c in range(p - 1):
            k = p - 1 - c
            ldp += nu[c] * math.log(hyper.q) + (k - nu[c]) * math.log(1.0 - hyper.q)

    # normalizer ratio with the offset shape rule
    U = hyper.U if hyper.U is not None else np.eye(p)
    alpha = np.array(nu, dtype=float) + hyper.alpha_offset
    dlz = dense_log_z(U + X.T @ X, dag.parents, alpha + n) - dense_log_z(U, dag.parents, alpha)

    # integrated likelihood through the n-dimensional route
    idx = np.flatnonzero(np.asarray(gamma))
    Xg = X[:, idx]
    M = np.eye(n) + hyper.tau2 * (Xg @ Xg.T)
    sign, logdet = np.linalg.slogdet(M)
    assert sign > 0
    quad_form = float(Y @ np.linalg.inv(M) @ Y)
    if hyper.known_variance:
        lml = -0.5 * logdet - quad_form / (2.0 * hyper.sigma2)
    else:
        lml = -0.5 * logdet - 0.5 * (n + 2.0 * hyper.a0) * math.log(
            hyper.b0 + 0.5 * quad_form
        )
    return lgp + ldp + dlz + lml


def mann_whitney_auc(probs, truth):
    """Rank-statistic AUC: P(active prob > inactive prob) + half ties."""
    probs = np.asarray(probs, dtype=float)
    tru = np.asarray(truth).astype(bool)
    pos = probs[tru]
    neg = probs[~tru]
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def quadrature_normalization(alpha=(4.0, 3.0), n_nodes=48):
    """Tensor quadrature of exp(log_density) over the one-edge law at p=2
    with an identity scale matrix.

    A normalized density must integrate to 1 over (D11, D22, L21).  The
    integral is computed in the substituted coordinates u = D11^(-1/2),
    t = D22^(-1/2), v = L21 * u, where the integrand becomes a smooth
    Gaussian-like function on a box, so Gauss-Legendre nodes converge
    fast while every evaluation still goes through ``log_density`` and so
    through the package's normalizer kernel.
    """
    dag = Dag(2, ((1,), ()))
    U, alpha = np.eye(2), np.asarray(alpha, dtype=float)

    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)

    def mapped(lo, hi):
        return 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo), 0.5 * (hi - lo) * weights

    xu, wu = mapped(0.0, 10.0)
    xt, wt = mapped(0.0, 10.0)
    nodes2, weights2 = np.polynomial.legendre.leggauss(2 * n_nodes)
    xv = 10.0 * nodes2
    wv = 10.0 * weights2

    total = 0.0
    for u, cu in zip(xu, wu):
        d11 = 1.0 / u**2
        jac_u = cu * 4.0 / u**4  # de1 dl jacobians folded together with dt's 2/t^3
        for t, ct in zip(xt, wt):
            d22 = 1.0 / t**2
            dvec = np.array([d11, d22])
            jac_ut = jac_u * ct / t**3
            for v, cv in zip(xv, wv):
                L = np.array([[1.0, 0.0], [v / u, 1.0]])
                val = log_density(CholeskyParam(L=L, dvec=dvec), dag, U, alpha)
                total += jac_ut * cv * math.exp(val)
    return total


def random_dag(rng, p, max_parents=None):
    """Uniformly random parent sets (each candidate edge is a fair coin),
    optionally truncated below a parent-count bound."""
    parents = []
    for c in range(p):
        cand = [j for j in range(c + 1, p) if rng.random() < 0.5]
        if max_parents is not None:
            cand = cand[: max_parents - 1]
        parents.append(tuple(cand))
    return Dag(p, tuple(parents))


def random_cholesky_param(rng, dag: Dag, scale=1.0):
    """Random point inside the sparsity space of a DAG."""
    p = dag.p
    L = np.eye(p)
    for c in range(p):
        for j in dag.parents[c]:
            L[j, c] = scale * rng.normal()
    return CholeskyParam(L=L, dvec=rng.uniform(0.5, 2.0, size=p))
