"""Selection and prediction metrics for benchmark evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RankDeficientError, UndefinedAUCError
from .simdata import Dataset


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(estimated: np.ndarray, truth: np.ndarray) -> Confusion:
    est = np.asarray(estimated).astype(bool)
    tru = np.asarray(truth).astype(bool)
    if est.shape != tru.shape:
        raise DimensionError(f"length mismatch: {est.shape} vs {tru.shape}")
    return Confusion(
        tp=int(np.sum(est & tru)),
        fp=int(np.sum(est & ~tru)),
        tn=int(np.sum(~est & ~tru)),
        fn=int(np.sum(~est & tru)),
    )


def selection_metrics(c: Confusion) -> dict:
    """Sensitivity, specificity, Matthews correlation, and error count.

    Ratios with an empty denominator are reported as 0, including any
    zero factor under the Matthews square root.
    """
    sens = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    spec = c.tn / (c.tn + c.fp) if c.tn + c.fp else 0.0
    denom = (
        float(c.tp + c.fp) * float(c.tp + c.fn) * float(c.tn + c.fp) * float(c.tn + c.fn)
    )
    mcc = (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom) if denom > 0 else 0.0
    return {"sens": sens, "spec": spec, "mcc": mcc, "n_error": c.fp + c.fn}


def auc(inclusion_probs: np.ndarray, truth: np.ndarray) -> float:
    """Area under the ROC curve as the inclusion threshold sweeps.

    The curve passes through every distinct probability value (ties share
    a threshold) plus the forced endpoints (0,0) and (1,1); the area is
    the trapezoidal sum, which equals the rank statistic
    P(active outranks inactive) with half credit for ties.
    """
    probs = np.asarray(inclusion_probs, dtype=float)
    tru = np.asarray(truth).astype(bool)
    if probs.shape != tru.shape:
        raise DimensionError(f"length mismatch: {probs.shape} vs {tru.shape}")
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("inclusion probabilities must lie in [0, 1]")
    n_pos = int(tru.sum())
    if n_pos == 0 or n_pos == tru.shape[0]:
        raise UndefinedAUCError("truth labels are all equal; AUC is undefined")
    thresholds = np.unique(probs)[::-1]
    fpr = [0.0]
    tpr = [0.0]
    n_neg = tru.shape[0] - n_pos
    for t in thresholds:
        sel = probs >= t
        tpr.append(np.sum(sel & tru) / n_pos)
        fpr.append(np.sum(sel & ~tru) / n_neg)
    return float(np.trapezoid(tpr, fpr))


def ls_refit(data: Dataset, gamma: np.ndarray) -> np.ndarray:
    """Least-squares coefficients on the selected columns.

    Raises RankDeficientError when the selected Gram matrix is singular
    to working precision: a Cholesky pivot L_ii**2 at most 1e-12 of the
    diagonal entry it came from means column i is, up to rounding, a
    combination of the columns before it.
    """
    g = np.asarray(gamma)
    if g.shape[0] != data.p:
        raise DimensionError(f"gamma length {g.shape[0]} does not match p={data.p}")
    idx = np.flatnonzero(g)
    if idx.size == 0:
        return np.zeros(0)
    gram = data.gram[np.ix_(idx, idx)]
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientError("selected Gram matrix is singular") from exc
    if np.any(np.diag(chol) ** 2 <= 1e-12 * np.diag(gram)):
        raise RankDeficientError("selected Gram matrix is singular to working precision")
    return np.linalg.solve(chol.T, np.linalg.solve(chol, data.xty[idx]))


def mspe(beta_hat: np.ndarray, gamma: np.ndarray, test: Dataset) -> float:
    """Mean squared prediction error on a held-out set."""
    if test.n == 0:
        raise ValueError("test set must be nonempty")
    g = np.asarray(gamma)
    if g.shape[0] != test.p:
        raise DimensionError(f"gamma length {g.shape[0]} does not match p={test.p}")
    idx = np.flatnonzero(g)
    pred = test.X[:, idx] @ np.asarray(beta_hat, dtype=float) if idx.size else np.zeros(test.n)
    resid = pred - test.Y
    return float(resid @ resid) / test.n


def evaluate_selection(
    estimated: np.ndarray,
    truth: np.ndarray,
    train: Dataset,
    test: Dataset,
    inclusion_probs: np.ndarray | None = None,
) -> dict:
    """Flat report with the six benchmark keys.

    ``auc`` is None when no inclusion probabilities are available (point
    selectors such as penalized baselines).
    """
    c = confusion(estimated, truth)
    out = selection_metrics(c)
    out["auc"] = auc(inclusion_probs, truth) if inclusion_probs is not None else None
    beta_hat = ls_refit(train, estimated)
    out["mspe"] = mspe(beta_hat, estimated, test)
    return {k: out[k] for k in ("sens", "spec", "auc", "mcc", "n_error", "mspe")}
