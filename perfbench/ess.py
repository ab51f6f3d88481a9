"""Rank-normalized bulk effective sample size of one chain's trace.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat":
split the chain in halves, replace the draws by normal scores of their
pooled average ranks, and sum autocorrelations with Geyer's initial
monotone sequence.  ``python3 perfbench/ess.py`` runs the self-test.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri


def _ess_split(chains: np.ndarray) -> float:
    """ESS of an (m, n) array of chains (already split and normalized)."""
    m, n = chains.shape
    centered = chains - chains.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, nfft, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), nfft, axis=1)[:, :n] / n
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n + (chains.mean(axis=1).var(ddof=1) if m > 1 else 0.0)
    if not var_plus > 0.0:
        return float("nan")  # constant trace: ESS undefined
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: keep pair sums while positive, then force them to be non-increasing.
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    pairs = np.minimum.accumulate(pairs[: stop[0] if stop.size else pairs.size])
    tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / np.log10(m * n))
    return float(m * n / tau)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a flat array; tied values share their mean rank."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], xs.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def bulk_ess(trace) -> float:
    """Bulk-ESS of a single chain's 1-d trace."""
    x = np.asarray(trace, dtype=float)
    half = x.shape[0] // 2
    split = np.stack([x[:half], x[x.shape[0] - half:]])
    z = ndtri((_average_ranks(split.ravel()) - 0.375) / (split.size + 0.25))
    return _ess_split(z.reshape(split.shape))


def self_test(n: int = 40000, phi: float = 0.6, seed: int = 1, tol: float = 0.1) -> bool:
    """Check bulk_ess on an AR(1) series, whose ESS is n (1 - phi) / (1 + phi)."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    expected = n * (1.0 - phi) / (1.0 + phi)
    white = bulk_ess(rng.standard_normal(n))
    return abs(bulk_ess(x) / expected - 1.0) <= tol and abs(white / n - 1.0) <= tol


if __name__ == "__main__":
    ok = self_test()
    print(f"bulk_ess AR(1) self-test: {'pass' if ok else 'FAIL'}")
    raise SystemExit(0 if ok else 1)
