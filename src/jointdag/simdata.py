"""Synthetic benchmark scenarios and the dataset container.

Three generators build (ground truth, train set, test set) triples:

* Scenario 1: p=240 covariates organized as 40 hub variables, each the
  sole parent of the 5 preceding covariates; strong fixed coefficients
  on the first 4 hub clusters.
* Scenario 2: p=150 with 30 hubs of 4 children, random factor weights,
  and weak random coefficients on the first 20 covariates.
* Scenario 3: p=150 with a banded covariance and randomly shuffled
  columns, so the stated vertex ordering is wrong on purpose; only the
  active-variable truth is defined.

Generators are pure functions of (setting, seed): fixed inputs give
bit-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cholesky import CholeskyParam
from .errors import DataError, DimensionError
from .graphs import Dag


@dataclass
class Dataset:
    """Design matrix X (n x p) and response Y (n,) with per-dataset caches.

    ``gram`` is X'X, ``xty`` is X'Y and ``yty`` is Y'Y; they are
    computed once so that model scoring never touches the n
    dimension again.
    """

    X: np.ndarray
    Y: np.ndarray
    gram: np.ndarray = field(init=False, repr=False)
    xty: np.ndarray = field(init=False, repr=False)
    yty: float = field(init=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        if X.shape[1] == 0:
            raise DataError("X has no columns")
        if Y.ndim != 1 or Y.shape[0] != X.shape[0]:
            raise DimensionError(
                f"Y must be a vector with one entry per row of X, got shape {Y.shape} for {X.shape[0]} rows"
            )
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise DataError("X and Y must be finite")
        self.X = X
        self.Y = Y
        self.gram = X.T @ X
        self.xty = X.T @ Y
        self.yty = float(Y @ Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @classmethod
    def from_csv(cls, x_path, y_path) -> "Dataset":
        """Read X and a one-column Y file; another column count is a DataError."""
        X = load_matrix_csv(x_path)
        Y = load_matrix_csv(y_path)
        if Y.shape[1] != 1:
            raise DataError(f"{y_path}: expected one column, got {Y.shape[1]}")
        return cls(X, Y[:, 0])


def load_matrix_csv(path) -> np.ndarray:
    """Read a comma-separated numeric matrix; a header row is auto-detected
    by testing whether the first cell parses as a number.  Ragged rows,
    unparsable cells and non-finite values raise DataError naming the file."""
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
    if not first:
        raise DataError(f"{path} is empty")
    cell = first.split(",")[0].strip()
    try:
        float(cell)
        skip = 0
    except ValueError:
        skip = 1
    try:
        out = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: non-finite value in data row {bad[0] + 1}")
    return out


def save_matrix_csv(path, arr: np.ndarray) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    np.savetxt(path, arr, delimiter=",", fmt="%.17g")


@dataclass
class GroundTruth:
    """True generating quantities of one simulated replicate.

    ``condition_a`` records whether every graph edge incident to an
    active variable joins two active variables (None when no graph truth
    exists, as in Scenario 3).
    """

    beta0: np.ndarray
    gamma0: np.ndarray
    dag0: Dag | None
    chol0: CholeskyParam | None
    Sigma0: np.ndarray
    sigma_eps2: float
    seed: int
    condition_a: bool | None = None

    @property
    def p(self) -> int:
        return self.beta0.shape[0]

    def to_json(self) -> str:
        edges = None
        if self.dag0 is not None:
            edges = [[c + 1, j + 1] for c, j in self.dag0.edges()]
        doc = {
            "p": self.p,
            "beta0": [float(v) for v in self.beta0],
            "gamma0": "".join(str(int(v)) for v in self.gamma0),
            "edges": edges,
            "sigma_eps2": float(self.sigma_eps2),
            "seed": int(self.seed),
            "condition_a": self.condition_a,
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str, source: str = "truth JSON") -> "GroundTruth":
        """Parse ``to_json`` output; malformed input raises DataError naming ``source``."""
        doc = read_json_object(text, source, ("p", "beta0", "gamma0", "sigma_eps2", "seed"))
        p = read_int(doc["p"], source, "p")
        beta0 = read_numbers(doc["beta0"], source, "beta0", ndim=1)
        gamma0 = read_inclusion(doc["gamma0"], source, "gamma0")
        for key, arr in (("beta0", beta0), ("gamma0", gamma0)):
            if arr.shape[0] != p:
                raise DataError(f"{source}: {key} has {arr.shape[0]} entries but p = {p}")
        dag0 = None
        if doc.get("edges") is not None:
            dag0 = Dag.from_edges(p, read_edges(doc["edges"], p, source, "edges"))
        return cls(
            beta0=beta0,
            gamma0=gamma0,
            dag0=dag0,
            chol0=None,
            Sigma0=np.zeros((0, 0)),
            sigma_eps2=float(read_numbers(doc["sigma_eps2"], source, "sigma_eps2")),
            seed=read_int(doc["seed"], source, "seed"),
            condition_a=doc.get("condition_a"),
        )


def read_json_object(text: str, source: str, keys: tuple[str, ...]) -> dict:
    """The JSON object in ``text``; text that is not a JSON object, or an
    object without one of ``keys``, raises DataError naming ``source``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{source}: not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{source}: expected a JSON object")
    for key in keys:
        if key not in doc:
            raise DataError(f"{source}: missing key {key!r}")
    return doc


def read_numbers(value, source: str, key: str, ndim: int = 0) -> np.ndarray:
    """``value`` as a float array of ``ndim`` dimensions (0: one number,
    1: a list of numbers) with every entry finite; anything else raises
    DataError naming ``source`` and ``key``."""
    what = "a finite number" if ndim == 0 else "a list of finite numbers"
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"{source}: {key} must be {what}") from None
    if arr.ndim != ndim or not np.isfinite(arr).all():
        raise DataError(f"{source}: {key} must be {what}")
    return arr


def read_int(value, source: str, key: str) -> int:
    """``value`` as an integer; a non-integral or non-numeric value raises
    DataError naming ``source`` and ``key``."""
    x = float(read_numbers(value, source, key))
    if not x.is_integer():
        raise DataError(f"{source}: {key} must be an integer, got {value!r}")
    return int(x)


def read_inclusion(bits, source: str, key: str) -> np.ndarray:
    """The inclusion vector written as a string of 0s and 1s; any other
    value raises DataError naming ``source`` and ``key``."""
    if not (isinstance(bits, str) and bits and set(bits) <= {"0", "1"}):
        raise DataError(f"{source}: {key} must be a non-empty string of 0s and 1s")
    return np.array([int(ch) for ch in bits], dtype=np.int8)


def read_edges(value, p: int, source: str, key: str) -> list[tuple[int, int]]:
    """``value`` as a list of [child, parent] pairs of 1-based vertex
    numbers with child < parent <= p, returned 0-based; any other value
    raises DataError naming ``source`` and ``key``."""
    what = f"a list of [child, parent] integer pairs with 1 <= child < parent <= {p}"
    if not isinstance(value, list):
        raise DataError(f"{source}: {key} must be {what}")
    for pair in value:
        ok = isinstance(pair, list) and len(pair) == 2 and all(type(v) is int for v in pair)
        if not (ok and 1 <= pair[0] < pair[1] <= p):
            raise DataError(f"{source}: {key} must be {what}, got {pair!r}")
    return [(c - 1, j - 1) for c, j in value]


def _active_network_closed(gamma: np.ndarray, dag: Dag) -> bool:
    """True when no edge connects an active variable with an inactive one."""
    g = np.asarray(gamma).astype(bool)
    for child, parent in dag.edges():
        if (g[child] or g[parent]) and not (g[child] and g[parent]):
            return False
    return True


def _sigma_from_chol(L: np.ndarray, dvec: np.ndarray) -> np.ndarray:
    """Covariance (L diag(1/dvec) L^T)^-1 from the inverse of the unit
    lower-triangular L."""
    Linv = np.linalg.inv(L)
    return Linv.T @ (dvec[:, np.newaxis] * Linv)


def _sample_hub_design(rng, n, dvec, L, hub_children):
    """Draw n rows of the hub/children Gaussian: hubs first, then each child
    given its hub with conditional mean -L[hub, child] * x_hub."""
    p = dvec.shape[0]
    X = rng.standard_normal((n, p)) * np.sqrt(dvec)[np.newaxis, :]
    for hub, children in hub_children:
        X[:, children] += -L[hub, children][np.newaxis, :] * X[:, [hub]]
    return X


def gen_scenario1(setting: int, seed: int, n: int = 100, n_test: int = 100):
    """Hub-regulation design at p=240 with strong fixed signals.

    Hubs sit at positions 6, 12, ..., 240 (1-based); hub j is the sole
    parent of the 5 covariates just below it.  The first 4 hubs carry
    coefficients (5, -5, 3, -3) and their children inherit the hub value
    shrunk by sqrt(10) (settings 1-2) or 10 (settings 3-4); settings 2
    and 4 flip the sign of the first two children per active hub.  Noise
    variance is ||beta0||^2 / 4.
    """
    if setting not in (1, 2, 3, 4):
        raise ValueError(f"setting must be 1..4, got {setting}")
    p = 240
    rng = np.random.default_rng(seed)
    hubs = np.arange(5, p, 6)  # 0-based positions of the 40 hubs
    hub_children = [(h, np.arange(h - 5, h)) for h in hubs]

    dvec = rng.uniform(3.0, 5.0, size=p)
    L = np.eye(p)
    for h, ch in hub_children:
        # conditional child mean is +x_hub, hence -1 entries in the factor
        L[h, ch] = -1.0

    divisor = np.sqrt(10.0) if setting in (1, 2) else 10.0
    beta0 = np.zeros(p)
    hub_vals = (5.0, -5.0, 3.0, -3.0)
    for j, val in enumerate(hub_vals):
        h = hubs[j]
        beta0[h] = val
        for k in range(1, 6):
            beta0[h - k] = val / divisor
        if setting in (2, 4):
            beta0[h - 1] = -beta0[h - 1]
            beta0[h - 2] = -beta0[h - 2]
    sigma_eps2 = float(beta0 @ beta0) / 4.0
    return _hub_replicate(rng, seed, n, n_test, dvec, L, hub_children, beta0, sigma_eps2)


def _hub_replicate(rng, seed, n, n_test, dvec, L, hub_children, beta0, sigma_eps2):
    """Ground truth, train set and test set of a hub design, drawing the
    two designs and responses from ``rng`` after the coefficients."""
    p = dvec.shape[0]
    dag0 = Dag(p, tuple(_hub_parent(j, hub_children) for j in range(p)))
    gamma0 = (beta0 != 0).astype(np.int8)
    X = _sample_hub_design(rng, n, dvec, L, hub_children)
    Y = X @ beta0 + rng.standard_normal(n) * np.sqrt(sigma_eps2)
    X_test = _sample_hub_design(rng, n_test, dvec, L, hub_children)
    Y_test = X_test @ beta0 + rng.standard_normal(n_test) * np.sqrt(sigma_eps2)
    truth = GroundTruth(
        beta0=beta0,
        gamma0=gamma0,
        dag0=dag0,
        chol0=CholeskyParam(L=L, dvec=dvec.copy()),
        Sigma0=_sigma_from_chol(L, dvec),
        sigma_eps2=sigma_eps2,
        seed=int(seed),
        condition_a=_active_network_closed(gamma0, dag0),
    )
    return truth, Dataset(X, Y), Dataset(X_test, Y_test)


def _hub_parent(j, hub_children):
    for h, ch in hub_children:
        if ch[0] <= j <= ch[-1]:
            return (int(h),)
    return ()


def gen_scenario2(setting: int, seed: int, n: int = 100, n_test: int = 100):
    """Hub design at p=150 with weak random signals.

    Hubs sit at positions 5, 10, ..., 150 (1-based) with 4 children each;
    factor weights are Unif(0.3, 0.7) and diagonal terms Unif(2, 5).  The
    first 20 covariates get coefficients Unif(0.5, 1) (settings 1-2) or
    Unif(0.2, 1) (settings 3-4); settings 2 and 4 randomize the signs.
    Noise variance equals ||beta0||^2.
    """
    if setting not in (1, 2, 3, 4):
        raise ValueError(f"setting must be 1..4, got {setting}")
    p = 150
    rng = np.random.default_rng(seed)
    hubs = np.arange(4, p, 5)
    hub_children = [(h, np.arange(h - 4, h)) for h in hubs]

    dvec = rng.uniform(2.0, 5.0, size=p)
    L = np.eye(p)
    for h, ch in hub_children:
        L[h, ch] = rng.uniform(0.3, 0.7, size=ch.shape[0])

    n_active = 20
    lo = 0.5 if setting in (1, 2) else 0.2
    beta0 = np.zeros(p)
    beta0[:n_active] = rng.uniform(lo, 1.0, size=n_active)
    if setting in (2, 4):
        beta0[:n_active] *= rng.choice([-1.0, 1.0], size=n_active)
    sigma_eps2 = float(beta0 @ beta0)
    return _hub_replicate(rng, seed, n, n_test, dvec, L, hub_children, beta0, sigma_eps2)


def gen_scenario3(setting: int, seed: int, n: int = 100, n_test: int = 100):
    """Banded covariance with shuffled columns (mis-specified ordering).

    The base covariance is 2 * max(1 - |i-j|/10, 0) within a bandwidth of
    5, shifted so its smallest eigenvalue is exactly 0.01.  Columns are
    randomly permuted before the response is formed, so no vertex order
    of the delivered design matches the band.  The first 10 delivered
    covariates are active with Unif(0.5, 1) coefficients; setting 2
    randomizes the signs.  Noise variance is ||beta0||^2 / 4.  No graph
    truth is defined.
    """
    if setting not in (1, 2):
        raise ValueError(f"setting must be 1 or 2, got {setting}")
    p = 150
    rng = np.random.default_rng(seed)

    idx = np.arange(p)
    dist = np.abs(idx[:, None] - idx[None, :])
    sig_band = np.where(dist <= 5, 2.0 * np.maximum(1.0 - dist / 10.0, 0.0), 0.0)
    lam_min = float(np.linalg.eigvalsh(sig_band)[0])
    sigma_base = sig_band + (0.01 - lam_min) * np.eye(p)
    C = np.linalg.cholesky(sigma_base)

    perm = rng.permutation(p)
    Sigma0 = sigma_base[np.ix_(perm, perm)]

    n_active = 10
    beta0 = np.zeros(p)
    beta0[:n_active] = rng.uniform(0.5, 1.0, size=n_active)
    if setting == 2:
        beta0[:n_active] *= rng.choice([-1.0, 1.0], size=n_active)
    sigma_eps2 = float(beta0 @ beta0) / 4.0
    gamma0 = (beta0 != 0).astype(np.int8)

    X = (rng.standard_normal((n, p)) @ C.T)[:, perm]
    Y = X @ beta0 + rng.standard_normal(n) * np.sqrt(sigma_eps2)
    X_test = (rng.standard_normal((n_test, p)) @ C.T)[:, perm]
    Y_test = X_test @ beta0 + rng.standard_normal(n_test) * np.sqrt(sigma_eps2)

    truth = GroundTruth(
        beta0=beta0,
        gamma0=gamma0,
        dag0=None,
        chol0=None,
        Sigma0=Sigma0,
        sigma_eps2=sigma_eps2,
        seed=int(seed),
        condition_a=None,
    )
    return truth, Dataset(X, Y), Dataset(X_test, Y_test)


SCENARIO_GENERATORS = {1: gen_scenario1, 2: gen_scenario2, 3: gen_scenario3}


def generate(scenario: int, setting: int, seed: int, n: int = 100, n_test: int = 100):
    try:
        gen = SCENARIO_GENERATORS[scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {scenario}") from None
    return gen(setting, seed, n=n, n_test=n_test)
