import os
import subprocess
import sys
from pathlib import Path

import jointdag


def test_public_api_names_resolve():
    missing = [name for name in jointdag.__all__ if not hasattr(jointdag, name)]
    assert missing == []
    assert len(set(jointdag.__all__)) == len(jointdag.__all__)


NO_SCIPY_RUN = """
import sys

sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

import numpy as np

import jointdag.cli
from jointdag import ChainControl, Dataset, Hyperparameters, enumerate_posterior, run_chain
from jointdag.metrics import evaluate_selection
from jointdag.sampler import median_probability_model
from jointdag.simdata import generate

rng = np.random.default_rng(0)
X = rng.standard_normal((30, 4))
table = enumerate_posterior(Dataset(X, X[:, 0] + rng.standard_normal(30)), Hyperparameters())
assert np.isfinite(table.log_normalizer)

truth, train, test = generate(2, 1, 0, n=60, n_test=20)  # runs simdata._sigma_from_chol
summary = run_chain(train, Hyperparameters(), ChainControl(iters=40, burnin=20, seed=1, init="corr"))
gamma, _ = median_probability_model(summary)
assert gamma.any()  # so evaluate_selection's refit factors and solves
report = evaluate_selection(gamma, truth.gamma0, train, test, summary.inclusion_probs)
assert np.isfinite(report["mspe"])
print(sorted(name for name, mod in sys.modules.items() if name.split(".")[0] == "scipy" and mod))
"""


def test_runs_without_scipy():
    # numpy is the only runtime dependency: the CLI module, an exact
    # table, a chain and its evaluation must neither need nor load scipy.
    src = str(Path(jointdag.__file__).resolve().parent.parent)  # this jointdag, not another
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
