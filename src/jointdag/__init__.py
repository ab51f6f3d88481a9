"""Joint Bayesian selection of regression variables and the DAG of their covariates.

The model couples three pieces: a spike-and-slab prior on regression
coefficients, a conjugate matrix law on the Cholesky factor of the
covariate precision restricted to an ordered DAG, and an Ising-type
prior that rewards including variables linked in that DAG.  The package
scores (inclusion vector, DAG) pairs in closed form, enumerates the
exact posterior at small dimension, samples it with a
Metropolis-within-Gibbs chain at benchmark scale, and evaluates
selection quality against simulated ground truth.
"""

__version__ = "0.1.0"

from .cholesky import CholeskyParam
from .graphs import Dag, adjacency, log_prior_dag
from .metrics import Confusion, auc, confusion, ls_refit, mspe, selection_metrics
from .sampler import (
    ChainControl,
    ChainSummary,
    gibbs_sweep,
    init_state,
    median_probability_model,
    propose_gamma,
    run_chain,
)
from .scoring import JointScore, ScoreEngine, enumerate_posterior, log_joint_score
from .simdata import Dataset, GroundTruth, gen_scenario1, gen_scenario2, gen_scenario3
from .spike_slab import Hyperparameters, log_mrf_prior

__all__ = [
    "CholeskyParam",
    "ChainControl",
    "ChainSummary",
    "Confusion",
    "Dag",
    "Dataset",
    "GroundTruth",
    "Hyperparameters",
    "JointScore",
    "ScoreEngine",
    "adjacency",
    "auc",
    "confusion",
    "enumerate_posterior",
    "gen_scenario1",
    "gen_scenario2",
    "gen_scenario3",
    "gibbs_sweep",
    "init_state",
    "log_joint_score",
    "log_mrf_prior",
    "log_prior_dag",
    "ls_refit",
    "median_probability_model",
    "mspe",
    "propose_gamma",
    "run_chain",
    "selection_metrics",
]
