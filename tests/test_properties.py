"""Property tests: the sampler state stays consistent after every sweep.

Hypothesis draws small datasets (p = 3..6), hyperparameters away from
the defaults (b, known sigma2, an active R bound, a large edge
probability q) and the start.  After each sweep the cached score parts
must match a fresh evaluation, and the dense adjacency must match the
parent sets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jointdag import Dataset, Hyperparameters, adjacency
from jointdag.sampler import ChainStreams, check_state_consistency, gibbs_sweep, init_state


@st.composite
def chains(draw):
    p = draw(st.integers(3, 6))
    n = draw(st.integers(p + 2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, p))
    X[:, 0] += 0.8 * X[:, 1]
    Y = X[:, :2] @ np.array([1.2, -1.0]) + rng.standard_normal(n)
    hyper = Hyperparameters(
        b=draw(st.sampled_from([0.0, 0.5, 1.0])),
        sigma2=draw(st.sampled_from([None, 1.5])),
        R=draw(st.sampled_from([None, 2, 3])),
        q=draw(st.sampled_from([0.005, 0.3])),
    )
    init = draw(st.sampled_from(["empty", "corr"]))
    return Dataset(X, Y), hyper, init, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(chains(), st.integers(1, 40))
def test_state_consistent_after_every_sweep(chain, n_sweeps):
    data, hyper, init, seed = chain
    state = init_state(data, hyper, init=init)
    streams = ChainStreams(seed)
    for _ in range(n_sweeps):
        gibbs_sweep(state, streams)
        check_state_consistency(state, tol=1e-9, refresh=False)
        dag = state.dag()
        assert np.array_equal(state.G, adjacency(dag))
        assert len(state.active) == int(state.gamma_arr.sum()) < state.R
    assert state.iteration == n_sweeps
