import math

import numpy as np
import pytest

from periodet import DetectionCostSpec, Gaussian, IpidScenario, solve_detection

SEED = 20240801


def make_scenario(pre_means, post_means, variance=1.0):
    pre = tuple(Gaussian(m, variance) for m in pre_means)
    post = tuple(Gaussian(m, variance) for m in post_means)
    return IpidScenario(pre=pre, post=post)


def brute_force_posterior(scenario, rho, observations):
    """P(nu <= n | y_1..y_n) for n = 1..N by direct Bayes over the change
    point, as a reference for the log-odds recursion.

    With Z_i = log g_i(y_i) - log f_i(y_i) built from the stage densities,
    change point nu = k <= n has log weight log P(nu = k) + sum_{i=k}^n Z_i
    and nu = n + 1 (no change yet) has log P(nu > n) = n log(1 - rho); the
    weights are normalized in log space at every n.
    """
    y = np.asarray(observations, dtype=float)
    z = np.empty(y.size)
    for s in range(scenario.period):
        z[s :: scenario.period] = (
            scenario.post[s].logpdf(y[s :: scenario.period])
            - scenario.pre[s].logpdf(y[s :: scenario.period])
        )
    log_keep = math.log1p(-rho)
    posterior = np.empty(y.size)
    for n in range(1, y.size + 1):
        log_weights = np.empty(n + 1)
        # sum_{i=k}^n Z_i for k = 1..n
        log_weights[:n] = np.cumsum(z[n - 1 :: -1])[::-1]
        log_weights[:n] += np.arange(n) * log_keep + math.log(rho)
        log_weights[n] = n * log_keep
        changed = np.logaddexp.reduce(log_weights[:n])
        posterior[n - 1] = math.exp(changed - np.logaddexp.reduce(log_weights))
    return posterior


@pytest.fixture(scope="session")
def alternating_t2():
    """Two-stage scenario with strong/weak signal and alternating penalties."""
    scenario = make_scenario([0.0, 0.0], [2.0, 1.0])
    costs = DetectionCostSpec(false_alarm=(20.0, 5.0), delay=(10.0, 1.0), rho=0.01)
    return scenario, costs


@pytest.fixture(scope="session")
def decaying_t4():
    scenario = make_scenario([0.0] * 4, [2.0, 1.5, 1.0, 0.5])
    costs = DetectionCostSpec(
        false_alarm=(20.0, 15.0, 10.0, 5.0), delay=(10.0, 10.0, 6.0, 1.0), rho=0.01
    )
    return scenario, costs


@pytest.fixture(scope="session")
def weak_t2():
    """Small-shift scenario used for the delay/false-alarm tradeoff."""
    return make_scenario([0.0, 0.0], [0.75, 0.25])


@pytest.fixture(scope="session")
def solved_t2(alternating_t2):
    scenario, costs = alternating_t2
    return solve_detection(scenario, costs, grid_resolution=100)


@pytest.fixture(scope="session")
def solved_t4(decaying_t4):
    scenario, costs = decaying_t4
    return solve_detection(scenario, costs, grid_resolution=100)


def random_mdp(rng, n_states, n_actions, period, discount, cost_scale=1.0):
    """Dense random periodic MDP with Dirichlet-normalized kernels."""
    from periodet import PeriodicMdp

    P = rng.random((period, n_states, n_actions, n_states))
    P /= P.sum(axis=-1, keepdims=True)
    c = cost_scale * rng.random((period, n_states, n_actions))
    return PeriodicMdp(transitions=P, costs=c, discount=discount)
