import math

import numpy as np
import pytest

from periodet import DetectionCostSpec, Gaussian, IpidScenario, solve_detection

SEED = 20240801


def make_scenario(pre_means, post_means, variance=1.0, rho=0.01):
    pre = tuple(Gaussian(m, variance) for m in pre_means)
    post = tuple(Gaussian(m, variance) for m in post_means)
    return IpidScenario(pre=pre, post=post, rho=rho)


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


def per_node_kernel(pre, post, rho, resolution):
    """Continuation kernel (M, M) on the uniform grid, deposited one
    (belief, node) pair at a time: each Simpson node's mass
    w (p~ g + (1 - p~) f) goes to the two grid points around its posterior
    p~ g / (p~ g + (1 - p~) f), split linearly.  A reference for
    ``detection_mdp``'s per-cell kernel; it shares only the quadrature."""
    from periodet import simpson_window
    from periodet.detection_dp import QUADRATURE_NODES, WINDOW_SCALES

    M = resolution
    nodes, weights = simpson_window(pre, post, WINDOW_SCALES, QUADRATURE_NODES)
    f, g = np.exp(pre.logpdf(nodes)), np.exp(post.logpdf(nodes))
    p = np.linspace(0.0, 1.0, M)
    pt = (p + (1.0 - p) * rho)[:, None]
    mix = pt * g + (1.0 - pt) * f
    with np.errstate(invalid="ignore", divide="ignore"):
        p_next = np.where(mix > 0.0, pt * g / np.where(mix > 0.0, mix, 1.0), 1.0)
    u = p_next * (M - 1)
    left = np.minimum(u.astype(np.intp), M - 2)
    frac = u - left
    mass = mix * weights
    flat = left + M * np.arange(M)[:, None]
    out = np.bincount(flat.ravel(), (mass * (1.0 - frac)).ravel(), minlength=M * M)
    out += np.bincount((flat + 1).ravel(), (mass * frac).ravel(), minlength=M * M)
    return out.reshape(M, M)


def crossing_record_per_level(scenario, levels, n_paths, horizon, seed):
    """(nu, tau, log_r_at_tau) of ``monte_carlo._simulate_stopping`` with
    every level a path passes written at the step that passes it: the
    passed (row, level) pairs of a step are expanded with ``repeat`` and
    ``cumsum`` and written in one scatter.  A reference for the kernel's
    crossing record; it shares the kernel's draws (``_change_points`` and
    ``_step``) but none of its bookkeeping: it compacts the running paths'
    change points and counts the post-change ones itself."""
    from periodet import belief_to_log_odds
    from periodet.monte_carlo import _change_points, _step

    levels = np.asarray(levels, dtype=float)
    n_levels = levels.shape[0]
    stage_levels = belief_to_log_odds(levels.T)
    rng = np.random.default_rng(seed)
    nu = _change_points(rng, scenario.rho, n_paths, horizon)
    tau = np.full((n_paths, n_levels), horizon + 1, dtype=np.int32)
    log_r_at_tau = np.full((n_paths, n_levels), math.inf)
    alive = np.arange(n_paths)
    next_level = np.zeros(n_paths, dtype=np.intp)
    nu_alive = nu
    log_r = np.full(n_paths, -math.inf)
    for n in range(1, horizon + 1):
        _, log_r = _step(scenario, rng, n, int(np.sum(nu_alive <= n)), log_r)
        col = stage_levels[scenario.stage_index(n)]
        crossed = log_r > col[next_level]
        if crossed.any():
            hit_log_r = log_r[crossed]
            first = next_level[crossed]
            passed = np.searchsorted(col, hit_log_r)
            counts = passed - first
            starts = np.cumsum(counts) - counts
            rows = np.repeat(alive[crossed], counts)
            cols = np.arange(counts.sum()) + np.repeat(first - starts, counts)
            tau[rows, cols] = n
            log_r_at_tau[rows, cols] = np.repeat(hit_log_r, counts)
            next_level[crossed] = passed
            running = next_level < n_levels
            alive, nu_alive = alive[running], nu_alive[running]
            log_r, next_level = log_r[running], next_level[running]
            if alive.size == 0:
                break
    return nu, tau, log_r_at_tau


@pytest.fixture(scope="session")
def alternating_t2():
    """Two-stage scenario with strong/weak signal and alternating penalties."""
    scenario = make_scenario([0.0, 0.0], [2.0, 1.0])
    costs = DetectionCostSpec(false_alarm=(20.0, 5.0), delay=(10.0, 1.0))
    return scenario, costs


@pytest.fixture(scope="session")
def decaying_t4():
    scenario = make_scenario([0.0] * 4, [2.0, 1.5, 1.0, 0.5])
    costs = DetectionCostSpec(
        false_alarm=(20.0, 15.0, 10.0, 5.0), delay=(10.0, 10.0, 6.0, 1.0)
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


def stage_sweep(values, mdp, stage):
    """Stage-``stage`` Q-table (S, A) of ``mdp`` against ``values`` and its
    minimum (S,): the cycle of the MDP's one-stage slice, whose only stage
    reads ``values``; the slice keeps the stage's stop costs, if any."""
    from periodet import PeriodicMdp, apply_cycle_operator

    keep = slice(stage, stage + 1)
    stop = None if mdp.stop_costs is None else mdp.stop_costs[keep]
    one = PeriodicMdp(mdp.transitions[keep], mdp.costs[keep], mdp.discount, stop)
    q, entries = apply_cycle_operator(values, one)
    return q[0], entries[0]
