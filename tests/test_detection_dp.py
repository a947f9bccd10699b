import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodet import (
    BeliefGrid,
    DetectionCostSpec,
    Gaussian,
    IpidScenario,
    OddsState,
    belief_to_log_odds,
    detection_mdp,
    finite_horizon_oracle,
    fixed_point_residual,
    log_odds_to_belief,
    simpson_window,
    solve_detection,
    update_odds,
    value_iterate,
)
from periodet import detection_dp, policy_iterate
from periodet.cli import REPRODUCE_FIGURES, REPRODUCE_TABLES, bundled_config
from periodet.detection_dp import QUADRATURE_NODES, WINDOW_SCALES

from conftest import make_scenario, per_node_kernel, stage_sweep


def classical_shiryaev_solver(mean_shift, lam, d, rho, grid_points, tol=1e-6):
    """Independent single-stage solver used as the T=1 reduction oracle."""
    grid = np.linspace(0.0, 1.0, grid_points)
    n_nodes = 1601
    lo, hi = min(0.0, mean_shift) - 8.0, max(0.0, mean_shift) + 8.0
    x = np.linspace(lo, hi, n_nodes)
    h = (hi - lo) / (n_nodes - 1)
    w = np.ones(n_nodes)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w = w * h / 3.0
    f = np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)
    g = np.exp(-0.5 * (x - mean_shift) ** 2) / math.sqrt(2 * math.pi)
    pt = grid + (1 - grid) * rho
    mix = pt[:, None] * g[None, :] + (1 - pt)[:, None] * f[None, :]
    nxt = pt[:, None] * g[None, :] / mix
    # np.interp(nxt, grid, J) is linear in J: each node puts weight 1 - t on
    # the grid point below it and t on the one above, so the continuation
    # integral is one fixed (M, M) matrix applied to J
    j = np.clip(np.searchsorted(grid, nxt, side="right") - 1, 0, grid_points - 2)
    t = (nxt - grid[j]) / (grid[j + 1] - grid[j])
    flat = (np.arange(grid_points)[:, None] * grid_points + j).ravel()
    weight = mix * w
    kernel = (np.bincount(flat, (weight * (1 - t)).ravel(), grid_points**2)
              + np.bincount(flat + 1, (weight * t).ravel(), grid_points**2))
    kernel = kernel.reshape(grid_points, grid_points)
    J = np.zeros(grid_points)
    for _ in range(100_000):
        cont = d * grid + kernel @ J
        new = np.minimum(lam * (1 - grid), cont)
        if np.max(np.abs(new - J)) <= tol:
            return new
        J = new
    return J


@dataclass(frozen=True)
class Cauchy:
    """Heavy-tailed custom density: a window of 8 scales misses ~7% of it."""

    loc: float
    scale: float = 1.0

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return -np.log(math.pi * self.scale * (1.0 + z * z))

    def sample(self, rng, size=None):
        return self.loc + self.scale * rng.standard_cauchy(size)


@dataclass(frozen=True)
class Clipped:
    """Normal density cut off beyond ten standard deviations, where its
    log-density is -inf."""

    loc: float
    scale: float = 1.0

    def logpdf(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        inside = -0.5 * (z * z + math.log(2 * math.pi)) - math.log(self.scale)
        return np.where(np.abs(z) <= 10.0, inside, -np.inf)

    def sample(self, rng, size=None):
        return self.loc + self.scale * rng.standard_normal(size)


def continuation_kernel(scenario, stage, resolution):
    """K_s of ``detection_mdp``: the continue rows among the grid states."""
    T = scenario.period
    costs = DetectionCostSpec(false_alarm=(5.0,) * T, delay=(1.0,) * T)
    mdp = detection_mdp(scenario, costs, resolution)
    return mdp.transitions[stage, :resolution, 0, :resolution]


# ── cost spec and grid types ───────────────────────────────────────────


def test_cost_spec_validation():
    with pytest.raises(ValueError):
        DetectionCostSpec(false_alarm=(0.0, 5.0), delay=(1.0, 1.0))
    with pytest.raises(ValueError):
        DetectionCostSpec(false_alarm=(5.0,), delay=(-1.0,))
    with pytest.raises(ValueError):
        DetectionCostSpec(false_alarm=(5.0, 5.0), delay=(1.0,))
    # the hazard belongs to the scenario, which checks it
    with pytest.raises(ValueError, match="rho must lie in"):
        make_scenario([0.0], [2.0], rho=1.0)


def test_grid_endpoints():
    grid = BeliefGrid(100)
    assert grid.points[0] == 0.0
    assert grid.points[-1] == 1.0
    assert grid.step == pytest.approx(1.0 / 99.0)
    with pytest.raises(ValueError):
        BeliefGrid(1)


def test_quadrature_window_must_cover_locations():
    # a custom density of zero scale gives a window that ends on a location
    scen = IpidScenario(pre=(Cauchy(0.0, scale=0.0),), post=(Cauchy(2.0, scale=0.0),), rho=0.01)
    costs = DetectionCostSpec(false_alarm=(5.0,), delay=(1.0,))
    with pytest.raises(ValueError, match="window"):
        detection_mdp(scen, costs, 10)


def test_quadrature_window_must_be_finite():
    # an infinite scale gives a window that covers both locations but
    # would build a NaN kernel
    scen = IpidScenario(pre=(Cauchy(0.0),), post=(Cauchy(2.0, scale=math.inf),), rho=0.01)
    costs = DetectionCostSpec(false_alarm=(5.0,), delay=(1.0,))
    with pytest.raises(ValueError, match="not finite"):
        detection_mdp(scen, costs, 10)
    with pytest.raises(ValueError, match="not finite"):
        simpson_window(Cauchy(0.0), Cauchy(2.0, scale=math.inf), 8.0, 11)


# ── belief transition: where K_s sends each grid belief ────────────────


def test_transition_absorbing_at_one():
    scen = make_scenario([0.0, 0.0], [2.0, 1.0])
    for s in range(2):
        K = continuation_kernel(scen, s, 50)
        assert np.all(K[-1, :-1] == 0.0)
        assert K[-1, -1] == pytest.approx(1.0, abs=1e-12)


def test_transition_identical_densities_ignores_observation():
    # p' = ptilde whatever is observed, so each row sits on the grid points
    # around ptilde (within rounding of it) and interpolates it exactly
    same = make_scenario([0.0], [0.0], rho=0.05)
    grid = BeliefGrid(50)
    K = continuation_kernel(same, 0, 50)
    pt = grid.points + (1 - grid.points) * 0.05
    for i in range(50):
        support = grid.points[np.flatnonzero(K[i])]
        assert np.all(np.abs(support - pt[i]) < grid.step + 1e-12)
    np.testing.assert_allclose(K @ grid.points, pt, atol=1e-12)


def test_transition_matches_scalar_recursion():
    # K_s rebuilt one (belief, node) pair at a time from the scalar filter
    rho, M = 0.01, 7
    scen = make_scenario([0.0, 0.0], [2.0, 1.0], rho=rho)
    grid = BeliefGrid(M).points
    for s in range(2):
        nxt = (s + 1) % 2  # decision after stage s averages the next observation
        nodes, weights = simpson_window(scen.pre[nxt], scen.post[nxt], WINDOW_SCALES, QUADRATURE_NODES)
        f = np.exp(scen.pre[nxt].logpdf(nodes))
        g = np.exp(scen.post[nxt].logpdf(nodes))
        expected = np.zeros((M, M))
        for i, p in enumerate(grid):
            pt = p + (1 - p) * rho
            for x, w, fx, gx in zip(nodes, weights, f, g):
                state = update_odds(OddsState(belief_to_log_odds(p), n=nxt), scen, x)
                p_next = log_odds_to_belief(state.log_r)
                hat = np.maximum(0.0, 1.0 - np.abs(p_next - grid) * (M - 1))
                expected[i] += w * (pt * gx + (1 - pt) * fx) * hat
        np.testing.assert_allclose(continuation_kernel(scen, s, M), expected, rtol=0, atol=1e-12)


# ── continuation kernel ────────────────────────────────────────────────


KERNEL_SCENARIOS = {
    "alternating_t2": make_scenario([0.0, 0.0], [2.0, 1.0]),
    "decaying_t4": make_scenario([0.0] * 4, [2.0, 1.5, 1.0, 0.5]),
    "unequal_variances": IpidScenario(
        pre=(Gaussian(0.0, 1.0), Gaussian(0.5, 2.0)), post=(Gaussian(1.0, 3.0), Gaussian(0.0, 0.5)),
        rho=0.01,
    ),
    "cauchy": IpidScenario(pre=(Cauchy(0.0),), post=(Cauchy(2.0),), rho=0.01),
    "identical": make_scenario([0.0], [0.0]),
    # a narrow density next to a wide one: f, then g, underflows to 0
    "spike_to_wide": IpidScenario(
        pre=(Gaussian(0.0, 1e-2), Gaussian(0.0, 4.0)), post=(Gaussian(0.0, 4.0), Gaussian(0.0, 1e-2)),
        rho=0.01,
    ),
    # both log-densities are -inf on the nodes between the two supports
    "disjoint_supports": IpidScenario(pre=(Clipped(0.0),), post=(Clipped(30.0),), rho=0.01),
}


@pytest.mark.parametrize("resolution", [2, 3, 50, 200, 1000])
@pytest.mark.parametrize("name", sorted(KERNEL_SCENARIOS))
def test_kernel_matches_per_node_deposit(name, resolution):
    scen = KERNEL_SCENARIOS[name]
    for s in range(scen.period):
        nxt = (s + 1) % scen.period
        expected = per_node_kernel(scen.pre[nxt], scen.post[nxt], scen.rho, resolution)
        K = continuation_kernel(scen, s, resolution)
        np.testing.assert_allclose(K, expected, rtol=0, atol=1e-12)


def test_kernel_scenarios_reach_vanishing_densities():
    # the spike's f underflows to 0 on most nodes, where g / f overflows
    scen = KERNEL_SCENARIOS["spike_to_wide"]
    nodes, _ = simpson_window(scen.pre[0], scen.post[0], WINDOW_SCALES, QUADRATURE_NODES)
    assert np.count_nonzero(np.exp(scen.pre[0].logpdf(nodes)) == 0.0) == 1214
    # disjoint supports give log L = -inf, NaN (both densities 0) and +inf
    scen = KERNEL_SCENARIOS["disjoint_supports"]
    nodes, _ = simpson_window(scen.pre[0], scen.post[0], WINDOW_SCALES, QUADRATURE_NODES)
    with np.errstate(invalid="ignore"):
        log_ratio = scen.post[0].logpdf(nodes) - scen.pre[0].logpdf(nodes)
    assert np.isneginf(log_ratio).any() and np.isnan(log_ratio).any() and np.isposinf(log_ratio).any()


_means = st.floats(-3.0, 3.0)
_variances = st.floats(0.25, 4.0)


@settings(max_examples=100, deadline=None)
@given(
    stages=st.lists(st.tuples(_means, _variances, _means, _variances), min_size=1, max_size=3),
    rho=st.floats(1e-4, 0.5),
    resolution=st.integers(2, 80),
)
def test_kernel_keeps_mass_and_first_moment(stages, rho, resolution):
    pre = tuple(Gaussian(m, v) for m, v, _, _ in stages)
    post = tuple(Gaussian(m, v) for _, _, m, v in stages)
    T, M = len(stages), resolution
    costs = DetectionCostSpec(false_alarm=(5.0,) * T, delay=(1.0,) * T)
    P = detection_mdp(IpidScenario(pre=pre, post=post, rho=rho), costs, M).transitions
    points = BeliefGrid(M).points
    pt = points + (1.0 - points) * rho
    for s in range(T):
        nxt = (s + 1) % T
        K = P[s, :M, 0, :M]
        assert np.all(K >= 0.0)
        assert np.all(K[-1, :-1] == 0.0)
        assert K[-1, -1] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(P[s, :M, 0, :].sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # hat interpolation keeps the first moment: E[p'] over the window
        nodes, weights = simpson_window(pre[nxt], post[nxt], WINDOW_SCALES, QUADRATURE_NODES)
        g_mass = weights @ np.exp(post[nxt].logpdf(nodes))
        np.testing.assert_allclose(K @ points, pt * g_mass, rtol=0, atol=1e-12)


def test_continuation_zero_curve():
    scen = make_scenario([0.0, 0.0], [2.0, 1.0])
    for s in range(2):
        K = continuation_kernel(scen, s, 50)
        assert np.all(K >= 0.0)
        assert K @ np.zeros(50) == pytest.approx(np.zeros(50), abs=1e-12)


def test_continuation_constant_curve_is_normalized():
    scen = make_scenario([0.0, 0.0], [2.0, 1.0])
    for s in range(2):
        K = continuation_kernel(scen, s, 50)
        np.testing.assert_allclose(K.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(K @ np.full(50, 7.5), 7.5, rtol=1e-9)


def test_continuation_identity_curve_gives_pumped_belief():
    # E[p'] = ptilde: the posterior is a martingale over the predictive
    # mixture, and interpolating the identity curve is exact on any grid
    scen = make_scenario([0.0, 0.0], [2.0, 1.0])
    grid = BeliefGrid(50)
    pt = grid.points + (1 - grid.points) * 0.01
    for s in range(2):
        K = continuation_kernel(scen, s, 50)
        np.testing.assert_allclose(K @ grid.points, pt, rtol=0, atol=1e-12)


def test_quadrature_mass_lost_heavy_tails():
    scen = IpidScenario(pre=(Cauchy(0.0),), post=(Cauchy(2.0),), rho=0.01)
    costs = DetectionCostSpec(false_alarm=(5.0,), delay=(1.0,))
    sol = solve_detection(scen, costs, tol=1e-12)
    # the window [-8, 10] misses the same tail mass under both laws
    outside = 1.0 - (math.atan(8.0) + math.atan(10.0)) / math.pi
    assert sol.quadrature_mass_lost == pytest.approx(outside, abs=1e-6)
    # the lost mass adds nothing: the continuation equals the interpolated
    # integral over the window alone
    nodes, weights = simpson_window(scen.pre[0], scen.post[0], WINDOW_SCALES, QUADRATURE_NODES)
    f, g = (np.exp(d.logpdf(nodes)) for d in (scen.pre[0], scen.post[0]))
    p = sol.grid.points
    pt = (p + (1 - p) * 0.01)[:, None]
    mix = pt * g + (1 - pt) * f
    cont = p + (np.interp(pt * g / mix, p, sol.stage_curves[0]) * mix) @ weights
    np.testing.assert_allclose(sol.continue_curves[0], cont, rtol=0, atol=1e-10)


def test_bundled_configs_lose_no_quadrature_mass():
    names = {row.config for rows in REPRODUCE_TABLES.values() for row in rows}
    for name in names | set(REPRODUCE_FIGURES.values()):
        cfg = bundled_config(name)
        sol = solve_detection(cfg.scenario(), cfg.cost_spec(), max_cycles=1)
        assert sol.quadrature_mass_lost < 1e-12, name


def test_detection_mdp_working_set_stays_below_the_dense_stop_layout(decaying_t4):
    # the kernel holds the continue action alone, T*(M + 1)^2 floats; a
    # stop action stored as kernel rows would double it
    scenario, costs = decaying_t4
    M = 400
    tracemalloc.start()
    try:
        mdp = detection_mdp(scenario, costs, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (M + 1) ** 2 * 2 * 8
    assert mdp.transitions.shape == (4, M + 1, 1, M + 1) and mdp.num_actions == 2


def test_unresolvable_stage_raises():
    # a window 160 wide cannot resolve a pre-change spike of width 1e-3:
    # Simpson overshoots and continuation rows sum to about 26
    scen = IpidScenario(pre=(Gaussian(0.0, 1e-6),), post=(Gaussian(0.0, 100.0),), rho=0.01)
    costs = DetectionCostSpec(false_alarm=(5.0,), delay=(1.0,))
    with pytest.raises(ValueError, match="sums to"):
        solve_detection(scen, costs)


# ── stage operator ─────────────────────────────────────────────────────


def test_stage_bellman_boundary_values(alternating_t2):
    scenario, costs = alternating_t2
    mdp = detection_mdp(scenario, costs, 100)
    q, out = stage_sweep(np.zeros(101), mdp, 0)
    np.testing.assert_array_equal(q[:, 1], mdp.stop_costs[0])  # the stop column
    assert out[99] == pytest.approx(0.0, abs=1e-12)  # p = 1: stop is free
    assert out[0] == pytest.approx(0.0, abs=1e-12)  # zero tail: continue is free
    assert out[100] == 0.0  # state M costs nothing, continued or stopped


def test_first_sweep_shape(alternating_t2):
    scenario, costs = alternating_t2
    grid = BeliefGrid(100)
    mdp = detection_mdp(scenario, costs, 100)
    cur = np.zeros(101)
    for s in (1, 0):
        _, cur = stage_sweep(cur, mdp, s)
    cur = cur[:100]
    stop0 = costs.false_alarm[0] * (1 - grid.points)
    assert np.all(cur >= -1e-12)
    assert np.all(cur <= stop0 + 1e-12)  # capped by the stopping cost
    assert cur[-1] == pytest.approx(0.0, abs=1e-12)
    # single interior peak: slope changes sign at most once
    slopes = np.sign(np.round(np.diff(cur), 12))
    changes = np.count_nonzero(np.diff(slopes[slopes != 0]))
    assert changes <= 1


def test_finite_horizon_oracle_reaches_solved_curve(alternating_t2):
    scenario, costs = alternating_t2
    M = 30
    mdp = detection_mdp(scenario, costs, M)
    sol = solve_detection(scenario, costs, grid_resolution=M, tol=1e-10)
    oracle = np.array([finite_horizon_oracle(mdp, h)[:M] for h in (0, 2, 10, 50, 250, 1000)])
    assert np.all(np.diff(oracle, axis=0) >= -1e-12)  # nondecreasing in the horizon
    np.testing.assert_allclose(oracle[-1], sol.stage_curves[0], rtol=0, atol=1e-8)


# ── full solve ─────────────────────────────────────────────────────────


def test_solve_t2_structure(solved_t2):
    sol = solved_t2
    assert sol.converged
    assert sol.period == 2
    # near-optimal start value: skipping the expensive stage and stopping at
    # the cheap one caps the cost at about lam_1 * (1 - rho)
    assert sol.value_at_zero == pytest.approx(4.95, abs=0.05)
    assert abs(sol.thresholds[0] - 0.6) <= sol.grid.step + 1e-12
    assert sol.thresholds[1] <= sol.grid.step + 1e-12


def test_solved_curves_invariants(solved_t2, solved_t4):
    for sol in (solved_t2, solved_t4):
        grid = sol.grid.points
        for s in range(sol.period):
            entry = sol.stage_curves[s]
            stop = sol.stop_curves[s]
            cont = sol.continue_curves[s]
            assert np.all(entry >= -1e-12)
            assert np.all(entry <= stop + 1e-12)  # capped by the stopping cost
            assert entry[-1] == pytest.approx(0.0, abs=1e-12)  # free at p = 1
            # concave on the grid within quadrature tolerance
            second = np.diff(entry, 2)
            assert np.all(second <= 1e-6)
            # stopping region is one upper interval: once stop <= continue,
            # it stays that way for all larger beliefs
            stop_preferred = stop <= cont + 1e-12
            first = np.argmax(stop_preferred)
            assert stop_preferred[first:].all()


def test_solve_records_histories(alternating_t2):
    scenario, costs = alternating_t2
    values = value_iterate(detection_mdp(scenario, costs, 100), tol=1e-6)
    assert values.sup_history.size == values.cycles
    assert values.l2_history.size == values.cycles
    assert values.sup_history[-1] <= 1e-6
    assert np.all(np.diff(values.l2_history[3:]) <= 1e-9)  # settles monotonically


def test_fixed_point_residual_at_convergence(alternating_t2, solved_t2):
    scenario, costs = alternating_t2
    sol = solved_t2
    mdp = detection_mdp(scenario, costs, sol.grid.resolution)
    v0 = np.append(sol.stage_curves[0], 0.0)  # state M costs 0
    assert fixed_point_residual(v0, mdp) <= 1e-6


def test_t4_solve_structure(solved_t4):
    sol = solved_t4
    assert sol.converged
    assert sol.period == 4
    assert sol.thresholds.shape == (4,)
    assert np.all((sol.thresholds >= 0.0) & (sol.thresholds <= 1.0))


def test_grid_refinement_stability(alternating_t2):
    scenario, costs = alternating_t2
    coarse = solve_detection(scenario, costs, grid_resolution=100)
    fine = solve_detection(scenario, costs, grid_resolution=400)
    assert abs(coarse.value_at_zero - fine.value_at_zero) <= 0.1


def test_classical_reduction_matches_independent_solver():
    scenario = make_scenario([0.0], [2.0], rho=0.01)
    costs = DetectionCostSpec(false_alarm=(5.0,), delay=(1.0,))
    sol = solve_detection(scenario, costs, grid_resolution=100, tol=1e-9)
    # the oracle stops on a small step too, so it needs a tighter tol than
    # the agreement asked of it: at 1e-9 it is itself 8e-8 from its limit
    oracle = classical_shiryaev_solver(2.0, 5.0, 1.0, 0.01, 100, tol=1e-12)
    np.testing.assert_allclose(sol.stage_curves[0], oracle, atol=1e-9)


def test_solve_rejects_mismatched_periods():
    scenario = make_scenario([0.0], [2.0])
    costs = DetectionCostSpec(false_alarm=(5.0, 5.0), delay=(1.0, 1.0))
    with pytest.raises(ValueError, match="period"):
        solve_detection(scenario, costs)


def test_nonconvergence_is_flagged_not_raised(alternating_t2):
    scenario, costs = alternating_t2
    values = value_iterate(detection_mdp(scenario, costs, 100), tol=1e-12, max_cycles=2)
    assert not values.converged
    assert values.cycles == 2


def solved_policy(monkeypatch, *args, **kwargs):
    """``solve_detection(*args, **kwargs)`` and the policy (T, M + 1) that
    its ``policy_iterate`` call returned."""
    results = []

    def recording(*a, **kw):
        results.append(policy_iterate(*a, **kw))
        return results[-1]

    monkeypatch.setattr(detection_dp, "policy_iterate", recording)
    return solve_detection(*args, **kwargs), results[-1].actions


def test_solve_matches_tight_value_iteration_on_bundled_configs(monkeypatch):
    # policy iteration is exact on the grid: same thresholds as value
    # iteration run to tol 1e-12, and values within that run's own error
    names = {row.config for rows in REPRODUCE_TABLES.values() for row in rows}
    for name in sorted(names | set(REPRODUCE_FIGURES.values())):
        cfg = bundled_config(name)
        sol, actions = solved_policy(monkeypatch, cfg.scenario(), cfg.cost_spec(),
                                     grid_resolution=100)
        assert sol.converged and sol.cycles <= 10, name
        # a threshold is read as the first belief where the policy stops,
        # which takes each stage to continue below it and stop from it on
        upper = sol.grid.points >= sol.thresholds[:, None]
        np.testing.assert_array_equal(actions[:, :100], upper.astype(int), err_msg=name)
        mdp = detection_mdp(cfg.scenario(), cfg.cost_spec(), 100)
        tight = value_iterate(mdp, tol=1e-12)
        # the first belief where value iteration's greedy policy stops
        stops = tight.actions[:, :100] == 1
        expected = np.where(stops.any(axis=1), sol.grid.points[stops.argmax(axis=1)], 1.0)
        np.testing.assert_array_equal(sol.thresholds, expected, err_msg=name)
        np.testing.assert_allclose(sol.stage_curves, tight.q[:, :100].min(axis=2), rtol=0,
                                   atol=1e-10, err_msg=name)


# ── thresholds read off the solved policy ──────────────────────────────


def test_solve_stops_at_the_first_positive_belief_when_delay_dominates():
    # no rule stops at p = 0, where continuing costs nothing now and less
    # than the false alarm later; when one delay at the first positive grid
    # belief outweighs every false alarm, each stage stops from there on
    scenario = make_scenario([0.0, 0.0], [2.0, 1.0])
    costs = DetectionCostSpec(false_alarm=(1.0, 1.0), delay=(1000.0, 1000.0))
    sol = solve_detection(scenario, costs, grid_resolution=11)
    np.testing.assert_array_equal(sol.thresholds, sol.grid.points[[1, 1]])


FREE_DELAY = (make_scenario([0.0, 0.0], [2.0, 1.0]),
              DetectionCostSpec(false_alarm=(5.0, 5.0), delay=(0.0, 0.0)))


def test_solve_never_stops_below_certainty_when_delay_is_free():
    # waiting costs nothing, so below p = 1 continuing beats the false alarm
    sol = solve_detection(*FREE_DELAY, grid_resolution=11)
    assert np.all(sol.continue_curves[:, :-1] < sol.stop_curves[:, :-1])
    np.testing.assert_array_equal(sol.thresholds, [1.0, 1.0])


def test_solve_tie_resolves_to_stop(monkeypatch):
    # at p = 1 both branches cost exactly 0, and the solved policy stops
    sol, actions = solved_policy(monkeypatch, *FREE_DELAY, grid_resolution=11)
    np.testing.assert_array_equal(sol.continue_curves[:, -1], 0.0)
    np.testing.assert_array_equal(sol.stop_curves[:, -1], 0.0)
    np.testing.assert_array_equal(actions[:, 10], 1)


def solve_with_tampered_result(monkeypatch, problem, tamper):
    """``solve_detection`` on ``problem`` at M = 100, with ``tamper``
    applied to the result of its ``policy_iterate`` call."""
    def tampered(*a, **kw):
        result = policy_iterate(*a, **kw)
        tamper(result)
        return result

    monkeypatch.setattr(detection_dp, "policy_iterate", tampered)
    return solve_detection(*problem, grid_resolution=100)


def test_solve_refuses_a_curve_that_is_not_concave(monkeypatch, alternating_t2):
    # both actions' Q at stage 1, point 30, raised by 0.5: the entry curve
    # bends up there, so its second difference centred on point 29 is > 0
    def bump(result):
        result.q[1, 30] += 0.5

    with pytest.raises(ValueError, match="^stage 1: solved curve not concave at grid point 29$"):
        solve_with_tampered_result(monkeypatch, alternating_t2, bump)


def test_solve_refuses_a_stop_set_with_a_gap(monkeypatch, alternating_t2):
    # stage 0 stops from its threshold on; one cleared stop action above it
    # leaves a stop set that is not one upper interval of the grid
    sol = solve_detection(*alternating_t2, grid_resolution=100)
    first = int(np.searchsorted(sol.grid.points, sol.thresholds[0]))

    def clear(result):
        result.actions[0, first + 5] = 0

    with pytest.raises(ValueError, match=f"^stage 0: policy continues at grid point {first + 5} "
                                         "above its first stop$"):
        solve_with_tampered_result(monkeypatch, alternating_t2, clear)


def test_capped_solve_is_returned_though_its_curve_bends():
    # three improvement steps stop short of the optimum here, and the last
    # policy's stage-1 curve bends up by 4e-4; the shape is the optimum's,
    # so an unconverged solve is returned, not refused
    cfg = bundled_config("penalties_5_5_1_1")
    sol = solve_detection(cfg.scenario(), cfg.cost_spec(), grid_resolution=200, max_cycles=3)
    assert not sol.converged
    assert np.diff(sol.stage_curves[1], 2).max() > 1e-4


def test_threshold_consistency_with_curves(solved_t2, solved_t4):
    # scanning the whole grid reproduces the reported thresholds
    for sol in (solved_t2, solved_t4):
        for s in range(sol.period):
            stop_region = sol.grid.points[
                sol.stop_curves[s] <= sol.continue_curves[s] + 1e-12
            ]
            assert stop_region.min() == pytest.approx(sol.thresholds[s])
