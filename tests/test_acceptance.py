"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with the measured numbers.

Target values for the bundled scenarios come from the reproduction
registry (single-threshold and optimal-policy costs), solver structure
(values, thresholds) is checked at grid precision, and the property
criteria run self-contained on randomized instances.  Monte-Carlo
tolerances follow the stated contracts: an absolute allowance or three
standard errors, whichever is larger, plus a fixed 0.2 grid allowance
where a solver value is compared against a simulation.
"""

import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from periodet import (
    GeometricPrior,
    OddsState,
    PeriodicThresholds,
    analytic_delay,
    estimate_add_pfa,
    estimate_bayes_cost,
    extract_periodic_policy,
    finite_horizon_oracle,
    fixed_point_residual,
    kl_information,
    load_instance,
    log_odds_to_belief,
    prior_tail_exponent,
    sample_path,
    simulate_policy,
    solve_detection,
    sweep_single_threshold,
    update_odds,
    value_iterate,
)
from periodet.cli import DEFAULT_THRESHOLD_GRID, REPRODUCE_TABLES, bundled_config
from periodet.detection_dp import DetectionCostSpec

from conftest import brute_force_posterior, make_scenario, random_mdp
from test_detection_dp import classical_shiryaev_solver

SEED = 20240801
SWEEP_PATHS = 10_000
GRID_ALLOWANCE = 0.2  # solver-vs-simulation slack for grid/interpolation error


def _line(criterion: str, ok: bool, detail: str) -> str:
    status = "PASS" if ok else "FAIL"
    line = f"[{criterion}] {status}: {detail}"
    print(line)
    return line


@lru_cache(maxsize=None)
def solved(config_name: str):
    cfg = bundled_config(config_name)
    return cfg, solve_detection(
        cfg.scenario(), cfg.cost_spec(), grid_resolution=cfg.grid_points, tol=cfg.tolerance
    )


@lru_cache(maxsize=None)
def simulated_optimal(config_name: str):
    cfg, solution = solved(config_name)
    policy = PeriodicThresholds(tuple(solution.thresholds))
    return estimate_bayes_cost(
        cfg.scenario(), cfg.cost_spec(), policy, SWEEP_PATHS, horizon=cfg.horizon, seed=SEED
    )


@lru_cache(maxsize=None)
def swept_single(config_name: str):
    cfg, _ = solved(config_name)
    return sweep_single_threshold(
        cfg.scenario(), cfg.cost_spec(), DEFAULT_THRESHOLD_GRID, SWEEP_PATHS,
        seed=SEED, horizon=cfg.horizon,
    ).best


def test_criterion_1_two_stage_solve():
    """Alternating two-stage scenario at 100 grid points: start value 5.0
    within 0.2 and thresholds (0.6, 0.0) at grid precision."""
    _, solution = solved("alternating_t2")
    step = solution.grid.step
    ok = (
        solution.converged
        and abs(solution.value_at_zero - 5.0) <= 0.2
        and abs(solution.thresholds[0] - 0.6) <= step + 1e-12
        and solution.thresholds[1] <= step + 1e-12
    )
    line = _line(
        "criterion 1",
        ok,
        f"value {solution.value_at_zero:.4f} (target 5.0 +- 0.2), thresholds "
        f"{np.round(solution.thresholds, 4).tolist()} (target 0.6, 0.0 at step {step:.4f})",
    )
    assert ok, line


def test_criterion_2_four_stage_solve():
    """Four-stage scenario: start value 5.0 within 0.2 with four per-stage
    thresholds."""
    _, solution = solved("decaying_t4")
    ok = (
        solution.converged
        and abs(solution.value_at_zero - 5.0) <= 0.2
        and solution.thresholds.shape == (4,)
        and np.all((solution.thresholds >= 0.0) & (solution.thresholds <= 1.0))
    )
    line = _line(
        "criterion 2",
        ok,
        f"value {solution.value_at_zero:.4f} (target 5.0 +- 0.2), thresholds "
        f"{np.round(solution.thresholds, 4).tolist()}",
    )
    assert ok, line


def test_criterion_3_single_threshold_sweeps():
    """Best single-threshold cost at 10,000 paths: 10.2 for the two-stage
    scenario and 11.3 for the four-stage one."""
    best2 = swept_single("alternating_t2")
    best4 = swept_single("decaying_t4")
    tol2 = max(0.5, 3 * best2.std_error)
    tol4 = max(0.6, 3 * best4.std_error)
    ok = abs(best2.cost - 10.2) <= tol2 and abs(best4.cost - 11.3) <= tol4
    line = _line(
        "criterion 3",
        ok,
        f"T2 best {best2.cost:.3f} @ A={best2.threshold} (target 10.2 +- {tol2:.2f}); "
        f"T4 best {best4.cost:.3f} @ A={best4.threshold} (target 11.3 +- {tol4:.2f})",
    )
    assert ok, line


def _check_table(criterion: str, table: str, tolerance: float) -> None:
    failures = []
    details = []
    for row in REPRODUCE_TABLES[table]:
        best = swept_single(row.config)
        optimal = simulated_optimal(row.config)
        tol_single = max(tolerance, 3 * best.std_error)
        tol_opt = max(tolerance, 3 * optimal.std_error)
        ok_single = abs(best.cost - row.target_single) <= tol_single
        ok_opt = abs(optimal.estimate - row.target_optimal) <= tol_opt
        if not (ok_single and ok_opt):
            failures.append(row.label)
        details.append(
            f"{row.label}: single {best.cost:.2f}/{row.target_single}, "
            f"optimal {optimal.estimate:.2f}/{row.target_optimal}"
        )
    line = _line(criterion, not failures, "; ".join(details))
    assert not failures, line


def test_criterion_4_table1_identical_laws():
    _check_table("criterion 4", "table1", 0.5)


def test_criterion_5_table2_mean_choices():
    _check_table("criterion 5", "table2", 0.5)


def test_criterion_6_table3_penalty_choices():
    _check_table("criterion 6", "table3", 0.4)
    best = swept_single("penalties_5_5_1_1")
    optimal = simulated_optimal("penalties_5_5_1_1")
    gap = best.cost - optimal.estimate
    ok = gap <= 0.2
    line = _line(
        "criterion 6 (equal-penalty gap)",
        ok,
        f"single {best.cost:.3f} vs optimal {optimal.estimate:.3f}: gap {gap:.3f} <= 0.2",
    )
    assert ok, line


def test_criterion_7_tradeoff_curve():
    """Simulated delay within 15% of the first-order expression
    |log alpha| / (I + d) at the stated false-alarm levels, thresholds set
    to 1 - alpha, 5,000 paths.

    Known gap: the first-order expression omits an O(1) start/overshoot
    offset (about nine samples here), so the pointwise ratio at these
    moderate alpha levels sits at roughly 1.16-1.32 and only approaches 1
    as alpha shrinks further.  The growth-rate comparison, which is the
    substantive content of the expression, is asserted separately in
    ``test_tradeoff_slope_matches_analytic_rate``.
    """
    cfg = bundled_config("tradeoff_t2")
    scenario = cfg.scenario()
    info = kl_information(scenario)
    tail = prior_tail_exponent(GeometricPrior(cfg.rho))
    assert info == pytest.approx(0.15625, abs=1e-12)
    assert tail == pytest.approx(abs(math.log(0.99)), abs=1e-15)
    details = []
    ok = True
    for alpha in (1e-2, 1e-3, 1e-4):
        res = estimate_add_pfa(
            scenario, cfg.rho, 1.0 - alpha, 5000, horizon=cfg.horizon, seed=SEED
        )
        target = analytic_delay(alpha, info, tail)
        rel = abs(res.add.estimate - target) / target
        ok &= rel <= 0.15
        details.append(
            f"alpha={alpha:g}: ADD {res.add.estimate:.2f} vs {target:.2f} "
            f"(off by {100 * rel:.1f}%)"
        )
    line = _line("criterion 7", ok, "; ".join(details))
    assert ok, line


def test_tradeoff_slope_matches_analytic_rate():
    """The simulated delay grows with |log alpha| at the analytic rate
    1 / (I + d) (within 5%), and the pointwise ratio shrinks toward 1 as
    alpha decreases."""
    cfg = bundled_config("tradeoff_t2")
    scenario = cfg.scenario()
    info = kl_information(scenario)
    tail = prior_tail_exponent(GeometricPrior(cfg.rho))
    alphas = (1e-2, 1e-3, 1e-4)
    adds = []
    ratios = []
    for alpha in alphas:
        res = estimate_add_pfa(
            scenario, cfg.rho, 1.0 - alpha, 5000, horizon=cfg.horizon, seed=SEED
        )
        adds.append(res.add.estimate)
        ratios.append(res.add.estimate / analytic_delay(alpha, info, tail))
    analytic_slope = 1.0 / (info + tail)
    for lo, hi in zip(adds, adds[1:]):
        slope = (hi - lo) / math.log(10.0)
        assert abs(slope - analytic_slope) / analytic_slope <= 0.05
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_criterion_8_property_suites(solved_t2, solved_t4, alternating_t2):
    """Self-contained property bundle: recursion agreement, value-iteration
    guarantees against an independent oracle, the classical reduction, the
    structural invariants of solved stopping problems, and solver-vs-
    simulation consistency on every bundled scenario."""
    # log-odds recursion vs the brute-force Bayes posterior to 1e-9 in p on
    # randomized sample paths
    scen = make_scenario([0.0, 0.0], [1.0, 0.25])
    prior = GeometricPrior(0.02)
    for seed in range(10):
        path = sample_path(scen, prior, horizon=200, seed=seed)
        want = brute_force_posterior(scen, prior.rho, path.observations)
        state = OddsState(-math.inf)
        for y, p in zip(path.observations, want):
            state = update_odds(state, prior, scen, y)
            assert abs(log_odds_to_belief(state.log_r) - p) <= 1e-9

    # value iteration: monotone iterates, residual at tol, oracle sandwich
    # on 50 random small instances at discount 0.9
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        mdp = random_mdp(
            rng,
            n_states=int(rng.integers(2, 6)),
            n_actions=int(rng.integers(2, 4)),
            period=int(rng.integers(1, 4)),
            discount=0.9,
        )
        values = value_iterate(mdp, tol=1e-9)
        assert values.converged
        assert fixed_point_residual(values, mdp) <= 1e-9
        horizon = 300 * mdp.period
        lower = finite_horizon_oracle(mdp, horizon)
        tail_bound = 0.9**horizon * mdp.costs.max() / 0.1
        slack = 1e-9 / 0.1
        assert np.all(values.values[0] >= lower - slack)
        assert np.all(values.values[0] <= lower + tail_bound + slack)

    # classical single-stage reduction against an independent solver
    scenario1 = make_scenario([0.0], [2.0])
    costs1 = DetectionCostSpec(false_alarm=(5.0,), delay=(1.0,), rho=0.01)
    sol1 = solve_detection(scenario1, costs1, grid_resolution=100, tol=1e-9)
    # the oracle runs to 1e-12: at 1e-9 it is itself 8e-8 from its limit
    oracle = classical_shiryaev_solver(2.0, 5.0, 1.0, 0.01, 100, tol=1e-12)
    assert np.max(np.abs(sol1.stage_curves[0] - oracle)) <= 1e-9

    # structural invariants on every solved instance
    for sol in (solved_t2, solved_t4, sol1):
        for s in range(sol.period):
            entry, stop, cont = sol.stage_curves[s], sol.stop_curves[s], sol.continue_curves[s]
            assert np.all(entry >= -1e-12) and np.all(entry <= stop + 1e-12)
            assert np.all(np.diff(entry, 2) <= 1e-6)  # concavity
            stop_preferred = stop <= cont + 1e-12
            assert stop_preferred[np.argmax(stop_preferred):].all()  # upper interval

    # solver value vs simulated cost of the extracted policy, all scenarios
    worst = 0.0
    for table in REPRODUCE_TABLES.values():
        for row in table:
            _, solution = solved(row.config)
            report = simulated_optimal(row.config)
            gap = abs(report.estimate - solution.value_at_zero)
            assert gap <= GRID_ALLOWANCE + 3 * report.std_error, row.config
            worst = max(worst, gap)

    _line(
        "criterion 8",
        True,
        f"recursions, engine oracles, classical reduction, curve invariants, "
        f"solver-vs-simulation (worst gap {worst:.3f} <= {GRID_ALLOWANCE} + 3 SE)",
    )


def test_criterion_9_periodic_policy_dominates_stationary(tmp_path):
    """On the bundled 3-state, 2-action, period-2 instance the extracted
    periodic policy's simulated cost is no worse than every one of the 8
    stationary policies, within two standard errors."""
    from importlib import resources

    src = resources.files("periodet.configs").joinpath("instance_three_state_t2.mdp")
    instance = tmp_path / "instance.mdp"
    instance.write_text(src.read_text())
    mdp = load_instance(instance)
    values = value_iterate(mdp, tol=1e-10)
    policy = extract_periodic_policy(values, mdp)
    per_mean, per_se = simulate_policy(mdp, policy.actions, 20_000, 150, seed=SEED)
    worst_margin = math.inf
    ok = True
    for maps in product(range(mdp.num_actions), repeat=mdp.num_states):
        stationary = np.tile(np.asarray(maps), (mdp.period, 1))
        mean, se = simulate_policy(mdp, stationary, 20_000, 150, seed=SEED)
        margin = mean + 2 * (se + per_se) - per_mean
        worst_margin = min(worst_margin, margin)
        ok &= margin >= 0.0
    line = _line(
        "criterion 9",
        ok,
        f"periodic {per_mean:.3f} +- {per_se:.3f}; worst stationary margin {worst_margin:.3f}",
    )
    assert ok, line
