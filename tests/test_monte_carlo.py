import dataclasses
import math

import numpy as np
import pytest

from periodet import (
    DetectionCostSpec,
    Gaussian,
    IpidScenario,
    OddsState,
    SimulationReport,
    analytic_delay,
    belief_to_log_odds,
    estimate_add_pfa,
    estimate_bayes_cost,
    kl_information,
    prior_tail_exponent,
    sample_path,
    sweep_single_threshold,
    update_odds,
)
from periodet.cli import bundled_config
from periodet.monte_carlo import _simulate_stopping, _step, default_horizon

from conftest import crossing_record_per_level, make_scenario


@pytest.fixture(scope="module")
def t2():
    scenario = make_scenario([0.0, 0.0], [2.0, 1.0], rho=0.01)
    costs = DetectionCostSpec(false_alarm=(20.0, 5.0), delay=(10.0, 1.0))
    return scenario, costs


# ── threshold rules ────────────────────────────────────────────────────


@pytest.mark.parametrize("thresholds", [(), (0.5, 1.2), (-0.1, 0.5), (0.5,), (0.5, math.nan)])
def test_policy_validation(t2, thresholds):
    # a rule is its T = 2 stage thresholds, each in [0, 1]
    scenario, costs = t2
    with pytest.raises(ValueError):
        estimate_bayes_cost(scenario, costs, thresholds, 10)


# ── the simulation kernel on a few paths ───────────────────────────────


def stopping_times(scenario, thresholds, horizon, seed, n_paths=8):
    return _simulate_stopping(scenario, [thresholds], n_paths, horizon, seed)[1]


def test_run_policy_zero_threshold_stops_immediately(t2):
    scenario, _ = t2
    assert np.all(stopping_times(scenario, (0.0, 0.0), horizon=50, seed=1) == 1)


def test_run_policy_threshold_one_never_stops(t2):
    scenario, _ = t2
    assert np.all(stopping_times(scenario, (1.0, 1.0), horizon=50, seed=2) == 51)


def test_run_policy_deterministic_replay(t2):
    scenario, _ = t2
    levels = np.full((1, scenario.period), 0.5)
    a = _simulate_stopping(scenario, levels, 8, 2000, seed=3)
    b = _simulate_stopping(scenario, levels, 8, 2000, seed=3)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert np.all(a[1] <= 2000)  # every path alarmed


def test_run_policy_uses_stage_of_current_observation(t2):
    # stage-0 threshold 1 with stage-1 threshold 0: can only stop at even n
    scenario, _ = t2
    assert np.all(stopping_times(scenario, (1.0, 0.0), horizon=100, seed=4) == 2)


def test_kernel_tau_monotone_in_level(t2):
    scenario, _ = t2
    grid = np.array([0.0, 0.05, 0.3, 0.3, 0.7, 0.95])
    single = np.repeat(grid[:, None], 2, axis=1)
    for levels in (single, np.array([[0.9, 1.0]])):
        _, tau, _ = _simulate_stopping(scenario, levels, 500, 300, seed=6)
        assert tau.shape == (500, len(levels)) and tau.dtype == np.int32
        assert np.all(np.diff(tau, axis=1) >= 0)
    # stage-1 level 1.0 never stops, so the rule alarms at odd n only
    assert np.all((tau[:, -1] % 2 == 1) | (tau[:, -1] == 301))


def test_kernel_levels_match_one_rule_runs(t2):
    # each level of one (K, T) run is the first crossing of that level on
    # the shared paths; the top level sees the same draws as a run alone
    scenario, _ = t2
    levels = np.repeat([[0.2], [0.5], [0.9]], 2, axis=1)
    nu, tau, log_r = _simulate_stopping(scenario, levels, 300, 400, 8, with_log_r=True)
    top = _simulate_stopping(scenario, levels[-1:], 300, 400, 8, with_log_r=True)
    np.testing.assert_array_equal(nu, top[0])
    np.testing.assert_array_equal(tau[:, -1:], top[1])
    np.testing.assert_array_equal(log_r[:, -1:], top[2])
    for k in range(len(levels)):
        alarmed = tau[:, k] <= 400
        stage = (tau[alarmed, k] - 1) % 2
        level = np.array([belief_to_log_odds(a) for a in levels[k]])[stage]
        assert np.all(log_r[alarmed, k] > level)
        assert np.all(log_r[~alarmed, k] == math.inf)


CROSSING_LEVELS = {
    1: np.array([[0.6, 0.6]]),
    3: np.repeat([[0.1], [0.5], [0.9]], 2, axis=1),
    # levels 0.18 apart in log odds, passed several at a time
    33: np.repeat(np.linspace(0.05, 0.95, 33)[:, None], 2, axis=1),
    # one rule; level 1.0 is +inf log odds, so it alarms at stage 0 only
    "rule": np.array([[0.9, 1.0]]),
}


@pytest.mark.parametrize("key", list(CROSSING_LEVELS))
@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_kernel_crossing_record_matches_per_level_writes(t2, key, seed):
    # the kernel writes a crossing path's first passed level only and
    # fills the rest after the loop; the reference writes every passed
    # level at its step.  Horizon 20 censors most paths, some part-way;
    # by horizon 600 every path has passed every level it can.
    scenario, _ = t2
    levels = CROSSING_LEVELS[key]
    n_levels = len(levels)
    for horizon in (20, 600):
        want = crossing_record_per_level(scenario, levels, 400, horizon, seed)
        got = _simulate_stopping(scenario, levels, 400, horizon, seed, with_log_r=True)
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)
        tau = _simulate_stopping(scenario, levels, 400, horizon, seed)[1]
        np.testing.assert_array_equal(tau, want[1])
        if n_levels > 1:
            same_step = (np.diff(tau, axis=1) == 0) & (tau[:, 1:] <= horizon)
            assert np.any(same_step)  # several levels passed in one step
        if horizon == 20:
            reached = (tau <= horizon).sum(axis=1)
            assert np.any(reached == 0)  # never crossed a level
            assert n_levels == 1 or np.any((reached > 0) & (reached < n_levels))


def test_kernel_validation(t2):
    scenario, costs = t2
    with pytest.raises(ValueError, match="^need n_paths >= 1 and horizon >= 1$"):
        estimate_bayes_cost(scenario, costs, (0.5, 0.5), 0, horizon=10)
    with pytest.raises(ValueError, match="nondecreasing"):
        _simulate_stopping(scenario, np.array([[0.5, 0.5], [0.4, 0.4]]), 8, 50, 1)
    # K > 1 rows are single thresholds; nested periodic rules are refused
    with pytest.raises(ValueError, match="single thresholds, one level at every stage"):
        _simulate_stopping(scenario, np.array([[0.1, 0.2], [0.5, 0.6]]), 8, 50, 1)
    with pytest.raises(ValueError, match="int32"):
        _simulate_stopping(scenario, np.array([[0.5, 0.5]]), 8, np.iinfo(np.int32).max, 1)
    # one rule is a (1, T) row, never a bare (T,) vector
    for levels in ([0.5, 0.5], [[0.5, 0.5, 0.5]]):
        with pytest.raises(ValueError, match="shape"):
            _simulate_stopping(scenario, np.array(levels), 8, 50, 1)


def test_bayes_cost_estimators_refuse_penalties_of_another_period(t2):
    scenario, _ = t2
    costs = DetectionCostSpec(false_alarm=(5.0,), delay=(1.0,))
    for call in (lambda: estimate_bayes_cost(scenario, costs, (0.5, 0.5), 10),
                 lambda: sweep_single_threshold(scenario, costs, (0.5,), 10)):
        with pytest.raises(ValueError, match="^scenario period 2 != cost spec period 1$"):
            call()


def test_estimators_take_horizon_and_seed_by_keyword_only(t2):
    # positionally, sweep_single_threshold took (seed, horizon) and the
    # other two (horizon, seed), so a swapped call ran silently
    scenario, costs = t2
    for call in (
        lambda: estimate_bayes_cost(scenario, costs, (0.5, 0.5), 10, 50, 1),
        lambda: sweep_single_threshold(scenario, costs, (0.5,), 10, 1, 50),
        lambda: estimate_add_pfa(scenario, 0.5, 10, 50, 1),
    ):
        with pytest.raises(TypeError, match="positional argument"):
            call()


# ── the change points and observations the kernel draws ────────────────


def kernel_change_points(rho, n_paths, seed, horizon=10**6):
    """The change points of an n_paths kernel run at ``seed``; threshold 0
    stops every path at its first observation, so the run is cheap."""
    scenario = make_scenario([0.0], [1.0], rho=rho)
    return _simulate_stopping(scenario, np.zeros((1, 1)), n_paths, horizon, seed)[0]


def test_kernel_change_point_mean():
    # empirical mean of nu within 2% of 1/rho at 1e5 draws
    draws = kernel_change_points(0.01, 100_000, seed=123)
    assert abs(draws.mean() - 100.0) / 100.0 < 0.02


def test_kernel_change_point_tails():
    # nu >= 1, and P(nu > n) = (1 - rho)^n within 4 binomial SE at 1e5 draws
    rho = 0.2
    draws = kernel_change_points(rho, 100_000, seed=321)
    assert draws.min() == 1
    assert np.all(np.diff(draws) >= 0)  # the kernel runs paths in change-point order
    for n in (1, 3, 7, 15):
        want = (1.0 - rho) ** n
        se = math.sqrt(want * (1.0 - want) / draws.size)
        assert abs(np.mean(draws > n) - want) < 4.0 * se


def test_tail_exponent_matches_kernel_change_points():
    # -log P(nu > n) / n read off 1e5 kernel change points at n = 20
    draws = kernel_change_points(0.1, 100_000, seed=99)
    empirical = -math.log(np.mean(draws > 20)) / 20
    tail = prior_tail_exponent(make_scenario([0.0], [1.0], rho=0.1))
    assert empirical == pytest.approx(tail, rel=0.02)


@pytest.mark.parametrize("change_point, means", [(10**9, (1.0, -2.0)), (1, (5.0, 5.0))])
def test_step_observations_match_stage_laws(change_point, means):
    # all paths before (or all after) the change: bucket by stage and
    # compare first two moments at 1e5 draws per stage
    scen = make_scenario([1.0, -2.0], [5.0, 5.0], rho=1e-9)
    rng = np.random.default_rng(11)
    log_r = np.full(100_000, -math.inf)
    for n, mean in zip((1, 2), means):
        y, log_r = _step(scen, rng, n, log_r.size if change_point <= n else 0, log_r)
        assert abs(y.mean() - mean) < 4.0 / math.sqrt(y.size)
        assert abs(y.var() - 1.0) < 6.0 / math.sqrt(y.size)


def test_step_draws_post_change_before_pre_change(t2):
    # change points come ascending, so the post-change paths are a prefix
    # and take the first draws of a step: at n = 2 the change points
    # 1, 2, 5, 9 leave two post-change paths
    scenario, _ = t2
    y, _ = _step(scenario, np.random.default_rng(3), 2, 2, np.zeros(4))
    rng = np.random.default_rng(3)
    post = scenario.post[1].sample(rng, 2)
    pre = scenario.pre[1].sample(rng, 2)
    np.testing.assert_array_equal(y, [post[0], post[1], pre[0], pre[1]])


class CountingGaussian:
    """A unit-variance Gaussian density that counts its ``sample`` calls."""

    def __init__(self, mean):
        self.density = Gaussian(mean)
        self.loc, self.scale = self.density.loc, self.density.scale
        self.sample_calls = 0

    def logpdf(self, x):
        return self.density.logpdf(x)

    def sample(self, rng, size=None):
        self.sample_calls += 1
        return self.density.sample(rng, size)


def test_step_skips_the_empty_side():
    # one path is on one side of the change at every step, so a 600-step
    # path makes one draw per step, and the draws match the plain densities
    pre = (CountingGaussian(0.0), CountingGaussian(0.0))
    post = (CountingGaussian(2.0), CountingGaussian(1.0))
    path = sample_path(IpidScenario(pre=pre, post=post, rho=0.01), horizon=600, seed=5)
    assert path.change_point is not None  # both laws are drawn from
    assert sum(d.sample_calls for d in pre + post) == 600
    plain = sample_path(make_scenario([0.0, 0.0], [2.0, 1.0], rho=0.01), horizon=600, seed=5)
    assert plain.change_point == path.change_point
    np.testing.assert_array_equal(plain.observations, path.observations)


# ── sample_path: one kernel path, run to the horizon ───────────────────


def test_sample_path_deterministic():
    scen = make_scenario([0.0, 0.0], [2.0, 1.0], rho=0.1)
    a = sample_path(scen, horizon=50, seed=7)
    b = sample_path(scen, horizon=50, seed=7)
    assert a.change_point == b.change_point
    np.testing.assert_array_equal(a.observations, b.observations)
    np.testing.assert_array_equal(a.log_odds, b.log_odds)


def test_sample_path_rho_near_one_changes_immediately():
    scen = make_scenario([0.0], [5.0], rho=1.0 - 1e-12)
    for seed in range(20):
        assert sample_path(scen, horizon=5, seed=seed).change_point == 1


def test_sample_path_records_beyond_horizon_change():
    scen = make_scenario([0.0], [2.0], rho=1e-6)
    path = sample_path(scen, horizon=10, seed=3)
    assert path.change_point is None
    assert not path.change_active(10)


def test_sample_path_needs_a_horizon(t2):
    with pytest.raises(ValueError, match="^horizon must be >= 1$"):
        sample_path(t2[0], 0, seed=1)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_sample_path_is_the_one_path_kernel_run(t2, seed):
    scenario, _ = t2
    horizon = 400
    path = sample_path(scenario, horizon, seed)
    for a in (0.0, 0.3, 0.9, 0.999, 1.0 - 1e-9):
        nu, tau, log_r = _simulate_stopping(
            scenario, np.full((1, 2), a), 1, horizon, seed, with_log_r=True
        )
        want_nu = horizon + 1 if path.change_point is None else path.change_point
        assert nu[0] == want_nu
        crossed = np.flatnonzero(path.log_odds > belief_to_log_odds(a))
        want_tau = crossed[0] + 1 if crossed.size else horizon + 1
        assert tau[0, 0] == want_tau
        if want_tau <= horizon:
            assert log_r[0, 0] == path.log_odds[want_tau - 1]
        else:
            assert log_r[0, 0] == math.inf


@pytest.mark.parametrize("scenario", [
    make_scenario([0.0], [1.5], rho=0.05),
    make_scenario([0.0, 0.0], [2.0, 1.0], rho=0.05),
    IpidScenario(
        pre=(Gaussian(0.0, 1.0), Gaussian(0.5, 2.0), Gaussian(-1.0, 0.5)),
        post=(Gaussian(1.0, 0.5), Gaussian(0.5, 1.0), Gaussian(0.0, 2.0)),
        rho=0.05,
    ),
], ids=["T1", "T2", "T3_unequal_variances"])
def test_sample_path_log_odds_are_the_online_recursion(scenario):
    for seed in range(3):
        path = sample_path(scenario, horizon=300, seed=seed)
        state = OddsState(-math.inf)
        for y, log_r in zip(path.observations, path.log_odds):
            state = update_odds(state, scenario, y)
            assert state.log_r == log_r


# ── Bayes cost ─────────────────────────────────────────────────────────


def test_bayes_cost_immediate_stop_enumeration(t2):
    """A = 0 stops at n = 1 always: cost enumerates to
    P(nu >= 2) * false_alarm[0] exactly (zero delay when nu = 1)."""
    scenario, costs = t2
    report = estimate_bayes_cost(scenario, costs, (0.0, 0.0), 40_000, seed=11)
    expected = 0.99 * costs.false_alarm[0]
    assert report.estimate == pytest.approx(expected, abs=3 * report.std_error)


def test_bayes_cost_deterministic(t2):
    scenario, costs = t2
    a = estimate_bayes_cost(scenario, costs, (0.4, 0.4), 3000, seed=7)
    b = estimate_bayes_cost(scenario, costs, (0.4, 0.4), 3000, seed=7)
    assert a == b


def test_bayes_cost_censoring_flagged(t2):
    scenario, costs = t2
    report = estimate_bayes_cost(
        scenario, costs, (1.0, 1.0), 500, horizon=64, seed=9
    )
    assert report.censored_fraction == 1.0
    # no alarm is ever raised: only delay accrues, and only on changed paths
    assert report.estimate > 0.0


def test_bayes_cost_delay_accounting_single_path():
    """Frozen-path check of the stage-indexed delay sum."""
    scenario = make_scenario([0.0, 0.0], [2.0, 1.0])
    costs = DetectionCostSpec(false_alarm=(20.0, 5.0), delay=(10.0, 1.0))
    # nu = 1 and stop at tau = 4: delay = d0 + d1 + d0 (times 1, 2, 3)
    from periodet.monte_carlo import _delay_cost_table

    dcum = _delay_cost_table(costs.delay, horizon=10)
    assert dcum[3] - dcum[0] == pytest.approx(21.0)
    # nu = 2, tau = 3: only time 2 accrues, at stage (2-1) % 2 = 1
    assert dcum[2] - dcum[1] == pytest.approx(1.0)


# ── sweeps ─────────────────────────────────────────────────────────────


def test_sweep_returns_argmin(t2):
    scenario, costs = t2
    result = sweep_single_threshold(scenario, costs, (0.0, 0.3, 0.9), 2000, seed=13)
    assert len(result.points) == 3
    assert result.best.estimate == min(p.estimate for p in result.points)
    at_zero = result.points[0]
    assert at_zero.estimate == pytest.approx(0.99 * 20.0, abs=4 * at_zero.std_error)


def test_sweep_rejects_empty_grid(t2):
    scenario, costs = t2
    with pytest.raises(ValueError):
        sweep_single_threshold(scenario, costs, (), 100)


@pytest.mark.parametrize("grid", [(0.3, 1.0), (-0.1, 0.5), (0.5, math.nan)])
def test_sweep_rejects_out_of_range_threshold(t2, grid):
    scenario, costs = t2
    with pytest.raises(ValueError, match="threshold"):
        sweep_single_threshold(scenario, costs, grid, 100)


def test_sweep_end_points_match_bayes_cost(t2):
    # a one-point sweep, and the largest point of any sweep, draw exactly
    # the paths a one-threshold run draws
    scenario, costs = t2
    for grid in ((0.4,), (0.05, 0.4), (0.4, 0.0, 0.2, 0.1)):
        point = max(sweep_single_threshold(scenario, costs, grid, 1500, seed=12).points,
                    key=lambda p: p.thresholds[0])
        assert point == estimate_bayes_cost(scenario, costs, (0.4, 0.4), 1500, seed=12)


def test_every_report_names_its_rule(t2, weak_t2):
    """Each report carries its rule's T stage thresholds as Python floats:
    a one-rule run, a sweep point and each ADD/PFA report."""
    scenario, costs = t2
    report = estimate_bayes_cost(scenario, costs, (0, 1), 200, seed=3)
    assert report.thresholds == (0.0, 1.0)
    sweep = sweep_single_threshold(scenario, costs, (0.3, 0.1, 0.3), 200, seed=3)
    assert [p.thresholds for p in sweep.points] == [(0.3, 0.3), (0.1, 0.1), (0.3, 0.3)]
    assert {type(a) for r in (report, *sweep.points) for a in r.thresholds} == {float}
    for threshold, res in zip((0.9, 0.5), estimate_add_pfa(weak_t2, (0.9, 0.5), 200).points):
        assert {getattr(res, f.name).thresholds for f in dataclasses.fields(res)} == {
            (threshold, threshold)}


def test_sweep_keeps_caller_order(t2):
    scenario, costs = t2
    ordered = sweep_single_threshold(scenario, costs, (0.0, 0.1, 0.3, 0.6), 1500, seed=14)
    by_threshold = {p.thresholds[0]: p for p in ordered.points}
    shuffled = (0.3, 0.6, 0.0, 0.3, 0.1, 0.6)
    result = sweep_single_threshold(scenario, costs, shuffled, 1500, seed=14)
    assert result.points == tuple(by_threshold[a] for a in shuffled)
    again = sweep_single_threshold(scenario, costs, shuffled, 1500, seed=14)
    assert again == result  # bit-identical at the same seed


# ── delay / false-alarm estimation ─────────────────────────────────────

def test_add_pfa_calibrated_threshold_order(weak_t2):
    alpha = 1e-3
    res = estimate_add_pfa(weak_t2, 1.0 - alpha, 4000, seed=17)
    # posterior-based false-alarm estimate is pinned below alpha by the
    # threshold and stays within an order of magnitude of it
    assert 0.05 * alpha <= res.pfa_posterior.estimate <= alpha
    assert res.pfa.estimate <= 3.0 * alpha
    assert res.add.estimate > 0


def test_add_pfa_identical_densities_deterministic_belief():
    """With g == f the belief follows the deterministic prior staircase, so
    tau is a constant and the posterior PFA estimate is exact."""
    rho, a = 0.05, 0.6
    same = make_scenario([0.0, 0.0], [0.0, 0.0], rho=rho)
    res = estimate_add_pfa(same, a, 2000, seed=19)
    # first n with 1 - (1-rho)^n > a
    tau_det = math.ceil(math.log1p(-a) / math.log1p(-rho))
    if 1.0 - (1.0 - rho) ** tau_det <= a:
        tau_det += 1
    pfa_exact = (1.0 - rho) ** tau_det
    assert res.pfa.estimate == pytest.approx(pfa_exact, abs=3 * res.pfa.std_error)
    assert res.pfa_posterior.estimate == pytest.approx(pfa_exact, abs=1e-9)
    assert res.pfa_posterior.std_error < 1e-12


def test_conditional_add_counts_the_paths_it_averages():
    # two paths in five alarm before the change, so the
    # conditional delay averages fewer paths than ADD and PFA do
    scenario = make_scenario([0.0, 0.0], [0.75, 0.25], rho=0.05)
    res = estimate_add_pfa(scenario, 0.5, 2000, seed=47)
    nu, tau, _ = _simulate_stopping(scenario, np.full((1, 2), 0.5), 2000, res.add.horizon, 47)
    delay = (tau[:, 0] - nu)[(tau[:, 0] >= nu) & (nu <= res.add.horizon)]
    assert res.add.n_paths == res.pfa.n_paths == 2000
    assert res.conditional_add.n_paths == delay.size < 1500
    assert res.conditional_add.estimate == delay.mean()


def test_add_pfa_result_is_four_reports(weak_t2):
    res = estimate_add_pfa(weak_t2, 0.9, 500, horizon=300, seed=5)
    names = [f.name for f in dataclasses.fields(res)]
    assert names == ["add", "conditional_add", "pfa", "pfa_posterior"]
    reports = [getattr(res, name) for name in names]
    assert all(isinstance(r, SimulationReport) for r in reports)
    assert [r.kind for r in reports] == names
    assert {(r.seed, r.horizon, r.censored_fraction) for r in reports} == {
        (5, 300, res.add.censored_fraction)}
    assert res.add.censored_fraction > 0.0


def test_posterior_pfa_agrees_with_counted_pfa_at_lower_variance():
    """On ``tradeoff_t2`` at alpha = 1e-2, on the paths drawn, the two PFA
    estimators agree within three standard errors of their difference and
    the posterior form has the smaller standard error."""
    cfg = bundled_config("tradeoff_t2")
    res = estimate_add_pfa(cfg.scenario(), 1.0 - 1e-2, cfg.paths, horizon=cfg.horizon,
                           seed=cfg.seed)
    counted, posterior = res.pfa, res.pfa_posterior
    assert counted.estimate * counted.n_paths >= 30  # enough alarms to count
    assert abs(posterior.estimate - counted.estimate) <= 3.0 * math.hypot(
        counted.std_error, posterior.std_error)
    assert posterior.std_error < counted.std_error


def test_add_monotone_pfa_antitone_in_threshold(weak_t2):
    rng_levels = (0.9, 0.99, 0.999)
    results = [estimate_add_pfa(weak_t2, a, 4000, seed=23) for a in rng_levels]
    for lo, hi in zip(results, results[1:]):
        assert hi.add.estimate >= lo.add.estimate - 2 * (lo.add.std_error + hi.add.std_error)
        assert hi.pfa.estimate <= lo.pfa.estimate + 2 * (lo.pfa.std_error + hi.pfa.std_error)


def test_add_pfa_deterministic(weak_t2):
    a = estimate_add_pfa(weak_t2, 0.99, 1000, seed=29)
    b = estimate_add_pfa(weak_t2, 0.99, 1000, seed=29)
    assert a == b


def test_add_pfa_levels_share_paths(weak_t2):
    # a sequence of thresholds comes back in its order, read off one set of
    # paths: ADD and PFA are then exactly monotone in the threshold, and
    # the largest threshold matches its one-threshold run bit for bit
    levels = (0.999, 0.9, 0.99, 0.9)
    sweep = estimate_add_pfa(weak_t2, levels, 2000, seed=41)
    results = sweep.points
    assert len(results) == 4
    assert sweep.censored_fraction == max(r.add.censored_fraction for r in results)
    assert results[1] == results[3]
    assert results[0] == estimate_add_pfa(weak_t2, 0.999, 2000, seed=41)
    low, mid, high = results[1], results[2], results[0]
    assert low.add.estimate <= mid.add.estimate <= high.add.estimate
    assert low.pfa.estimate >= mid.pfa.estimate >= high.pfa.estimate
    with pytest.raises(ValueError):
        estimate_add_pfa(weak_t2, (0.9, 1.0), 100)


# ── analytic delay and the universal bound ─────────────────────────────


def test_analytic_delay_unit_case():
    assert analytic_delay(math.exp(-1.0), 0.5, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_analytic_delay_weak_scenario_slope(weak_t2):
    info = kl_information(weak_t2)
    tail = prior_tail_exponent(weak_t2)
    slope = analytic_delay(1e-3, info, tail) / abs(math.log(1e-3))
    assert slope == pytest.approx(6.01, abs=0.01)
    assert analytic_delay(1e-3, info, tail) == pytest.approx(41.5, abs=0.1)


def test_analytic_delay_validation():
    with pytest.raises(ValueError):
        analytic_delay(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        analytic_delay(0.5, 0.0, 0.1)


def test_lower_bound_check_flags_and_monotone(weak_t2):
    # delays below 0.85 times the universal bound are the ones to flag
    info = kl_information(weak_t2)
    tail = prior_tail_exponent(weak_t2)
    pts = [(1e-2, 30.0), (1e-3, 45.0), (1e-4, 20.0)]
    bounds = [analytic_delay(alpha, info, tail) for alpha, _ in pts]
    assert bounds == sorted(bounds)  # bound grows with |log alpha|
    below_slack = [delay < 0.85 * bound for (_, delay), bound in zip(pts, bounds)]
    assert below_slack == [False, False, True]  # 30 > 0.85 * 27.7, 20 << 55.4
    assert bounds[2] / bounds[0] == pytest.approx(2.0)  # linear in |log alpha|


def test_lower_bound_holds_for_simulated_delays(weak_t2):
    # simulated conditional delay at a small false-alarm level clears the
    # asymptotic bound with the finite-alpha slack factor
    alpha = 1e-4
    res = estimate_add_pfa(weak_t2, 1.0 - alpha, 2000, seed=31)
    bound = analytic_delay(alpha, kl_information(weak_t2), prior_tail_exponent(weak_t2))
    assert not res.conditional_add.estimate < 0.85 * bound
    assert res.conditional_add.estimate / bound > 1.0


def test_classical_single_stage_costs_match_solver():
    """At period 1 the single-threshold rule is optimal, so the swept
    minimum and the solver-policy cost both land on the solver value."""
    from periodet import solve_detection

    scenario = make_scenario([0.0], [2.0], rho=0.01)
    costs = DetectionCostSpec(false_alarm=(5.0,), delay=(1.0,))
    sol = solve_detection(scenario, costs, grid_resolution=100)
    optimal = estimate_bayes_cost(scenario, costs, sol.thresholds, 10_000, seed=37)
    sweep = sweep_single_threshold(
        scenario, costs, np.round(np.arange(0.05, 1.0, 0.05), 2), 10_000, seed=37
    )
    assert abs(optimal.estimate - sol.value_at_zero) <= 0.2 + 3 * optimal.std_error
    assert abs(sweep.best.estimate - sol.value_at_zero) <= 0.2 + 3 * sweep.best.std_error
    assert sweep.best.estimate >= optimal.estimate - 3 * (
        sweep.best.std_error + optimal.std_error
    )


def test_default_horizon_rule():
    assert default_horizon(make_scenario([0.0], [1.0], rho=0.01)) == 5000
    assert default_horizon(make_scenario([0.0], [1.0], rho=0.5)) == 100
