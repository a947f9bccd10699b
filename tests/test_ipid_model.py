import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodet import (
    Gaussian,
    GeometricPrior,
    IpidScenario,
    kl_information,
    log_likelihood_ratio,
    prior_tail_exponent,
    sample_path,
)
from periodet.ipid_model import _kl_quadrature

from conftest import make_scenario


# ── stage arithmetic ───────────────────────────────────────────────────


def period_scenario(period):
    return make_scenario([0.0] * period, [1.0] * period)


# expected: the 1-based stage ((n-1) mod T) + 1, as the paper numbers them
@pytest.mark.parametrize("n,period,expected", [(1, 2, 1), (3, 2, 1), (8, 4, 4)])
def test_stage_of_examples(n, period, expected):
    assert period_scenario(period).stage_index(n) == expected - 1


@given(n=st.integers(1, 10**6), period=st.integers(1, 64))
def test_stage_of_periodicity(n, period):
    scenario = period_scenario(period)
    assert scenario.stage_index(n) == scenario.stage_index(n + period)
    assert 0 <= scenario.stage_index(n) < period


def test_stage_of_rejects_bad_indices():
    with pytest.raises(ValueError):
        period_scenario(2).stage_index(0)
    with pytest.raises(ValueError):
        period_scenario(0)


# ── densities and scenarios ────────────────────────────────────────────


def test_gaussian_validation():
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Gaussian(0.0, -1.0)
    with pytest.raises(ValueError):
        Gaussian(math.inf, 1.0)


@given(x=st.floats(-1e6, 1e6), mean=st.floats(-100, 100), var=st.floats(0.01, 100))
def test_gaussian_logpdf_finite(x, mean, var):
    assert math.isfinite(Gaussian(mean, var).logpdf(x))


def test_scenario_shape_validation():
    with pytest.raises(ValueError):
        IpidScenario(pre=(Gaussian(0.0),), post=(Gaussian(1.0), Gaussian(2.0)))
    with pytest.raises(ValueError):
        IpidScenario(pre=(), post=())


def test_degenerate_scenario_is_constructable_but_flagged():
    same = make_scenario([0.0, 1.0], [0.0, 1.0])
    assert same.is_degenerate
    assert not make_scenario([0.0, 1.0], [0.0, 2.0]).is_degenerate


# ── log likelihood ratio ───────────────────────────────────────────────


def test_llr_identical_densities_is_zero():
    same = make_scenario([0.0], [0.0])
    assert log_likelihood_ratio(same, 1, 3.7) == 0.0


def test_llr_gaussian_closed_form():
    scen = make_scenario([0.0], [2.0])
    # theta*y - theta^2/2 with theta = 2
    assert log_likelihood_ratio(scen, 1, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert log_likelihood_ratio(scen, 1, 2.0) == pytest.approx(2.0, abs=1e-12)


@given(
    n=st.integers(1, 500),
    y=st.floats(-50, 50),
    theta=st.floats(-3, 3),
)
def test_llr_periodic_in_time(n, y, theta):
    scen = make_scenario([0.0, 0.5], [theta, -theta])
    assert log_likelihood_ratio(scen, n, y) == log_likelihood_ratio(scen, n + 2, y)


# ── sampling ───────────────────────────────────────────────────────────


def test_sample_path_deterministic():
    scen = make_scenario([0.0, 0.0], [2.0, 1.0])
    prior = GeometricPrior(0.1)
    a = sample_path(scen, prior, horizon=50, seed=7)
    b = sample_path(scen, prior, horizon=50, seed=7)
    assert a.change_point == b.change_point
    np.testing.assert_array_equal(a.observations, b.observations)


def test_sample_path_rho_near_one_changes_immediately():
    scen = make_scenario([0.0], [5.0])
    prior = GeometricPrior(1.0 - 1e-12)
    for seed in range(20):
        assert sample_path(scen, prior, horizon=5, seed=seed).change_point == 1


def test_geometric_change_point_mean():
    # empirical mean of nu within 2% of 1/rho at 1e5 draws
    rng = np.random.default_rng(123)
    draws = GeometricPrior(0.01).sample(rng, size=100_000)
    assert abs(draws.mean() - 100.0) / 100.0 < 0.02


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_geometric_prior_rejects_rho_outside_unit_interval(rho):
    with pytest.raises(ValueError, match="rho must lie in"):
        GeometricPrior(rho)


def test_geometric_change_point_tails():
    # nu >= 1, and P(nu > n) = (1 - rho)^n within 4 binomial SE at 1e5 draws
    rho = 0.2
    draws = GeometricPrior(rho).sample(np.random.default_rng(321), size=100_000)
    assert draws.min() == 1
    for n in (1, 3, 7, 15):
        want = (1.0 - rho) ** n
        se = math.sqrt(want * (1.0 - want) / draws.size)
        assert abs(np.mean(draws > n) - want) < 4.0 * se


def test_sample_path_records_beyond_horizon_change():
    scen = make_scenario([0.0], [2.0])
    prior = GeometricPrior(1e-6)
    path = sample_path(scen, prior, horizon=10, seed=3)
    assert path.change_point is None
    assert not path.change_active(10)


def test_pre_change_observations_match_stage_laws():
    # huge nu so the whole window is pre-change; bucket by stage and
    # compare first two moments at 1e5 samples per stage
    scen = make_scenario([1.0, -2.0], [5.0, 5.0])
    path = sample_path(scen, GeometricPrior(1e-9), horizon=200_000, seed=11)
    assert path.change_point is None
    obs = path.observations
    for s, mean in [(0, 1.0), (1, -2.0)]:
        bucket = obs[s::2]
        n = bucket.size
        assert abs(bucket.mean() - mean) < 4.0 / math.sqrt(n)
        assert abs(bucket.var() - 1.0) < 6.0 / math.sqrt(n)


def test_post_change_llr_average_converges_to_information():
    # strong-law check: (1/n) sum Z_i over post-change samples near I
    scen = make_scenario([0.0, 0.0], [0.75, 0.25])
    info = kl_information(scen)
    rng = np.random.default_rng(5)
    z = np.array([
        log_likelihood_ratio(scen, n, scen.post[scen.stage_index(n)].sample(rng))
        for n in range(1, 10_001)
    ])
    se = z.std(ddof=1) / math.sqrt(z.size)
    assert abs(z.mean() - info) < 3.0 * se


# ── information number ─────────────────────────────────────────────────


def test_kl_information_two_stage_example():
    scen = make_scenario([0.0, 0.0], [0.75, 0.25])
    assert kl_information(scen) == pytest.approx(0.15625, abs=1e-12)


def test_kl_information_single_stage():
    assert kl_information(make_scenario([0.0], [2.0])) == pytest.approx(2.0, abs=1e-12)


def test_kl_information_rejects_degenerate():
    with pytest.raises(ValueError, match="zero divergence"):
        kl_information(make_scenario([0.0, 1.0], [0.0, 1.0]))


@pytest.mark.parametrize(
    "f,g",
    [
        (Gaussian(0.0, 1.0), Gaussian(0.75, 1.0)),
        (Gaussian(-1.0, 2.0), Gaussian(1.5, 0.5)),
        (Gaussian(0.0, 1.0), Gaussian(0.0, 3.0)),
    ],
)
def test_kl_closed_form_matches_quadrature(f, g):
    from periodet.ipid_model import _kl_divergence

    assert _kl_quadrature(g, f) == pytest.approx(_kl_divergence(g, f), abs=1e-6)


# ── prior tail exponent ────────────────────────────────────────────────


def test_tail_exponent_geometric():
    assert prior_tail_exponent(GeometricPrior(0.01)) == pytest.approx(
        abs(math.log(0.99)), abs=1e-15
    )


def test_tail_exponent_vanishes_as_rho_vanishes():
    assert prior_tail_exponent(GeometricPrior(1e-9)) == pytest.approx(0.0, abs=1e-8)


def test_tail_exponent_matches_sampled_change_points():
    # -log P(nu > n) / n read off 1e5 sampled change points at n = 20
    prior = GeometricPrior(0.1)
    draws = prior.sample(np.random.default_rng(99), size=100_000)
    empirical = -math.log(np.mean(draws > 20)) / 20
    assert empirical == pytest.approx(prior_tail_exponent(prior), rel=0.02)
