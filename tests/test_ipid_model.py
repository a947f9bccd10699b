import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodet import (
    Gaussian,
    IpidScenario,
    kl_information,
    log_likelihood_ratio,
    prior_tail_exponent,
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
        IpidScenario(pre=(Gaussian(0.0),), post=(Gaussian(1.0), Gaussian(2.0)), rho=0.01)
    with pytest.raises(ValueError):
        IpidScenario(pre=(), post=(), rho=0.01)


def test_degenerate_scenario_is_constructable():
    same = make_scenario([0.0, 1.0], [0.0, 1.0])
    assert same.pre == same.post


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


# ── geometric prior ────────────────────────────────────────────────────


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_geometric_prior_rejects_rho_outside_unit_interval(rho):
    with pytest.raises(ValueError, match="rho must lie in"):
        IpidScenario(pre=(Gaussian(0.0),), post=(Gaussian(1.0),), rho=rho)


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
    assert prior_tail_exponent(make_scenario([0.0], [1.0], rho=0.01)) == pytest.approx(
        abs(math.log(0.99)), abs=1e-15
    )


def test_tail_exponent_vanishes_as_rho_vanishes():
    assert prior_tail_exponent(make_scenario([0.0], [1.0], rho=1e-9)) == pytest.approx(0.0, abs=1e-8)
