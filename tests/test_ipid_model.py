import math
from dataclasses import dataclass, replace

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
    simpson_window,
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


def logpdf_difference_bound(f, g, y):
    """16 ulp of the size of the terms the two log-densities add up: the
    squared standardized distance of y, the squared standardized means and
    the log(2 pi variance) constants."""
    constants = max(d.mean**2 / d.variance + abs(math.log(2.0 * math.pi * d.variance))
                    for d in (f, g))
    scale = np.asarray(y) ** 2 / min(f.variance, g.variance) + constants
    return 16.0 * np.spacing(np.maximum(scale, 1.0))


@given(
    y=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
    pre_mean=st.floats(-10, 10),
    post_mean=st.floats(-10, 10),
    pre_var=st.floats(0.01, 100),
    post_var=st.floats(0.01, 100),
    equal_variances=st.booleans(),
)
def test_llr_closed_form_matches_logpdf_difference(
    y, pre_mean, post_mean, pre_var, post_var, equal_variances
):
    # the cached quadratic against the difference of the two Gaussian
    # log-densities, on an array, on the array as a non-square 2-D and a
    # square 2-D array, and on each entry as a scalar
    f = Gaussian(pre_mean, pre_var)
    g = Gaussian(post_mean, pre_var if equal_variances else post_var)
    scen = IpidScenario(pre=(f,), post=(g,), rho=0.01)
    y = np.array(y)
    want = g.logpdf(y) - f.logpdf(y)
    bound = logpdf_difference_bound(f, g, y)
    got = log_likelihood_ratio(scen, 1, y)
    got_scalar = np.array([log_likelihood_ratio(scen, 1, float(v)) for v in y])
    assert isinstance(got_scalar[0], float) and got.shape == y.shape
    for values in (got, got_scalar):
        assert np.all(np.abs(values - want) <= bound)
    for shape in ((1, y.size), (y.size, 1)):
        np.testing.assert_array_equal(log_likelihood_ratio(scen, 1, y.reshape(shape)),
                                      got.reshape(shape))
    square = np.resize(y, (3, 3))
    np.testing.assert_array_equal(log_likelihood_ratio(scen, 1, square),
                                  log_likelihood_ratio(scen, 1, square.ravel()).reshape(3, 3))


@pytest.mark.parametrize("post", [Gaussian(2.0), Gaussian(2.0, 3.0), Gaussian(0.0)])
def test_llr_closed_form_nan_at_non_finite_observations(post):
    scen = IpidScenario(pre=(Gaussian(0.0),), post=(post,), rho=0.01)
    y = np.array([1.5, math.inf, -math.inf, math.nan, -0.5])
    llr = log_likelihood_ratio(scen, 1, y)
    finite = np.isfinite(y)
    assert np.all(np.isnan(llr[~finite]))
    np.testing.assert_array_equal(llr[finite], [log_likelihood_ratio(scen, 1, v) for v in y[finite]])
    assert all(math.isnan(log_likelihood_ratio(scen, 1, v)) for v in y[~finite])
    for shape in ((1, 5), (5, 1)):
        np.testing.assert_array_equal(log_likelihood_ratio(scen, 1, y.reshape(shape)),
                                      llr.reshape(shape))
    square = np.resize(y, (2, 2))
    np.testing.assert_array_equal(log_likelihood_ratio(scen, 1, square), llr[:4].reshape(2, 2))


@dataclass(frozen=True)
class CountingGaussian:
    """A Gaussian that is not a ``Gaussian``, counting its ``logpdf`` calls."""

    mean: float
    variance: float = 1.0
    calls: list = None

    @property
    def loc(self):
        return self.mean

    @property
    def scale(self):
        return math.sqrt(self.variance)

    def logpdf(self, x):
        self.calls.append(np.size(x))
        return Gaussian(self.mean, self.variance).logpdf(x)

    def sample(self, rng, size=None):
        return rng.normal(self.mean, self.scale, size=size)


def test_llr_other_densities_take_the_logpdf_difference():
    # any pair with a non-Gaussian member keeps the difference of its
    # log-densities, bit for bit
    calls = []
    other = CountingGaussian(2.0, 1.0, calls)
    y = np.linspace(-3.0, 3.0, 7)
    for pre, post in ((Gaussian(0.0), other), (other, Gaussian(0.0)), (other, other)):
        scen = IpidScenario(pre=(pre,), post=(post,), rho=0.01)
        calls.clear()
        got = log_likelihood_ratio(scen, 1, y)
        assert len(calls) == (pre is other) + (post is other)
        np.testing.assert_array_equal(got, post.logpdf(y) - pre.logpdf(y))


# ── change-point hazard ────────────────────────────────────────────────


@pytest.mark.parametrize("rho", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_scenario_rejects_rho_outside_unit_interval(rho):
    # by the constructor, and by dataclasses.replace on a valid scenario,
    # so neither the horizon default (rho = 0 divided by zero, rho = 1 took
    # a log of zero) nor any draw can see it
    with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\), got"):
        IpidScenario(pre=(Gaussian(0.0),), post=(Gaussian(1.0),), rho=rho)
    with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\), got"):
        replace(make_scenario([0.0, 0.0], [2.0, 1.0]), rho=rho)


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


@dataclass(frozen=True)
class SymmetricUniform:
    """Uniform on [-1, 1], a density of bounded support."""

    loc: float = 0.0
    scale: float = 1.0 / math.sqrt(3.0)

    def logpdf(self, x):
        return np.where(np.abs(x) <= 1.0, -math.log(2.0), -math.inf)

    def sample(self, rng, size=None):
        return rng.uniform(-1.0, 1.0, size)


def test_kl_information_rejects_infinite_divergence():
    # a post-change law with mass outside the pre-change support has
    # D(g || f) = inf: no finite detection rate
    scen = IpidScenario(pre=(SymmetricUniform(),), post=(Gaussian(0.0, 1.0),), rho=0.01)
    with pytest.raises(ValueError, match="per-stage divergence is not finite"):
        kl_information(scen)


@pytest.mark.parametrize("n_nodes", [1600, 1])
def test_simpson_window_needs_an_odd_node_count(n_nodes):
    with pytest.raises(ValueError, match="odd node count >= 3"):
        simpson_window(Gaussian(0.0), Gaussian(2.0), 8.0, n_nodes)


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


def test_kl_information_of_other_densities_meets_the_closed_form():
    # stage pairs that are not ``Gaussian`` instances go to quadrature
    laws = [((0.0, 1.0), (0.75, 1.0)), ((-1.0, 2.0), (1.5, 0.5)), ((0.0, 1.0), (0.0, 3.0))]
    calls = []
    other = IpidScenario(pre=tuple(CountingGaussian(*f, calls) for f, _ in laws),
                         post=tuple(CountingGaussian(*g, calls) for _, g in laws), rho=0.01)
    gaussian = IpidScenario(pre=tuple(Gaussian(*f) for f, _ in laws),
                            post=tuple(Gaussian(*g) for _, g in laws), rho=0.01)
    assert kl_information(other) == pytest.approx(kl_information(gaussian), abs=1e-10)
    assert len(calls) == 2 * len(laws)


# ── prior tail exponent ────────────────────────────────────────────────


def test_tail_exponent_geometric():
    assert prior_tail_exponent(make_scenario([0.0], [1.0], rho=0.01)) == pytest.approx(
        abs(math.log(0.99)), abs=1e-15
    )


def test_tail_exponent_vanishes_as_rho_vanishes():
    assert prior_tail_exponent(make_scenario([0.0], [1.0], rho=1e-9)) == pytest.approx(0.0, abs=1e-8)
