import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodet import (
    BeliefUpdateError,
    Gaussian,
    GeometricPrior,
    IpidScenario,
    OddsState,
    belief_to_log_odds,
    log_odds_to_belief,
    sample_path,
    update_odds,
)

from conftest import brute_force_posterior, make_scenario


def plain_domain_update(p, rho, scenario, n, y):
    """Probability-domain reference for one step, straight from the
    two-hypothesis Bayes computation over the predictive mixture."""
    s = (n - 1) % scenario.period
    f = math.exp(scenario.pre[s].logpdf(y))
    g = math.exp(scenario.post[s].logpdf(y))
    pt = p + (1.0 - p) * rho
    return pt * g / (pt * g + (1.0 - pt) * f)


def step_belief(p, prior, scenario, y, n=0):
    """One ``update_odds`` step from belief p after n observations, read
    back as a belief."""
    state = update_odds(OddsState(belief_to_log_odds(p), n), prior, scenario, y)
    return log_odds_to_belief(state.log_r)


# ── single-step examples ───────────────────────────────────────────────


def test_update_belief_identical_densities_accumulates_prior():
    same = make_scenario([0.0], [0.0])
    state = update_odds(OddsState(-math.inf), GeometricPrior(0.01), same, y=1.3)
    assert log_odds_to_belief(state.log_r) == pytest.approx(0.01, abs=1e-12)
    assert state.n == 1


def test_update_belief_absorbing_at_one():
    scen = make_scenario([0.0], [2.0])
    for y in (-50.0, 0.0, 50.0):
        state = update_odds(OddsState(math.inf, 3), GeometricPrior(0.05), scen, y)
        assert log_odds_to_belief(state.log_r) == 1.0


def test_update_belief_zero_llr_observation():
    # at y = 1 the strong-stage likelihood ratio is exactly 1
    scen = make_scenario([0.0], [2.0])
    assert step_belief(0.0, GeometricPrior(0.01), scen, y=1.0) == pytest.approx(0.01, abs=1e-12)


@given(
    p=st.floats(0.0, 1.0),
    rho=st.floats(1e-4, 0.5),
    y=st.floats(-6.0, 6.0),
    theta=st.floats(0.1, 3.0),
)
def test_update_belief_matches_plain_domain(p, rho, y, theta):
    scen = make_scenario([0.0, 0.0], [theta, theta / 2.0])
    got = step_belief(p, GeometricPrior(rho), scen, y, n=4)
    want = plain_domain_update(p, rho, scen, 5, y)
    assert got == pytest.approx(want, abs=1e-12)


def test_update_belief_outside_both_supports():
    scen = make_scenario([0.0], [2.0])
    with pytest.raises(BeliefUpdateError):
        update_odds(OddsState(belief_to_log_odds(0.2)), GeometricPrior(0.01), scen, y=math.inf)


@dataclass(frozen=True)
class UnitUniform:
    """Toy bounded-support density exercising the extension point."""

    loc: float = 0.5
    scale: float = 0.29

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= 0.0) & (x <= 1.0), 0.0, -math.inf)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, size=None):
        return rng.random(size)


def test_update_belief_bounded_supports_error():
    scen = IpidScenario(pre=(UnitUniform(),), post=(UnitUniform(),))
    with pytest.raises(BeliefUpdateError, match="outside both"):
        update_odds(OddsState(belief_to_log_odds(0.1)), GeometricPrior(0.01), scen, y=2.5)


# ── geometric prior ────────────────────────────────────────────────────


def test_odds_geometric_first_step():
    same = make_scenario([0.0], [0.0])  # LLR = 0 everywhere
    state = update_odds(OddsState(-math.inf), GeometricPrior(0.01), same, y=0.4)
    assert math.exp(state.log_r) == pytest.approx(0.01 / 0.99, rel=1e-12)


def test_odds_geometric_arithmetic_example():
    # R' = ((1 + 0.01) / 0.99) * 2 when the likelihood ratio is 2
    scen = make_scenario([0.0], [2.0])
    y = (math.log(2.0) + 2.0) / 2.0  # solves theta*y - theta^2/2 = log 2
    state = update_odds(OddsState(0.0), GeometricPrior(0.01), scen, y=y)
    assert math.exp(state.log_r) == pytest.approx((1.01 / 0.99) * 2.0, rel=1e-10)


# ── belief <-> odds transform ──────────────────────────────────────────


def test_roundtrip_examples():
    assert belief_to_log_odds(0.5) == 0.0
    assert belief_to_log_odds(0.0) == -math.inf
    assert belief_to_log_odds(1.0) == math.inf
    assert belief_to_log_odds(0.6) == pytest.approx(math.log(1.5), abs=1e-15)
    assert log_odds_to_belief(math.inf) == 1.0
    assert log_odds_to_belief(-math.inf) == 0.0


@given(p=st.floats(1e-12, 1.0 - 1e-12))
def test_roundtrip_inverse(p):
    assert log_odds_to_belief(belief_to_log_odds(p)) == pytest.approx(p, abs=1e-12)


# ── the brute-force oracle itself ──────────────────────────────────────


def test_brute_force_posterior_first_step():
    # p_1 = rho g(y) / (rho g(y) + (1 - rho) f(y))
    scen = make_scenario([0.0], [2.0])
    rho, y = 0.1, 0.7
    f = math.exp(scen.pre[0].logpdf(y))
    g = math.exp(scen.post[0].logpdf(y))
    want = rho * g / (rho * g + (1.0 - rho) * f)
    assert brute_force_posterior(scen, rho, [y])[0] == pytest.approx(want, rel=1e-12)


def test_brute_force_posterior_pure_prior_closed_form():
    # g == f: the posterior is the prior mass P(nu <= n) = 1 - (1-rho)^n
    same = make_scenario([0.0, 0.0], [0.0, 0.0])
    rho = 0.03
    got = brute_force_posterior(same, rho, np.arange(200.0) % 5)
    want = 1.0 - (1.0 - rho) ** np.arange(1, 201)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_brute_force_posterior_matches_plain_domain_path():
    """The two references share no code: the sum over change points and the
    probability-domain step agree while the latter stays representable."""
    scen = make_scenario([0.0, 0.0], [2.0, 1.0])
    rho = 0.01
    ys = np.random.default_rng(17).normal(size=300)
    got = brute_force_posterior(scen, rho, ys)
    p_plain = 0.0
    for n, (y, p) in enumerate(zip(ys, got), start=1):
        p_plain = plain_domain_update(p_plain, rho, scen, n, y)
        assert p == pytest.approx(p_plain, abs=1e-9)


# ── path-level properties ──────────────────────────────────────────────


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), rho=st.floats(0.001, 0.2))
def test_belief_and_odds_paths_agree(seed, rho):
    """The log-odds recursion tracks the brute-force Bayes posterior
    P(nu <= n | y_1..y_n) to 1e-9 in p at every step of randomized
    thousand-step sample paths."""
    scen = make_scenario([0.0, 0.0], [1.0, 0.25])
    prior = GeometricPrior(rho)
    path = sample_path(scen, prior, horizon=1000, seed=seed)
    want = brute_force_posterior(scen, rho, path.observations)
    state = OddsState(-math.inf)
    for y, p in zip(path.observations, want):
        state = update_odds(state, prior, scen, y)
        assert log_odds_to_belief(state.log_r) == pytest.approx(p, abs=1e-9)


def test_log_odds_path_matches_plain_domain_path():
    """The stability rewrite changes nothing beyond 1e-9 while the plain
    recursion stays representable."""
    scen = make_scenario([0.0, 0.0], [2.0, 1.0])
    rho = 0.01
    rng = np.random.default_rng(17)
    state = OddsState(-math.inf)
    p_plain = 0.0
    for n in range(1, 301):
        y = rng.normal()
        state = update_odds(state, GeometricPrior(rho), scen, y)
        p_plain = plain_domain_update(p_plain, rho, scen, n, y)
        assert log_odds_to_belief(state.log_r) == pytest.approx(p_plain, abs=1e-9)


def test_recursion_matches_brute_force_on_unequal_variances():
    """Period-3 stages whose pre- and post-change variances differ, so the
    stage index and the quadratic LLR terms both enter the comparison."""
    scen = IpidScenario(
        pre=(Gaussian(0.0, 1.0), Gaussian(0.5, 2.0), Gaussian(-1.0, 0.5)),
        post=(Gaussian(1.0, 0.5), Gaussian(0.5, 1.0), Gaussian(0.0, 2.0)),
    )
    prior = GeometricPrior(0.05)
    for seed in range(3):
        path = sample_path(scen, prior, horizon=300, seed=seed)
        want = brute_force_posterior(scen, prior.rho, path.observations)
        state = OddsState(-math.inf)
        for y, p in zip(path.observations, want):
            state = update_odds(state, prior, scen, y)
            assert log_odds_to_belief(state.log_r) == pytest.approx(p, abs=1e-9)


def test_pure_prior_accumulation_closed_form():
    # g == f: p_n = 1 - (1-rho)^n exactly
    same = make_scenario([0.0, 0.0], [0.0, 0.0])
    rho = 0.03
    state = OddsState(-math.inf)
    for n in range(1, 201):
        state = update_odds(state, GeometricPrior(rho), same, y=float(n % 5))
        assert log_odds_to_belief(state.log_r) == pytest.approx(1.0 - (1.0 - rho) ** n, abs=1e-12)


@given(
    p=st.floats(0.0, 0.999),
    y_lo=st.floats(-3.0, 3.0),
    bump=st.floats(0.0, 3.0),
)
def test_monotone_response_to_likelihood_ratio(p, y_lo, bump):
    """Raising the current observation's log likelihood ratio never lowers
    the updated belief (for a positive-shift stage, LLR grows with y)."""
    scen = make_scenario([0.0], [1.5])
    prior = GeometricPrior(0.02)
    lo = step_belief(p, prior, scen, y_lo)
    hi = step_belief(p, prior, scen, y_lo + bump)
    assert hi >= lo - 1e-12


def test_state_validation():
    with pytest.raises(ValueError):
        OddsState(math.nan)
    with pytest.raises(ValueError):
        OddsState(0.0, -1)
