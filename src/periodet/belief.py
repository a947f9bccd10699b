"""The posterior change odds, advanced one observation at a time.

The detection statistic is the posterior change probability
p_n = P(nu <= n | Y_1..Y_n), carried as its log odds
log R_n = log(p_n / (1 - p_n)).  The probability-domain recursion
saturates at 1.0 in floating point after long post-change stretches,
while log odds stay finite and exact far beyond that; callers that need
p read it back with ``log_odds_to_belief``.

``update_odds`` is the one recursion.  Each step pumps the odds by the
geometric prior's hazard rho, then scales them by the stage-matched
likelihood ratio exp(Z_n) of observation n:

    log R_n = log(R_{n-1} + rho) - log(1 - rho) + Z_n,

the arithmetic of ``log_odds_step_geometric``, which the Monte-Carlo
engine runs vectorized over paths.  A state pinned at p = 1 (log odds
+inf) stays pinned: the change is absorbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ipid_model import GeometricPrior, IpidScenario, log_likelihood_ratio

__all__ = [
    "OddsState",
    "BeliefUpdateError",
    "update_odds",
    "belief_to_log_odds",
    "log_odds_to_belief",
    "log_odds_step_geometric",
]


class BeliefUpdateError(ValueError):
    """Observation is outside the support of both stage densities."""


@dataclass(frozen=True)
class OddsState:
    """Log posterior odds after n observations; -inf encodes R = 0."""

    log_r: float
    n: int = 0

    def __post_init__(self):
        if math.isnan(self.log_r):
            raise ValueError("log odds must not be NaN")
        if self.n < 0:
            raise ValueError("time index must be >= 0")


def belief_to_log_odds(p: float) -> float:
    """log(p / (1 - p)); 0 -> -inf, 1 -> +inf."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"belief must lie in [0, 1], got {p}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return math.log(p) - math.log1p(-p)


def log_odds_to_belief(log_r: float) -> float:
    """Inverse of ``belief_to_log_odds``; accepts +-inf."""
    if log_r == math.inf:
        return 1.0
    if log_r == -math.inf:
        return 0.0
    if log_r >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_r))
    e = math.exp(log_r)
    return e / (1.0 + e)


def log_odds_step_geometric(log_r, rho: float, llr):
    """One geometric-prior step in log-odds form.  Vectorizes over log_r
    and llr; ``update_odds`` and the Monte-Carlo engine share it."""
    pumped = np.logaddexp(log_r, math.log(rho)) - math.log1p(-rho)
    return pumped + llr


def update_odds(
    state: OddsState, prior: GeometricPrior, scenario: IpidScenario, y: float
) -> OddsState:
    """Advance log R by one observation y: R' = ((R + rho) / (1 - rho))
    g(y) / f(y).  Raises ``BeliefUpdateError`` when y lies outside both
    stage supports (a NaN log likelihood ratio)."""
    n = state.n + 1
    if state.log_r == math.inf:
        return OddsState(math.inf, n)
    llr = log_likelihood_ratio(scenario, n, y)
    if math.isnan(llr):
        raise BeliefUpdateError(
            f"observation {y!r} at time {n} is outside both stage supports"
        )
    return OddsState(float(log_odds_step_geometric(state.log_r, prior.rho, llr)), n)
