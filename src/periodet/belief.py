"""The posterior change odds, advanced one observation at a time.

The detection statistic is the posterior change probability
p_n = P(nu <= n | Y_1..Y_n), carried as its log odds
log R_n = log(p_n / (1 - p_n)).  The probability-domain recursion
saturates at 1.0 in floating point after long post-change stretches,
while log odds stay finite and exact far beyond that.
``belief_to_log_odds`` and ``log_odds_to_belief`` convert elementwise
between p and log R and are the package's only logit and expit.

One step, ``log_odds_step_geometric``, holds the recursion's arithmetic.
It pumps the odds by the geometric prior's hazard rho, then scales them
by the stage-matched likelihood ratio exp(Z_n) of observation n:

    log R_n = log(R_{n-1} + rho) - log(1 - rho) + Z_n.

The pump log(R + rho) is computed as max(log R, log rho)
+ log1p(exp(-|log R - log rho|)) with NumPy's vectorized exp and log1p,
which is exact at log R = +-inf and cannot overflow; exp(log R) would
overflow once the log odds pass 709.

``update_odds`` runs it online and rejects an observation outside both
stage supports; a state at p = 1 (log odds +inf) stays there, as the
change is absorbing.  The Monte-Carlo kernel runs it over its paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ipid_model import IpidScenario, log_likelihood_ratio

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


def belief_to_log_odds(p):
    """log(p / (1 - p)), elementwise; 0 -> -inf, 1 -> +inf, a float for a
    scalar.  Raises ``ValueError`` on an entry outside [0, 1] or NaN."""
    p = np.asarray(p, dtype=float)
    inside = (p >= 0.0) & (p <= 1.0)
    if not inside.all():
        raise ValueError(f"belief must lie in [0, 1], got {p[~inside][0]}")
    with np.errstate(divide="ignore"):
        log_r = np.log(p) - np.log1p(-p)
    return float(log_r) if log_r.ndim == 0 else log_r


def log_odds_to_belief(log_r):
    """Inverse of ``belief_to_log_odds``, elementwise; -inf -> 0, +inf -> 1.
    A scalar gives a float.  Only exp(-|log R|) is formed, so nothing
    overflows."""
    log_r = np.asarray(log_r, dtype=float)
    e = np.exp(-np.abs(log_r))
    p = np.where(log_r >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(p) if p.ndim == 0 else p


def log_odds_step_geometric(log_r, rho: float, llr):
    """One geometric-prior step in log-odds form.  Vectorizes over log_r
    and llr; ``update_odds`` and the Monte-Carlo engine share it."""
    log_rho = math.log(rho)
    pumped = np.maximum(log_r, log_rho) + np.log1p(np.exp(-np.abs(log_r - log_rho)))
    return pumped - math.log1p(-rho) + llr


def update_odds(state: OddsState, scenario: IpidScenario, y: float) -> OddsState:
    """Advance log R by one observation y of ``scenario``: R' = ((R + rho)
    / (1 - rho)) g(y) / f(y), with the scenario's hazard rho and stage
    densities.  Raises ``BeliefUpdateError`` when y lies outside both
    stage supports (a NaN log likelihood ratio)."""
    n = state.n + 1
    if state.log_r == math.inf:
        return OddsState(math.inf, n)
    llr = log_likelihood_ratio(scenario, n, y)
    if math.isnan(llr):
        raise BeliefUpdateError(
            f"observation {y!r} at time {n} is outside both stage supports"
        )
    return OddsState(float(log_odds_step_geometric(state.log_r, scenario.rho, llr)), n)
