"""Seedable Monte-Carlo evaluation of threshold stopping rules.

Policies raise an alarm the first time the posterior change probability
exceeds a threshold, with the threshold allowed to rotate over the T
stages.  The harness estimates the Bayes cost (delay penalties accrued
after the change plus a false-alarm penalty when stopping early), the
average detection delay, and the false-alarm probability, and provides
the closed-form asymptotic delay for comparison.

Conventions shared with the dynamic-programming solver: observation n
has 0-based stage (n - 1) % T; the decision after observation n uses the
stage-((n-1) % T) threshold; a false alarm at time tau costs
false_alarm[(tau - 1) % T]; each post-change observation n < tau that was
answered with "continue" costs delay[(n - 1) % T].

Paths that never alarm within the horizon are treated as stopping just
after it (pessimistic for delay metrics, no false-alarm term) and the
censored fraction is reported.  All estimators are bit-reproducible
given (seed, n_paths, horizon): observations are drawn from one
generator in a fixed order, vectorized over the still-running paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .belief import belief_to_log_odds, log_odds_step_geometric
from .ipid_model import IpidScenario, log_likelihood_ratio
from .detection_dp import DetectionCostSpec

__all__ = [
    "SingleThreshold",
    "PeriodicThresholds",
    "StoppingPolicy",
    "SimulationReport",
    "AddPfaResult",
    "SweepPoint",
    "SweepResult",
    "estimate_bayes_cost",
    "sweep_single_threshold",
    "estimate_add_pfa",
    "analytic_delay",
    "default_horizon",
]


@dataclass(frozen=True)
class SingleThreshold:
    """Stop the first time p exceeds one fixed threshold."""

    threshold: float

    def __post_init__(self):
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must lie in [0, 1), got {self.threshold}")

    def stage_thresholds(self, period: int) -> np.ndarray:
        return np.full(period, self.threshold)


@dataclass(frozen=True)
class PeriodicThresholds:
    """Stop the first time p exceeds the threshold of the current stage.

    A stage threshold of 1.0 means "never stop at this stage".  Equal
    entries behave exactly like a ``SingleThreshold``.
    """

    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(a) for a in self.thresholds))
        if not self.thresholds:
            raise ValueError("need at least one threshold")
        if any(not 0.0 <= a <= 1.0 for a in self.thresholds):
            raise ValueError("stage thresholds must lie in [0, 1]")

    def stage_thresholds(self, period: int) -> np.ndarray:
        if len(self.thresholds) != period:
            raise ValueError(
                f"policy has {len(self.thresholds)} thresholds but the period is {period}"
            )
        return np.asarray(self.thresholds)


StoppingPolicy = SingleThreshold | PeriodicThresholds


@dataclass(frozen=True)
class SimulationReport:
    """Point estimate with its Monte-Carlo context."""

    kind: str
    estimate: float
    std_error: float
    n_paths: int
    seed: int
    horizon: int
    censored_fraction: float = 0.0


@dataclass(frozen=True)
class AddPfaResult:
    """Delay and false-alarm estimates for one threshold.

    ``pfa`` counts alarms strictly before the change; ``pfa_posterior`` is
    the zero-variance-in-the-limit alternative E[1 - p_tau], which stays
    informative when alarms before the change are too rare to count.
    """

    add: SimulationReport
    conditional_add: SimulationReport
    pfa: SimulationReport
    pfa_posterior: float
    censored_fraction: float


def default_horizon(rho: float) -> int:
    """50 expected change times; long enough that censoring is rare."""
    return int(math.ceil(50.0 / rho))


def _simulate_stopping(
    scenario: IpidScenario,
    rho: float,
    thresholds: np.ndarray,
    n_paths: int,
    horizon: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized runs of a threshold rule over fresh sample paths; the
    odds of the still-running paths advance by ``log_odds_step_geometric``.

    Returns (nu, tau, log_r_at_tau); both times use horizon + 1 as the
    beyond-horizon sentinel (change never arrived / policy never alarmed).
    """
    if n_paths < 1 or horizon < 1:
        raise ValueError("need n_paths >= 1 and horizon >= 1")
    rng = np.random.default_rng(seed)
    nu = rng.geometric(rho, n_paths).astype(np.int64)
    nu = np.minimum(nu, horizon + 1)
    log_thr = np.array([belief_to_log_odds(a) for a in thresholds])

    tau = np.full(n_paths, horizon + 1, dtype=np.int64)
    log_r_at_tau = np.full(n_paths, math.inf)
    alive = np.arange(n_paths)
    log_r = np.full(n_paths, -math.inf)
    for n in range(1, horizon + 1):
        s = scenario.stage_index(n)
        post = nu[alive] <= n
        y = np.empty(alive.size)
        y[post] = scenario.post[s].sample(rng, int(post.sum()))
        y[~post] = scenario.pre[s].sample(rng, int(alive.size - post.sum()))
        log_r = log_odds_step_geometric(log_r, rho, log_likelihood_ratio(scenario, n, y))
        crossed = log_r > log_thr[s]
        if crossed.any():
            hit = alive[crossed]
            tau[hit] = n
            log_r_at_tau[hit] = log_r[crossed]
            alive = alive[~crossed]
            log_r = log_r[~crossed]
            if alive.size == 0:
                break
    return nu, tau, log_r_at_tau


def _delay_cost_table(delay: Sequence[float], horizon: int) -> np.ndarray:
    """cum[t] = sum of the delay penalties charged at times 1..t."""
    T = len(delay)
    per_step = np.asarray([delay[(n - 1) % T] for n in range(1, horizon + 2)])
    cum = np.zeros(horizon + 2)
    cum[1:] = np.cumsum(per_step)
    return cum


def _report(kind, values, n_paths, seed, horizon, censored) -> SimulationReport:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else math.nan
    return SimulationReport(
        kind=kind,
        estimate=float(values.mean()) if values.size else math.nan,
        std_error=se,
        n_paths=n_paths,
        seed=seed,
        horizon=horizon,
        censored_fraction=censored,
    )


def estimate_bayes_cost(
    scenario: IpidScenario,
    costs: DetectionCostSpec,
    policy: StoppingPolicy,
    n_paths: int,
    horizon: int | None = None,
    seed: int = 0,
) -> SimulationReport:
    """Average realized cost of a policy over fresh paths.

    Per path: sum of delay[(n-1) % T] over post-change times n < tau when
    the rule kept sampling, or false_alarm[(tau-1) % T] when it alarmed
    before the change.  Censored paths accrue delay through the horizon.
    """
    if scenario.period != costs.period:
        raise ValueError("scenario and cost spec periods differ")
    horizon = default_horizon(costs.rho) if horizon is None else horizon
    thresholds = policy.stage_thresholds(scenario.period)
    nu, tau, _ = _simulate_stopping(scenario, costs.rho, thresholds, n_paths, horizon, seed)
    T = costs.period
    dcum = _delay_cost_table(costs.delay, horizon)
    lam = np.asarray([costs.false_alarm[(t - 1) % T] for t in range(1, horizon + 2)])
    false_alarm = tau < nu
    delay_cost = dcum[np.maximum(tau - 1, 0)] - dcum[np.minimum(nu, tau) - 1]
    cost = np.where(false_alarm, lam[tau - 1], delay_cost)
    censored = float((tau > horizon).mean())
    return _report("bayes_cost", cost, n_paths, seed, horizon, censored)


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    cost: float
    std_error: float
    censored_fraction: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]

    @property
    def best(self) -> SweepPoint:
        return min(self.points, key=lambda r: r.cost)


def sweep_single_threshold(
    scenario: IpidScenario,
    costs: DetectionCostSpec,
    threshold_grid: Iterable[float],
    n_paths: int,
    seed: int = 0,
    horizon: int | None = None,
) -> SweepResult:
    """Bayes cost of the single-threshold rule over a grid of thresholds.

    Every grid point reuses the same seed, so all points share the change
    points nu and nothing else: observations are drawn only for the paths
    still running, so after the first alarm that differs between two
    thresholds their paths see different draws.  The points are not
    common-random-number estimates of one another.
    """
    points = []
    for a in threshold_grid:
        report = estimate_bayes_cost(
            scenario, costs, SingleThreshold(float(a)), n_paths, horizon=horizon, seed=seed
        )
        points.append(
            SweepPoint(float(a), report.estimate, report.std_error, report.censored_fraction)
        )
    if not points:
        raise ValueError("threshold grid is empty")
    return SweepResult(points=tuple(points))


def estimate_add_pfa(
    scenario: IpidScenario,
    rho: float,
    threshold: float,
    n_paths: int,
    horizon: int | None = None,
    seed: int = 0,
) -> AddPfaResult:
    """Delay and false-alarm performance of one single-threshold rule.

    ADD averages (tau - nu)^+ over all paths; the conditional version
    averages tau - nu over paths that alarmed at or after a change that
    arrived within the horizon; PFA is the fraction of paths with
    tau < nu.
    """
    horizon = default_horizon(rho) if horizon is None else horizon
    thresholds = SingleThreshold(threshold).stage_thresholds(scenario.period)
    nu, tau, log_r_at_tau = _simulate_stopping(scenario, rho, thresholds, n_paths, horizon, seed)
    censored = float((tau > horizon).mean())
    add = np.maximum(tau - nu, 0)
    detected = (tau >= nu) & (nu <= horizon)
    cond = (tau - nu)[detected]
    pfa = (tau < nu).astype(float)
    with np.errstate(over="ignore"):
        one_minus_p = 1.0 / (1.0 + np.exp(log_r_at_tau))
    pfa_posterior = float(np.where(tau <= horizon, one_minus_p, 0.0).mean())
    return AddPfaResult(
        add=_report("add", add, n_paths, seed, horizon, censored),
        conditional_add=_report("conditional_add", cond, n_paths, seed, horizon, censored),
        pfa=_report("pfa", pfa, n_paths, seed, horizon, censored),
        pfa_posterior=pfa_posterior,
        censored_fraction=censored,
    )


def analytic_delay(alpha: float, info: float, tail_exponent: float) -> float:
    """First-order asymptotic delay |log alpha| / (info + tail_exponent)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if info <= 0.0 or tail_exponent < 0.0:
        raise ValueError("need info > 0 and tail_exponent >= 0")
    return -math.log(alpha) / (info + tail_exponent)
