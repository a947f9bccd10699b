"""Seedable Monte-Carlo evaluation of threshold stopping rules.

Policies raise an alarm the first time the posterior change probability
exceeds a threshold, with the threshold allowed to rotate over the T
stages.  The harness estimates the Bayes cost (delay penalties accrued
after the change plus a false-alarm penalty when stopping early), the
average detection delay, and the false-alarm probability, and provides
the closed-form asymptotic delay for comparison.

The harness imports its inputs from ``ipid_model``, never from the
dynamic-programming solver it checks.  Conventions shared with that
solver: observation n has stage s(n) = ``IpidScenario.stage_index(n)``;
the decision after observation n uses the stage-s(n) threshold; a false
alarm at time tau costs false_alarm[s(tau)]; each post-change
observation n < tau that was answered with "continue" costs delay[s(n)].

Paths that never alarm within the horizon are treated as stopping just
after it (pessimistic for delay metrics, no false-alarm term) and the
censored fraction is reported.  All estimators are bit-reproducible
given (seed, n_paths, horizon): observations are drawn from one
generator in a fixed order, vectorized over the still-running paths.

One simulation kernel serves one rule, or a grid of single thresholds.  A
threshold rule does not change the observations, only when it stops reading
them, so a sweep over single thresholds (``sweep_single_threshold``, and
``estimate_add_pfa`` given several thresholds) draws each path once, until
it has passed the largest threshold, and reads every threshold's stopping
time off it.  The grid points are then common-random-number estimates and
each path's stopping time is nondecreasing in the threshold.  Every
estimate is a ``SimulationReport`` naming its rule's stage thresholds, a
sweep's points are those reports, and the largest threshold's point ``==``
its one-rule run at the same seed.  Separate calls (``estimate_bayes_cost``
for two policies, say) share only the change points.


Paths are drawn here and nowhere else, by one change-point draw and one
step (observation n of every running path, and its log odds);
``sample_path`` runs the step on one path to the horizon.  Paths run in
ascending change-point order (they are exchangeable, so this only
relabels them): at every step the post-change paths are a prefix of the
running ones, so the step is told only how many there are and draws
theirs first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .belief import belief_to_log_odds, log_odds_step_geometric, log_odds_to_belief
from .ipid_model import DetectionCostSpec, IpidScenario, log_likelihood_ratio

__all__ = [
    "SimulationReport",
    "SamplePath",
    "AddPfaResult",
    "AddPfaSweep",
    "SweepResult",
    "sample_path",
    "estimate_bayes_cost",
    "sweep_single_threshold",
    "estimate_add_pfa",
    "analytic_delay",
    "default_horizon",
]


@dataclass(frozen=True)
class SimulationReport:
    """Point estimate with its Monte-Carlo context: the rule's T stage
    ``thresholds``, and ``n_paths`` counts the paths the estimate averages."""

    kind: str
    thresholds: tuple[float, ...]
    estimate: float
    std_error: float
    n_paths: int
    seed: int
    horizon: int
    censored_fraction: float = 0.0


@dataclass(frozen=True)
class AddPfaResult:
    """Delay and false-alarm estimates for one threshold, each a ``SimulationReport``.

    ``pfa`` counts alarms strictly before the change; ``pfa_posterior`` is
    the zero-variance-in-the-limit alternative E[1 - p_tau], which stays
    informative when alarms before the change are too rare to count.
    ``conditional_add`` averages over the detected paths only, and its
    ``n_paths`` counts those.
    """

    add: SimulationReport
    conditional_add: SimulationReport
    pfa: SimulationReport
    pfa_posterior: SimulationReport


def default_horizon(scenario: IpidScenario) -> int:
    """50 expected change times; long enough that censoring is rare.
    Raises ``ValueError`` when 50 / rho overflows."""
    horizon = 50.0 / scenario.rho
    if horizon == math.inf:
        raise ValueError(f"rho {scenario.rho} is too small for a default horizon; set one")
    return int(math.ceil(horizon))


def _change_points(rng: np.random.Generator, rho: float, size: int, horizon: int) -> np.ndarray:
    """Geometric change points in ascending order, horizon + 1 standing for
    any beyond it.  Paths are exchangeable, so sorting only relabels them."""
    return np.sort(np.minimum(rng.geometric(rho, size).astype(np.int64), horizon + 1))


def _step(scenario: IpidScenario, rng: np.random.Generator, n: int,
          n_post: int, log_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observation n of the paths with log odds ``log_r``, and their log odds
    after it.  The first ``n_post`` paths are past their change point and
    take the step's first draws; a side with no path draws nothing."""
    s = scenario.stage_index(n)
    if n_post == log_r.size:
        y = scenario.post[s].sample(rng, n_post)
    elif n_post == 0:
        y = scenario.pre[s].sample(rng, log_r.size)
    else:
        y = np.concatenate((scenario.post[s].sample(rng, n_post),
                            scenario.pre[s].sample(rng, log_r.size - n_post)))
    return y, log_odds_step_geometric(log_r, scenario.rho, log_likelihood_ratio(scenario, n, y))


@dataclass(frozen=True)
class SamplePath:
    """One simulated stream; ``log_odds[n - 1]`` is log R_n.  ``change_point``
    is None when the change falls beyond the horizon."""

    change_point: int | None
    observations: np.ndarray
    log_odds: np.ndarray

    def change_active(self, n: int) -> bool:
        """Whether observation n is drawn from the post-change law."""
        return self.change_point is not None and n >= self.change_point


def sample_path(scenario: IpidScenario, horizon: int, seed: int) -> SamplePath:
    """The one path of ``scenario`` that ``_simulate_stopping`` draws at
    ``seed``, never stopped by an alarm: its change point, observations and
    log odds."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    nu = int(_change_points(rng, scenario.rho, 1, horizon)[0])
    observations, log_odds = np.empty(horizon), np.empty(horizon)
    log_r = np.full(1, -math.inf)
    for n in range(1, horizon + 1):
        y, log_r = _step(scenario, rng, n, int(nu <= n), log_r)
        observations[n - 1], log_odds[n - 1] = y[0], log_r[0]
    return SamplePath(nu if nu <= horizon else None, observations, log_odds)


def _simulate_stopping(
    scenario: IpidScenario,
    thresholds: np.ndarray,
    n_paths: int,
    horizon: int,
    seed: int,
    with_log_r: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Vectorized runs of one rule, or K single thresholds, on shared paths.

    ``thresholds`` is (K, T): one rule as a (1, T) row, or K single
    thresholds, each row one level at every stage and nondecreasing in k.
    Each path is drawn until it has crossed all K levels (or the horizon
    ends), and tau[:, k] is the first time its log-odds exceeds level k.
    A running path compares its log-odds with its first level not yet
    crossed only; on a crossing a ``searchsorted`` over the stage's levels
    finds every level passed at once, but only the first of them gets its
    time (and log odds) written, and the running paths are compacted only
    when one has passed its last level.  After the last step the levels a
    censored path never reached get the sentinel, and one running maximum
    over k fills both records: a level passed later than the one below
    holds a larger time and log odds, and one passed with it holds none.
    Paths run in ascending change-point order and compaction keeps that
    order, so the post-change paths are a prefix of the running ones and
    take a step's first draws; one rule sees the same draws at every K.

    Returns (nu, tau, log_r_at_tau), nu ascending and row i of tau
    holding the stopping times of the path with change point nu[i].  tau
    is int32 of shape (n_paths, K); both times use horizon + 1 as the
    beyond-horizon sentinel (change never arrived / rule never alarmed).
    log_r_at_tau has tau's shape (+inf where no alarm) when ``with_log_r``
    is set and is None otherwise.  Both are stored level by level, so each
    column (one rule's times) is contiguous.
    """
    if n_paths < 1 or horizon < 1:
        raise ValueError("need n_paths >= 1 and horizon >= 1")
    if horizon + 1 > np.iinfo(np.int32).max:
        raise ValueError(f"horizon {horizon} does not fit int32 stopping times")
    levels = np.asarray(thresholds, dtype=float)
    if levels.shape[1:] != (scenario.period,):
        raise ValueError(f"thresholds must have shape (K, {scenario.period}), got {levels.shape}")
    n_levels = levels.shape[0]
    if n_levels > 1 and np.any(levels != levels[:, :1]):
        raise ValueError("K > 1 threshold rows must be single thresholds, one level at every stage")
    if np.any(np.diff(levels, axis=0) < 0.0):
        raise ValueError("threshold rows must be nondecreasing in k")
    # stage_levels[s] holds the K log-odds levels of stage s, sorted
    stage_levels = belief_to_log_odds(levels.T)

    rng = np.random.default_rng(seed)
    nu = _change_points(rng, scenario.rho, n_paths, horizon)
    # (K, n_paths), one row per level; 0 and -inf mark a record not yet written
    tau = np.zeros((n_levels, n_paths), dtype=np.int32)
    log_r_at_tau = np.full((n_levels, n_paths), -math.inf) if with_log_r else None
    alive = np.arange(n_paths)
    next_level = np.zeros(n_paths, dtype=np.intp)
    log_r = np.full(n_paths, -math.inf)
    for n in range(1, horizon + 1):
        n_post = int(np.searchsorted(alive, np.searchsorted(nu, n, side="right")))
        _, log_r = _step(scenario, rng, n, n_post, log_r)
        col = stage_levels[scenario.stage_index(n)]
        hit = (log_r > col[next_level]).nonzero()[0]
        if hit.size:
            hit_log_r = log_r[hit]
            first, rows = next_level[hit], alive[hit]
            tau[first, rows] = n
            if log_r_at_tau is not None:
                log_r_at_tau[first, rows] = hit_log_r
            passed = np.searchsorted(col, hit_log_r)  # levels strictly below log_r
            next_level[hit] = passed
            if passed.max() == n_levels:
                running = next_level < n_levels
                alive, log_r, next_level = alive[running], log_r[running], next_level[running]
                if alive.size == 0:
                    break
    never = np.arange(n_levels)[:, None] >= next_level  # levels a running path never reached
    tau[:, alive] = np.where(never, horizon + 1, tau[:, alive])
    np.maximum.accumulate(tau, axis=0, out=tau)
    if log_r_at_tau is not None:
        log_r_at_tau[:, alive] = np.where(never, math.inf, log_r_at_tau[:, alive])
        np.maximum.accumulate(log_r_at_tau, axis=0, out=log_r_at_tau)
    return nu, tau.T, None if log_r_at_tau is None else log_r_at_tau.T


def _sorted_levels(thresholds: Iterable[float], period: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate single thresholds and stack them in ascending order: returns
    (rank, levels), the row of ``levels`` that holds each threshold in the
    caller's order, and the (K, T) stage levels of the sorted rules."""
    grid = np.fromiter(thresholds, dtype=float)
    if grid.size == 0:
        raise ValueError("threshold grid is empty")
    outside = ~((grid >= 0.0) & (grid < 1.0))
    if outside.any():
        raise ValueError(f"threshold must lie in [0, 1), got {grid[outside][0]}")
    order = np.argsort(grid, kind="stable")
    return np.argsort(order), np.repeat(grid[order, None], period, axis=1)


def _delay_cost_table(delay: Sequence[float], horizon: int) -> np.ndarray:
    """cum[t] = sum of the delay penalties charged at times 1..t."""
    return np.concatenate(([0.0], np.cumsum(np.resize(delay, horizon + 1))))


def _report(kind, rule, values, seed, horizon, censored) -> SimulationReport:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else math.nan
    return SimulationReport(
        kind=kind,
        thresholds=tuple(np.asarray(rule, dtype=float).tolist()),
        estimate=float(values.mean()) if values.size else math.nan,
        std_error=se,
        n_paths=values.size,
        seed=seed,
        horizon=horizon,
        censored_fraction=censored,
    )


def _bayes_costs(scenario: IpidScenario, costs: DetectionCostSpec, levels, n_paths: int,
                 horizon: int | None, seed: int) -> list[SimulationReport]:
    """One report per threshold rule, a row of ``levels`` (K, T), all read
    off one set of paths; a horizon of None is the ``default_horizon``."""
    if scenario.period != costs.period:
        raise ValueError(f"scenario period {scenario.period} != cost spec period {costs.period}")
    horizon = default_horizon(scenario) if horizon is None else horizon
    nu, tau, _ = _simulate_stopping(scenario, levels, n_paths, horizon, seed)
    dcum = _delay_cost_table(costs.delay, horizon)
    lam = np.resize(costs.false_alarm, horizon + 1)  # lam[t - 1]: a false alarm at time t
    reports = []
    for rule, tau_k in zip(levels, tau.T):
        false_alarm = tau_k < nu
        delay_cost = dcum[np.maximum(tau_k - 1, 0)] - dcum[np.minimum(nu, tau_k) - 1]
        cost = np.where(false_alarm, lam[tau_k - 1], delay_cost)
        censored = float((tau_k > horizon).mean())
        reports.append(_report("bayes_cost", rule, cost, seed, horizon, censored))
    return reports


def estimate_bayes_cost(
    scenario: IpidScenario,
    costs: DetectionCostSpec,
    thresholds: Sequence[float],
    n_paths: int,
    *,
    horizon: int | None = None,
    seed: int = 0,
) -> SimulationReport:
    """Average realized cost of a threshold rule over fresh paths.

    The rule is its T stage thresholds: it stops the first time p exceeds
    ``thresholds[s]`` after a stage-s observation, and a threshold of 1.0
    never stops at its stage.  A single threshold A is A at every stage.
    An empty or wrong-length sequence, or an entry outside [0, 1] or NaN,
    raises ``ValueError``.

    Per path: sum of delay[(n-1) % T] over post-change times n < tau when
    the rule kept sampling, or false_alarm[(tau-1) % T] when it alarmed
    before the change.  Censored paths accrue delay through the horizon.
    """
    return _bayes_costs(scenario, costs, [thresholds], n_paths, horizon, seed)[0]


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SimulationReport, ...]

    @property
    def best(self) -> SimulationReport:
        return min(self.points, key=lambda r: r.estimate)


def sweep_single_threshold(
    scenario: IpidScenario,
    costs: DetectionCostSpec,
    threshold_grid: Iterable[float],
    n_paths: int,
    *,
    horizon: int | None = None,
    seed: int = 0,
) -> SweepResult:
    """Bayes cost of the single-threshold rule over a grid of thresholds.

    One simulation serves the whole grid: every threshold is read off the
    same paths, so the points are common-random-number estimates of one
    another and each path's stopping time is nondecreasing in the
    threshold.  Each point is a ``SimulationReport``.  The largest
    threshold's point ``==`` ``estimate_bayes_cost`` at that seed; the
    others differ from a one-threshold run, which stops drawing a path at
    its own alarm.  Points come in the grid's order, duplicates included.
    """
    rank, levels = _sorted_levels(threshold_grid, scenario.period)
    reports = _bayes_costs(scenario, costs, levels, n_paths, horizon, seed)
    return SweepResult(points=tuple(reports[k] for k in rank))


def _add_pfa_result(rule: np.ndarray, nu: np.ndarray, tau: np.ndarray,
                    log_r_at_tau: np.ndarray, seed: int, horizon: int) -> AddPfaResult:
    """ADD/PFA estimates of one rule, ``rule`` its stage thresholds, from its stopping times."""
    censored = float((tau > horizon).mean())
    add = np.maximum(tau - nu, 0)
    detected = (tau >= nu) & (nu <= horizon)
    cond = (tau - nu)[detected]
    pfa = (tau < nu).astype(float)
    one_minus_p = np.where(tau <= horizon, log_odds_to_belief(-log_r_at_tau), 0.0)
    return AddPfaResult(
        add=_report("add", rule, add, seed, horizon, censored),
        conditional_add=_report("conditional_add", rule, cond, seed, horizon, censored),
        pfa=_report("pfa", rule, pfa, seed, horizon, censored),
        pfa_posterior=_report("pfa_posterior", rule, one_minus_p, seed, horizon, censored),
    )


@dataclass(frozen=True)
class AddPfaSweep:
    """``AddPfaResult`` per threshold, in the caller's order, all read off
    one set of paths."""

    points: tuple[AddPfaResult, ...]

    @property
    def censored_fraction(self) -> float:
        """The largest censored fraction over the thresholds."""
        return max(p.add.censored_fraction for p in self.points)


def estimate_add_pfa(
    scenario: IpidScenario,
    threshold: float | Sequence[float],
    n_paths: int,
    *,
    horizon: int | None = None,
    seed: int = 0,
) -> AddPfaResult | AddPfaSweep:
    """Delay and false-alarm performance of single-threshold rules.

    ADD averages (tau - nu)^+ over all paths; the conditional version
    averages tau - nu over paths that alarmed at or after a change that
    arrived within the horizon; PFA is the fraction of paths with
    tau < nu.

    One threshold gives one ``AddPfaResult``.  A sequence of thresholds
    gives an ``AddPfaSweep`` whose points follow the sequence's order, all
    read off one set of paths as in ``sweep_single_threshold``: ADD is
    then pathwise nondecreasing and PFA pathwise nonincreasing in the
    threshold, and the largest threshold's point equals a one-threshold
    call at that seed.
    """
    horizon = default_horizon(scenario) if horizon is None else horizon
    rank, levels = _sorted_levels(np.atleast_1d(threshold), scenario.period)
    nu, tau, log_r_at_tau = _simulate_stopping(
        scenario, levels, n_paths, horizon, seed, with_log_r=True
    )
    points = tuple(_add_pfa_result(levels[k], nu, tau[:, k], log_r_at_tau[:, k], seed, horizon)
                   for k in rank)
    return points[0] if np.ndim(threshold) == 0 else AddPfaSweep(points=points)


def analytic_delay(alpha: float, info: float, tail_exponent: float) -> float:
    """First-order asymptotic delay |log alpha| / (info + tail_exponent)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if info <= 0.0 or tail_exponent < 0.0:
        raise ValueError("need info > 0 and tail_exponent >= 0")
    return -math.log(alpha) / (info + tail_exponent)
