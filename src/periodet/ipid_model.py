"""Observation model for independent, periodically identically distributed data.

An i.p.i.d. process emits independent observations whose marginal density
repeats with period T.  A monitored stream follows the pre-change law
(f_1, ..., f_T) up to some random change point nu and the post-change law
(g_1, ..., g_T) from nu on.  This module holds the detection problem's
inputs, which the grid solver and the Monte-Carlo harness both read: the
density types, the scenario (both laws and the change point's hazard
rho, the whole observation model) and the per-stage penalties
(``DetectionCostSpec``).  It also holds the Simpson window that both the
divergence and the detection DP integrate over, and the two information
quantities that control asymptotic detection delay: the period-averaged
Kullback-Leibler divergence and the change point's tail exponent.  Paths
are drawn by the Monte-Carlo kernel (``monte_carlo.sample_path``).

The log likelihood ratio of a Gaussian stage pair is the quadratic
(a y + b) y + c in the observation, with (a, b, c) cached per stage by the
scenario; any other density pair takes the difference of its
log-densities.  Either way a non-finite observation gives NaN.

The change point is geometric, and only geometric: its constant hazard
rho makes the posterior change probability a Markov state, which the
detection DP and the Monte-Carlo engine both rely on.

Indexing: observation n >= 1 has 0-based stage (n - 1) % T, so the density
lists are addressed as pre[stage], post[stage].  The off-by-one lives in
three places: ``IpidScenario.stage_index``; ``monte_carlo._bayes_costs``,
which reads the penalty charged at time t as entry t - 1 of the per-stage
penalties repeated by ``np.resize``; and ``detection_dp.detection_mdp``,
which continues from stage s over the next observation's stage (s + 1) % T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

__all__ = [
    "Density",
    "Gaussian",
    "IpidScenario",
    "DetectionCostSpec",
    "log_likelihood_ratio",
    "simpson_window",
    "kl_information",
    "prior_tail_exponent",
]

_LOG_2PI = math.log(2.0 * math.pi)


class Density(Protocol):
    """Log-density over the real line, with enough structure to sample and
    to place a truncated quadrature window (``loc`` and ``scale``)."""

    loc: float
    scale: float

    def logpdf(self, x):
        ...

    def sample(self, rng: np.random.Generator, size=None):
        ...


@dataclass(frozen=True)
class Gaussian:
    """Normal density with the given mean and variance."""

    mean: float
    variance: float = 1.0

    def __post_init__(self):
        if not (self.variance > 0.0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be finite and positive, got {self.variance}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")

    @property
    def loc(self) -> float:
        return self.mean

    @property
    def scale(self) -> float:
        return math.sqrt(self.variance)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        out = -0.5 * ((x - self.mean) ** 2 / self.variance + _LOG_2PI + math.log(self.variance))
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size=None):
        return rng.normal(self.mean, self.scale, size=size)


@dataclass(frozen=True)
class IpidScenario:
    """Pre- and post-change laws of one monitored stream, and its change point.

    ``pre`` and ``post`` each hold T densities, one per stage.  The change
    point is geometric with hazard ``rho``: P(nu = n) = (1-rho)^(n-1) rho
    for n >= 1.  A scenario where every post density equals its pre
    counterpart is constructable (the change is then undetectable);
    ``kl_information`` rejects it.
    """

    pre: tuple[Density, ...]
    post: tuple[Density, ...]
    rho: float
    # per stage, the (a, b, c) of a Gaussian pair's LLR, or None
    _llr_coefficients: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pre", tuple(self.pre))
        object.__setattr__(self, "post", tuple(self.post))
        if len(self.pre) < 1:
            raise ValueError("need at least one stage")
        if len(self.pre) != len(self.post):
            raise ValueError(
                f"pre has {len(self.pre)} stages but post has {len(self.post)}"
            )
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        object.__setattr__(self, "_llr_coefficients", tuple(
            _gaussian_llr_coefficients(f, g) for f, g in zip(self.pre, self.post)))

    @property
    def period(self) -> int:
        return len(self.pre)

    def stage_index(self, n: int) -> int:
        """0-based stage of observation n >= 1."""
        if n < 1:
            raise ValueError(f"observation index must be >= 1, got {n}")
        return (n - 1) % self.period


@dataclass(frozen=True)
class DetectionCostSpec:
    """Per-stage penalties; the change point's hazard is the scenario's.

    ``false_alarm[s]`` and ``delay[s]`` apply to the decision made after a
    stage-s observation.  Constant false_alarm and unit delay recover the
    classical single-penalty formulation.
    """

    false_alarm: tuple[float, ...]
    delay: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "false_alarm", tuple(float(x) for x in self.false_alarm))
        object.__setattr__(self, "delay", tuple(float(x) for x in self.delay))
        if len(self.false_alarm) != len(self.delay) or not self.false_alarm:
            raise ValueError("false_alarm and delay need equal, positive length")
        if any(not (x > 0.0 and math.isfinite(x)) for x in self.false_alarm):
            raise ValueError("false-alarm penalties must be finite and positive")
        if any(not (x >= 0.0 and math.isfinite(x)) for x in self.delay):
            raise ValueError("delay penalties must be finite and nonnegative")

    @property
    def period(self) -> int:
        return len(self.false_alarm)


def _gaussian_llr_coefficients(f: Density, g: Density) -> tuple[float, float, float] | None:
    """(a, b, c) with log g(y) - log f(y) = (a y + b) y + c for Gaussian f
    and g, None otherwise."""
    if not (isinstance(f, Gaussian) and isinstance(g, Gaussian)):
        return None
    a = 0.5 * (1.0 / f.variance - 1.0 / g.variance)
    b = g.mean / g.variance - f.mean / f.variance
    c = 0.5 * (f.mean**2 / f.variance - g.mean**2 / g.variance
               + math.log(f.variance / g.variance))
    return a, b, c


def log_likelihood_ratio(scenario: IpidScenario, n: int, y) -> float | np.ndarray:
    """Post-vs-pre log likelihood ratio of observation n, elementwise on an
    array y: the cached quadratic of a Gaussian stage pair, otherwise the
    difference of the log-densities (never a ratio of densities).  A
    non-finite y gives NaN, as the difference -inf - (-inf) does."""
    s = scenario.stage_index(n)
    coefficients = scenario._llr_coefficients[s]
    if coefficients is None:
        return scenario.post[s].logpdf(y) - scenario.pre[s].logpdf(y)
    a, b, c = coefficients
    y = np.asarray(y, dtype=float)
    # The sum of squares is finite unless some y is not (or |y| passes
    # ~1e154).  A non-finite y becomes NaN, which the arithmetic carries
    # through silently where inf could meet 0 or -inf.
    flat = y.ravel()
    if not math.isfinite(np.dot(flat, flat)):
        y = np.where(np.isfinite(y), y, math.nan)
    llr = y * a
    llr += b
    llr *= y
    llr += c
    return float(llr) if llr.ndim == 0 else llr


def _kl_divergence(g: Density, f: Density) -> float:
    """D(g || f), closed form for Gaussian pairs, quadrature otherwise."""
    if isinstance(g, Gaussian) and isinstance(f, Gaussian):
        dm = g.mean - f.mean
        return (
            0.5 * math.log(f.variance / g.variance)
            + (g.variance + dm * dm) / (2.0 * f.variance)
            - 0.5
        )
    return _kl_quadrature(g, f)


def _kl_quadrature(g: Density, f: Density) -> float:
    """Composite Simpson for the integral of g * (log g - log f) over a
    window of +-10 scales around both locations."""
    x, w = simpson_window(f, g, 10.0, 4001)
    log_g = g.logpdf(x)
    integrand = np.where(np.isfinite(log_g), np.exp(log_g) * (log_g - f.logpdf(x)), 0.0)
    return float(integrand @ w)


def simpson_window(
    f: Density, g: Density, scales: float, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson nodes and weights on a window reaching ``scales``
    times the larger scale beyond both density locations.  Raises if the
    window is not finite (an infinite scale or location) or does not cover
    both locations (a zero or NaN scale)."""
    width = scales * max(f.scale, g.scale)
    lo = min(f.loc, g.loc) - width
    hi = max(f.loc, g.loc) + width
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"quadrature window [{lo}, {hi}] is not finite")
    if not (lo < f.loc < hi and lo < g.loc < hi):
        raise ValueError("quadrature window does not cover both density locations")
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count >= 3")
    simpson = np.ones(n_nodes)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    return np.linspace(lo, hi, n_nodes), (simpson / 3.0) * (hi - lo) / (n_nodes - 1)


def kl_information(scenario: IpidScenario) -> float:
    """Period-averaged divergence (1/T) sum_i D(g_i || f_i).

    Raises if the average is zero (no stage distinguishes the laws, so no
    detection rate exists) or non-finite.
    """
    per_stage = [_kl_divergence(g, f) for f, g in zip(scenario.pre, scenario.post)]
    info = sum(per_stage) / scenario.period
    if not math.isfinite(info):
        raise ValueError("per-stage divergence is not finite")
    if info <= 0.0:
        raise ValueError("zero divergence between pre- and post-change laws")
    return info


def prior_tail_exponent(scenario: IpidScenario) -> float:
    """Exponential decay rate of the prior tail, -log P(nu > n) / n, which
    for the geometric prior is -log(1 - rho) at every n."""
    return -math.log1p(-scenario.rho)
