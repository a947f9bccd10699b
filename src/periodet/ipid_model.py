"""Observation model for independent, periodically identically distributed data.

An i.p.i.d. process emits independent observations whose marginal density
repeats with period T.  A monitored stream follows the pre-change law
(f_1, ..., f_T) up to some random change point nu and the post-change law
(g_1, ..., g_T) from nu on.  This module holds the density types, the
geometric change-point prior, path sampling, the Simpson window that both
the divergence and the detection DP integrate over, and the two
information quantities that control asymptotic detection delay: the
period-averaged Kullback-Leibler divergence and the prior's tail exponent.

The prior is geometric and is the only one: its constant hazard rho makes
the posterior change probability a Markov state, which the detection DP
and the Monte-Carlo engine both rely on.

Indexing: observation n >= 1 has 0-based stage (n - 1) % T, so the density
lists are addressed as pre[stage], post[stage].  ``IpidScenario.stage_index``
is the only place the off-by-one lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Density",
    "Gaussian",
    "IpidScenario",
    "GeometricPrior",
    "SamplePath",
    "log_likelihood_ratio",
    "sample_path",
    "simpson_window",
    "kl_information",
    "prior_tail_exponent",
]

_LOG_2PI = math.log(2.0 * math.pi)


@runtime_checkable
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
    """Pre- and post-change laws of one monitored stream.

    ``pre`` and ``post`` each hold T densities, one per stage.  A scenario
    where every post density equals its pre counterpart is constructable
    (the change is then undetectable); it is flagged via ``is_degenerate``
    rather than rejected, so that callers can decide.
    """

    pre: tuple[Density, ...]
    post: tuple[Density, ...]

    def __post_init__(self):
        object.__setattr__(self, "pre", tuple(self.pre))
        object.__setattr__(self, "post", tuple(self.post))
        if len(self.pre) < 1:
            raise ValueError("need at least one stage")
        if len(self.pre) != len(self.post):
            raise ValueError(
                f"pre has {len(self.pre)} stages but post has {len(self.post)}"
            )

    @property
    def period(self) -> int:
        return len(self.pre)

    @property
    def is_degenerate(self) -> bool:
        """True when no stage distinguishes post from pre."""
        return all(g == f for f, g in zip(self.pre, self.post))

    def stage_index(self, n: int) -> int:
        """0-based stage of observation n >= 1."""
        if n < 1:
            raise ValueError(f"observation index must be >= 1, got {n}")
        return (n - 1) % self.period


def log_likelihood_ratio(scenario: IpidScenario, n: int, y) -> float:
    """Post-vs-pre log likelihood ratio of observation n, as a difference
    of log-densities (never a ratio of densities)."""
    s = scenario.stage_index(n)
    return scenario.post[s].logpdf(y) - scenario.pre[s].logpdf(y)


@dataclass(frozen=True)
class GeometricPrior:
    """Change point with P(nu = n) = (1-rho)^(n-1) rho for n >= 1."""

    rho: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")

    def sample(self, rng: np.random.Generator, size=None):
        return rng.geometric(self.rho, size=size)


@dataclass(frozen=True)
class SamplePath:
    """One simulated observation stream.

    ``change_point`` is None when the change falls beyond the horizon,
    so false-alarm probabilities can be estimated without truncating the
    prior.
    """

    change_point: int | None
    observations: np.ndarray
    horizon: int
    seed: int

    def change_active(self, n: int) -> bool:
        """Whether observation n is drawn from the post-change law."""
        return self.change_point is not None and n >= self.change_point


def sample_path(
    scenario: IpidScenario, prior: GeometricPrior, horizon: int, seed: int
) -> SamplePath:
    """Draw a change point from the prior and a length-``horizon`` stream."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    nu = int(prior.sample(rng))
    obs = np.empty(horizon)
    for n in range(1, horizon + 1):
        s = scenario.stage_index(n)
        law = scenario.post[s] if n >= nu else scenario.pre[s]
        obs[n - 1] = law.sample(rng)
    return SamplePath(
        change_point=nu if nu <= horizon else None,
        observations=obs,
        horizon=horizon,
        seed=seed,
    )


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


def prior_tail_exponent(prior: GeometricPrior) -> float:
    """Exponential decay rate of the prior tail, -log P(nu > n) / n, which
    for the geometric prior is -log(1 - rho) at every n."""
    return -math.log1p(-prior.rho)
