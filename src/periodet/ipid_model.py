"""Observation model for independent, periodically identically distributed data.

An i.p.i.d. process emits independent observations whose marginal density
repeats with period T.  A monitored stream follows the pre-change law
(f_1, ..., f_T) up to some random change point nu and the post-change law
(g_1, ..., g_T) from nu on.  This module holds the density and prior
types, path sampling, the Simpson window that both the divergence and the
detection DP integrate over, and the two information quantities that
control asymptotic detection delay: the period-averaged Kullback-Leibler
divergence and the prior's tail exponent.

Indexing: observation n >= 1 has 0-based stage (n - 1) % T, so the density
lists are addressed as pre[stage], post[stage].  ``IpidScenario.stage_index``
is the only place the off-by-one lives.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "Density",
    "Gaussian",
    "IpidScenario",
    "GeometricPrior",
    "TabulatedPrior",
    "ChangePrior",
    "SamplePath",
    "TruncatedTailWarning",
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


class TruncatedTailWarning(UserWarning):
    """Tail exponent was estimated from a finite mass table."""


@dataclass(frozen=True)
class GeometricPrior:
    """Change point with P(nu = n) = (1-rho)^(n-1) rho for n >= 1."""

    rho: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")

    def log_mass(self, n: int) -> float:
        if n < 1:
            return -math.inf
        return (n - 1) * math.log1p(-self.rho) + math.log(self.rho)

    def log_tail(self, n: int) -> float:
        """log P(nu > n)."""
        if n < 0:
            raise ValueError("tail index must be >= 0")
        return n * math.log1p(-self.rho)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.geometric(self.rho, size=size)


@dataclass(frozen=True)
class TabulatedPrior:
    """Change-point prior given by explicit masses pi_1..pi_N in log form.

    Mass not covered by the table is carried as an explicit log remainder
    P(nu > N), so tails stay computable far below float underflow of the
    linear masses.  ``from_masses`` builds the table from linear masses;
    ``truncated_geometric`` tabulates a geometric prior with its exact
    remainder.
    """

    log_masses: np.ndarray
    log_remainder: float

    # log P(nu > n) for n = 0..N, built once in __post_init__
    _log_tails: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lm = np.asarray(self.log_masses, dtype=float)
        if lm.ndim != 1 or lm.size < 1:
            raise ValueError("log_masses must be a non-empty 1-d array")
        if np.any(np.isnan(lm)) or np.any(lm > 0.0):
            raise ValueError("log masses must be <= 0 and not NaN")
        object.__setattr__(self, "log_masses", lm)
        # reverse accumulation: Gamma_n = sum_{k>n} pi_k + remainder
        tails = np.empty(lm.size + 1)
        acc = self.log_remainder
        tails[-1] = acc
        for i in range(lm.size - 1, -1, -1):
            acc = np.logaddexp(acc, lm[i])
            tails[i] = acc
        if tails[0] > 1e-9:
            raise ValueError("masses plus remainder exceed 1")
        object.__setattr__(self, "_log_tails", tails)

    @classmethod
    def from_masses(cls, masses: Sequence[float]) -> "TabulatedPrior":
        m = np.asarray(masses, dtype=float)
        if np.any(m < 0.0):
            raise ValueError("masses must be nonnegative")
        total = m.sum()
        if total > 1.0 + 1e-12:
            raise ValueError(f"masses sum to {total} > 1")
        rem = max(1.0 - total, 0.0)
        with np.errstate(divide="ignore"):
            return cls(np.log(m), math.log(rem) if rem > 0.0 else -math.inf)

    @classmethod
    def truncated_geometric(cls, rho: float, n: int) -> "TabulatedPrior":
        if not (0.0 < rho < 1.0) or n < 1:
            raise ValueError("need rho in (0,1) and n >= 1")
        k = np.arange(1, n + 1)
        log_masses = (k - 1) * math.log1p(-rho) + math.log(rho)
        return cls(log_masses, n * math.log1p(-rho))

    @property
    def table_length(self) -> int:
        return int(self.log_masses.size)

    def log_mass(self, n: int) -> float:
        if n < 1:
            return -math.inf
        if n > self.table_length:
            raise ValueError(f"mass pi_{n} is beyond the table (N={self.table_length})")
        return float(self.log_masses[n - 1])

    def log_tail(self, n: int) -> float:
        if n < 0:
            raise ValueError("tail index must be >= 0")
        if n > self.table_length:
            raise ValueError(f"tail Gamma_{n} is beyond the table (N={self.table_length})")
        return float(self._log_tails[n])

    def sample(self, rng: np.random.Generator, size=None):
        # inverse CDF over the tabulated masses; remainder lands beyond N
        cum = np.cumsum(np.exp(self.log_masses))
        u = rng.random(size=size)
        idx = np.searchsorted(cum, u, side="right") + 1  # beyond-table -> N + 1
        return idx if size is not None else int(idx)


ChangePrior = GeometricPrior | TabulatedPrior


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
    scenario: IpidScenario, prior: ChangePrior, horizon: int, seed: int
) -> SamplePath:
    """Draw a change point from the prior and a length-``horizon`` stream."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if (
        isinstance(prior, TabulatedPrior)
        and prior.table_length < horizon
        and prior.log_remainder > -math.inf
    ):
        # remainder mass would land somewhere inside (N, horizon] with an
        # unspecified distribution
        raise ValueError("tabulated prior is shorter than the horizon")
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


def prior_tail_exponent(prior: ChangePrior) -> float:
    """Exponential decay rate of the prior tail, -log P(nu > n) / n.

    Exact for geometric priors.  For tabulated priors the rate is read off
    at the last table entry and a ``TruncatedTailWarning`` is issued, since
    a finite table cannot pin the true limit.
    """
    if isinstance(prior, GeometricPrior):
        return -math.log1p(-prior.rho)
    n = prior.table_length
    log_tail = prior.log_tail(n)
    if log_tail == -math.inf:
        raise ValueError("prior tail vanishes at the end of the table")
    warnings.warn(
        "tail exponent estimated from a finite mass table",
        TruncatedTailWarning,
        stacklevel=2,
    )
    return -log_tail / n
