"""Belief-grid dynamic programming for the periodic stopping problem.

The posterior change probability p is a sufficient statistic, so the
detection problem becomes an MDP on [0, 1] with two actions.  Stopping at
stage s costs lam_s * (1 - p) (false alarm risk); continuing costs
d_s * p (expected one-step delay) plus the averaged cost-to-go over the
next observation, with the scenario and the penalties lam_s, d_s
(``DetectionCostSpec``) taken from ``ipid_model``.  ``detection_mdp``
builds it as a ``PeriodicMdp`` with discount 1 on the M points of a
uniform belief grid plus one absorbing state M of cost 0.  Its kernel
holds the continue action alone: stopping is the MDP's terminal stop
action, given by its stop costs, so action 0 continues and action 1
stops.  Continuing from grid belief p_i at stage s moves by the kernel

    K_s[i, j] = sum_k w_k mix_ik hat_j(p'_ik):

Simpson weights w_k (``ipid_model.simpson_window``, ``QUADRATURE_NODES``
nodes on a window ``WINDOW_SCALES`` scales beyond both locations) for the
next observation, the predictive mixture density mix_ik at node k, the
posterior p'_ik after it, and the linear-interpolation weight hat_j of
grid point j.  The sum is taken per grid cell, not per (belief, node)
pair: p'_ik increases with node k's log-likelihood ratio, so with the
nodes sorted by it the nodes that land in one cell are one run, and
prefix sums of w f and w g give each cell's mass and first moment, which
fix the cell's share for its two grid points.  The mass the window
misses goes to state M, so it adds nothing to the cost-to-go; a row
summing above one (a window too coarse for the stage's densities)
fails the row-sum check of ``PeriodicMdp``.  ``solve_detection`` solves
it exactly with ``periodic_mdp.policy_iterate`` from the proper policy
"stop everywhere" and reads the stage, continue and stop curves off the
Q-tables it returns, those of its last ``apply_cycle_operator`` sweep, and
the thresholds off the policy it returns.

Timing convention (applied identically here and in the Monte-Carlo
harness): observations are numbered n = 1, 2, ..., and observation n has
0-based stage s = (n - 1) % T.  The decision made right after observation
n uses the stage-s penalties and threshold, and its continuation
averages over the next observation, which has stage (s + 1) % T.  Solved
policies are therefore simulated in exactly the world they were
optimized for.

Each solved stage curve is capped by its stopping cost, vanishes at
p = 1, is concave, and crosses into stopping exactly once, so the
optimal rule is a per-stage threshold on p reported at grid precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .belief import belief_to_log_odds
from .ipid_model import DetectionCostSpec, IpidScenario, simpson_window
from .periodic_mdp import DEFAULT_MAX_CYCLES, PeriodicMdp, policy_iterate

__all__ = [
    "BeliefGrid",
    "DetectionSolution",
    "detection_mdp",
    "solve_detection",
]

DEFAULT_GRID_POINTS = 100
QUADRATURE_NODES = 1601
WINDOW_SCALES = 8.0
# (belief, cell) pairs per block when building K_s; bounds the temporaries
_KERNEL_BLOCK_CELLS = 1 << 13
# stands in for an infinite or undefined (0/0) log-likelihood ratio when
# searching; it lies beyond every finite cut
_FAR = 1e300


@dataclass(frozen=True)
class BeliefGrid:
    """Uniform grid on [0, 1] including both endpoints."""

    resolution: int = DEFAULT_GRID_POINTS
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("grid needs at least the two endpoints")
        pts = np.linspace(0.0, 1.0, self.resolution)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def step(self) -> float:
        return 1.0 / (self.resolution - 1)


def detection_mdp(
    scenario: IpidScenario,
    costs: DetectionCostSpec,
    grid_resolution: int = DEFAULT_GRID_POINTS,
) -> PeriodicMdp:
    """The detection problem as a periodic MDP: states 0..M-1 are the grid
    beliefs and state M, absorbing at cost 0, takes the window's lost mass;
    the kernel's one action 0 continues (row K_s plus the lost mass to
    state M), and the stop action 1 pays the stop costs, 0 at state M."""
    if scenario.period != costs.period:
        raise ValueError(f"scenario period {scenario.period} != cost spec period {costs.period}")
    grid = BeliefGrid(grid_resolution)
    T, M, p = scenario.period, grid.resolution, grid.points
    P = np.zeros((T, M + 1, 1, M + 1))
    c = np.zeros((T, M + 1, 1))
    stop = np.zeros((T, M + 1))
    P[:, M, 0, M] = 1.0
    predicted = p + (1.0 - p) * scenario.rho  # the belief before the next observation
    for s in range(T):
        nxt = (s + 1) % T  # the continuation averages over the next observation
        f, g = scenario.pre[nxt], scenario.post[nxt]
        nodes, weights = simpson_window(f, g, WINDOW_SCALES, QUADRATURE_NODES)
        kernel = P[s, :M, 0, :M]
        _fill_kernel(kernel, p, predicted, f.logpdf(nodes), g.logpdf(nodes), weights)
        P[s, :M, 0, M] = np.maximum(1.0 - kernel.sum(axis=1), 0.0)
        c[s, :M, 0] = costs.delay[s] * p
        stop[s, :M] = costs.false_alarm[s] * (1.0 - p)
    return PeriodicMdp(transitions=P, costs=c, discount=1.0, stop_costs=stop)


def _fill_kernel(out, points, predicted, log_f, log_g, weights):
    """Write K_s into ``out`` (M, M), which is zero on entry: row i for the
    predicted belief p~ = ``predicted[i]``, column j for the grid point
    q_j = ``points[j]``.

    After node k the posterior is p' = p~ L_k / (p~ L_k + 1 - p~), with
    likelihood ratio L_k = g_k / f_k, so p' increases with log L_k.  Once
    the nodes are sorted by log L_k, those whose posterior lands in cell
    [q_j, q_{j+1}) are one run, which ends where log L_k reaches the cut
    logit(q_{j+1}) - logit(p~).  Prefix sums of w f and w g in that order
    give each cell's sums S_f and S_g, so its mass is
    m = p~ S_g + (1 - p~) S_f and its first moment p~ S_g.  Linear
    interpolation, summed over the cell, gives q_j the share
    clip(((1 - p~) q_{j+1} S_f - p~ (1 - q_{j+1}) S_g) / (q_{j+1} - q_j), 0, m)
    and q_{j+1} the rest, which keeps the cell's mass and first moment.
    Nodes where both densities vanish carry no mass, and p~ = 1 puts
    every node in the last cell."""
    with np.errstate(invalid="ignore"):
        log_ratio = log_g - log_f
    order = np.argsort(log_ratio, kind="stable")
    sorted_ratio = np.nan_to_num(log_ratio[order], nan=_FAR, posinf=_FAR, neginf=-_FAR)
    cum_f = np.concatenate(([0.0], np.cumsum(weights[order] * np.exp(log_f[order]))))
    cum_g = np.concatenate(([0.0], np.cumsum(weights[order] * np.exp(log_g[order]))))
    logit_cuts = belief_to_log_odds(points[1:-1])
    logit_offset = -belief_to_log_odds(predicted)
    gap = np.diff(points)
    to_left, to_right = points[1:] / gap, (1.0 - points[1:]) / gap
    M = points.size
    rows = max(1, _KERNEL_BLOCK_CELLS // M)
    ends = np.empty((rows, M), dtype=np.intp)
    ends[:, 0], ends[:, -1] = 0, sorted_ratio.size
    for lo in range(0, M, rows):
        block = slice(lo, min(lo + rows, M))
        pt = predicted[block, None]
        run = ends[: block.stop - lo]
        run[:, 1:-1] = _count_below(sorted_ratio, logit_cuts + logit_offset[block, None])
        pre = np.diff(cum_f[run], axis=1)
        pre *= 1.0 - pt
        post = np.diff(cum_g[run], axis=1)
        post *= pt
        mass = pre + post
        left = pre * to_left
        left -= post * to_right
        np.maximum(left, 0.0, out=left)
        np.minimum(left, mass, out=left)
        out[block, :-1] = left
        mass -= left
        out[block, 1:] += mass


def _count_below(ascending, keys):
    """How many of the finite, ascending values lie below each key, for
    keys ascending along their last axis; a value equal to a key may count
    either way.  ``np.interp`` finds each key's segment starting from the
    previous key's, where ``np.searchsorted`` bisects the whole array; the
    floor of its interpolated position is off by at most one, and one
    exact comparison puts that right."""
    below = np.interp(keys, ascending, np.arange(ascending.size, dtype=float)).astype(np.intp)
    below += ascending[below] < keys
    return below


@dataclass(frozen=True)
class DetectionSolution:
    """Solved stage curves, thresholds, and iteration diagnostics.

    ``stage_curves[s]`` is the optimal cost entering the decision after a
    stage-s observation; ``continue_curves`` / ``stop_curves`` are its two
    branches.  ``thresholds[s]`` is the smallest grid belief at which the
    solved policy stops after a stage-s observation, 1.0 if none: the
    improvement step keeps the current action on a tie within a relative
    1e-12, so from "stop everywhere" a tie stops.
    ``value_at_zero`` is the stage-0 entry curve at p = 0.  ``cycles``
    counts policy-improvement steps and the histories hold one row per
    step (see ``periodic_mdp.policy_iterate``).
    ``quadrature_mass_lost`` is the largest share of one continuation
    row's mass that falls outside the truncated quadrature window.
    """

    grid: BeliefGrid
    stage_curves: np.ndarray  # (T, M)
    continue_curves: np.ndarray  # (T, M)
    stop_curves: np.ndarray  # (T, M)
    thresholds: np.ndarray  # (T,)
    value_at_zero: float
    converged: bool
    cycles: int
    quadrature_mass_lost: float
    sup_history: np.ndarray = field(repr=False)
    l2_history: np.ndarray = field(repr=False)

    @property
    def period(self) -> int:
        return self.stage_curves.shape[0]


def solve_detection(
    scenario: IpidScenario,
    costs: DetectionCostSpec,
    grid_resolution: int = DEFAULT_GRID_POINTS,
    tol: float | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> DetectionSolution:
    """Solve ``detection_mdp`` by ``periodic_mdp.policy_iterate`` from the
    policy that stops everywhere, which is proper at discount 1.
    ``max_cycles`` caps the improvement steps, and ``converged`` means the
    policy repeated with a fixed-point residual within ``tol`` (the
    solvers' discount-1 default when None); ``cycles``
    and the histories count improvement steps.  The returned curves are
    read off the Q-tables that ``policy_iterate`` returns, those of one
    cycle applied to the last evaluated policy's stage-0 values, and the
    thresholds off the policy it returns, the first grid belief where it
    stops at each stage."""
    mdp = detection_mdp(scenario, costs, grid_resolution)
    stop_everywhere = np.ones((mdp.period, mdp.num_states), dtype=int)
    result = policy_iterate(mdp, stop_everywhere, tol=tol, max_cycles=max_cycles)
    grid = BeliefGrid(grid_resolution)
    M = grid.resolution
    cont, stop, entry = result.q[:, :M, 0], result.q[:, :M, 1], result.q[:, :M].min(axis=2)
    stops = result.actions[:, :M] == 1
    return DetectionSolution(
        grid=grid,
        stage_curves=entry,
        continue_curves=cont,
        stop_curves=stop,
        thresholds=np.where(stops.any(axis=1), grid.points[stops.argmax(axis=1)], 1.0),
        value_at_zero=float(entry[0, 0]),
        converged=result.converged,
        cycles=result.cycles,
        quadrature_mass_lost=float(mdp.transitions[:, :M, 0, M].max()),
        sup_history=result.sup_history,
        l2_history=result.l2_history,
    )
