"""Value and policy iteration for finite MDPs with period-T transition and
cost structure.

The engine minimizes expected total discounted cost
E[sum_k alpha^k c_{k mod T}(X_k, U_k)] over finitely many states and
actions, where both the kernels P_l(s'|s,a) and the stage costs c_l(s,a)
repeat with period T.  One sweep of the cycle operator applies the stage
Bellman operators innermost-last:

    Psi(V) = Psi_0(Psi_1(... Psi_{T-1}(V) ...)),

so a fixed point of Psi is the optimal cost seen at entry to stage 0.
``apply_cycle_operator`` returns the T stage Q-tables of one sweep and
their minima, the T intermediate stage compositions.

An MDP may also have a terminal stop action, given by its stop costs
c_l(s, stop) alone: it pays that cost and ends the problem, so it has no
kernel row (Puterman, *Markov Decision Processes*, 1994, sec. 3.4).  It
comes after the kernel's actions, and the sweep scores it like any other
action; ``evaluate_policy`` takes a stopping state as an exit.

Two solvers share that sweep, and both return the Q-tables of their last
one with the stage values and the periodic policy greedy on them,
``StageValues.actions``; each solver breaks ties by its own rule.

* ``value_iterate`` iterates Psi from the all-zero vector, a pointwise
  nondecreasing sequence.  Adding a constant c to V moves Psi(V) by
  beta * c, beta = alpha^T, or, with a stop action, by an amount between
  0 and beta * c, so for alpha < 1 the last step bounds the error
  (MacQueen, 1966; Porteus, 1971) and the stop is certified.  At alpha = 1
  it stops on a small step, which certifies nothing.
* ``policy_iterate`` alternates ``evaluate_policy`` (one dense linear
  solve of the cycle system on the states the policy keeps running) with
  greedy improvement on the sweep's Q-tables, and stops when the policy
  repeats (Howard, 1960; Puterman, *Markov Decision Processes*, 1994,
  ch. 6-7).  At alpha = 1 every
  evaluated policy must be proper: from every state it reaches the
  zero-cost absorbing states or stops (Bertsekas & Tsitsiklis, 1991).

alpha = 1 is allowed for optimal-stopping style problems.  Nonnegative
costs keep every value-iteration iterate well defined, but at alpha = 1
its convergence within ``max_cycles`` is reported, not guaranteed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "PeriodicMdp",
    "StageValues",
    "InstanceFormatError",
    "apply_cycle_operator",
    "value_iterate",
    "evaluate_policy",
    "policy_iterate",
    "fixed_point_residual",
    "finite_horizon_oracle",
    "simulate_policy",
    "load_instance",
    "dump_instance",
]

DEFAULT_MAX_CYCLES = 100_000
_ROW_SUM_TOL = 1e-12
# policy improvement keeps the current action unless another is better by
# this relative margin, so rounding cannot make the policy cycle
_IMPROVE_RTOL = 1e-12


@dataclass(frozen=True)
class PeriodicMdp:
    """Finite periodic MDP.

    transitions : array (T, S, A, S), row-stochastic in the last axis
    costs       : array (T, S, A), nonnegative expected stage costs
    discount    : alpha in [0, 1]
    stop_costs  : optional array (T, S), nonnegative costs of a terminal
                  stop action, which pays its cost and ends the problem

    The stop action has index A, after the kernel's actions, and no kernel
    row; ``num_actions`` counts it, so Q-tables and policies range over
    A + 1 actions when the MDP has one.  Float64 arrays are held without a
    copy, which would double a caller's kernel memory, and made read-only,
    the caller's own array included.
    """

    transitions: np.ndarray
    costs: np.ndarray
    discount: float
    stop_costs: np.ndarray | None = None

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=float)
        c = np.asarray(self.costs, dtype=float)
        if P.ndim != 4 or P.shape[1] != P.shape[3] or 0 in P.shape:
            raise ValueError(
                f"transitions must have shape (T, S, A, S) with T, S, A >= 1, got {P.shape}")
        if c.shape != P.shape[:3]:
            raise ValueError(f"costs shape {c.shape} does not match kernels {P.shape[:3]}")
        if np.fmin.reduce(P, axis=None) < 0.0:  # no kernel-sized mask; skips NaN
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = P.sum(axis=-1)
        # written so that a NaN row sum fails too
        if not np.all(np.abs(row_sums - 1.0) <= _ROW_SUM_TOL):
            worst = np.argmax(np.abs(row_sums - 1.0))
            bad = tuple(int(i) for i in np.unravel_index(worst, row_sums.shape))
            raise ValueError(f"transition row {bad} sums to {float(row_sums[bad])!r}")
        if np.any(c < 0.0) or not np.all(np.isfinite(c)):
            raise ValueError("stage costs must be finite and nonnegative")
        if self.stop_costs is not None:
            stop = np.asarray(self.stop_costs, dtype=float)
            if stop.shape != P.shape[:2]:
                raise ValueError(
                    f"stop_costs shape {stop.shape} does not match (T, S) = {P.shape[:2]}")
            if np.any(stop < 0.0) or not np.all(np.isfinite(stop)):
                raise ValueError("stop_costs must be finite and nonnegative")
            stop.setflags(write=False)
            object.__setattr__(self, "stop_costs", stop)
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount must lie in [0, 1], got {self.discount}")
        if isinstance(self.discount, np.generic):
            # kept as the Python number, so that ``dump_instance`` writes a
            # repr that ``load_instance`` reads back
            object.__setattr__(self, "discount", self.discount.item())
        P.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "transitions", P)
        object.__setattr__(self, "costs", c)

    @property
    def period(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_states(self) -> int:
        return self.transitions.shape[1]

    @property
    def num_actions(self) -> int:
        """The kernel's actions, and the stop action when there is one."""
        return self.transitions.shape[2] + (self.stop_costs is not None)


@dataclass(frozen=True)
class StageValues:
    """Converged (or best-effort) values at each stage entry point.

    ``values[l]`` is the expected cost-to-go entering stage l, i.e. the
    l-th intermediate composition of the stage operators applied to the
    cycle fixed point.  ``q`` (T, S, ``num_actions``) holds the stage
    Q-tables of one ``apply_cycle_operator`` sweep applied to
    ``values[0]``, the solver's last, and ``actions`` (T, S) the solver's
    periodic policy greedy on them: ``actions[l, s]`` minimizes
    ``q[l, s]`` under the solver's tie rule.  ``cycles`` counts
    value-iteration cycles or policy-improvement steps.
    ``sup_history``/``l2_history`` record, per cycle or step, the distance
    between a stage-0 vector and its image under the cycle operator.
    ``error_bound`` is a certified bound on the sup-norm error of
    ``values[0]``; ``inf`` when the solver has none (discount 1).
    """

    values: np.ndarray  # (T, S)
    q: np.ndarray = field(repr=False)  # (T, S, num_actions)
    actions: np.ndarray = field(repr=False)  # (T, S)
    converged: bool
    cycles: int
    sup_history: np.ndarray = field(repr=False)
    l2_history: np.ndarray = field(repr=False)
    error_bound: float = math.inf


def apply_cycle_operator(
    values: np.ndarray, mdp: PeriodicMdp
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the T stage operators innermost-last.

    Returns the stage Q-tables ``q`` (T, S, ``num_actions``), where
    q[l](s, a) = c_l(s, a) + alpha * sum_s' P_l(s'|s, a) V_{l+1}(s') scores
    each kernel action against the stage-(l+1) entry values V_{l+1}
    (``values`` for the last stage) and the stop column, if any, holds the
    stop costs; and the entry values ``entries`` (T, S) with
    ``entries[l] = q[l].min(axis=1)``; ``entries[0]`` is the new stage-0
    iterate.  Each stage is one matrix-vector product with its kernel
    viewed as an (S*A, S) matrix.
    """
    values = np.asarray(values, dtype=float)
    T, S, A = mdp.costs.shape
    if values.shape != (S,):
        raise ValueError(f"value vector must have shape ({S},)")
    kernels = mdp.transitions.reshape(T, S * A, S)
    q = np.empty((T, S, mdp.num_actions))
    if mdp.stop_costs is not None:
        q[:, :, A] = mdp.stop_costs
    entries = np.empty((T, S))
    cur = values
    for l in range(T - 1, -1, -1):
        q[l, :, :A] = mdp.costs[l] + mdp.discount * (kernels[l] @ cur).reshape(S, A)
        cur = entries[l] = q[l].min(axis=1)
    return q, entries


def _checked_tol(mdp: PeriodicMdp, tol: float | None, max_cycles: int) -> float:
    """The solvers' tolerance, 1e-8 for alpha < 1 and 1e-6 at alpha = 1 by
    default, after checking it and ``max_cycles``."""
    if tol is None:
        tol = 1e-8 if mdp.discount < 1.0 else 1e-6
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_cycles < 1:
        raise ValueError("max_cycles must be >= 1")
    return tol


def value_iterate(
    mdp: PeriodicMdp,
    tol: float | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> StageValues:
    """Iterate the cycle operator from the all-zero vector.

    With beta = alpha^T < 1, a step D = v_n - v_{n-1} brackets the fixed
    point: v_n + beta/(1-beta) min D <= V* <= v_n + beta/(1-beta) max D
    (MacQueen-Porteus bounds).  A stop pays its cost however the values
    move, a step of 0, so with stop costs min D and max D take 0 in, as
    one more zero-cost absorbing state would.  The midpoint of that
    bracket is therefore within ``error_bound`` = beta/(1-beta) * span/2
    of V*, and the iteration stops once that bound drops to ``tol``
    (default 1e-8).  The returned ``values[0]`` is that midpoint.

    At alpha = 1 (beta = 1) there is no such bound: the iteration stops
    when the sup-norm step drops to ``tol`` (default 1e-6), which
    certifies nothing about the error, ``values[0]`` is the last iterate
    and ``error_bound`` is ``inf``.

    Either way ``values[l]``, l >= 1, and ``q`` come from one final sweep
    applied to the returned ``values[0]``, ``actions`` is greedy on ``q``
    with ties going to the lowest action index, and the iteration ends after
    ``max_cycles`` cycles at the latest.  Non-convergence is reported
    through the ``converged`` flag, never raised: at alpha = 1 monotone
    convergence can be arbitrarily slow.
    """
    tol = _checked_tol(mdp, tol, max_cycles)
    beta = mdp.discount**mdp.period
    certified = beta < 1.0
    v = np.zeros(mdp.num_states)
    sup_hist: list[float] = []
    l2_hist: list[float] = []
    converged = False
    error_bound = math.inf
    for cycles in range(1, max_cycles + 1):
        _, entries = apply_cycle_operator(v, mdp)
        new = entries[0]
        if np.any(new < v - 1e-9):
            raise AssertionError("cycle iterates must be pointwise nondecreasing")
        diff = new - v
        sup_hist.append(float(np.max(np.abs(diff))))
        l2_hist.append(float(np.linalg.norm(diff)))
        v = new
        if certified:
            lo, hi = float(diff.min()), float(diff.max())
            if mdp.stop_costs is not None:
                lo, hi = min(lo, 0.0), max(hi, 0.0)
            error_bound = beta / (1.0 - beta) * (hi - lo) / 2.0
            if error_bound <= tol:
                converged = True
                break
        elif sup_hist[-1] <= tol:
            converged = True
            break
    if certified:
        v = v + beta / (1.0 - beta) * (lo + hi) / 2.0
    q, values = apply_cycle_operator(v, mdp)
    values[0] = v
    return StageValues(
        values=values,
        q=q,
        actions=q.argmin(axis=2),
        converged=converged,
        cycles=cycles,
        sup_history=np.asarray(sup_hist),
        l2_history=np.asarray(l2_hist),
        error_bound=error_bound,
    )


def evaluate_policy(mdp: PeriodicMdp, actions: np.ndarray) -> np.ndarray:
    """Exact stage-entry values (T, S) of the periodic policy ``actions``.

    ``actions[l, s]`` is the stage-l action in state s, and K_l, c_l are
    the stage-l kernel and costs under the policy; a state that stops has
    a zero K_l row and its stop cost.  States of known value are
    eliminated first (Puterman, *Markov Decision Processes*, 1994, ch. 6):
    a state is dead when every stage holds it absorbing at zero cost, and
    worth 0; it exits at stage l when it stops there or is dead, and is
    then worth c_l there.  The other states of stage l run, R_l.  Stage 0
    comes from one dense solve of the cycle system (I - M) V_0 = b on R_0,
    where M = alpha^T K_0[R_0, R_1] ... K_{T-1}[R_{T-1}, R_0] is the
    discounted one-cycle kernel among running states and b the expected
    discounted cost of one cycle, exit costs included; stages T-1, ..., 1
    follow by one backward sweep from V_0.  Without dead states, as on a
    dense random MDP, every state runs.

    K_l is read in place, as rows s*A + a_l(s) of stage l's (S*A, S) view
    for the states that do not stop: only the running blocks
    K_l[R_l, R_{l+1}] that build M are copied.

    At alpha = 1 the system is nonsingular exactly when every state of R_0
    reaches an exit along the positive entries of the kernels (the policy
    is proper); otherwise ``ValueError`` names the first that does not.
    """
    actions = _checked_actions(mdp, actions, "actions")
    T, S, A = mdp.costs.shape
    stage, state = np.ogrid[:T, :S]
    stops = actions == A  # the stop action, if the MDP has one
    kept = np.where(stops, 0, actions)  # a kernel action in every state
    flat = mdp.transitions.reshape(T, S * A, S)
    rows = state * A + kept  # K_l[s] is row rows[l, s] of flat[l] unless s stops
    costs = mdp.costs[stage, state, kept]  # (T, S)
    if mdp.stop_costs is not None:
        costs = np.where(stops, mdp.stop_costs, costs)
    alpha = mdp.discount

    def step(l, v):  # K_l @ v on the states that do not stop
        return (flat[l] @ v)[rows[l]]

    dead = np.all(~stops & (flat[stage, rows, state] == 1.0) & (costs == 0.0), axis=0)
    exits = dead | stops
    running = [np.flatnonzero(~e) for e in exits]
    # backward over one cycle: ``base`` holds the stage values when the
    # running states of the next cycle's stage 0 are worth 0, ``cycle`` the
    # kernel from the stage's running states to those, and ``reach``
    # which states meet an exit before then along positive entries
    base, reach, cycle = np.where(exits[0], costs[0], 0.0), exits[0], None
    for l in range(T - 1, -1, -1):
        block = flat[l][np.ix_(rows[l][running[l]], running[(l + 1) % T])]
        cycle = block if cycle is None else block @ cycle
        cycle *= alpha
        base = np.where(exits[l], costs[l], costs[l] + alpha * step(l, base))
        reach = exits[l] | (step(l, reach) > 0.0)
    if alpha == 1.0:
        reach, support = reach[running[0]], cycle > 0.0
        while not reach.all():
            grown = reach | support[:, reach].any(axis=1)
            if np.array_equal(grown, reach):
                stuck = running[0][~reach]
                raise ValueError(
                    f"policy is improper: {stuck.size} state(s), first {stuck[0]}, never "
                    "reach a zero-cost absorbing state"
                )
            reach = grown
    # I - M in place, off the diagonal 0 - m as in np.eye(n) - M (not -0.0)
    np.subtract(0.0, cycle, out=cycle)
    cycle.flat[:: running[0].size + 1] += 1.0
    v0 = base
    try:
        v0[running[0]] = np.linalg.solve(cycle, base[running[0]])
    except np.linalg.LinAlgError:
        raise ValueError("policy is improper: its cycle system is singular") from None
    values = np.empty((T, S))
    values[0] = v0
    nxt = v0
    for l in range(T - 1, 0, -1):
        nxt = values[l] = np.where(exits[l], costs[l], costs[l] + alpha * step(l, nxt))
    return values


def _checked_actions(mdp: PeriodicMdp, actions, name: str) -> np.ndarray:
    """``actions`` as an int array, after checking that it is a (T, S) integer
    map into the action range; ``name`` is the argument named in the error."""
    actions = np.asarray(actions)
    T, S = mdp.period, mdp.num_states
    if actions.shape != (T, S):
        raise ValueError(f"{name} must have shape ({T}, {S}), got {actions.shape}")
    if not np.issubdtype(actions.dtype, np.integer):
        raise ValueError(f"{name} must hold integer actions, got dtype {actions.dtype}")
    if np.any((actions < 0) | (actions >= mdp.num_actions)):
        raise ValueError(f"{name} must lie in [0, {mdp.num_actions})")
    return actions.astype(int)


def policy_iterate(
    mdp: PeriodicMdp,
    actions: np.ndarray,
    tol: float | None = None,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> StageValues:
    """Policy iteration from the periodic policy ``actions`` (T, S).

    Each step evaluates the policy exactly (``evaluate_policy``) and
    applies one ``apply_cycle_operator`` sweep to its stage-0 values; the
    next policy is greedy on the sweep's Q-tables, keeping the current
    action unless another is better by a relative 1e-12.  The iteration
    stops when the policy repeats, or after ``max_cycles`` steps.
    ``converged`` means the policy repeated and the fixed-point residual,
    the last ``sup_history`` entry, is within ``tol`` (default 1e-8 for
    alpha < 1, 1e-6 at alpha = 1).  ``values`` are the exact values of the
    last evaluated policy, ``q`` the Q-tables of its sweep and ``actions``
    the policy its improvement step chose: once the policy repeated, the
    one ``values`` belongs to.  At alpha < 1, ``error_bound`` is the
    residual divided by 1 - alpha^T.

    At alpha = 1 the starting policy must be proper (see
    ``evaluate_policy``); greedy steps from a proper policy stay proper.
    """
    tol = _checked_tol(mdp, tol, max_cycles)
    actions = _checked_actions(mdp, actions, "actions")
    sup_hist: list[float] = []
    l2_hist: list[float] = []
    converged = False
    for cycles in range(1, max_cycles + 1):
        values = evaluate_policy(mdp, actions)
        q, entries = apply_cycle_operator(values[0], mdp)
        diff = entries[0] - values[0]
        sup_hist.append(float(np.max(np.abs(diff))))
        l2_hist.append(float(np.linalg.norm(diff)))
        current = np.take_along_axis(q, actions[..., None], axis=2)[..., 0]
        keep = current - entries <= _IMPROVE_RTOL * np.abs(entries)
        improved = np.where(keep, actions, q.argmin(axis=2))
        if np.array_equal(improved, actions):
            converged = sup_hist[-1] <= tol
            break
        actions = improved
    beta = mdp.discount**mdp.period
    return StageValues(
        values=values,
        q=q,
        actions=actions,
        converged=converged,
        cycles=cycles,
        sup_history=np.asarray(sup_hist),
        l2_history=np.asarray(l2_hist),
        error_bound=sup_hist[-1] / (1.0 - beta) if beta < 1.0 else math.inf,
    )


def fixed_point_residual(v0: np.ndarray, mdp: PeriodicMdp) -> float:
    """Sup-norm defect of the cycle fixed-point equation at the stage-0
    vector ``v0``."""
    _, entries = apply_cycle_operator(v0, mdp)
    return float(np.max(np.abs(entries[0] - v0)))


def finite_horizon_oracle(mdp: PeriodicMdp, horizon: int) -> np.ndarray:
    """Exact optimal cost of the problem truncated after ``horizon`` steps,
    starting at stage 0.

    Deliberately a standalone backward induction (no reuse of the cycle
    machinery) so it can serve as an independent oracle in tests.  Each
    step is one matrix-vector product with the stage kernel viewed as an
    (S*A, S) matrix, and the stop costs, if any, are one more column.
    """
    if horizon < 0 or horizon % mdp.period != 0:
        raise ValueError("horizon must be a nonnegative multiple of the period")
    T, S, A = mdp.costs.shape
    kernels = mdp.transitions.reshape(T, S * A, S)
    c = mdp.costs
    v = np.zeros(S)
    for k in range(horizon - 1, -1, -1):
        l = k % T
        q = c[l] + mdp.discount * (kernels[l] @ v).reshape(S, A)
        if mdp.stop_costs is not None:
            q = np.concatenate((q, mdp.stop_costs[l][:, None]), axis=1)
        v = q.min(axis=1)
    return v


def simulate_policy(
    mdp: PeriodicMdp,
    stage_maps: np.ndarray,
    n_paths: int,
    horizon: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo estimate of a policy's discounted cost from state 0.

    ``stage_maps`` has shape (T, S); a stationary policy is the same row
    repeated.  Returns (mean cost, standard error) over ``n_paths`` >= 1
    paths of ``horizon`` >= 0 steps; the standard error of a single path
    is NaN.  The truncation bias is at most alpha^horizon * max_cost /
    (1 - alpha) for alpha < 1.  An MDP with stop costs is refused.

    Each step draws one uniform u per path and moves the path to the state
    #{j : cum[j] < u}, where cum is the cumulative sum of its kernel row
    under the policy (inverse-CDF sampling).  The search starts from a
    guide table (Chen & Asau, 1974; Devroye, *Non-Uniform Random Variate
    Generation*, 1986, sec. III.2): u falls in bucket
    k = min(trunc(fl(u*S)), S-1), and the guide holds, for each row and
    bucket k, the number of cum entries x with fl(x*S) < k.  As x -> fl(x*S)
    is monotone, each counted entry is below u, so the start never passes
    the state; the search steps forward while cum[j] < u, and a step costs
    about one comparison per kernel entry in the path's bucket.
    """
    _refuse_stop_costs(mdp, "simulate_policy")
    stage_maps = _checked_actions(mdp, stage_maps, "stage_maps")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    T, S = mdp.period, mdp.num_states
    stage, state = np.ogrid[:T, :S]
    costs = mdp.costs[stage, state, stage_maps]  # (T, S)
    # row r = l*S + s of the table is cum[0], ..., cum[S-1], +inf, where the
    # search stops; the int32 guide holds counts of at most S, not offsets
    width = S + 1
    table = np.empty((T * S, width))
    table[:, -1] = np.inf
    guide = np.empty((T * S, S), dtype=np.int32)
    buckets = np.arange(S)
    for r, (l, s) in enumerate(np.ndindex(T, S)):
        cum = table[r, :-1]
        np.cumsum(mdp.transitions[l, s, stage_maps[l, s]], out=cum)
        guide[r] = np.searchsorted(cum * S, buckets)
    flat, flat_guide = table.ravel(), guide.ravel()

    rng = np.random.default_rng(seed)
    states = np.zeros(n_paths, dtype=np.intp)
    total = np.zeros(n_paths)
    disc = 1.0
    for k in range(horizon):
        l = k % T
        total += disc * costs[l][states]
        u = rng.random(n_paths)
        rows_at = l * S + states
        bucket = np.minimum((u * S).astype(np.intp), S - 1)
        pos = width * rows_at + flat_guide[rows_at * S + bucket]
        fwd = np.flatnonzero(flat[pos] < u)
        while fwd.size:
            pos[fwd] += 1
            fwd = fwd[flat[pos[fwd]] < u[fwd]]
        states = pos - width * rows_at
        disc *= mdp.discount
    se = float(total.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else math.nan
    return float(total.mean()), se


def _refuse_stop_costs(mdp: PeriodicMdp, name: str) -> None:
    if mdp.stop_costs is not None:
        raise ValueError(f"{name} takes no MDP with stop_costs (a terminal stop action)")


class InstanceFormatError(ValueError):
    """Malformed MDP instance file; carries the offending line number, or
    None when the fault concerns the whole file, whose name the message
    then carries instead."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


_DIMENSIONS = ("states", "actions", "period", "discount")


def load_instance(path: str | Path) -> PeriodicMdp:
    """Parse the plain-text instance format.

    Grammar (one directive per line, '#' starts a comment):

        states <S>
        actions <A>
        period <T>
        discount <alpha>
        kernel <stage> <state> <action> <p_0> ... <p_{S-1}>
        cost <stage> <state> <action> <value>

    S, A and T are integers >= 1.  The four dimension directives must
    precede any kernel/cost line, and S, A and T may not change after it;
    every (stage, state, action) triple needs exactly one kernel row and
    one cost line.  An error on one line names it ("line N: ..."); one
    found once the whole file is read (a missing directive or row, a
    check of ``PeriodicMdp``) names the file instead.

    The file is read in one streaming pass.  The first kernel/cost line
    allocates the (T, S, A, S) kernel, and each kernel row is parsed by
    ``float`` straight into it; (T, S, A) arrays of first line numbers
    find duplicate and missing rows.
    """
    dims: dict[str, float] = {}
    P = None
    with Path(path).open() as fh:
        # splitting each read line again keeps the line breaks, and so the
        # line numbers, of str.splitlines
        lines = itertools.chain.from_iterable(map(str.splitlines, fh))
        for line_no, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            key = parts[0]
            if key in _DIMENSIONS:
                if len(parts) != 2:
                    raise InstanceFormatError(line_no, f"'{key}' takes exactly one value")
                try:
                    value = float(parts[1])
                except ValueError:
                    raise InstanceFormatError(line_no, f"bad number {parts[1]!r}") from None
                if key != "discount":
                    if not (value.is_integer() and value >= 1.0):
                        raise InstanceFormatError(
                            line_no, f"'{key}' must be an integer >= 1, got {parts[1]!r}"
                        )
                    if P is not None and value != dims[key]:
                        raise InstanceFormatError(
                            line_no, f"'{key}' changes after the first kernel or cost line"
                        )
                dims[key] = value
            elif key in ("kernel", "cost"):
                if P is None:
                    missing = [d for d in _DIMENSIONS if d not in dims]
                    if missing:
                        raise InstanceFormatError(
                            line_no, f"'{key}' before dimension directive(s) {', '.join(missing)}"
                        )
                    S, A, T = int(dims["states"]), int(dims["actions"]), int(dims["period"])
                is_kernel = key == "kernel"
                want = 3 + (S if is_kernel else 1)
                if len(parts) - 1 != want:
                    raise InstanceFormatError(
                        line_no, f"'{key}' needs {want} values, got {len(parts) - 1}"
                    )
                if P is None:  # allocated only once a row fits the dimensions
                    P = np.zeros((T, S, A, S))
                    c = np.zeros((T, S, A))
                    # line number of each row, 0 while it is missing
                    kernel_line = np.zeros((T, S, A), dtype=int)
                    cost_line = np.zeros((T, S, A), dtype=int)
                try:
                    idx = (int(parts[1]), int(parts[2]), int(parts[3]))
                    if is_kernel:
                        row = np.fromiter(map(float, parts[4:]), float, count=S)
                    else:
                        row = float(parts[4])
                except ValueError:
                    raise InstanceFormatError(line_no, "bad number in row") from None
                l, s, a = idx
                if not (0 <= l < T and 0 <= s < S and 0 <= a < A):
                    raise InstanceFormatError(line_no, f"index {idx} out of range")
                first = kernel_line if is_kernel else cost_line
                if first[idx]:
                    raise InstanceFormatError(
                        line_no, f"duplicate {key} row for {idx} (first at line {first[idx]})"
                    )
                first[idx] = line_no
                (P if is_kernel else c)[idx] = row
            else:
                raise InstanceFormatError(line_no, f"unknown directive {key!r}")
    missing = [d for d in _DIMENSIONS if d not in dims]
    if missing:
        raise InstanceFormatError(
            None, f"{path}: missing dimension directive(s): {', '.join(missing)}"
        )
    if P is None:  # no kernel or cost line at all
        raise InstanceFormatError(None, f"{path}: missing kernel row for (0, 0, 0)")
    absent = (kernel_line == 0) | (cost_line == 0)
    if absent.any():
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(absent), absent.shape))
        what = "kernel row" if kernel_line[idx] == 0 else "cost line"
        raise InstanceFormatError(None, f"{path}: missing {what} for {idx}")
    try:
        return PeriodicMdp(transitions=P, costs=c, discount=dims["discount"])
    except ValueError as exc:
        raise InstanceFormatError(None, f"{path}: {exc}") from exc


def dump_instance(mdp: PeriodicMdp, path: str | Path) -> None:
    """Write an instance in the format accepted by ``load_instance``, line
    by line; floats are written as their ``repr``, which reads back
    exactly.  The format has no stop action."""
    _refuse_stop_costs(mdp, "dump_instance")
    with Path(path).open("w") as fh:
        fh.write(
            f"states {mdp.num_states}\nactions {mdp.num_actions}\n"
            f"period {mdp.period}\ndiscount {mdp.discount!r}\n"
        )
        for l in range(mdp.period):
            for s in range(mdp.num_states):
                costs = mdp.costs[l, s].tolist()
                for a, row in enumerate(mdp.transitions[l, s].tolist()):
                    fh.write(
                        f"kernel {l} {s} {a} {' '.join(map(repr, row))}\n"
                        f"cost {l} {s} {a} {costs[a]!r}\n"
                    )
