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
their minima, the T intermediate stage compositions.  The optimal policy
is periodic and is read off greedily from the intermediate compositions.

Two solvers share that sweep:

* ``value_iterate`` iterates Psi from the all-zero vector, a pointwise
  nondecreasing sequence.  Psi shifts constants by beta = alpha^T, so for
  alpha < 1 the last step bounds the error (MacQueen, 1966; Porteus,
  1971) and the stop is certified.  At alpha = 1 it stops on a small step,
  which certifies nothing.
* ``policy_iterate`` alternates ``evaluate_policy`` (one dense linear
  solve of the cycle system) with greedy improvement on the sweep's
  Q-tables, and stops when the policy repeats (Howard, 1960; Puterman,
  *Markov Decision Processes*, 1994, ch. 6-7).  At alpha = 1 every
  evaluated policy must be proper: from every state it reaches the
  zero-cost absorbing states (Bertsekas & Tsitsiklis, 1991).

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
    "PeriodicPolicy",
    "InstanceFormatError",
    "apply_stage_operator",
    "apply_cycle_operator",
    "value_iterate",
    "evaluate_policy",
    "policy_iterate",
    "extract_periodic_policy",
    "fixed_point_residual",
    "finite_horizon_oracle",
    "simulate_policy",
    "load_instance",
    "dump_instance",
]

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
    """

    transitions: np.ndarray
    costs: np.ndarray
    discount: float

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=float)
        c = np.asarray(self.costs, dtype=float)
        if P.ndim != 4 or P.shape[1] != P.shape[3]:
            raise ValueError(f"transitions must have shape (T, S, A, S), got {P.shape}")
        if c.shape != P.shape[:3]:
            raise ValueError(f"costs shape {c.shape} does not match kernels {P.shape[:3]}")
        if np.any(P < 0.0):
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = P.sum(axis=-1)
        # written so that a NaN row sum fails too
        if not np.all(np.abs(row_sums - 1.0) <= _ROW_SUM_TOL):
            worst = np.argmax(np.abs(row_sums - 1.0))
            bad = tuple(int(i) for i in np.unravel_index(worst, row_sums.shape))
            raise ValueError(f"transition row {bad} sums to {float(row_sums[bad])!r}")
        if np.any(c < 0.0) or not np.all(np.isfinite(c)):
            raise ValueError("stage costs must be finite and nonnegative")
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
        return self.transitions.shape[2]


@dataclass(frozen=True)
class StageValues:
    """Converged (or best-effort) values at each stage entry point.

    ``values[l]`` is the expected cost-to-go entering stage l, i.e. the
    l-th intermediate composition of the stage operators applied to the
    cycle fixed point.  ``cycles`` counts value-iteration cycles or
    policy-improvement steps.  ``sup_history``/``l2_history`` record, per
    cycle or step, the distance between a stage-0 vector and its image
    under the cycle operator.  ``error_bound`` is a certified bound on the
    sup-norm error of ``values[0]``; ``inf`` when the solver has none
    (discount 1).
    """

    values: np.ndarray  # (T, S)
    converged: bool
    cycles: int
    sup_history: np.ndarray = field(repr=False)
    l2_history: np.ndarray = field(repr=False)
    error_bound: float = math.inf


@dataclass(frozen=True)
class PeriodicPolicy:
    """T action maps, one per stage; ``actions[l, s]`` is the stage-l action."""

    actions: np.ndarray  # (T, S) int


def apply_stage_operator(values: np.ndarray, mdp: PeriodicMdp, stage: int) -> np.ndarray:
    """One Bellman minimization at the given stage:
    s -> min_a [ c_l(s,a) + alpha * sum_s' P_l(s'|s,a) V(s') ]."""
    return _stage_q(values, mdp, stage).min(axis=1)


def _stage_q(values: np.ndarray, mdp: PeriodicMdp, stage: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (mdp.num_states,):
        raise ValueError(f"value vector must have shape ({mdp.num_states},)")
    l = stage % mdp.period
    # (S, A, S) @ (S,) -> (S, A)
    cont = mdp.transitions[l] @ values
    return mdp.costs[l] + mdp.discount * cont


def apply_cycle_operator(
    values: np.ndarray, mdp: PeriodicMdp
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the T stage operators innermost-last.

    Returns the stage Q-tables ``q`` (T, S, A), where ``q[l]`` scores each
    action against the stage-(l+1) entry values (``values`` for the last
    stage), and the entry values ``entries`` (T, S) with
    ``entries[l] = q[l].min(axis=1)``; ``entries[0]`` is the new stage-0
    iterate.
    """
    q = np.empty(mdp.costs.shape)
    entries = np.empty((mdp.period, mdp.num_states))
    cur = values
    for l in range(mdp.period - 1, -1, -1):
        q[l] = _stage_q(cur, mdp, l)
        cur = entries[l] = q[l].min(axis=1)
    return q, entries


def _checked_tol(mdp: PeriodicMdp, tol: float | None, max_cycles: int) -> float:
    """The solvers' tolerance, 1e-8 for alpha < 1 and 1e-6 at alpha = 1 by
    default, after checking it and ``max_cycles``."""
    if tol is None:
        tol = 1e-8 if mdp.discount < 1.0 else 1e-6
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_cycles < 1:
        raise ValueError("max_cycles must be >= 1")
    return tol


def value_iterate(
    mdp: PeriodicMdp,
    tol: float | None = None,
    max_cycles: int = 100_000,
) -> StageValues:
    """Iterate the cycle operator from the all-zero vector.

    With beta = alpha^T < 1, a step D = v_n - v_{n-1} brackets the fixed
    point: v_n + beta/(1-beta) min D <= V* <= v_n + beta/(1-beta) max D
    (MacQueen-Porteus bounds).  The midpoint of that bracket is therefore
    within ``error_bound`` = beta/(1-beta) * span(D)/2 of V*, and the
    iteration stops once that bound drops to ``tol`` (default 1e-8).  The
    returned ``values[0]`` is that midpoint and ``values[l]``, l >= 1, the
    stage compositions applied to it.

    At alpha = 1 (beta = 1) there is no such bound: the iteration stops
    when the sup-norm step drops to ``tol`` (default 1e-6), which
    certifies nothing about the error, ``values`` are the last cycle's
    entry values and ``error_bound`` is ``inf``.

    Either way the iteration ends after ``max_cycles`` cycles at the
    latest.  Non-convergence is reported through the ``converged`` flag,
    never raised: at alpha = 1 monotone convergence can be arbitrarily
    slow.
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
            error_bound = beta / (1.0 - beta) * (hi - lo) / 2.0
            if error_bound <= tol:
                converged = True
                break
        elif sup_hist[-1] <= tol:
            converged = True
            break
    if certified:
        mid = v + beta / (1.0 - beta) * (lo + hi) / 2.0
        _, entries = apply_cycle_operator(mid, mdp)
        entries[0] = mid
    return StageValues(
        values=entries,
        converged=converged,
        cycles=cycles,
        sup_history=np.asarray(sup_hist),
        l2_history=np.asarray(l2_hist),
        error_bound=error_bound,
    )


def evaluate_policy(mdp: PeriodicMdp, actions: np.ndarray) -> np.ndarray:
    """Exact stage-entry values (T, S) of the periodic policy ``actions``.

    ``actions[l, s]`` is the stage-l action in state s.  Stage 0 comes from
    one dense solve of the cycle system (I - M) V_0 = b, where
    M = alpha^T P_0 ... P_{T-1} is the discounted one-cycle kernel under
    the policy and b the expected discounted cost of one cycle; stages
    T-1, ..., 1 follow by one backward sweep from V_0.

    At alpha = 1, states that every stage holds absorbing at zero cost are
    pinned to 0 and dropped from the system.  The rest is nonsingular
    exactly when every state reaches such a state (the policy is proper);
    otherwise ``ValueError`` is raised.
    """
    actions = _checked_actions(mdp, actions, "actions")
    T, S = mdp.period, mdp.num_states
    idx = np.arange(S)
    kernels = [mdp.transitions[l][idx, actions[l]] for l in range(T)]  # (S, S) each
    costs = [mdp.costs[l][idx, actions[l]] for l in range(T)]
    alpha = mdp.discount
    cycle, b = alpha * kernels[T - 1], costs[T - 1]
    for l in range(T - 2, -1, -1):
        b = costs[l] + alpha * (kernels[l] @ b)
        cycle = alpha * (kernels[l] @ cycle)
    live = np.ones(S, dtype=bool)
    if alpha == 1.0:
        for K, c in zip(kernels, costs):
            live &= (K[idx, idx] != 1.0) | (c != 0.0)
        _check_proper(cycle, live)
    v0 = np.zeros(S)
    system = np.eye(int(live.sum())) - cycle[np.ix_(live, live)]
    try:
        v0[live] = np.linalg.solve(system, b[live])
    except np.linalg.LinAlgError:
        raise ValueError("policy is improper: its cycle system is singular") from None
    values = np.empty((T, S))
    values[0] = v0
    nxt = v0
    for l in range(T - 1, 0, -1):
        nxt = values[l] = costs[l] + alpha * (kernels[l] @ nxt)
    return values


def _checked_actions(mdp: PeriodicMdp, actions, name: str) -> np.ndarray:
    """``actions`` as an array, after checking that it is a (T, S) map into
    the action range; ``name`` is the argument named in the error."""
    actions = np.asarray(actions)
    T, S = mdp.period, mdp.num_states
    if actions.shape != (T, S):
        raise ValueError(f"{name} must have shape ({T}, {S}), got {actions.shape}")
    if np.any((actions < 0) | (actions >= mdp.num_actions)):
        raise ValueError(f"{name} must lie in [0, {mdp.num_actions})")
    return actions


def _check_proper(cycle: np.ndarray, live: np.ndarray) -> None:
    """Raise unless every live state reaches a dead (absorbing, zero-cost)
    state along the positive entries of the one-cycle kernel."""
    support = cycle > 0.0
    reach = ~live | support[:, ~live].any(axis=1)
    while not reach.all():
        grown = reach | support[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            stuck = np.flatnonzero(~reach)
            raise ValueError(
                f"policy is improper: {stuck.size} state(s), first {stuck[0]}, never reach "
                "a zero-cost absorbing state"
            )
        reach = grown


def policy_iterate(
    mdp: PeriodicMdp,
    actions: np.ndarray,
    tol: float | None = None,
    max_cycles: int = 100_000,
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
    last evaluated policy.  At alpha < 1, ``error_bound`` is the residual
    divided by 1 - alpha^T.

    At alpha = 1 the starting policy must be proper (see
    ``evaluate_policy``); greedy steps from a proper policy stay proper.
    """
    tol = _checked_tol(mdp, tol, max_cycles)
    actions = np.array(actions, dtype=int)
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
        converged=converged,
        cycles=cycles,
        sup_history=np.asarray(sup_hist),
        l2_history=np.asarray(l2_hist),
        error_bound=sup_hist[-1] / (1.0 - beta) if beta < 1.0 else math.inf,
    )


def extract_periodic_policy(stage_values: StageValues, mdp: PeriodicMdp) -> PeriodicPolicy:
    """Greedy periodic policy from converged stage-entry values.

    The stage-l map minimizes against the entry values of stage l+1
    (cyclically).  Ties break to the lowest action index so repeated runs
    yield identical policies.
    """
    T = mdp.period
    actions = np.empty((T, mdp.num_states), dtype=int)
    for l in range(T):
        q = _stage_q(stage_values.values[(l + 1) % T], mdp, l)
        actions[l] = np.argmin(q, axis=1)
    return PeriodicPolicy(actions=actions)


def fixed_point_residual(stage_values: StageValues, mdp: PeriodicMdp) -> float:
    """Sup-norm defect of the cycle fixed-point equation at stage 0."""
    v = stage_values.values[0]
    _, entries = apply_cycle_operator(v, mdp)
    return float(np.max(np.abs(entries[0] - v)))


def finite_horizon_oracle(mdp: PeriodicMdp, horizon: int) -> np.ndarray:
    """Exact optimal cost of the problem truncated after ``horizon`` steps,
    starting at stage 0.

    Deliberately a standalone backward induction (no reuse of the cycle
    machinery) so it can serve as an independent oracle in tests.  Each
    step is one matrix-vector product with the stage kernel viewed as an
    (S*A, S) matrix.
    """
    if horizon < 0 or horizon % mdp.period != 0:
        raise ValueError("horizon must be a nonnegative multiple of the period")
    T, S, A = mdp.period, mdp.num_states, mdp.num_actions
    kernels = mdp.transitions.reshape(T, S * A, S)
    c = mdp.costs
    v = np.zeros(S)
    for k in range(horizon - 1, -1, -1):
        l = k % T
        q = c[l] + mdp.discount * (kernels[l] @ v).reshape(S, A)
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
    (1 - alpha) for alpha < 1.

    Each step draws one uniform u per path and moves the path to the state
    #{j : cum[j] < u}, where cum is the cumulative sum of its kernel row
    under the policy (inverse-CDF sampling).  The search starts from a
    guide table (Chen & Asau, 1974; Devroye, *Non-Uniform Random Variate
    Generation*, 1986, sec. III.2): for each row and each of the S buckets
    [k/S, (k+1)/S), the number of cum entries below k/S.  From there it
    steps back while cum[j-1] >= u and forward while cum[j] < u, so the
    state is exactly that count whatever the rounding of u*S, and a step
    costs about one comparison per kernel entry in the path's bucket.
    """
    stage_maps = _checked_actions(mdp, np.asarray(stage_maps, dtype=int), "stage_maps")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    T, S = mdp.period, mdp.num_states
    stage, state = np.ogrid[:T, :S]
    costs = mdp.costs[stage, state, stage_maps]  # (T, S)
    rows = mdp.transitions[stage, state, stage_maps]  # (T, S, S)
    # row r = l*S + s of the table is -inf, cum[0], ..., cum[S-1], +inf:
    # entry j is cum[j-1], and both searches stop at the padding
    width = S + 2
    table = np.empty((T * S, width))
    table[:, 0] = -np.inf
    table[:, -1] = np.inf
    np.cumsum(rows.reshape(T * S, S), axis=-1, out=table[:, 1:-1])
    bounds = np.arange(S) / S
    guide = np.stack([np.searchsorted(cum, bounds) for cum in table[:, 1:-1]])
    # flat table position of each (row, bucket) start
    start = (guide + width * np.arange(T * S)[:, None]).ravel()
    flat = table.ravel()

    rng = np.random.default_rng(seed)
    states = np.zeros(n_paths, dtype=np.intp)
    total = np.zeros(n_paths)
    disc = 1.0
    for k in range(horizon):
        l = k % T
        total += disc * costs[l][states]
        u = rng.random(n_paths)
        rows_at = l * S + states
        pos = start[rows_at * S + np.minimum((u * S).astype(np.intp), S - 1)]
        back = np.flatnonzero(flat[pos] >= u)
        while back.size:
            pos[back] -= 1
            back = back[flat[pos[back]] >= u[back]]
        fwd = np.flatnonzero(flat[pos + 1] < u)
        while fwd.size:
            pos[fwd] += 1
            fwd = fwd[flat[pos[fwd] + 1] < u[fwd]]
        states = pos - width * rows_at
        disc *= mdp.discount
    se = float(total.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else math.nan
    return float(total.mean()), se


class InstanceFormatError(ValueError):
    """Malformed MDP instance file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
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
    one cost line.

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
        raise InstanceFormatError(0, f"missing dimension directive(s): {', '.join(missing)}")
    if P is None:  # no kernel or cost line at all
        raise InstanceFormatError(0, "missing kernel row for (0, 0, 0)")
    absent = (kernel_line == 0) | (cost_line == 0)
    if absent.any():
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(absent), absent.shape))
        what = "kernel row" if kernel_line[idx] == 0 else "cost line"
        raise InstanceFormatError(0, f"missing {what} for {idx}")
    try:
        return PeriodicMdp(transitions=P, costs=c, discount=dims["discount"])
    except ValueError as exc:
        raise InstanceFormatError(0, str(exc)) from exc


def dump_instance(mdp: PeriodicMdp, path: str | Path) -> None:
    """Write an instance in the format accepted by ``load_instance``, line
    by line; floats are written as their ``repr``, which reads back
    exactly."""
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
