import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodet import (
    DetectionCostSpec,
    PeriodicMdp,
    apply_cycle_operator,
    detection_mdp,
    evaluate_policy,
    finite_horizon_oracle,
    fixed_point_residual,
    load_instance,
    policy_iterate,
    simulate_policy,
    value_iterate,
)
from periodet import periodic_mdp
from periodet.periodic_mdp import InstanceFormatError, dump_instance

from conftest import make_scenario, random_mdp, stage_sweep


def classical_value_iteration(P, c, discount, tol=1e-14, max_iters=200_000):
    """Independent stationary-MDP solver used as a T=1 oracle."""
    v = np.zeros(P.shape[0])
    for _ in range(max_iters):
        q = c + discount * (P @ v)
        new = q.min(axis=1)
        if np.max(np.abs(new - v)) <= tol:
            return new
        v = new
    return v


def exact_periodic_policy_value(mdp, stage_maps, zero=()):
    """Stage-entry values of a fixed periodic policy by linear solve.  The
    states in ``zero`` are pinned to 0 at every stage: at discount 1 the
    equations of a state absorbing at zero cost are singular.  A state that
    takes the stop action is worth its stop cost."""
    T, S, n_kernel = mdp.costs.shape
    idx = lambda l, s: l * S + s
    A = np.eye(T * S)
    b = np.zeros(T * S)
    for l in range(T):
        for s in range(S):
            if s in zero:
                continue
            a = stage_maps[l][s]
            if a == n_kernel:
                b[idx(l, s)] = mdp.stop_costs[l, s]
                continue
            b[idx(l, s)] = mdp.costs[l, s, a]
            for s2 in range(S):
                A[idx(l, s), idx((l + 1) % T, s2)] -= mdp.discount * mdp.transitions[l, s, a, s2]
    return np.linalg.solve(A, b).reshape(T, S)


def traced_peak(call):
    """Peak bytes that ``call()`` allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# hand instance: S=2, A=2, T=2, used for frozen-by-hand oracles
HAND_P = np.array(
    [
        [[[0.75, 0.25], [0.5, 0.5]], [[1.0, 0.0], [0.25, 0.75]]],
        [[[0.5, 0.5], [0.0, 1.0]], [[0.25, 0.75], [1.0, 0.0]]],
    ]
)
HAND_C = np.array([[[1.0, 2.0], [0.0, 3.0]], [[2.0, 0.5], [1.0, 4.0]]])


def hand_mdp(discount=0.5):
    return PeriodicMdp(transitions=HAND_P, costs=HAND_C, discount=discount)


def test_mdp_validation():
    with pytest.raises(ValueError, match="row"):
        PeriodicMdp(transitions=HAND_P * 0.9, costs=HAND_C, discount=0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        PeriodicMdp(transitions=HAND_P, costs=-HAND_C, discount=0.5)
    with pytest.raises(ValueError, match="finite"):
        PeriodicMdp(transitions=HAND_P, costs=np.where(HAND_C > 0, np.nan, HAND_C), discount=0.5)
    with pytest.raises(ValueError, match="discount"):
        PeriodicMdp(transitions=HAND_P, costs=HAND_C, discount=1.5)
    with pytest.raises(ValueError, match=re.escape("costs shape (2, 1, 2) does not match")):
        PeriodicMdp(transitions=HAND_P, costs=HAND_C[:, :1], discount=0.5)


def test_mdp_rejects_nan_transition():
    P = np.array(HAND_P, dtype=float)
    P[0, 0, 0, 1] = np.nan  # the row sum is NaN, which no "> tol" test catches
    with pytest.raises(ValueError, match="row"):
        PeriodicMdp(transitions=P, costs=HAND_C, discount=0.5)


def test_mdp_nonnegativity_check_sees_past_nan():
    # the check skips NaN: a NaN ahead of a negative entry does not hide
    # it, and a kernel of NaN only is left to fail on its row sums
    P = np.array(HAND_P, dtype=float)
    P[0, 0, 0, 0] = np.nan
    P[1, 1, 1] = [1.25, -0.25]
    with pytest.raises(ValueError, match="transition probabilities must be nonnegative"):
        PeriodicMdp(transitions=P, costs=HAND_C, discount=0.5)
    with pytest.raises(ValueError, match=r"transition row \(0, 0, 0\) sums to nan"):
        PeriodicMdp(transitions=np.full_like(P, np.nan), costs=HAND_C, discount=0.5)


def test_mdp_checks_allocate_no_kernel_sized_array():
    # a boolean mask of the kernel alone would take P.nbytes / 8
    rng = np.random.default_rng(7)
    P = rng.random((6, 150, 2, 150))
    P /= P.sum(axis=-1, keepdims=True)
    c = rng.random((6, 150, 2))
    peak = traced_peak(lambda: PeriodicMdp(transitions=P, costs=c, discount=0.9))
    assert peak < P.nbytes / 20


@pytest.mark.parametrize("shape", [(0, 2, 1, 2), (1, 0, 1, 0), (1, 2, 0, 2)])
def test_mdp_rejects_an_empty_axis(shape):
    # an empty stage, state or action axis would pass the row-sum check
    # vacuously and fail later, deep inside a solver or at reload
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        PeriodicMdp(transitions=np.zeros(shape), costs=np.zeros(shape[:3]), discount=0.9)


def test_row_sum_error_names_plain_numbers():
    P = np.array([[[[0.5, 0.6]], [[0.0, 1.0]]]])
    with pytest.raises(ValueError) as exc:
        PeriodicMdp(transitions=P, costs=np.zeros((1, 2, 1)), discount=0.5)
    assert str(exc.value) == "transition row (0, 0, 0) sums to 1.1"


def test_mdp_holds_float64_arrays_without_a_copy():
    # a copy would add the whole kernel to every caller's peak memory
    P, c = HAND_P.copy(), HAND_C.copy()
    mdp = PeriodicMdp(transitions=P, costs=c, discount=0.5)
    assert np.shares_memory(mdp.transitions, P) and np.shares_memory(mdp.costs, c)
    assert not P.flags.writeable and not c.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        P[0, 0, 0, 0] = 0.5
    # other inputs are converted, and the caller's array is left alone
    ints = np.ones((2, 2, 2), dtype=int)
    mdp = PeriodicMdp(transitions=HAND_P, costs=ints, discount=0.5)
    assert mdp.costs.dtype == np.float64 and not np.shares_memory(mdp.costs, ints)
    assert ints.flags.writeable


# ── stage and cycle operators ──────────────────────────────────────────


def test_stage_operator_zero_costs_zero_values():
    mdp = PeriodicMdp(transitions=HAND_P, costs=np.zeros_like(HAND_C), discount=0.9)
    _, out = stage_sweep(np.zeros(2), mdp, 0)
    np.testing.assert_array_equal(out, 0.0)


def test_stage_operator_myopic_minimum():
    P = np.ones((1, 1, 2, 1))
    c = np.array([[[3.0, 5.0]]])
    mdp = PeriodicMdp(transitions=P, costs=c, discount=0.0)
    _, entries = apply_cycle_operator(np.array([42.0]), mdp)
    assert entries[0, 0] == 3.0


def test_stage_operator_hand_value():
    # stage 0, V = (1, 2), alpha = 0.5:
    #   state 0: a0: 1 + .5*(.75*1+.25*2) = 1.625 ; a1: 2 + .5*(.5+1) = 2.75
    #   state 1: a0: 0 + .5*1 = 0.5        ; a1: 3 + .5*(.25+1.5) = 3.875
    _, out = stage_sweep(np.array([1.0, 2.0]), hand_mdp(), 0)
    np.testing.assert_allclose(out, [1.625, 0.5], atol=1e-15)


def test_policy_operator_greedy_matches_stage_operator():
    mdp = hand_mdp()
    v = np.array([1.0, 2.0])
    greedy = np.array([0, 0])
    q, out = stage_sweep(v, mdp, 0)
    np.testing.assert_allclose(q[np.arange(2), greedy], out)


def test_policy_operator_dominates_stage_operator():
    rng = np.random.default_rng(0)
    for _ in range(25):
        mdp = random_mdp(rng, 4, 3, 2, 0.9)
        v = rng.random(4) * 5
        _, base = stage_sweep(v, mdp, 1)
        q, _ = apply_cycle_operator(v, mdp)  # the last stage, 1, reads v
        for _ in range(4):
            mu = rng.integers(0, 3, size=4)
            assert np.all(q[1][np.arange(4), mu] >= base - 1e-12)


def test_policy_operator_hand_value():
    q, _ = stage_sweep(np.array([1.0, 2.0]), hand_mdp(), 0)
    out = q[np.arange(2), np.array([1, 1])]
    np.testing.assert_allclose(out, [2.75, 3.875], atol=1e-15)


def test_cycle_operator_degenerate_period():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, 3, 2, 1, 0.8)
    v = rng.random(3)
    q, entries = apply_cycle_operator(v, mdp)
    by_hand = (mdp.costs[0] + 0.8 * np.einsum("sat,t->sa", mdp.transitions[0], v)).min(axis=1)
    np.testing.assert_allclose(entries[0], by_hand)
    assert q.shape == (1, 3, 2) and entries.shape == (1, 3)


def test_cycle_operator_zero_costs():
    mdp = PeriodicMdp(transitions=HAND_P, costs=np.zeros_like(HAND_C), discount=1.0)
    q, entries = apply_cycle_operator(np.zeros(2), mdp)
    np.testing.assert_array_equal(q, 0.0)
    np.testing.assert_array_equal(entries, 0.0)


def test_cycle_operator_is_composition_of_hand_sweeps():
    mdp = hand_mdp()
    v = np.array([1.0, 2.0])
    _, inner = stage_sweep(v, mdp, 1)
    _, outer = stage_sweep(inner, mdp, 0)
    q, entries = apply_cycle_operator(v, mdp)
    np.testing.assert_allclose(entries[1], inner, atol=1e-15)
    np.testing.assert_allclose(entries[0], outer, atol=1e-15)
    np.testing.assert_array_equal(entries, q.min(axis=2))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cycle_operator_monotone(seed):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, 4, 2, 3, 0.9)
    v1 = rng.random(4)
    v2 = v1 + rng.random(4)
    _, out1 = apply_cycle_operator(v1, mdp)
    _, out2 = apply_cycle_operator(v2, mdp)
    assert np.all(out1 <= out2 + 1e-12)


# ── value iteration ────────────────────────────────────────────────────


def test_value_iterate_zero_cost_converges_immediately():
    mdp = PeriodicMdp(transitions=HAND_P, costs=np.zeros_like(HAND_C), discount=1.0)
    values = value_iterate(mdp)
    assert values.converged and values.cycles == 1
    np.testing.assert_array_equal(values.values, 0.0)


def test_value_iterate_refuses_a_falling_iterate(monkeypatch, tmp_path, capsys):
    # from zero the cycle iterates of nonnegative costs only rise; a sweep
    # that hands back a lower stage-0 iterate breaks the checked invariant
    from importlib import resources

    from periodet.cli import main

    def falling(v, mdp):
        q, entries = apply_cycle_operator(v, mdp)
        if v.any():  # every sweep after the first, which starts from zero
            entries = np.concatenate(([v - 1.0], entries[1:]))
        return q, entries

    monkeypatch.setattr(periodic_mdp, "apply_cycle_operator", falling)
    instance = resources.files("periodet.configs").joinpath("instance_three_state_t2.mdp")
    message = "cycle iterates must be pointwise nondecreasing"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        value_iterate(load_instance(instance))
    assert main(["mdp-solve", str(instance), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_value_iterate_residual_and_oracle_bound():
    rng = np.random.default_rng(7)
    mdp = random_mdp(rng, 5, 3, 2, 0.9)
    values = value_iterate(mdp, tol=1e-10)
    assert values.converged
    assert fixed_point_residual(values.values[0], mdp) <= 1e-10
    horizon = 400
    lower = finite_horizon_oracle(mdp, horizon)
    tail = 0.9**horizon * mdp.costs.max() / (1 - 0.9)
    # the engine stops within tol of the true fixed point
    slack = 1e-10 / (1 - 0.9)
    assert np.all(values.values[0] >= lower - slack)
    assert np.all(values.values[0] <= lower + tail + slack)


def test_value_iterate_histories_track_iterates():
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, 3, 2, 2, 0.85)
    values = value_iterate(mdp, tol=1e-9)
    assert values.sup_history.size == values.cycles
    assert values.error_bound <= 1e-9
    assert np.all(values.l2_history >= values.sup_history - 1e-15)


@pytest.mark.parametrize("discount", [0.9, 0.99])
def test_value_iterate_error_within_tol(discount):
    # the stop is certified: the error against the exact value of the
    # optimal policy is within tol, not only the last step
    rng = np.random.default_rng(17)
    for _ in range(10):
        mdp = random_mdp(rng, 6, 3, 3, discount)
        values = value_iterate(mdp, tol=1e-8)
        assert values.converged and values.error_bound <= 1e-8
        optimal = policy_iterate(mdp, np.zeros((3, 6), dtype=int), tol=1e-12)
        exact = evaluate_policy(mdp, optimal.actions)
        assert np.max(np.abs(values.values[0] - exact[0])) <= 1e-8


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_solvers_reject_tol_outside_positive_reals(tol):
    # a NaN tol never certified and an infinite one certified anything
    mdp = random_mdp(np.random.default_rng(3), 4, 2, 2, 0.9)
    start = np.zeros((2, 4), dtype=int)
    for solve in (lambda: value_iterate(mdp, tol=tol), lambda: policy_iterate(mdp, start, tol=tol)):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve()


def test_sweep_and_solvers_reject_a_bad_vector_or_cycle_cap():
    mdp = hand_mdp()
    with pytest.raises(ValueError, match=re.escape("value vector must have shape (2,)")):
        apply_cycle_operator(np.zeros(3), mdp)
    for solve in (lambda: value_iterate(mdp, max_cycles=0),
                  lambda: policy_iterate(mdp, np.zeros((2, 2), dtype=int), max_cycles=0)):
        with pytest.raises(ValueError, match="max_cycles must be >= 1"):
            solve()


def test_value_iterate_undiscounted_bound_is_not_certified():
    mdp = PeriodicMdp(transitions=HAND_P, costs=np.zeros_like(HAND_C), discount=1.0)
    assert value_iterate(mdp).error_bound == np.inf


def test_stage_entry_values_are_intermediate_compositions():
    rng = np.random.default_rng(8)
    mdp = random_mdp(rng, 4, 2, 3, 0.9)
    values = value_iterate(mdp, tol=1e-12)
    v0 = values.values[0]
    expect = v0
    for l in range(mdp.period - 1, -1, -1):
        _, expect = stage_sweep(expect, mdp, l)
        np.testing.assert_allclose(values.values[l], expect, atol=1e-9)


@pytest.mark.parametrize("discount", [0.9, 1.0])
def test_stage_values_and_q_come_from_one_sweep_of_stage_zero(discount):
    # at discount 1 too, values[1:] and q are the final sweep applied to
    # the returned values[0], not the stage values of an earlier iterate
    rng = np.random.default_rng(9)
    if discount == 1.0:
        mdp = absorbing_mdp(rng, n_states=6, period=3)
    else:
        mdp = random_mdp(rng, 6, 2, 3, discount)
    values = value_iterate(mdp)
    assert values.converged
    q, entries = apply_cycle_operator(values.values[0], mdp)
    for l in range(1, mdp.period):
        np.testing.assert_array_equal(values.values[l], entries[l])
    np.testing.assert_array_equal(values.q, q)


def test_fixed_point_residual_nonzero_for_zero_guess():
    assert fixed_point_residual(np.zeros(2), hand_mdp()) > 0


def test_fixed_point_residual_closed_form_one_state():
    # single state/action: V = c / (1 - alpha) solves the cycle equation
    P = np.ones((1, 1, 1, 1))
    c = np.array([[[2.0]]])
    mdp = PeriodicMdp(transitions=P, costs=c, discount=0.5)
    assert fixed_point_residual(np.array([4.0]), mdp) <= 1e-12


# ── policy evaluation and policy iteration ────────────────────────────


def test_evaluate_policy_matches_brute_force_system():
    rng = np.random.default_rng(41)
    for period in (1, 2, 3):
        for _ in range(5):
            mdp = random_mdp(rng, 5, 3, period, 0.9)
            actions = rng.integers(0, 3, size=(period, 5))
            np.testing.assert_allclose(
                evaluate_policy(mdp, actions), exact_periodic_policy_value(mdp, actions),
                rtol=0, atol=1e-12,
            )


def absorbing_mdp(rng, n_states=5, period=2):
    """Random discount-1 MDP whose last state is absorbing at zero cost;
    action 1 jumps there, action 0 moves at random among the others."""
    base = random_mdp(rng, n_states, 2, period, 1.0)
    P, c = np.array(base.transitions), np.array(base.costs)
    P[:, :, 0, -1] = 0.0
    P[:, :, 0] /= P[:, :, 0].sum(axis=-1, keepdims=True)
    P[:, :, 1] = 0.0
    P[:, :, 1, -1] = 1.0
    P[:, -1] = 0.0
    P[:, -1, :, -1] = 1.0
    c[:, -1] = 0.0
    return PeriodicMdp(transitions=P, costs=c, discount=1.0)


def test_evaluate_policy_undiscounted_pins_absorbing_states():
    # each stage of a proper policy, against its truncated rollout
    rng = np.random.default_rng(43)
    mdp = absorbing_mdp(rng)
    actions = rng.integers(0, 2, size=(2, 5))
    actions[:, 0] = 1  # at least one way out of the random part
    values = evaluate_policy(mdp, actions)
    idx = np.arange(5)
    rollout = np.zeros(5)
    for k in range(2 * 20_000 - 1, -1, -1):
        l = k % 2
        rollout = mdp.costs[l][idx, actions[l]] + mdp.transitions[l][idx, actions[l]] @ rollout
        if l == 1:
            stage1 = rollout
    np.testing.assert_allclose(values[0], rollout, rtol=0, atol=1e-9)
    np.testing.assert_allclose(values[1], stage1, rtol=0, atol=1e-9)
    assert np.all(values[:, -1] == 0.0)


def test_improper_policy_raises():
    # no state is absorbing at zero cost, so every policy is improper
    with pytest.raises(ValueError, match="improper"):
        evaluate_policy(hand_mdp(discount=1.0), np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError, match="improper"):
        policy_iterate(hand_mdp(discount=1.0), np.zeros((2, 2), dtype=int))
    # "never stop" in the random part never reaches the absorbing state
    mdp = absorbing_mdp(np.random.default_rng(45))
    with pytest.raises(ValueError, match="improper"):
        evaluate_policy(mdp, np.zeros((2, 5), dtype=int))


def stuck_state_mdp():
    """State 3 is absorbing at zero cost and action 1 jumps there; under
    action 0 states 0 and 1 get there too, state 2 stays put at cost 1.
    The policy returned exits state 0 at stage 0, so state 2 is the second
    running one there, and it never reaches state 3."""
    P = np.zeros((2, 4, 2, 4))
    P[:, :, 1, 3] = 1.0
    P[:, 0, 0, [0, 3]] = 0.5
    P[:, 1, 0, [1, 3]] = 0.5
    P[:, 2, 0, 2] = 1.0
    P[:, 3, 0, 3] = 1.0
    c = np.ones((2, 4, 2))
    c[:, 3] = 0.0
    mdp = PeriodicMdp(transitions=P, costs=c, discount=1.0)
    return mdp, np.array([[1, 0, 0, 0], [0, 0, 0, 0]])


def test_improper_policy_names_the_stuck_state():
    mdp, actions = stuck_state_mdp()
    with pytest.raises(ValueError, match=r"improper: 1 state\(s\), first 2,"):
        evaluate_policy(mdp, actions)
    actions[:, 2] = 1
    np.testing.assert_allclose(
        evaluate_policy(mdp, actions), exact_periodic_policy_value(mdp, actions, zero=(3,)),
        rtol=0, atol=1e-12,
    )


def chain_mdp(period, back=False):
    """States 0 -> 1 -> 2 -> 3 -> 4 at unit cost, state 4 absorbing at cost
    0, at every stage; with ``back`` state 1 returns to state 0 instead."""
    P = np.zeros((period, 5, 1, 5))
    P[:, np.arange(5), 0, [1, 2, 3, 4, 4]] = 1.0
    if back:
        P[:, 1, 0] = np.eye(5)[0]
    c = np.ones((period, 5, 1))
    c[:, 4] = 0.0
    return PeriodicMdp(transitions=P, costs=c, discount=1.0)


@pytest.mark.parametrize("period", [1, 2])
def test_undiscounted_chain_reaches_its_exit_over_several_cycles(period):
    # reaching state 4 from state 0 takes more than one cycle, so the
    # properness check has to grow its reach; state 3's row lies on the
    # dead state only, and it runs with a zero row of the cycle kernel
    never_stop = np.zeros((period, 5), dtype=int)
    np.testing.assert_array_equal(evaluate_policy(chain_mdp(period), never_stop),
                                  np.tile([4.0, 3.0, 2.0, 1.0, 0.0], (period, 1)))
    with pytest.raises(ValueError, match=re.escape("policy is improper: 2 state(s), first 0, ")):
        evaluate_policy(chain_mdp(period, back=True), never_stop)


DETECTION_CASES = {
    1: (make_scenario([0.0], [1.0], rho=0.05), DetectionCostSpec((5.0,), (1.0,))),
    2: (
        make_scenario([0.0, 0.0], [2.0, 1.0], rho=0.01),
        DetectionCostSpec((20.0, 5.0), (10.0, 1.0)),
    ),
    4: (
        make_scenario([0.0] * 4, [2.0, 1.5, 1.0, 0.5], rho=0.01),
        DetectionCostSpec((20.0, 15.0, 10.0, 5.0), (10.0, 10.0, 6.0, 1.0)),
    ),
}


@pytest.mark.parametrize("period", sorted(DETECTION_CASES))
def test_evaluate_policy_on_detection_mdp_matches_brute_force_system(period, monkeypatch):
    # a stopping state exits with its stop cost, state M too: the policies
    # policy iteration visits, and single thresholds, keep few states running
    M = 50
    mdp = detection_mdp(*DETECTION_CASES[period], grid_resolution=M)
    visited = []

    def recording(mdp, actions):
        visited.append(np.array(actions))
        return evaluate_policy(mdp, actions)

    monkeypatch.setattr(periodic_mdp, "evaluate_policy", recording)
    stop_everywhere = np.ones((period, M + 1), dtype=int)
    policy_iterate(mdp, stop_everywhere)
    assert len(visited) >= 2 and np.array_equal(visited[0], stop_everywhere)
    # nothing runs: every value is the stopping cost, exactly
    np.testing.assert_array_equal(evaluate_policy(mdp, stop_everywhere), mdp.stop_costs)
    points = np.linspace(0.0, 1.0, M)
    single = [
        np.tile(np.append(points >= a, True), (period, 1)).astype(int) for a in (0.05, 0.5, 0.95)
    ]
    for actions in visited + single:
        assert np.all(actions[:, M] == 1)
        np.testing.assert_allclose(
            evaluate_policy(mdp, actions), exact_periodic_policy_value(mdp, actions),
            rtol=0, atol=1e-12,
        )


def dead_and_exit_mdp(rng, discount):
    """Six states, three stages, two actions: states 2 and 5 are dead,
    action 1 splits its jump between them, and state 3 is absorbing at
    zero cost at stage 0 only, so it is not dead.  Action 0 moves at
    random and reaches state 2, so every policy is proper."""
    base = absorbing_mdp(rng, n_states=6, period=3)
    P, c = np.array(base.transitions), np.array(base.costs)
    P[:, :, 1] = 0.0
    P[:, :, 1, [2, 5]] = 0.5
    P[:, [2, 5]] = 0.0
    P[:, 2, :, 2] = P[:, 5, :, 5] = 1.0
    c[:, [2, 5]] = 0.0
    P[0, 3, 0] = 0.0
    P[0, 3, 0, 3] = 1.0
    c[0, 3, 0] = 0.0
    return PeriodicMdp(transitions=P, costs=c, discount=discount)


def test_evaluate_policy_discounted_with_dead_states_and_exits():
    rng = np.random.default_rng(53)
    mdp = dead_and_exit_mdp(rng, 0.9)
    policies = [np.zeros((3, 6), dtype=int), np.ones((3, 6), dtype=int)]
    policies += [rng.integers(0, 2, size=(3, 6)) for _ in range(10)]
    for actions in policies:
        values = evaluate_policy(mdp, actions)
        np.testing.assert_allclose(
            values, exact_periodic_policy_value(mdp, actions), rtol=0, atol=1e-12
        )
        assert np.all(values[:, [2, 5]] == 0.0)


def gathered_evaluate_policy(mdp, actions):
    """``evaluate_policy``'s eliminations and cycle system on gathered
    copies of the T policy kernels K_l (S, S), a reference for its reads
    of the kernel in place; a state that stops has a zero row and its stop
    cost."""
    T, S = mdp.period, mdp.num_states
    idx = np.arange(S)
    P = np.concatenate((mdp.transitions, np.zeros((T, S, 1, S))), axis=2)
    C = mdp.costs if mdp.stop_costs is None else np.dstack((mdp.costs, mdp.stop_costs))
    kernels = [P[l][idx, actions[l]] for l in range(T)]
    costs = [C[l][idx, actions[l]] for l in range(T)]
    alpha = mdp.discount
    dead = np.ones(S, dtype=bool)
    for K, c in zip(kernels, costs):
        dead &= (K[idx, idx] == 1.0) & (c == 0.0)
    exits = [dead | (K @ ~dead == 0.0) for K in kernels]
    running = [np.flatnonzero(~e) for e in exits]
    base, reach, cycle = np.where(exits[0], costs[0], 0.0), exits[0], None
    for l in range(T - 1, -1, -1):
        block = kernels[l][np.ix_(running[l], running[(l + 1) % T])]
        cycle = alpha * (block if cycle is None else block @ cycle)
        base = np.where(exits[l], costs[l], costs[l] + alpha * (kernels[l] @ base))
        reach = exits[l] | (kernels[l] @ reach > 0.0)
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
    v0 = base
    try:
        v0[running[0]] = np.linalg.solve(np.eye(running[0].size) - cycle, base[running[0]])
    except np.linalg.LinAlgError:
        raise ValueError("policy is improper: its cycle system is singular") from None
    values = np.empty((T, S))
    values[0] = v0
    nxt = v0
    for l in range(T - 1, 0, -1):
        nxt = values[l] = costs[l] + alpha * (kernels[l] @ nxt)
    return values


@pytest.mark.parametrize("discount", [0.9, 1.0])
def test_evaluate_policy_matches_gathered_kernel_reference(discount):
    # dead, exiting and running states (the small instance), every state
    # running (dense random), and detection policies that stop on part of
    # the grid, whose stopping states exit
    rng = np.random.default_rng(67)
    cases = [(dead_and_exit_mdp(rng, discount), rng.integers(0, 2, size=(20, 3, 6)))]
    if discount < 1.0:
        dense = random_mdp(rng, 60, 3, 2, discount)
        cases.append((dense, rng.integers(0, 3, size=(5, 2, 60))))
    else:
        M = 50
        detection = detection_mdp(*DETECTION_CASES[4], grid_resolution=M)
        points = np.linspace(0.0, 1.0, M)
        single = [
            np.tile(np.append(points >= a, True), (4, 1)).astype(int)
            for a in (0.05, 0.3, 0.5, 0.95)
        ]
        cases.append((detection, single))
    for mdp, policies in cases:
        for actions in policies:
            got, want = evaluate_policy(mdp, actions), gathered_evaluate_policy(mdp, actions)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def singular_cycle_mdp():
    """State 1 is dead; state 0 leaves for it with probability 1e-20, which
    its row sum 1 + 1e-20 == 1 does not show: the policy reaches an exit,
    but its one-state cycle system 1 - 1 is singular."""
    P = np.array([[[[1.0, 1e-20]], [[0.0, 1.0]]]])
    c = np.array([[[1.0], [0.0]]])
    return PeriodicMdp(transitions=P, costs=c, discount=1.0), np.zeros((1, 2), dtype=int)


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: (hand_mdp(discount=1.0), np.zeros((2, 2), dtype=int)),
         "policy is improper: 2 state(s), first 0, never reach a zero-cost absorbing state"),
        (stuck_state_mdp,
         "policy is improper: 1 state(s), first 2, never reach a zero-cost absorbing state"),
        (singular_cycle_mdp, "policy is improper: its cycle system is singular"),
    ],
    ids=["no-exit", "stuck", "singular"],
)
def test_improper_policy_messages_match_gathered_kernel_reference(make, message):
    mdp, actions = make()
    for evaluate in (gathered_evaluate_policy, evaluate_policy):
        with pytest.raises(ValueError) as exc:
            evaluate(mdp, actions)
        assert str(exc.value) == message


def test_evaluate_policy_copies_only_the_running_blocks():
    # every state of a dense random MDP runs, so the cycle system is
    # (S, S); the T gathered (S, S) policy kernels would add T more
    T, S = 6, 150
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, S, 2, T, 0.9)
    actions = rng.integers(2, size=(T, S))
    assert traced_peak(lambda: evaluate_policy(mdp, actions)) < 5 * S * S * 8


def test_evaluate_policy_rejects_bad_actions():
    with pytest.raises(ValueError, match="shape"):
        evaluate_policy(hand_mdp(), np.zeros((1, 2), dtype=int))
    with pytest.raises(ValueError, match="lie in"):
        evaluate_policy(hand_mdp(), np.full((2, 2), 2))


@pytest.mark.parametrize("action", [0.7, 1.9])
def test_non_integer_actions_are_rejected_where_they_enter(action):
    # they ran as their truncation (simulate_policy, policy_iterate) or
    # failed as a bare IndexError (evaluate_policy)
    mdp, actions = hand_mdp(), np.full((2, 2), action)
    for call in (
        lambda: evaluate_policy(mdp, actions),
        lambda: policy_iterate(mdp, actions),
        lambda: simulate_policy(mdp, actions, 10, 5, seed=0),
    ):
        with pytest.raises(ValueError, match="actions must hold integer actions"):
            call()


def test_policy_iterate_matches_value_iteration_and_oracle():
    rng = np.random.default_rng(47)
    for _ in range(50):
        mdp = random_mdp(
            rng,
            n_states=int(rng.integers(2, 6)),
            n_actions=int(rng.integers(2, 4)),
            period=int(rng.integers(1, 4)),
            discount=0.9,
        )
        start = rng.integers(0, mdp.num_actions, size=(mdp.period, mdp.num_states))
        values = policy_iterate(mdp, start, tol=1e-12)
        assert values.converged and values.error_bound <= 1e-11
        assert values.sup_history.size == values.cycles
        assert fixed_point_residual(values.values[0], mdp) <= 1e-12
        tight = value_iterate(mdp, tol=1e-12)
        np.testing.assert_allclose(values.values, tight.values, rtol=0, atol=1e-11)
        horizon = 300 * mdp.period
        lower = finite_horizon_oracle(mdp, horizon)
        tail = 0.9**horizon * mdp.costs.max() / 0.1
        assert np.all(values.values[0] >= lower - 1e-12)
        assert np.all(values.values[0] <= lower + tail + 1e-12)


def test_policy_iterate_undiscounted_from_proper_start():
    rng = np.random.default_rng(49)
    for _ in range(10):
        mdp = absorbing_mdp(rng)
        values = policy_iterate(mdp, np.ones((2, 5), dtype=int))
        assert values.converged and values.error_bound == np.inf
        oracle = finite_horizon_oracle(mdp, 2 * 5_000)
        np.testing.assert_allclose(values.values[0], oracle, rtol=0, atol=1e-9)


def test_policy_iterate_step_cap_is_reported():
    rng = np.random.default_rng(51)
    mdp = random_mdp(rng, 6, 3, 2, 0.9)
    start = np.zeros((2, 6), dtype=int)
    full = policy_iterate(mdp, start, tol=1e-12)
    assert full.cycles >= 2
    capped = policy_iterate(mdp, start, tol=1e-12, max_cycles=1)
    assert not capped.converged and capped.cycles == 1


# ── finite-horizon oracle ──────────────────────────────────────────────


def test_oracle_zero_cost_and_single_stage():
    mdp = PeriodicMdp(transitions=HAND_P, costs=np.zeros_like(HAND_C), discount=1.0)
    np.testing.assert_array_equal(finite_horizon_oracle(mdp, 2), 0.0)
    P = np.ones((1, 1, 2, 1))
    c = np.array([[[3.0, 5.0]]])
    one = PeriodicMdp(transitions=P, costs=c, discount=1.0)
    assert finite_horizon_oracle(one, 1)[0] == 3.0


def test_oracle_monotone_in_horizon():
    rng = np.random.default_rng(11)
    mdp = random_mdp(rng, 4, 2, 2, 0.9)
    values = value_iterate(mdp, tol=1e-12)
    prev = np.zeros(4)
    for n in (2, 4, 8, 16, 64, 200):
        cur = finite_horizon_oracle(mdp, n)
        assert np.all(cur >= prev - 1e-12)
        assert np.all(cur <= values.values[0] + 1e-9)
        prev = cur


def test_oracle_requires_multiple_of_period():
    with pytest.raises(ValueError):
        finite_horizon_oracle(hand_mdp(), 3)


def einsum_oracle(mdp, horizon):
    """Per-step einsum backward induction, the reference for the oracle's
    single matrix-vector product per step."""
    v = np.zeros(mdp.num_states)
    for k in range(horizon - 1, -1, -1):
        l = k % mdp.period
        v = (mdp.costs[l] + mdp.discount * np.einsum("sat,t->sa", mdp.transitions[l], v)).min(axis=1)
    return v


@pytest.mark.parametrize("period", [1, 3])
def test_oracle_matches_einsum_backward_induction(period):
    rng = np.random.default_rng(17 + period)
    mdp = random_mdp(rng, 30, 4, period, 0.95)
    for horizon in (0, period, 60 * period):
        np.testing.assert_allclose(
            finite_horizon_oracle(mdp, horizon), einsum_oracle(mdp, horizon), rtol=0, atol=1e-12
        )


# ── greedy policy (StageValues.actions) ───────────────────────────────


def test_extraction_reduces_to_classical_greedy_at_period_one():
    rng = np.random.default_rng(21)
    mdp = random_mdp(rng, 5, 3, 1, 0.9)
    values = value_iterate(mdp, tol=1e-12)
    oracle = classical_value_iteration(mdp.transitions[0], mdp.costs[0], 0.9)
    np.testing.assert_allclose(values.values[0], oracle, atol=1e-9)
    greedy = np.argmin(mdp.costs[0] + 0.9 * (mdp.transitions[0] @ oracle), axis=1)
    np.testing.assert_array_equal(values.actions[0], greedy)


def test_extraction_witness_instance_with_stagewise_maps():
    # one state, two actions; cheap action flips between stages
    P = np.ones((2, 1, 2, 1))
    c = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
    mdp = PeriodicMdp(transitions=P, costs=c, discount=0.5)
    actions = value_iterate(mdp, tol=1e-12).actions
    assert actions[0, 0] == 0
    assert actions[1, 0] == 1


def test_extracted_policy_achieves_optimal_value():
    rng = np.random.default_rng(31)
    for _ in range(10):
        mdp = random_mdp(rng, 4, 3, 2, 0.9)
        values = value_iterate(mdp, tol=1e-12)
        achieved = exact_periodic_policy_value(mdp, values.actions)
        np.testing.assert_allclose(achieved[0], values.values[0], atol=1e-8)


def test_tie_break_prefers_lowest_action():
    P = np.ones((1, 1, 2, 1))
    c = np.array([[[3.0, 3.0]]])
    mdp = PeriodicMdp(transitions=P, costs=c, discount=0.0)
    assert value_iterate(mdp).actions[0, 0] == 0


def test_policy_iterate_keeps_its_action_on_a_tie():
    # both actions of the hand instance are its action 0, so every Q-table
    # ties exactly; started from action 1, the returned policy is that start
    # and ``values`` are its exact values
    P = np.repeat(HAND_P[:, :, :1], 2, axis=2)
    c = np.repeat(HAND_C[:, :, :1], 2, axis=2)
    mdp = PeriodicMdp(transitions=P, costs=c, discount=0.5)
    start = np.ones((2, 2), dtype=int)
    result = policy_iterate(mdp, start, tol=1e-12)
    assert result.converged
    np.testing.assert_array_equal(result.actions, start)
    np.testing.assert_array_equal(evaluate_policy(mdp, result.actions), result.values)


# ── terminal stop action ───────────────────────────────────────────────


def stopping_mdp(rng, n_states, n_actions, period, discount):
    """Dense random periodic MDP with random stop costs on [0, 5)."""
    base = random_mdp(rng, n_states, n_actions, period, discount)
    stop = 5.0 * rng.random((period, n_states))
    return PeriodicMdp(base.transitions, base.costs, discount, stop_costs=stop)


def dense_equivalent(mdp):
    """``mdp`` with its stop action as kernel rows: one more state, S,
    absorbing at zero cost under every action, and a stop row into it from
    every other state."""
    T, S, A = mdp.costs.shape
    P = np.zeros((T, S + 1, A + 1, S + 1))
    P[:, :S, :A, :S] = mdp.transitions
    P[:, :S, A, S] = 1.0
    P[:, S, :, S] = 1.0
    c = np.zeros((T, S + 1, A + 1))
    c[:, :S, :A] = mdp.costs
    c[:, :S, A] = mdp.stop_costs
    return PeriodicMdp(transitions=P, costs=c, discount=mdp.discount)


@pytest.mark.parametrize("discount", [0.9, 1.0])
@pytest.mark.parametrize("period", [1, 2, 3])
def test_stop_costs_match_dense_stop_rows(period, discount):
    # every solver, on the stop action and on its dense equivalent, agrees
    # on the original states: the same values, policies and step counts
    rng = np.random.default_rng(83 + period + 10 * (discount == 1.0))
    S, A = 7, 2
    for _ in range(5):
        mdp = stopping_mdp(rng, S, A, period, discount)
        dense = dense_equivalent(mdp)
        assert mdp.num_actions == dense.num_actions == A + 1

        def agree(got, want, slack=0.0):
            np.testing.assert_allclose(got.values, want.values[:, :S], rtol=0, atol=1e-12 + slack)
            np.testing.assert_allclose(got.q, want.q[:, :S], rtol=0, atol=1e-12 + slack)
            np.testing.assert_array_equal(got.actions, want.actions[:, :S])
            assert got.converged and want.converged
            assert got.cycles == want.cycles

        got, want = value_iterate(mdp), value_iterate(dense)
        # the same iterates, bounds and midpoint; but the dense midpoint
        # also lifts the absorbing state off its value 0, within the bound,
        # and the dense stop column reads that, where the stop column holds
        # the stop costs exactly
        lift = want.values[0, S]
        assert 0.0 <= lift <= want.error_bound
        agree(got, want, slack=lift)
        np.testing.assert_allclose(got.values[0], want.values[0, :S], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got.q[:, :, A], mdp.stop_costs)
        assert got.error_bound == pytest.approx(want.error_bound, rel=0, abs=1e-12)
        # the extra state stops too; at discount 1 one stop makes a dense
        # random policy proper
        start = np.full((period, S + 1), A)
        if discount < 1.0:
            start[:, :S] = rng.integers(0, A + 1, size=(period, S))
        agree(policy_iterate(mdp, start[:, :S], tol=1e-12),
              policy_iterate(dense, start, tol=1e-12))
        for _ in range(4):
            actions = rng.integers(0, A + 1, size=(period, S + 1))
            actions[0, 0] = actions[:, S] = A
            np.testing.assert_allclose(
                evaluate_policy(mdp, actions[:, :S]), evaluate_policy(dense, actions)[:, :S],
                rtol=0, atol=1e-12,
            )
        for horizon in (0, period, 30 * period):
            np.testing.assert_allclose(
                finite_horizon_oracle(mdp, horizon), finite_horizon_oracle(dense, horizon)[:S],
                rtol=0, atol=1e-12,
            )


def test_value_iterate_bounds_take_the_stop_step_of_zero():
    # continuing forever costs 1 / (1 - 0.9) = 10, stopping 5: after one
    # cycle the step is 1 everywhere, but a stop does not rise with the
    # values, so the bracket is [1, 10], not the point 10
    mdp = PeriodicMdp(np.ones((1, 1, 1, 1)), np.ones((1, 1, 1)), 0.9,
                      stop_costs=np.full((1, 1), 5.0))
    result = value_iterate(mdp)
    assert result.converged and result.cycles > 1
    assert result.values[0, 0] == pytest.approx(5.0, abs=1e-8)
    assert result.error_bound <= 1e-8
    np.testing.assert_array_equal(result.actions, [[1]])
    np.testing.assert_array_equal(finite_horizon_oracle(mdp, 100), [5.0])


@pytest.mark.parametrize(
    "stop,fragment",
    [
        (np.zeros((2, 3)), r"stop_costs shape \(2, 3\) does not match \(T, S\) = \(2, 2\)"),
        (np.zeros(2), r"stop_costs shape \(2,\)"),
        (np.array([[1.0, -1.0], [0.0, 0.0]]), "stop_costs must be finite and nonnegative"),
        (np.array([[1.0, np.nan], [0.0, 0.0]]), "stop_costs must be finite and nonnegative"),
        (np.array([[1.0, np.inf], [0.0, 0.0]]), "stop_costs must be finite and nonnegative"),
    ],
    ids=["states", "stages", "negative", "nan", "inf"],
)
def test_mdp_rejects_bad_stop_costs(stop, fragment):
    with pytest.raises(ValueError, match=fragment):
        PeriodicMdp(transitions=HAND_P, costs=HAND_C, discount=0.5, stop_costs=stop)


def test_stop_costs_are_held_read_only():
    stop = np.ones((2, 2))
    mdp = PeriodicMdp(transitions=HAND_P, costs=HAND_C, discount=0.5, stop_costs=stop)
    assert np.shares_memory(mdp.stop_costs, stop) and not stop.flags.writeable
    assert mdp.num_actions == 3 and hand_mdp().num_actions == 2


def test_rollouts_and_instance_files_refuse_stop_costs(tmp_path):
    # neither the sampler nor the instance format knows a terminal action
    mdp = PeriodicMdp(HAND_P, HAND_C, 0.5, stop_costs=np.ones((2, 2)))
    with pytest.raises(ValueError, match="simulate_policy takes no MDP with stop_costs"):
        simulate_policy(mdp, np.zeros((2, 2), dtype=int), 10, 5, seed=0)
    path = tmp_path / "stop.mdp"
    with pytest.raises(ValueError, match="dump_instance takes no MDP with stop_costs"):
        dump_instance(mdp, path)
    assert not path.exists()


# ── rollout estimator ──────────────────────────────────────────────────


def test_simulate_policy_deterministic_and_unbiased():
    rng = np.random.default_rng(5)
    mdp = random_mdp(rng, 3, 2, 2, 0.9)
    actions = value_iterate(mdp, tol=1e-12).actions
    mean1, se1 = simulate_policy(mdp, actions, 4000, 150, seed=99)
    mean2, _ = simulate_policy(mdp, actions, 4000, 150, seed=99)
    assert mean1 == mean2
    exact = exact_periodic_policy_value(mdp, actions)[0, 0]
    assert abs(mean1 - exact) < 3 * se1 + 1e-3


def reference_simulate_policy(mdp, stage_maps, n_paths, horizon, seed):
    """The rollout estimator with the plain inverse-CDF sampler: the next
    state is the number of cumulative kernel entries below u, counted over
    a copied row per path."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(mdp.transitions, axis=-1)
    states = np.zeros(n_paths, dtype=int)
    total = np.zeros(n_paths)
    disc = 1.0
    for k in range(horizon):
        l = k % mdp.period
        acts = stage_maps[l][states]
        total += disc * mdp.costs[l][states, acts]
        u = rng.random(n_paths)
        rows = cum[l][states, acts]  # (n_paths, S)
        states = (u[:, None] > rows).sum(axis=1)
        disc *= mdp.discount
    return float(total.mean()), float(total.std(ddof=1) / np.sqrt(n_paths))


def sparse_mdp(rng, n_states, n_actions, period, discount):
    """Random MDP whose kernel rows hold runs of zero probabilities: a
    random block of each row is zeroed, then about half of the rest, and
    some rows are deterministic."""
    shape = (period, n_states, n_actions, n_states)
    P = rng.random(shape) * (rng.random(shape) < 0.5)
    for row in P.reshape(-1, n_states):
        lo = rng.integers(n_states)
        row[lo : lo + rng.integers(1, n_states + 1)] = 0.0
        if rng.random() < 0.1:
            row[:] = 0.0
        if not row.any():
            row[rng.integers(n_states)] = 1.0
    P /= P.sum(axis=-1, keepdims=True)
    c = rng.random(shape[:3])
    return PeriodicMdp(transitions=P, costs=c, discount=discount)


def edge_mdp(rng, n_states, n_actions, period, discount):
    """Random MDP whose kernel entries are multiples of 1/S, about a fifth
    of the nonzero ones nudged by one ulp either way, so that cumulative
    sums sit on or next to the bucket edges k/S of a guide table."""
    shape = (period, n_states, n_actions)
    P = rng.multinomial(n_states, np.full(n_states, 1 / n_states), size=shape) / n_states
    nudge = (P > 0) & (rng.random(P.shape) < 0.2)
    P[nudge] = np.nextafter(P[nudge], rng.choice([-np.inf, np.inf], size=nudge.sum()))
    return PeriodicMdp(transitions=P, costs=rng.random(shape), discount=discount)


@pytest.mark.parametrize("period", [1, 3])
@pytest.mark.parametrize(
    "make", [random_mdp, sparse_mdp, edge_mdp], ids=["dense", "sparse", "edges"])
def test_simulate_policy_matches_reference_sampler(period, make):
    rng = np.random.default_rng(61 + period + 10 * (make is sparse_mdp))
    for n_states in (1, 2, 7, 40):
        mdp = make(rng, n_states, 3, period, 0.97)
        actions = rng.integers(3, size=(period, n_states))
        for seed in (1, 2):
            got = simulate_policy(mdp, actions, 300, 90, seed=seed)
            assert got == reference_simulate_policy(mdp, actions, 300, 90, seed)


@pytest.mark.parametrize("n_states", [8, 10])
def test_simulate_policy_steps_on_bucket_edges(n_states, monkeypatch):
    # rng.random all but never lands on a guide bucket edge k/S, so the
    # draws here are every k/S and the uniforms one ulp either side.  Each
    # step's state must be the plain count #{j : cum[j] < u} of its row.
    # Stage-0 state 0 moves to each state with probability 1/S, and costs
    # c_0(s) = S*s, c_1(s) = s at discount 1 make one path's total over
    # three steps s_1 + S*s_2, so every call shows both states it stepped to
    S = n_states
    P = np.array(edge_mdp(np.random.default_rng(71), S, 1, 2, 1.0).transitions)
    P[0, 0, 0] = 1.0 / S
    c = np.zeros((2, S, 1))
    c[0, :, 0], c[1, :, 0] = S * np.arange(S), np.arange(S)
    mdp = PeriodicMdp(transitions=P, costs=c, discount=1.0)
    cum = np.cumsum(P[:, :, 0], axis=-1)
    edges = np.arange(S + 1) / S
    draws = np.concatenate([np.nextafter(edges, -1.0), edges, np.nextafter(edges, 2.0)])
    draws = draws[(draws >= 0.0) & (draws < 1.0)]

    def states_after(u0, u1):
        sequence = iter((u0, u1, 0.5))
        fake = SimpleNamespace(random=lambda n: np.full(n, next(sequence)))
        monkeypatch.setattr(periodic_mdp.np.random, "default_rng", lambda seed: fake)
        total, _ = simulate_policy(mdp, np.zeros((2, S), dtype=int), 1, 3, seed=0)
        s2, s1 = divmod(int(total), S)
        return s1, s2

    def count(l, s, u):
        return int(np.count_nonzero(cum[l, s] < u))

    for u in draws:  # stage-0 row of state 0
        assert states_after(u, 0.5) == (count(0, 0, u), count(1, count(0, 0, u), 0.5))
    for s in range(S):  # every stage-1 row
        for u in draws:
            assert states_after((s + 0.5) / S, u) == (s, count(1, s, u))


@pytest.mark.parametrize(
    "stage_maps,n_paths,horizon,fragment",
    [
        ([[0, -1], [0, 0]], 10, 5, "lie in"),  # was simulated as action 1
        ([[0, 2], [0, 0]], 10, 5, "lie in"),
        ([[0, 0]], 10, 5, "shape"),
        ([[0, 0], [0, 0]], 0, 5, "n_paths must be >= 1"),
        ([[0, 0], [0, 0]], 10, -3, "horizon must be >= 0"),
    ],
    ids=["action -1", "action A", "shape", "no paths", "negative horizon"],
)
def test_simulate_policy_rejects_bad_inputs(stage_maps, n_paths, horizon, fragment):
    with pytest.raises(ValueError, match=fragment):
        simulate_policy(hand_mdp(), np.array(stage_maps), n_paths, horizon, seed=0)


def test_simulate_policy_single_path_has_nan_error_and_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se = simulate_policy(hand_mdp(), np.zeros((2, 2), dtype=int), 1, 5, seed=0)
    assert np.isfinite(mean)
    assert np.isnan(se)


def test_simulate_policy_working_set_stays_below_three_kernels():
    # the cumulative table and the int32 guide take about 1.5 times the
    # policy's T*S*S float64 kernel: the bound leaves room for one more
    # kernel-sized array, not two
    T, S = 3, 150
    rng = np.random.default_rng(3)
    mdp = random_mdp(rng, S, 2, T, 0.9)
    actions = rng.integers(2, size=(T, S))
    peak = traced_peak(lambda: simulate_policy(mdp, actions, 20, 30, seed=0))
    assert peak < 3 * T * S * S * 8


def test_simulate_policy_zero_horizon_costs_nothing():
    assert simulate_policy(hand_mdp(), np.zeros((2, 2), dtype=int), 10, 0, seed=0) == (0.0, 0.0)


# ── instance files ─────────────────────────────────────────────────────


def test_instance_roundtrip(tmp_path):
    mdp = hand_mdp(discount=0.75)
    path = tmp_path / "hand.mdp"
    dump_instance(mdp, path)
    loaded = load_instance(path)
    np.testing.assert_array_equal(loaded.transitions, mdp.transitions)
    np.testing.assert_array_equal(loaded.costs, mdp.costs)
    assert loaded.discount == mdp.discount


HAND_INSTANCE_TEXT = """\
states 2
actions 2
period 2
discount 0.5
kernel 0 0 0 0.75 0.25
cost 0 0 0 1.0
kernel 0 0 1 0.5 0.5
cost 0 0 1 2.0
kernel 0 1 0 1.0 0.0
cost 0 1 0 0.0
kernel 0 1 1 0.25 0.75
cost 0 1 1 3.0
kernel 1 0 0 0.5 0.5
cost 1 0 0 2.0
kernel 1 0 1 0.0 1.0
cost 1 0 1 0.5
kernel 1 1 0 0.25 0.75
cost 1 1 0 1.0
kernel 1 1 1 1.0 0.0
cost 1 1 1 4.0
"""


def test_dump_instance_pinned_text(tmp_path):
    path = tmp_path / "hand.mdp"
    dump_instance(hand_mdp(), path)
    assert path.read_bytes() == HAND_INSTANCE_TEXT.encode()


@pytest.mark.parametrize(
    "discount,text", [(np.float64(0.9), "discount 0.9\n"), (np.int64(1), "discount 1\n")]
)
def test_instance_roundtrip_numpy_scalar_discount(tmp_path, discount, text):
    mdp = PeriodicMdp(np.ones((1, 1, 1, 1)), np.ones((1, 1, 1)), discount)
    path = tmp_path / "scalar.mdp"
    dump_instance(mdp, path)
    assert text in path.read_text()
    assert load_instance(path).discount == discount


def test_instance_roundtrip_is_exact_on_random_floats(tmp_path):
    mdp = random_mdp(np.random.default_rng(71), 6, 3, 2, 0.99)
    path = tmp_path / "random.mdp"
    dump_instance(mdp, path)
    loaded = load_instance(path)
    np.testing.assert_array_equal(loaded.transitions, mdp.transitions)
    np.testing.assert_array_equal(loaded.costs, mdp.costs)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bogus 1\n", "unknown directive"),
        ("states 1\nkernel 0 0 0 1.0\n", "before dimension"),
        (
            "states 1\nactions 1\nperiod 1\ndiscount 0.9\nkernel 0 0 0 1.0 2.0\n",
            "needs 4 values",
        ),
        (
            "states 1\nactions 1\nperiod 1\ndiscount 0.9\n"
            "kernel 0 0 0 1.0\nkernel 0 0 0 1.0\n",
            "duplicate",
        ),
        (
            "states 1\nactions 1\nperiod 1\ndiscount 0.9\nkernel 0 0 1 1.0\n",
            "out of range",
        ),
        ("states 1\nactions 1\nperiod 1\ndiscount 0.9\nkernel 0 0 0 x\n", "bad number in row"),
        ("states 1\nactions 1\nperiod 1\ndiscount 0.9\ncost 0 0 0.5 1\n", "bad number in row"),
        ("states 1 2\n", "takes exactly one value"),
        ("states 1\ndiscount\n", "takes exactly one value"),
        ("states 1\ndiscount 0.x\n", "bad number '0.x'"),
    ],
)
def test_instance_format_errors_carry_line_numbers(tmp_path, text, fragment):
    path = tmp_path / "bad.mdp"
    path.write_text(text)
    with pytest.raises(InstanceFormatError, match=fragment) as exc_info:
        load_instance(path)
    assert "line" in str(exc_info.value)


def test_instance_missing_rows(tmp_path):
    path = tmp_path / "partial.mdp"
    path.write_text("states 1\nactions 1\nperiod 1\ndiscount 0.9\nkernel 0 0 0 1.0\n")
    with pytest.raises(InstanceFormatError, match="missing cost"):
        load_instance(path)


H1 = "states 2\nactions 1\nperiod 1\ndiscount 0.9\n"
ROWS1 = "kernel 0 0 0 0.5 0.5\ncost 0 0 0 1\nkernel 0 1 0 0.5 0.5\ncost 0 1 0 1\n"


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        # a value count error comes before a bad number, which comes
        # before a range error, which comes before a duplicate
        (H1 + "kernel 0 9 0 x\n", 5, "needs 5 values"),
        (H1 + "kernel 0 9 0 x 0.5\n", 5, "bad number in row"),
        (H1 + "kernel 0 0 0 0.5 0.5\nkernel 0 9 0 0.5 0.5\n", 6, "out of range"),
        (H1 + "cost 0 0 0 1\ncost 0 0 0 2\n", 6, r"duplicate cost row for \(0, 0, 0\) \(first at line 5\)"),
        # the count is checked before the kernel is allocated
        ("states 1e9\nactions 1\nperiod 1\ndiscount 0.9\nkernel 0 0 0 1\n", 5, "needs 1000000003 values"),
        # CRLF line ends count one line each
        (H1.replace("\n", "\r\n") + "\r\nkernel 0 0 0 0.5\r\n", 6, "needs 5 values"),
    ],
)
def test_instance_error_order_and_line_numbers(tmp_path, text, line_no, fragment):
    path = tmp_path / "bad.mdp"
    path.write_bytes(text.encode())
    with pytest.raises(InstanceFormatError, match=fragment) as exc_info:
        load_instance(path)
    assert exc_info.value.line_no == line_no


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("states 2\nactions 1\n", "missing dimension directive\\(s\\): period, discount"),
        (H1, r"missing kernel row for \(0, 0, 0\)"),
        (H1 + "cost 0 0 0 1\n", r"missing kernel row for \(0, 0, 0\)"),
        # (l, s, a) order: the first incomplete triple is reported, its
        # kernel row before its cost line
        (H1 + "kernel 0 0 0 0.5 0.5\nkernel 0 1 0 0.5 0.5\ncost 0 1 0 1\n",
         r"missing cost line for \(0, 0, 0\)"),
        (H1 + "kernel 0 0 0 0.5 0.5\ncost 0 0 0 1\ncost 0 1 0 1\n",
         r"missing kernel row for \(0, 1, 0\)"),
    ],
)
def test_instance_missing_directives_and_rows(tmp_path, text, fragment):
    path = tmp_path / "partial.mdp"
    path.write_text(text)
    with pytest.raises(InstanceFormatError, match=fragment) as exc_info:
        load_instance(path)
    # a fault of the whole file names the file, not a line
    assert exc_info.value.line_no is None
    assert str(exc_info.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "dims,line_no,value",
    [
        ("states 2.7\nactions 1\nperiod 1\n", 1, "2.7"),
        ("states -1\nactions 1\nperiod 1\n", 1, "-1"),
        ("states 2\nactions 1\nperiod 0\n", 3, "0"),
        ("states 2\nactions 0\nperiod 1\n", 2, "0"),
        ("states 2\nactions nan\nperiod 1\n", 2, "nan"),
    ],
    ids=["states 2.7", "states -1", "period 0", "actions 0", "actions nan"],
)
def test_instance_dimensions_are_positive_integers(tmp_path, dims, line_no, value):
    path = tmp_path / "dims.mdp"
    path.write_text(dims + "discount 0.9\n" + ROWS1)
    with pytest.raises(InstanceFormatError, match=f"must be an integer >= 1, got '{value}'") as exc_info:
        load_instance(path)
    assert exc_info.value.line_no == line_no


def test_instance_integral_float_dimension_is_accepted(tmp_path):
    path = tmp_path / "dims.mdp"
    path.write_text("states 2.0\nactions 1\nperiod 1\ndiscount 0.9\n" + ROWS1)
    assert load_instance(path).num_states == 2


def test_instance_dimensions_are_fixed_by_the_first_row(tmp_path):
    path = tmp_path / "dims.mdp"
    path.write_text(H1 + ROWS1 + "states 2\ndiscount 0.5\n")
    assert load_instance(path).discount == 0.5  # same value, or the discount: allowed
    path.write_text(H1 + "kernel 0 0 0 0.5 0.5\nactions 2\n")
    with pytest.raises(InstanceFormatError, match="'actions' changes") as exc_info:
        load_instance(path)
    assert exc_info.value.line_no == 6
