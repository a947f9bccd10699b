import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodet import (
    PeriodicMdp,
    StageValues,
    apply_cycle_operator,
    apply_stage_operator,
    evaluate_policy,
    extract_periodic_policy,
    finite_horizon_oracle,
    fixed_point_residual,
    load_instance,
    policy_iterate,
    simulate_policy,
    value_iterate,
)
from periodet.periodic_mdp import InstanceFormatError, dump_instance

from conftest import random_mdp


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


def exact_periodic_policy_value(mdp, stage_maps):
    """Stage-entry values of a fixed periodic policy by linear solve."""
    T, S = mdp.period, mdp.num_states
    idx = lambda l, s: l * S + s
    A = np.eye(T * S)
    b = np.zeros(T * S)
    for l in range(T):
        for s in range(S):
            a = stage_maps[l][s]
            b[idx(l, s)] = mdp.costs[l, s, a]
            for s2 in range(S):
                A[idx(l, s), idx((l + 1) % T, s2)] -= mdp.discount * mdp.transitions[l, s, a, s2]
    return np.linalg.solve(A, b).reshape(T, S)


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


def hand_stage0_q(values):
    """Stage-0 Q-table of the hand instance against ``values``: the cycle
    of its one-stage slice, whose only stage reads ``values``."""
    stage0 = PeriodicMdp(transitions=HAND_P[:1], costs=HAND_C[:1], discount=0.5)
    q, _ = apply_cycle_operator(values, stage0)
    return q[0]


def test_mdp_validation():
    with pytest.raises(ValueError, match="row"):
        PeriodicMdp(transitions=HAND_P * 0.9, costs=HAND_C, discount=0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        PeriodicMdp(transitions=HAND_P, costs=-HAND_C, discount=0.5)
    with pytest.raises(ValueError, match="finite"):
        PeriodicMdp(transitions=HAND_P, costs=np.where(HAND_C > 0, np.nan, HAND_C), discount=0.5)
    with pytest.raises(ValueError, match="discount"):
        PeriodicMdp(transitions=HAND_P, costs=HAND_C, discount=1.5)


def test_mdp_rejects_nan_transition():
    P = np.array(HAND_P, dtype=float)
    P[0, 0, 0, 1] = np.nan  # the row sum is NaN, which no "> tol" test catches
    with pytest.raises(ValueError, match="row"):
        PeriodicMdp(transitions=P, costs=HAND_C, discount=0.5)


def test_row_sum_error_names_plain_numbers():
    P = np.array([[[[0.5, 0.6]], [[0.0, 1.0]]]])
    with pytest.raises(ValueError) as exc:
        PeriodicMdp(transitions=P, costs=np.zeros((1, 2, 1)), discount=0.5)
    assert str(exc.value) == "transition row (0, 0, 0) sums to 1.1"


# ── stage and cycle operators ──────────────────────────────────────────


def test_stage_operator_zero_costs_zero_values():
    mdp = PeriodicMdp(transitions=HAND_P, costs=np.zeros_like(HAND_C), discount=0.9)
    out = apply_stage_operator(np.zeros(2), mdp, 0)
    np.testing.assert_array_equal(out, 0.0)


def test_stage_operator_myopic_minimum():
    P = np.ones((1, 1, 2, 1))
    c = np.array([[[3.0, 5.0]]])
    mdp = PeriodicMdp(transitions=P, costs=c, discount=0.0)
    assert apply_stage_operator(np.array([42.0]), mdp, 0)[0] == 3.0


def test_stage_operator_hand_value():
    # stage 0, V = (1, 2), alpha = 0.5:
    #   state 0: a0: 1 + .5*(.75*1+.25*2) = 1.625 ; a1: 2 + .5*(.5+1) = 2.75
    #   state 1: a0: 0 + .5*1 = 0.5        ; a1: 3 + .5*(.25+1.5) = 3.875
    out = apply_stage_operator(np.array([1.0, 2.0]), hand_mdp(), 0)
    np.testing.assert_allclose(out, [1.625, 0.5], atol=1e-15)


def test_policy_operator_greedy_matches_stage_operator():
    mdp = hand_mdp()
    v = np.array([1.0, 2.0])
    greedy = np.array([0, 0])
    np.testing.assert_allclose(
        hand_stage0_q(v)[np.arange(2), greedy], apply_stage_operator(v, mdp, 0)
    )


def test_policy_operator_dominates_stage_operator():
    rng = np.random.default_rng(0)
    for _ in range(25):
        mdp = random_mdp(rng, 4, 3, 2, 0.9)
        v = rng.random(4) * 5
        base = apply_stage_operator(v, mdp, 1)
        q, _ = apply_cycle_operator(v, mdp)  # the last stage, 1, reads v
        for _ in range(4):
            mu = rng.integers(0, 3, size=4)
            assert np.all(q[1][np.arange(4), mu] >= base - 1e-12)


def test_policy_operator_hand_value():
    out = hand_stage0_q(np.array([1.0, 2.0]))[np.arange(2), np.array([1, 1])]
    np.testing.assert_allclose(out, [2.75, 3.875], atol=1e-15)


def test_cycle_operator_degenerate_period():
    rng = np.random.default_rng(1)
    mdp = random_mdp(rng, 3, 2, 1, 0.8)
    v = rng.random(3)
    q, entries = apply_cycle_operator(v, mdp)
    np.testing.assert_allclose(entries[0], apply_stage_operator(v, mdp, 0))
    assert q.shape == (1, 3, 2) and entries.shape == (1, 3)


def test_cycle_operator_zero_costs():
    mdp = PeriodicMdp(transitions=HAND_P, costs=np.zeros_like(HAND_C), discount=1.0)
    q, entries = apply_cycle_operator(np.zeros(2), mdp)
    np.testing.assert_array_equal(q, 0.0)
    np.testing.assert_array_equal(entries, 0.0)


def test_cycle_operator_is_composition_of_hand_sweeps():
    mdp = hand_mdp()
    v = np.array([1.0, 2.0])
    inner = apply_stage_operator(v, mdp, 1)
    outer = apply_stage_operator(inner, mdp, 0)
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


def test_value_iterate_residual_and_oracle_bound():
    rng = np.random.default_rng(7)
    mdp = random_mdp(rng, 5, 3, 2, 0.9)
    values = value_iterate(mdp, tol=1e-10)
    assert values.converged
    assert fixed_point_residual(values, mdp) <= 1e-10
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
        exact = evaluate_policy(mdp, extract_periodic_policy(optimal, mdp).actions)
        assert np.max(np.abs(values.values[0] - exact[0])) <= 1e-8


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
        expect = apply_stage_operator(expect, mdp, l)
        np.testing.assert_allclose(values.values[l], expect, atol=1e-9)


def test_fixed_point_residual_nonzero_for_zero_guess():
    mdp = hand_mdp()
    fake = StageValues(
        values=np.zeros((2, 2)),
        converged=True,
        cycles=0,
        sup_history=np.array([]),
        l2_history=np.array([]),
    )
    assert fixed_point_residual(fake, mdp) > 0


def test_fixed_point_residual_closed_form_one_state():
    # single state/action: V = c / (1 - alpha) solves the cycle equation
    P = np.ones((1, 1, 1, 1))
    c = np.array([[[2.0]]])
    mdp = PeriodicMdp(transitions=P, costs=c, discount=0.5)
    exact = StageValues(
        values=np.array([[4.0]]),
        converged=True,
        cycles=0,
        sup_history=np.array([]),
        l2_history=np.array([]),
    )
    assert fixed_point_residual(exact, mdp) <= 1e-12


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


def test_evaluate_policy_rejects_bad_actions():
    with pytest.raises(ValueError, match="shape"):
        evaluate_policy(hand_mdp(), np.zeros((1, 2), dtype=int))
    with pytest.raises(ValueError, match="lie in"):
        evaluate_policy(hand_mdp(), np.full((2, 2), 2))


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
        assert fixed_point_residual(values, mdp) <= 1e-12
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


# ── policy extraction ──────────────────────────────────────────────────


def test_extraction_reduces_to_classical_greedy_at_period_one():
    rng = np.random.default_rng(21)
    mdp = random_mdp(rng, 5, 3, 1, 0.9)
    values = value_iterate(mdp, tol=1e-12)
    oracle = classical_value_iteration(mdp.transitions[0], mdp.costs[0], 0.9)
    np.testing.assert_allclose(values.values[0], oracle, atol=1e-9)
    policy = extract_periodic_policy(values, mdp)
    greedy = np.argmin(mdp.costs[0] + 0.9 * (mdp.transitions[0] @ oracle), axis=1)
    np.testing.assert_array_equal(policy.actions[0], greedy)


def test_extraction_witness_instance_with_stagewise_maps():
    # one state, two actions; cheap action flips between stages
    P = np.ones((2, 1, 2, 1))
    c = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
    mdp = PeriodicMdp(transitions=P, costs=c, discount=0.5)
    policy = extract_periodic_policy(value_iterate(mdp, tol=1e-12), mdp)
    assert policy.actions[0, 0] == 0
    assert policy.actions[1, 0] == 1


def test_extracted_policy_achieves_optimal_value():
    rng = np.random.default_rng(31)
    for _ in range(10):
        mdp = random_mdp(rng, 4, 3, 2, 0.9)
        values = value_iterate(mdp, tol=1e-12)
        policy = extract_periodic_policy(values, mdp)
        achieved = exact_periodic_policy_value(mdp, policy.actions)
        np.testing.assert_allclose(achieved[0], values.values[0], atol=1e-8)


def test_tie_break_prefers_lowest_action():
    P = np.ones((1, 1, 2, 1))
    c = np.array([[[3.0, 3.0]]])
    mdp = PeriodicMdp(transitions=P, costs=c, discount=0.0)
    policy = extract_periodic_policy(value_iterate(mdp), mdp)
    assert policy.actions[0, 0] == 0


# ── rollout estimator ──────────────────────────────────────────────────


def test_simulate_policy_deterministic_and_unbiased():
    rng = np.random.default_rng(5)
    mdp = random_mdp(rng, 3, 2, 2, 0.9)
    values = value_iterate(mdp, tol=1e-12)
    policy = extract_periodic_policy(values, mdp)
    mean1, se1 = simulate_policy(mdp, policy.actions, 4000, 150, seed=99)
    mean2, _ = simulate_policy(mdp, policy.actions, 4000, 150, seed=99)
    assert mean1 == mean2
    exact = exact_periodic_policy_value(mdp, policy.actions)[0, 0]
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


@pytest.mark.parametrize("period", [1, 3])
@pytest.mark.parametrize("sparse", [False, True])
def test_simulate_policy_matches_reference_sampler(period, sparse):
    rng = np.random.default_rng(61 + period + 10 * sparse)
    for n_states in (1, 2, 7, 40):
        make = sparse_mdp if sparse else random_mdp
        mdp = make(rng, n_states, 3, period, 0.97)
        actions = rng.integers(3, size=(period, n_states))
        for seed in (1, 2):
            got = simulate_policy(mdp, actions, 300, 90, seed=seed)
            assert got == reference_simulate_policy(mdp, actions, 300, 90, seed)


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
    assert exc_info.value.line_no == 0


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
