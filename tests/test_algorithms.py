from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgrad.algorithms import (
    MOMENTUM_CONSTANT_DIVISOR,
    SNAPSHOT_CONSTANT_DIVISOR,
    SNAPSHOT_DECAY_DIVISOR,
    Schedule,
    assdsgt_step,
    audit_identities,
    column_mean,
    dsgt_step,
    init_state,
    ssdsgt_step,
    state_means,
    step_size,
    theory_schedule,
)
from netgrad.objectives import make_quadratic_suite
from netgrad.streams import StreamBundle
from netgrad.topology import build_graph, chebyshev_augment, default_gamma, lazify, metropolis_mixing


def _problem(m=8, d=2, mu=0.5, L=4.0, heterogeneity=1.0, seed=7, sigma_bar=0.0):
    rng = np.random.default_rng(seed)
    return make_quadratic_suite(m, d, mu, L, heterogeneity, rng, sigma_bar=sigma_bar)


def _mixing(m=8):
    return metropolis_mixing(build_graph("ring", m))


def test_theory_schedule_constant_steps():
    sched = theory_schedule("ssdsgt", "constant", 0.5, 2.0, 1.0)
    assert sched.eta0 == 0.5 / (SNAPSHOT_CONSTANT_DIVISOR * 2.0)
    assert sched.p == 0.5
    momentum = theory_schedule("assdsgt", "constant", 0.5, 2.0, 1.0)
    assert momentum.eta0 == 0.5 / (MOMENTUM_CONSTANT_DIVISOR * 2.0)
    baseline = theory_schedule("dsgt", "constant", 0.5, 2.0, 1.0)
    assert baseline.eta0 == 0.25 / (SNAPSHOT_CONSTANT_DIVISOR * 2.0)
    assert baseline.p == 0.0


def test_theory_schedule_multiplier_scales_step():
    plain = theory_schedule("ssdsgt", "constant", 0.5, 2.0, 1.0)
    boosted = theory_schedule("ssdsgt", "constant", 0.5, 2.0, 1.0, multiplier=8.0)
    assert boosted.eta0 == 8.0 * plain.eta0


def test_decaying_schedule_frozen_values():
    sched = theory_schedule("ssdsgt", "decaying", 2.0 / 3.0, 4.0, 0.5)
    assert sched.beta == pytest.approx(1.0 / 1728.0, rel=1e-15)
    assert sched.beta == pytest.approx(0.0005787037037037037, rel=1e-15)
    assert step_size(sched, 100) == pytest.approx(0.0008618213157138753, rel=1e-15)
    assert sched.p == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_decaying_schedule_uses_snapshot_decay_divisor():
    theta = 0.37
    sched = theory_schedule("ssdsgt", "decaying", theta, 2.0, 1.0)
    assert sched.beta == pytest.approx(theta / SNAPSHOT_DECAY_DIVISOR, rel=1e-15)
    assert step_size(sched, 0) == pytest.approx(6.0 * sched.beta / sched.L, rel=1e-15)


def test_step_size_constant_mode_ignores_time():
    sched = theory_schedule("ssdsgt", "constant", 0.5, 2.0, 1.0)
    assert step_size(sched, 0) == sched.eta0
    assert step_size(sched, 10**7) == sched.eta0


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(1e-4, 1.0),
    mu=st.floats(1e-3, 5.0),
    ratio=st.floats(1.0, 100.0),
    t=st.integers(0, 10**6),
)
def test_decaying_step_is_positive_bounded_and_shrinking(theta, mu, ratio, t):
    sched = theory_schedule("ssdsgt", "decaying", theta, mu * ratio, mu)
    now = step_size(sched, t)
    assert 0.0 < now <= 6.0 * sched.beta / sched.L
    assert step_size(sched, t + 1) < now


@pytest.mark.parametrize("algo, mode", [("sgd", "constant"), ("ssdsgt", "sometimes")])
def test_theory_schedule_rejects_unknown_names(algo, mode):
    with pytest.raises(ValueError):
        theory_schedule(algo, mode, 0.5, 2.0, 1.0)


def test_single_agent_always_refresh_is_plain_sgd():
    problem = _problem(m=1, d=3, mu=1.0, L=2.0, heterogeneity=0.0, sigma_bar=1.0)
    w = metropolis_mixing(build_graph("complete", 1))
    sched = Schedule(algo="ssdsgt", mode="constant", p=1.0, L=2.0, mu=1.0, theta=1.0, eta0=0.05)
    streams = StreamBundle.from_seed(42, 1)
    x0 = np.zeros(3)
    state = init_state(problem, x0, "ssdsgt", streams)

    twin_streams = StreamBundle.from_seed(42, 1)
    from netgrad.objectives import stochastic_gradients

    stochastic_gradients(problem, x0[None, :], twin_streams.agents)
    twin = x0.copy()
    for _ in range(50):
        state = ssdsgt_step(state, problem, w, sched, streams)
        grad = stochastic_gradients(problem, twin[None, :], twin_streams.agents)[0]
        twin = twin - sched.eta0 * grad
        assert np.linalg.norm(state.x[0] - twin) <= 1e-12 * max(1.0, np.linalg.norm(twin))


def test_consensus_start_on_complete_graph_is_centralized_descent():
    problem = _problem(m=4, d=2, sigma_bar=0.0)
    w = metropolis_mixing(build_graph("complete", 4))
    sched = Schedule(algo="ssdsgt", mode="constant", p=1.0, L=4.0, mu=0.5, theta=1.0, eta0=0.01)
    streams = StreamBundle.from_seed(3, 4)
    x0 = np.array([0.7, -1.1])
    state = init_state(problem, x0, "ssdsgt", streams)

    center = x0.copy()
    for _ in range(40):
        state = ssdsgt_step(state, problem, w, sched, streams)
        center = center - sched.eta0 * (problem.qbar @ center + problem.cbar)
        assert np.abs(state.x - center).max() <= 1e-12 * max(1.0, np.linalg.norm(center))


def _max_audit_ratio(state) -> float:
    # Identities that do not apply have a zero error, so a zero ratio.
    errors, scales = audit_identities([state], state_means([state]))
    return float(np.max(errors / np.maximum(scales, 1e-300)))


def test_snapshot_tracker_identity_holds_over_noisy_run():
    problem = _problem(sigma_bar=1.0)
    w = _mixing(8)
    sched = theory_schedule("ssdsgt", "constant", w.theta, problem.L, problem.mu)
    streams = StreamBundle.from_seed(11, 8)
    state = init_state(problem, np.zeros(2), "ssdsgt", streams)
    worst = _max_audit_ratio(state)
    for _ in range(1000):
        state = ssdsgt_step(state, problem, w, sched, streams)
        worst = max(worst, _max_audit_ratio(state))
    assert worst <= 1e-9


def test_momentum_block_identities_hold_over_noisy_run():
    problem = _problem(m=6, sigma_bar=1.0)
    lazy = lazify(_mixing(6))
    aug = chebyshev_augment(lazy, default_gamma(lazy.lambda2))
    sched = theory_schedule("assdsgt", "constant", aug.theta_tilde, problem.L, problem.mu)
    streams = StreamBundle.from_seed(13, 6)
    state = init_state(problem, np.zeros(2), "assdsgt", streams)
    worst = _max_audit_ratio(state)
    for _ in range(500):
        state = assdsgt_step(state, problem, aug, sched, streams)
        worst = max(worst, _max_audit_ratio(state))
    assert worst <= 1e-9
    # A lone state audits the block sums and the tracker mean (columns 1 to
    # 3, each against a nonzero scale) but has no step for the mean dynamics.
    errors, scales = audit_identities([state], state_means([state]))
    assert errors[0, 0] == scales[0, 0] == 0.0
    assert (scales[0, 1:] > 0.0).all()


def test_audit_reuses_a_given_working_block_mean():
    problem = _problem(m=6, sigma_bar=1.0)
    lazy = lazify(_mixing(6))
    aug = chebyshev_augment(lazy, default_gamma(lazy.lambda2))
    sched = theory_schedule("assdsgt", "constant", aug.theta_tilde, problem.L, problem.mu)
    streams = StreamBundle.from_seed(13, 6)
    state = init_state(problem, np.zeros(2), "assdsgt", streams)
    for _ in range(20):
        state = assdsgt_step(state, problem, aug, sched, streams)
    means = state_means([state])
    assert means[0, 2].tobytes() == state.x[:6].mean(axis=0).tobytes()
    means[0, 2] += 1.0  # the working-block mean
    errors, _ = audit_identities([state], means)
    assert errors[0, 1] > 1.0  # block_sum_x


def test_column_mean_equals_ndarray_mean_bit_for_bit():
    rng = np.random.default_rng(41)
    for m in (1, 2, 3, 7, 16, 33, 256, 1024):
        for d in (1, 2, 3):
            for scale in (1e-8, 1.0, 1e8):
                a = scale * rng.standard_normal((m, d))
                half = a[: (m + 1) // 2]
                assert column_mean(a).tobytes() == a.mean(axis=0).tobytes()
                assert column_mean(half).tobytes() == half.mean(axis=0).tobytes()


def test_baseline_tracker_mean_follows_last_gradients():
    problem = _problem(sigma_bar=1.0)
    w = _mixing(8)
    sched = theory_schedule("dsgt", "constant", w.theta, problem.L, problem.mu)
    streams = StreamBundle.from_seed(17, 8)
    state = init_state(problem, np.zeros(2), "dsgt", streams)
    for _ in range(200):
        state = dsgt_step(state, problem, w, sched, streams)
        assert _max_audit_ratio(state) <= 1e-9
        assert np.allclose(state.s.mean(axis=0), state.g_snap.mean(axis=0), atol=1e-12)
        # the snapshot is re-taken at every iterate
        assert state.q is state.x and state.tau == state.t


def test_zero_momentum_step_equals_snapshot_step_bitwise():
    problem = _problem(m=6, sigma_bar=1.0)
    lazy = lazify(_mixing(6))
    aug = chebyshev_augment(lazy, 0.0)
    sched = Schedule(
        algo="ssdsgt", mode="constant", p=0.3, L=problem.L, mu=problem.mu, theta=0.4, eta0=0.003
    )
    ss_streams = StreamBundle.from_seed(29, 6)
    aug_streams = StreamBundle.from_seed(29, 6)
    x0 = np.array([1.5, -0.5])
    ss_state = init_state(problem, x0, "ssdsgt", ss_streams)
    aug_state = init_state(problem, x0, "assdsgt", aug_streams)
    for _ in range(60):
        ss_state = ssdsgt_step(ss_state, problem, lazy, sched, ss_streams)
        aug_state = assdsgt_step(aug_state, problem, aug, sched, aug_streams)
        assert np.array_equal(aug_state.x_aug[:6], ss_state.x)
        assert np.array_equal(aug_state.s_aug[:6], ss_state.s)
        assert np.array_equal(aug_state.g_snap, ss_state.g_snap)
        assert aug_state.tau == ss_state.tau


def test_never_refresh_keeps_snapshot_frozen():
    problem = _problem(sigma_bar=1.0)
    w = _mixing(8)
    sched = Schedule(
        algo="ssdsgt", mode="constant", p=0.0, L=problem.L, mu=problem.mu, theta=0.5, eta0=0.001
    )
    streams = StreamBundle.from_seed(5, 8)
    state = init_state(problem, np.zeros(2), "ssdsgt", streams)
    frozen = state.g_snap.copy()
    for _ in range(25):
        state = ssdsgt_step(state, problem, w, sched, streams)
        assert state.tau == 0
        assert state.last_zeta == 0
        assert np.array_equal(state.g_snap, frozen)


def test_always_refresh_advances_snapshot_clock():
    problem = _problem(sigma_bar=1.0)
    w = _mixing(8)
    sched = Schedule(
        algo="ssdsgt", mode="constant", p=1.0, L=problem.L, mu=problem.mu, theta=0.5, eta0=0.001
    )
    streams = StreamBundle.from_seed(5, 8)
    state = init_state(problem, np.zeros(2), "ssdsgt", streams)
    for _ in range(25):
        previous_x = state.x.copy()
        state = ssdsgt_step(state, problem, w, sched, streams)
        assert state.last_zeta == 1
        assert state.tau == state.t - 1
        assert np.array_equal(state.q, previous_x)


def test_noisy_runs_are_bitwise_reproducible():
    problem = _problem(sigma_bar=1.0)
    w = _mixing(8)
    sched = theory_schedule("ssdsgt", "constant", w.theta, problem.L, problem.mu)

    def final_state():
        streams = StreamBundle.from_seed(99, 8)
        state = init_state(problem, np.zeros(2), "ssdsgt", streams)
        for _ in range(30):
            state = ssdsgt_step(state, problem, w, sched, streams)
        return state

    a, b = final_state(), final_state()
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.g_snap, b.g_snap)


def test_init_state_duplicates_momentum_blocks():
    problem = _problem(m=6)
    streams = StreamBundle.from_seed(1, 6)
    state = init_state(problem, np.array([0.2, 0.4]), "assdsgt", streams)
    assert np.array_equal(state.x_aug[:6], state.x_aug[6:])
    assert np.array_equal(state.s_aug[:6], state.s_aug[6:])


@pytest.mark.parametrize(
    "sigma_bar, digest",
    [
        (0.0, "8cc33663d76edac25a63dfe1326bdb9334000c5601fb44a49fea6131136ce163"),
        (1.0, "5b6bfbeb163d88f2259e64d16a8eba287887820b39044ebff22c5d885b57d801"),
    ],
)
def test_init_state_dsgt_frozen_start(sigma_bar, digest):
    # sha256 of x and s as the separate plain-tracking state type built them
    problem = _problem(sigma_bar=sigma_bar)
    state = init_state(problem, np.array([1.5, -0.5]), "dsgt", StreamBundle.from_seed(17, 8))
    assert state.x.shape == state.s.shape == (8, 2)
    assert hashlib.sha256(state.x.tobytes() + state.s.tobytes()).hexdigest() == digest
    assert np.array_equal(state.q, state.x) and state.g_snap.tobytes() == state.s.tobytes()


def test_init_state_needs_streams_for_noisy_problems():
    problem = _problem(sigma_bar=1.0)
    with pytest.raises(ValueError):
        init_state(problem, np.zeros(2), "ssdsgt", None)


def test_init_state_rejects_unknown_algorithm():
    problem = _problem()
    with pytest.raises(ValueError):
        init_state(problem, np.zeros(2), "admm", StreamBundle.from_seed(0, 8))
