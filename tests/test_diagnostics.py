from __future__ import annotations

import math
import sys
from decimal import Decimal, getcontext

import numpy as np
import pytest

from netgrad.algorithms import assdsgt_step, init_state, ssdsgt_step, state_means, theory_schedule
from netgrad.diagnostics import (
    CSV_COLUMNS,
    IterRecord,
    WeightedAverager,
    consensus_error,
    lyapunov_psi,
    lyapunov_psi_tilde,
    record_iteration,
    snapshot_gradient_distance,
)
from netgrad.objectives import (
    NoiseModel,
    QuadraticProblem,
    global_suboptimality,
    make_quadratic_suite,
)
from netgrad.streams import StreamBundle
from netgrad.topology import build_graph, chebyshev_augment, default_gamma, lazify, metropolis_mixing


def _toy_problem() -> QuadraticProblem:
    # two agents with identity curvature and no linear terms: x* = 0, f* = 0
    return QuadraticProblem(
        m=2,
        d=1,
        quads=np.array([[[1.0]], [[1.0]]]),
        linears=np.array([[0.0], [0.0]]),
        mu=1.0,
        L=1.0,
        sigma_bar=0.0,
        heterogeneity=0.0,
        noise=NoiseModel(0.0),
        qbar=np.array([[1.0]]),
        cbar=np.array([0.0]),
        x_star=np.array([0.0]),
        f_star=0.0,
    )


def test_csv_columns_are_frozen():
    assert CSV_COLUMNS == (
        "t",
        "eta",
        "zeta",
        "consensus_x",
        "consensus_s",
        "snap_grad_dist",
        "psi",
        "mean_dist",
        "subopt",
    )


def test_consensus_error_hand_value():
    assert consensus_error(np.array([[1.0], [-1.0]])) == 2.0


def test_consensus_error_matches_projector_route():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal((6, 3))
        projector = np.eye(6) - np.full((6, 6), 1.0 / 6.0)
        explicit = float(np.linalg.norm(projector @ x) ** 2)
        assert consensus_error(x) == pytest.approx(explicit, rel=1e-12, abs=1e-12)


def test_consensus_error_two_blocks_centers_each_half():
    top = np.array([[1.0], [3.0]])
    bottom = np.array([[10.0], [10.0]])
    stacked = np.vstack([top, bottom])
    assert consensus_error(stacked, blocks=2) == 2.0
    with pytest.raises(ValueError):
        consensus_error(np.zeros((3, 1)), blocks=2)
    with pytest.raises(ValueError):
        consensus_error(np.zeros((4, 1)), blocks=3)


def test_snapshot_gradient_distance_hand_value():
    problem = _toy_problem()
    assert snapshot_gradient_distance(problem, np.array([[1.0], [2.0]])) == 5.0


def test_lyapunov_psi_hand_assembly():
    problem = _toy_problem()
    state = init_state(problem, np.array([0.0]), "ssdsgt")
    state = state.__class__(
        xs=np.stack([np.array([[1.0], [3.0]]), np.array([[1.0], [3.0]])]),
        q=np.array([[1.0], [2.0]]),
        g_snap=state.g_snap,
        tau=0,
        t=0,
        last_eta=0.0,
        last_zeta=0,
        last_grads=state.last_grads,
    )
    eta, theta = 0.1, 0.5
    expected = 2.0 + (4.0 * eta**2 / theta**2) * 2.0 + (2.0 * eta / (1.0 * theta)) * 5.0
    assert lyapunov_psi(state, eta, theta, 1.0, problem) == pytest.approx(expected, rel=1e-14)


def test_lyapunov_psi_tilde_hand_assembly():
    problem = _toy_problem()
    state = init_state(problem, np.array([0.0]), "assdsgt")
    state = state.__class__(
        xs=np.stack([np.array([[1.0], [3.0], [0.0], [0.0]]), np.array([[2.0], [2.0], [1.0], [3.0]])]),
        q=np.array([[1.0], [2.0]]),
        g_snap=state.g_snap,
        tau=0,
        t=0,
        last_eta=0.0,
        last_zeta=0,
        last_grads=state.last_grads,
    )
    eta, tt, alpha = 0.1, 0.5, 14.0
    expected = 2.0 + (12.0 * alpha * eta**2 / tt**2) * 2.0 + (16.0 * (1.0 + 8.0 * alpha) * eta**2 / tt**2) * 5.0
    assert lyapunov_psi_tilde(state, eta, tt, 1.0, alpha, problem) == pytest.approx(expected, rel=1e-14)


def test_iter_record_validates_fields():
    good = dict(
        t=3,
        eta=0.1,
        zeta=1,
        consensus_x=0.0,
        consensus_s=0.0,
        snap_grad_dist=0.0,
        psi=0.0,
        mean_dist=0.0,
        subopt=0.0,
        wavg_subopt=0.0,
    )
    IterRecord(**good)
    with pytest.raises(ValueError):
        IterRecord(**{**good, "consensus_x": -1.0})
    with pytest.raises(ValueError):
        IterRecord(**{**good, "zeta": 2})
    with pytest.raises(ValueError):
        IterRecord(**{**good, "subopt": -1.0})


@pytest.mark.parametrize(
    "field, value",
    [
        ("consensus_x", float("nan")),
        ("psi", float("inf")),
        ("mean_dist", float("nan")),
        ("eta", float("inf")),
        ("subopt", float("nan")),
        ("subopt", float("inf")),
        ("wavg_subopt", float("nan")),
    ],
)
def test_iter_record_rejects_non_finite_fields(field, value):
    good = dict(
        t=3, eta=0.1, zeta=0, consensus_x=0.0, consensus_s=0.0, snap_grad_dist=0.0,
        psi=0.0, mean_dist=0.0, subopt=0.0, wavg_subopt=0.0,
    )
    with pytest.raises(ValueError):
        IterRecord(**{**good, field: value})


def test_record_iteration_recomputes_from_state():
    rng = np.random.default_rng(3)
    problem = make_quadratic_suite(4, 2, 0.5, 4.0, 1.0, rng, sigma_bar=1.0)
    w = metropolis_mixing(build_graph("ring", 4))
    sched = theory_schedule("ssdsgt", "constant", w.theta, problem.L, problem.mu)
    streams = StreamBundle.from_seed(21, 4)
    state = init_state(problem, np.zeros(2), "ssdsgt", streams)
    for _ in range(5):
        state = ssdsgt_step(state, problem, w, sched, streams)
    xbar = state.x.mean(axis=0)
    subopt = global_suboptimality(problem, xbar)
    record = record_iteration(state, problem, state.last_eta, sched.theta, state_means([state])[0], subopt)
    assert record.t == state.t
    assert record.zeta == state.last_zeta
    assert record.consensus_x == pytest.approx(consensus_error(state.x), rel=1e-14)
    assert record.mean_dist == pytest.approx(float(np.sum((xbar - problem.x_star) ** 2)), rel=1e-14)
    assert record.psi == pytest.approx(
        lyapunov_psi(state, state.last_eta, sched.theta, problem.L, problem), rel=1e-14
    )


def test_averager_constant_values_average_to_the_constant():
    avg = WeightedAverager(mu=0.5)
    for t in range(50):
        avg.push([0.1 / (1.0 + t)], [3.25])
    assert avg.average == pytest.approx(3.25, rel=1e-12)
    assert avg.count == 50


def test_averager_zero_values_have_zero_average():
    avg = WeightedAverager(mu=1.0)
    for _ in range(10):
        avg.push([0.05], [0.0])
    assert avg.average == 0.0


def test_averager_single_push_returns_the_value():
    avg = WeightedAverager(mu=2.0)
    avg.push([0.2], [7.5])
    assert avg.average == pytest.approx(7.5, rel=1e-15)


def test_averager_matches_extended_precision_reference():
    getcontext().prec = 50
    mu = Decimal("0.5")
    sched = theory_schedule("ssdsgt", "decaying", 2.0 / 3.0, 4.0, 0.5)
    from netgrad.algorithms import step_size

    etas = [step_size(sched, t) for t in range(20)]
    values = [1.0 / (1.0 + 0.37 * t) ** 2 for t in range(20)]

    running = Decimal(0)
    num = Decimal(0)
    den = Decimal(0)
    for eta, value in zip(etas, values):
        e = Decimal(repr(eta))
        running += e
        weight = (e / Decimal(repr(etas[0]))) * (mu / 2 * running).exp()
        num += weight * Decimal(repr(value))
        den += weight
    reference = float(num / den)

    avg = WeightedAverager(mu=0.5)
    for eta, value in zip(etas, values):
        avg.push([eta], [value])
    assert avg.average == pytest.approx(reference, rel=1e-10)


def test_averager_rejects_bad_inputs():
    with pytest.raises(ValueError):
        WeightedAverager(mu=-1.0)
    avg = WeightedAverager(mu=1.0)
    with pytest.raises(ValueError):
        avg.push([0.0], [1.0])


def test_averager_survives_weight_overflow():
    # raw weights overflow float range long before 4000 pushes at this mu
    avg = WeightedAverager(mu=10.0)
    for _ in range(4000):
        avg.push([0.5], [1.5])
    assert avg.average == pytest.approx(1.5, rel=1e-9)


def test_a_segment_push_equals_one_pair_at_a_time():
    # Constant and decaying steps, values at or below zero, and (mu = 10)
    # log weights far past the float range: one segment, random segments
    # and one-pair segments leave the same bits.
    rng = np.random.default_rng(12)
    count = 600
    steps = {
        "constant": [0.05] * count,
        "decaying": [2.0 / (1.0 + 0.01 * t) for t in range(count)],
    }
    for mu in (0.5, 10.0):
        for etas in steps.values():
            values = (10.0 ** rng.uniform(-12.0, 3.0, count)).tolist()
            for i in rng.choice(count, 60, replace=False).tolist():
                values[i] = [0.0, -0.0, -1e-13][i % 3]
            single = WeightedAverager(mu=mu)
            for eta, value in zip(etas, values):
                single.push([eta], [value])
            whole = WeightedAverager(mu=mu)
            whole.push(etas, values)
            pieces = WeightedAverager(mu=mu)
            cuts = [0, *sorted(rng.choice(np.arange(1, count), 20, replace=False).tolist()), count]
            for lo, hi in zip(cuts, cuts[1:]):
                pieces.push(etas[lo:hi], values[lo:hi])
            assert repr(vars(whole)) == repr(vars(single)) == repr(vars(pieces))
            assert repr(whole.average) == repr(single.average) == repr(pieces.average)
        if mu == 10.0:
            assert single._log_w > math.log(sys.float_info.max)


def test_a_segment_keeps_the_pairs_before_a_bad_step():
    folded = WeightedAverager(mu=1.0)
    with pytest.raises(ValueError):
        folded.push([0.1, 0.2, 0.0, 0.3], [1.0, 2.0, 3.0, 4.0])
    expected = WeightedAverager(mu=1.0)
    expected.push([0.1, 0.2], [1.0, 2.0])
    assert repr(vars(folded)) == repr(vars(expected))


def test_record_iteration_psi_equals_the_public_lyapunov_values_exactly():
    rng = np.random.default_rng(5)
    problem = make_quadratic_suite(6, 2, 0.5, 4.0, 1.0, rng, sigma_bar=1.0)
    w = lazify(metropolis_mixing(build_graph("ring", 6)))
    aug = chebyshev_augment(w, default_gamma(w.lambda2))
    for algo, op, step, theta in (
        ("ssdsgt", w, ssdsgt_step, w.theta),
        ("assdsgt", aug, assdsgt_step, aug.theta_tilde),
    ):
        sched = theory_schedule(algo, "constant", theta, problem.L, problem.mu)
        streams = StreamBundle.from_seed(8, 6)
        state = init_state(problem, np.zeros(2), algo, streams)
        for _ in range(7):
            state = step(state, problem, op, sched, streams)
        eta = state.last_eta
        subopt = global_suboptimality(problem, state.x[: problem.m].mean(axis=0))
        record = record_iteration(state, problem, eta, theta, state_means([state])[0], subopt)
        if algo == "ssdsgt":
            expected = lyapunov_psi(state, eta, theta, problem.L, problem)
        else:
            expected = lyapunov_psi_tilde(state, eta, theta, problem.L, 14.0, problem)
        assert record.psi == expected
        assert record.consensus_x == consensus_error(state.x, state.blocks)
        assert record.snap_grad_dist == snapshot_gradient_distance(problem, state.q)
