"""The batched and fused routes of an iteration equal their references bit for bit.

An iteration mixes its iterate and tracker in one batched ``apply``, and
every recorded consensus error comes from one centred reduction. A run
observes its states in chunks: it takes every column mean of a chunk from
two stacked reductions, every audit norm from one ``sqrt(vecdot)`` and every
suboptimality from two batched products. Each route is checked here against
the per-slice reference it replaces, over agent counts, dimensions, chunk
lengths and scales from 1e-8 to 1e8.
"""

from __future__ import annotations

import numpy as np
import pytest
from _one_thread import run_one_thread

from netgrad.algorithms import SsState, audit_identities, column_mean, state_means, vector_norm
from netgrad.diagnostics import (
    consensus_error,
    lyapunov_psi,
    lyapunov_psi_tilde,
    record_iteration,
    snapshot_gradient_distance,
)
from netgrad.objectives import global_suboptimality, make_quadratic_suite
from netgrad.topology import (
    MOMENTUM_ENVELOPE,
    AugmentedMixing,
    EdgeGossip,
    build_graph,
    lazify,
    metropolis_mixing,
)

SIZES = (1, 2, 3, 8, 16, 64, 256)
DIMS = (1, 2, 3, 5)
SCALES = (1e-8, 1.0, 1e8)
GAMMA = 0.37


def _operators(m: int, rng: np.random.Generator) -> list:
    """A mixing matrix, a gossip edge (for m > 1) and an augmented operator."""
    lazy = lazify(metropolis_mixing(build_graph("ring", m)))
    ops = [lazy, AugmentedMixing(base=lazy, gamma=GAMMA, theta_tilde=0.5)]
    if m > 1:
        i, j = sorted(rng.choice(m, size=2, replace=False).tolist())
        ops.append(EdgeGossip(i, j))
    return ops


def _augmented_reference(op: AugmentedMixing, x: np.ndarray) -> np.ndarray:
    """The two-product form of the augmented operator on one ``(2m, d)`` state."""
    m, w = op.m, op.base.entries
    top, bottom = x[:m], x[m:]
    return np.concatenate([(1.0 + op.gamma) * (w @ top) - op.gamma * (w @ bottom), top])


def batched_apply_mismatches(m: int, seed: int = 0) -> list[tuple]:
    """Cases where a batched ``apply`` differs from per-slice ones, for one ``m``."""
    rng = np.random.default_rng(seed)
    bad = []
    for op in _operators(m, rng):
        rows = 2 * m if isinstance(op, AugmentedMixing) else m
        for d in DIMS:
            for scale in SCALES:
                batch = scale * rng.standard_normal((2, 2, rows, d))
                mixed = op.apply(batch)
                for k in np.ndindex(2, 2):
                    alone = op.apply(batch[k])
                    if mixed[k].tobytes() != alone.tobytes():
                        bad.append((type(op).__name__, m, d, scale, k))
                    if isinstance(op, AugmentedMixing):
                        if alone.tobytes() != _augmented_reference(op, batch[k]).tobytes():
                            bad.append(("two-product form", m, d, scale, k))
                if op.apply(batch[0]).tobytes() != mixed[0].tobytes():
                    bad.append((type(op).__name__, m, d, scale, "one batch axis"))
    return bad


@pytest.mark.parametrize("m", SIZES)
def test_batched_apply_equals_per_slice_apply(m):
    assert batched_apply_mismatches(m) == []


def test_batched_apply_equals_per_slice_apply_at_1024_agents():
    # The bits of an m=1024 product depend on the BLAS thread count; the
    # claim is made at one OpenBLAS thread, which only a fresh process sets.
    script = "import test_fused_routes as t; print(t.batched_apply_mismatches(1024))"
    done = run_one_thread(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _state(m: int, d: int, blocks: int, scale: float, rng: np.random.Generator) -> SsState:
    xs = scale * rng.standard_normal((2, blocks * m, d))
    return SsState(
        xs=xs,
        q=scale * rng.standard_normal((m, d)),
        g_snap=scale * rng.standard_normal((m, d)),
        tau=0,
        t=1,
        last_eta=0.013,
        last_grad_mean=scale * rng.standard_normal(d),
    )


def _cases():
    for m in SIZES + (1024,):
        for d in DIMS:
            for blocks in (1, 2):
                for scale in SCALES:
                    yield m, d, blocks, scale


def test_stacked_means_equal_column_means():
    rng = np.random.default_rng(1)
    for m, d, blocks, scale in _cases():
        state = _state(m, d, blocks, scale, rng)
        expected = [column_mean(state.x), column_mean(state.s)]
        if blocks == 2:
            expected += [column_mean(state.x[:m]), column_mean(state.x[m:])]
            expected += [column_mean(state.s[:m]), column_mean(state.s[m:])]
        assert state_means(state).tobytes() == np.array(expected).tobytes(), (m, d, blocks, scale)


def test_vecdot_norms_equal_vector_norm():
    rng = np.random.default_rng(2)
    for d in DIMS:
        for scale in SCALES:
            rows = scale * rng.standard_normal((2000, d))
            fused = np.sqrt(np.vecdot(rows, rows)).tolist()
            assert fused == [vector_norm(v) for v in rows], (d, scale)


def _reference_audit(state: SsState, mean_before: np.ndarray | None) -> list[tuple[str, float, float]]:
    """The audit as separate column means and norms would compute it."""

    def pair(name, a, b):
        return name, vector_norm(a - b), max(vector_norm(a), vector_norm(b))

    m = state.g_snap.shape[0]
    checks = []
    if mean_before is not None:
        mean, eta, grad_mean = column_mean(state.x), state.last_eta, state.last_grad_mean
        err = vector_norm(mean - (mean_before - eta * grad_mean))
        scale = max(vector_norm(mean), vector_norm(mean_before), eta * vector_norm(grad_mean))
        checks.append(("mean_dynamics", err, scale))
    if state.blocks > 1:
        checks.append(pair("block_sum_x", column_mean(state.x[:m]), column_mean(state.x[m:])))
        checks.append(pair("block_sum_s", column_mean(state.s[:m]), column_mean(state.s[m:])))
    checks.append(pair("tracker_mean", column_mean(state.s), state.g_snap_mean))
    return checks


def test_fused_audit_equals_per_identity_norms():
    rng = np.random.default_rng(3)
    for m, d, blocks, scale in _cases():
        state = _state(m, d, blocks, scale, rng)
        before = scale * rng.standard_normal(d)
        assert audit_identities(state) == _reference_audit(state, None), (m, d, blocks, scale)
        expected = _reference_audit(state, before)
        assert audit_identities(state, state_means(state), before) == expected, (m, d, blocks, scale)


@pytest.mark.parametrize("m", (1, 2, 3, 8, 16, 64))
@pytest.mark.parametrize("d", DIMS)
def test_record_fields_equal_the_public_diagnostics(m, d):
    rng = np.random.default_rng(100 * m + d)
    problem = make_quadratic_suite(m, d, 0.5, 4.0, 1.0, rng)
    eta, theta = 0.013, 0.21
    for blocks in (1, 2):
        for scale in SCALES:
            state = _state(m, d, blocks, scale, rng)
            xbar = column_mean(state.x[:m])
            subopt = global_suboptimality(problem, xbar)
            record = record_iteration(state, problem, eta, theta, state_means(state), subopt)
            assert record.consensus_x == consensus_error(state.x, blocks)
            assert record.consensus_s == consensus_error(state.s, blocks)
            assert record.snap_grad_dist == snapshot_gradient_distance(problem, state.q)
            if blocks == 1:
                psi = lyapunov_psi(state, eta, theta, problem.L, problem)
            else:
                psi = lyapunov_psi_tilde(state, eta, theta, problem.L, MOMENTUM_ENVELOPE, problem)
            assert record.psi == psi
            # The record centres on the rows of state_means: the working
            # block's mean lands in mean_dist bit for bit.
            delta = xbar - problem.x_star
            assert record.mean_dist == float(delta @ delta)


CHUNKS = (1, 2, 64)


def _chunk(m: int, d: int, blocks: int, scale: float, count: int, rng: np.random.Generator) -> list[SsState]:
    return [_state(m, d, blocks, scale, rng) for _ in range(count)]


def _chunk_cases():
    for m in SIZES:
        for d in DIMS:
            for blocks in (1, 2):
                for scale in SCALES:
                    for count in CHUNKS:
                        yield m, d, blocks, scale, count


def test_chunk_means_equal_per_state_column_means():
    rng = np.random.default_rng(4)
    for m, d, blocks, scale, count in _chunk_cases():
        states = _chunk(m, d, blocks, scale, count, rng)
        means = state_means(states)
        assert means.shape[0] == count
        for state, row in zip(states, means):
            expected = [column_mean(state.x), column_mean(state.s)]
            if blocks == 2:
                expected += [column_mean(state.x[:m]), column_mean(state.x[m:])]
                expected += [column_mean(state.s[:m]), column_mean(state.s[m:])]
            assert row.tobytes() == np.array(expected).tobytes(), (m, d, blocks, scale, count)


def test_chunk_audit_equals_per_state_norms():
    rng = np.random.default_rng(5)
    for m, d, blocks, scale, count in _chunk_cases():
        states = _chunk(m, d, blocks, scale, count, rng)
        before = scale * rng.standard_normal(d)
        # Every state but the first steps from the previous state's mean.
        befores = [before] + [column_mean(state.x) for state in states[:-1]]
        expected = [_reference_audit(state, b) for state, b in zip(states, befores)]
        case = (m, d, blocks, scale, count)
        assert audit_identities(states, state_means(states), before) == expected, case
        # A run's start has no step to check.
        assert audit_identities(states) == [_reference_audit(states[0], None)] + expected[1:], case


def test_stacked_suboptimality_equals_the_per_point_form():
    rng = np.random.default_rng(6)
    for d in DIMS:
        problem = make_quadratic_suite(4, d, 0.5, 4.0, 1.0, rng)
        for scale in SCALES:
            for count in CHUNKS:
                points = problem.x_star + scale * rng.standard_normal((count, d))
                expected = []
                for v in points:
                    delta = v - problem.x_star
                    expected.append(0.5 * float(delta @ problem.qbar @ delta))
                assert global_suboptimality(problem, points) == expected, (d, scale, count)
                assert [global_suboptimality(problem, v) for v in points] == expected, (d, scale, count)
