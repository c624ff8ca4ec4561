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

import inspect
import math

import numpy as np
import numpy._core.einsumfunc as einsumfunc
import pytest
from _one_thread import run_one_thread
from _reference import column_mean, consensus_error, lyapunov_psi, lyapunov_psi_tilde, vector_norm

from netgrad.algorithms import (
    SsState,
    _rows_first,
    _sampled_gradients,
    audit_identities,
    c_einsum,
    state_means,
)
from netgrad.diagnostics import record_iteration, snapshot_gradient_distance
from netgrad.errors import InvariantViolation
from netgrad.harness import _AUDITED, AUDIT_ABORT_TOL, _AuditTracker
from netgrad.objectives import exact_gradients, global_suboptimality, make_quadratic_suite
from netgrad.topology import (
    MOMENTUM_ENVELOPE,
    AugmentedMixing,
    AugmentedWorkspace,
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
    ops = [lazy, AugmentedMixing(base=lazy, gamma=GAMMA)]
    if m > 1:
        i, j = sorted(rng.choice(m, size=2, replace=False).tolist())
        ops.append(EdgeGossip(i, j))
    return ops


def _augmented_reference(op: AugmentedMixing, x: np.ndarray) -> np.ndarray:
    """The two-product form of the augmented operator on one ``(2m, d)`` state."""
    m, w = op.m, op.base.entries
    top, bottom = x[:m], x[m:]
    return np.concatenate([(1.0 + op.gamma) * (w @ top) - op.gamma * (w @ bottom), top])


def _chain_mismatches(op: AugmentedMixing, batch: np.ndarray) -> list[str]:
    """A chained augmented apply through one shared workspace, with its carried product.

    On a chain the second call's last bottom block is the first call's last
    top block, whose product the workspace carries. The chained call must
    equal a plain apply of the same input, and it must read the carried
    product: with that product poisoned, the last slice's top block comes
    out NaN, where a silent full product would give finite values.
    """
    workspace = AugmentedWorkspace(op, batch.shape)
    out = np.empty_like(batch)
    bad = []
    for poisoned in (False, True):
        np.copyto(workspace.input, batch)
        chained = op.apply(workspace.input, workspace=workspace)
        np.copyto(workspace.input, chained)
        if poisoned:
            workspace.previous[...] = np.nan
        if op.apply(workspace.input, out, workspace, reuse=True) is not out:
            bad.append("chain out")
        slices = out.reshape(-1, 2 * op.m, batch.shape[-1])
        if not poisoned and out.tobytes() != op.apply(chained).tobytes():
            bad.append("reuse")
        if poisoned and not (np.isnan(slices[-1, : op.m]).all() and np.isfinite(slices[:-1]).all()):
            bad.append("carried product unread")
    return bad


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
                out = np.empty_like(batch)
                if op.apply(batch, out) is not out or out.tobytes() != mixed.tobytes():
                    bad.append((type(op).__name__, m, d, scale, "out"))
                if isinstance(op, AugmentedMixing):
                    bad += [(type(op).__name__, m, d, scale, kind) for kind in _chain_mismatches(op, batch)]
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


@pytest.mark.parametrize("m", (1, 2, 16))
def test_foreign_augmented_inputs_equal_the_two_product_form(m):
    # Inputs that are not a workspace's own are checked, converted and
    # copied into a fresh workspace, and take the one tail.
    rng = np.random.default_rng(11)
    op = _operators(m, rng)[1]
    d = 3
    wide = rng.standard_normal((2 * m, 2 * d))
    cases = {
        "strided view": wide[:, ::2],
        "integers": rng.integers(-9, 10, (2 * m, d)),
        "2-D": rng.standard_normal((2 * m, d)),
        "4-D": rng.standard_normal((3, 2, 2 * m, d)),
        "fortran order": np.asfortranarray(rng.standard_normal((2 * m, d))),
    }
    for name, x in cases.items():
        got = op.apply(x)
        assert got.shape == x.shape and got.dtype == np.float64, name
        # The reference's own products take a C-ordered copy of the values.
        floats = np.ascontiguousarray(x, dtype=np.float64)
        for k in np.ndindex(x.shape[:-2]):
            assert got[k].tobytes() == _augmented_reference(op, floats[k]).tobytes(), (name, k)
        out = np.empty(x.shape)
        assert op.apply(x, out) is out and out.tobytes() == got.tobytes(), name
        strided = np.empty((*x.shape[:-1], 2 * d))[..., ::2]
        assert op.apply(x, strided) is strided and strided.tobytes() == got.tobytes(), name


def test_augmented_bottom_blocks_are_the_top_blocks_bit_for_bit():
    # The new bottom block is the old top block plus -0.0, which keeps
    # signed zeros, subnormals, infinities and NaNs as they are.
    rng = np.random.default_rng(13)
    m, d = 4, 2
    op = _operators(m, rng)[1]
    x = rng.standard_normal((2, 2 * m, d))
    x[0, :m].flat[:6] = [-0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf]
    x[1, :m].flat[:2] = [np.nan, -0.0]
    workspace = AugmentedWorkspace(op, x.shape)
    workspace.input[...] = x
    with np.errstate(invalid="ignore", over="ignore"):
        for got in (op.apply(x), op.apply(workspace.input, workspace=workspace)):
            assert got[:, m:].tobytes() == x[:, :m].tobytes()


def test_augmented_apply_rejects_misused_workspaces():
    rng = np.random.default_rng(12)
    op = _operators(4, rng)[1]
    other = AugmentedMixing(base=op.base, gamma=0.5)
    workspace = AugmentedWorkspace(op, (2, 8, 2))
    with pytest.raises(ValueError):
        op.apply(workspace.input.copy(), workspace=workspace)  # not its input
    with pytest.raises(ValueError):
        other.apply(workspace.input, workspace=workspace)  # another operator's
    with pytest.raises(ValueError):
        op.apply(np.zeros((2, 8, 2)), reuse=True)  # nothing carried
    with pytest.raises(ValueError):
        op.apply(np.zeros((2, 6, 2)))  # wrong row count
    with pytest.raises(ValueError):
        op.apply(np.zeros((2, 8, 2)), np.empty((2, 8, 3)))  # wrong output shape


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
        t=1,
    )


def _cases():
    for m in SIZES + (1024,):
        for d in DIMS:
            for blocks in (1, 2):
                for scale in SCALES:
                    yield m, d, blocks, scale


def _block_means(m: int, xs: np.ndarray) -> np.ndarray:
    """The column means a state's row of :func:`state_means` holds, one at a time."""
    x, s = xs
    expected = [column_mean(x), column_mean(s)]
    if len(x) > m:
        expected += [column_mean(x[:m]), column_mean(x[m:]), column_mean(s[:m]), column_mean(s[m:])]
    return np.array(expected)


def test_stacked_means_equal_column_means():
    rng = np.random.default_rng(1)
    for m, d, blocks, scale in _cases():
        state = _state(m, d, blocks, scale, rng)
        expected = _block_means(m, state.xs)
        assert state_means(state.xs[None], m)[0].tobytes() == expected.tobytes(), (m, d, blocks, scale)


def test_vecdot_norms_equal_vector_norm():
    rng = np.random.default_rng(2)
    for d in DIMS:
        for scale in SCALES:
            rows = scale * rng.standard_normal((2000, d))
            fused = np.sqrt(np.vecdot(rows, rows)).tolist()
            assert fused == [vector_norm(v) for v in rows], (d, scale)


def _reference_audit(xs: np.ndarray, g_snap: np.ndarray, step: tuple | None) -> tuple[np.ndarray, np.ndarray]:
    """The audit of one state as separate column means and norms would compute it.

    ``xs`` and ``g_snap`` are the state's stacked arrays and snapshot rows;
    ``step`` is ``(mean_before, eta, grads)`` of the step that made it, or
    ``None`` at a run's start. The ``(name, error, scale)`` triples go into
    the ``(4,)`` error and scale columns in ``_AUDITED`` order, zero where
    an identity does not apply.
    """

    def pair(name, a, b):
        return name, vector_norm(a - b), max(vector_norm(a), vector_norm(b))

    m = g_snap.shape[0]
    x, s = xs
    checks = []
    if step is not None:
        mean_before, eta, grads = step
        mean, grad_mean = column_mean(x), column_mean(grads)
        err = vector_norm(mean - (mean_before - eta * grad_mean))
        scale = max(vector_norm(mean), vector_norm(mean_before), eta * vector_norm(grad_mean))
        checks.append(("mean_dynamics", err, scale))
    if len(x) > m:
        checks.append(pair("block_sum_x", column_mean(x[:m]), column_mean(x[m:])))
        checks.append(pair("block_sum_s", column_mean(s[:m]), column_mean(s[m:])))
    checks.append(pair("tracker_mean", column_mean(s), column_mean(g_snap)))
    errors, scales = np.zeros(4), np.zeros(4)
    for name, err, scale in checks:
        errors[_AUDITED.index(name)] = err
        scales[_AUDITED.index(name)] = scale
    return errors, scales


def _bytes(arrays) -> list[bytes]:
    return [a.tobytes() for a in arrays]


def test_fused_audit_equals_per_identity_norms():
    # One step: slot 0 is audited only at a run's start, slot 1 always.
    rng = np.random.default_rng(3)
    for m, d, blocks, scale in _cases():
        xs, grads, etas, moved, snaps = slots = _slots(m, d, blocks, scale, 1, rng)
        means = state_means(xs, m)
        for start in (True, False):
            got = audit_identities(means, grads, etas, moved, snaps, start)
            assert _bytes(got) == _bytes(_slot_reference(*slots, start)), (m, d, blocks, scale, start)


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
            record = record_iteration(state, problem, eta, theta, state_means(state.xs[None], m)[0], subopt, None)
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


#: Steps per chunk: slots 0 to ``count`` of a buffer.
CHUNKS = (1, 2, 64)


def _slots(m: int, d: int, blocks: int, scale: float, count: int, rng: np.random.Generator) -> tuple:
    """Random slots 0..count of a chunk buffer and the audit inputs that index them.

    The gradient rows hold one slice more than the slots, and each step's
    rows and each slot's snapshot rows are drawn anywhere among them, so
    the gathers are checked for any index, the buffer's own included.
    """
    xs = scale * rng.standard_normal((count + 1, 2, blocks * m, d))
    grads = scale * rng.standard_normal((count + 2, m, d))
    etas = (0.013 * rng.uniform(0.5, 2.0, count)).tolist()
    moved = rng.integers(0, count + 2, count)
    snaps = rng.integers(0, count + 2, count + 1)
    return xs, grads, etas, moved, snaps


def _slot_reference(xs, grads, etas, moved, snaps, start) -> list:
    """Per-slot reference audits of the audited slots, stacked as the chunk audit stacks them."""
    columns = []
    for k in range(0 if start else 1, len(xs)):
        step = None if k == 0 else (column_mean(xs[k - 1, 0]), etas[k - 1], grads[moved[k - 1]])
        columns.append(_reference_audit(xs[k], grads[snaps[k]], step))
    return [np.array([e for e, _ in columns]), np.array([c for _, c in columns])]


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
        xs = _slots(m, d, blocks, scale, count, rng)[0]
        means = state_means(xs, m)
        assert means.shape[0] == count + 1
        for slot, row in zip(xs, means):
            assert row.tobytes() == _block_means(m, slot).tobytes(), (m, d, blocks, scale, count)


def test_chunk_audit_equals_per_state_norms():
    rng = np.random.default_rng(5)
    for m, d, blocks, scale, count in _chunk_cases():
        xs, grads, etas, moved, snaps = slots = _slots(m, d, blocks, scale, count, rng)
        means = state_means(xs, m)
        for start in (True, False):
            # At a run's start slot 0 is audited too, without a step.
            got = audit_identities(means, grads, etas, moved, snaps, start)
            assert _bytes(got) == _bytes(_slot_reference(*slots, start)), (m, d, blocks, scale, count, start)


def test_chunk_audit_of_non_finite_states_keeps_python_max():
    # A NaN or an infinity in one slot's rows or in one gradient slice: every
    # scale is still the Python max of its norms, which keeps a leading NaN
    # and passes over a later one.
    rng = np.random.default_rng(10)
    for m, d, blocks, scale, count in _chunk_cases():
        xs, grads, etas, moved, snaps = slots = _slots(m, d, blocks, scale, count, rng)
        rows = [xs[int(rng.integers(count + 1)), int(rng.integers(2))], grads[int(rng.integers(count + 2))]]
        rows = rows[int(rng.integers(2))]
        rows[int(rng.integers(len(rows))), int(rng.integers(d))] = [np.nan, np.inf, -np.inf][int(rng.integers(3))]
        with np.errstate(invalid="ignore", over="ignore"):
            got = audit_identities(state_means(xs, m), grads, etas, moved, snaps, True)
            expected = _slot_reference(*slots, True)
        for fused, reference in zip(got, expected):
            assert np.array_equal(fused, reference, equal_nan=True), (m, d, blocks, scale, count)


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


def test_stacked_gradient_and_snapshot_means_equal_column_means():
    # The audit reduces the gradient rows of a chunk buffer's slots (up to
    # K + 1 slices) in one layout.
    rng = np.random.default_rng(7)
    for m in SIZES:
        for d in DIMS:
            for scale in SCALES:
                for count in (1, 2, 64, 127, 128):
                    stack = scale * rng.standard_normal((count, m, d))
                    means = np.add.reduce(_rows_first(stack), axis=0) / float(m)
                    expected = np.array([column_mean(rows) for rows in stack])
                    assert means.tobytes() == expected.tobytes(), (m, d, scale, count)


class _ReferenceTracker:
    """The per-state audit check that the chunk fold replaced, kept as its reference."""

    def __init__(self) -> None:
        self.scales = dict.fromkeys(_AUDITED, 0.0)
        self.max_ratio = dict.fromkeys(_AUDITED, 0.0)

    def check(self, checks: list[tuple[str, float, float]], t: int) -> None:
        scales, max_ratio = self.scales, self.max_ratio
        for name, err, scale in checks:
            running = max(scales[name], scale)
            scales[name] = running
            ratio = 0.0 if err == 0.0 else err / max(running, 1e-300)
            if ratio > max_ratio[name]:
                max_ratio[name] = ratio
            if not ratio <= AUDIT_ABORT_TOL:
                raise InvariantViolation(
                    f"identity '{name}' off by a relative {ratio:.3e} "
                    f"(threshold {AUDIT_ABORT_TOL:g})",
                    iteration=t,
                )

    def summary(self) -> dict[str, float]:
        return {name: r for name, r in sorted(self.max_ratio.items()) if r > 0.0}


def _reference_walk(tracker, errors, scales, subopts, start, walked) -> str | None:
    """Check ``walked`` states one at a time, as the per-state loop did."""
    for i in range(walked):
        t = start + i
        # An identity that does not apply has a zero error and scale, which
        # leaves every running value of the reference as it is.
        checks = [(name, float(errors[i, j]), float(scales[i, j])) for j, name in enumerate(_AUDITED)]
        try:
            tracker.check(checks[:1], t)
            if not math.isfinite(subopts[i]):
                raise InvariantViolation(f"suboptimality of the average iterate is {subopts[i]}", iteration=t)
            tracker.check(checks[1:], t)
        except InvariantViolation as exc:
            return str(exc)
    return None


def _fold_walk(tracker, errors, scales, subopts, start, walked) -> str | None:
    """The chunk fold, with its violation raised only inside the walked states."""
    with np.errstate(invalid="ignore"):
        failed, failure = tracker.fold(errors, scales, subopts)
    if failed < walked:
        return str(InvariantViolation(failure, iteration=start + failed))
    tracker.settle(walked)
    return None


def _audit_chunk(rng: np.random.Generator, count: int, blocks: int, start: int, worst: float):
    """Random ``(count, 4)`` residuals with zeros, NaNs, infinities and shrinking scales."""
    scales = 10.0 ** rng.uniform(-3.0, 3.0, (count, 4))
    if rng.random() < 0.5:  # shrinking: the running maxima stay at the chunk's start
        scales *= 0.5 ** np.arange(count)[:, None]
    errors = scales * 10.0 ** rng.uniform(-14.0, worst, (count, 4))
    errors[rng.random((count, 4)) < 0.2] = 0.0
    for values in (errors, scales):
        for special in (np.nan, np.inf, 0.0):
            values[rng.random((count, 4)) < 0.01] = special
    if blocks == 1:
        errors[:, 1:3] = scales[:, 1:3] = 0.0
    if start == 0:
        errors[0, 0] = scales[0, 0] = 0.0
    subopts = (10.0 ** rng.uniform(-12.0, 2.0, count)).tolist()
    for i in np.flatnonzero(rng.random(count) < 0.01).tolist():
        subopts[i] = [math.nan, math.inf][i % 2]
    return errors, scales, subopts


def test_chunk_audit_fold_equals_the_per_state_checks():
    rng = np.random.default_rng(8)
    outcomes = set()
    for case in range(400):
        blocks = 1 + case % 2
        worst = [-7.5, -6.5][case // 2 % 2]
        reference, folded = _ReferenceTracker(), _AuditTracker()
        start = 0
        for chunk_index in range(3):
            count = int(rng.choice([1, 7, 64]))
            errors, scales, subopts = _audit_chunk(rng, count, blocks, start, worst)
            # The last chunk ends the run: a stop can come before its end.
            walked = count if chunk_index < 2 else int(rng.integers(1, count + 1))
            expected = _reference_walk(reference, errors, scales, subopts, start, walked)
            got = _fold_walk(folded, errors, scales, subopts, start, walked)
            assert got == expected, (case, chunk_index)
            if expected is not None:
                outcomes.add(expected.split(":")[1].split(" off")[0].split(" is")[0])
                break
            start += count
        else:
            assert repr(folded.summary()) == repr(reference.summary()), case
            outcomes.add("passed")
    # Every kind of first failure, and runs that pass, were drawn.
    assert outcomes >= {
        " identity 'mean_dynamics'", " identity 'block_sum_x'", " identity 'block_sum_s'",
        " identity 'tracker_mean'", " suboptimality of the average iterate", "passed",
    }


def test_the_step_gradient_rows_use_the_einsum_kernel():
    # np.einsum forwards to c_einsum when optimize is off; the step calls it directly.
    assert einsumfunc.c_einsum is c_einsum
    assert "return c_einsum(*operands, **kwargs)" in inspect.getsource(einsumfunc.einsum)
    rng = np.random.default_rng(9)
    for m in SIZES:
        for d in DIMS:
            problem = make_quadratic_suite(m, d, 0.5, 4.0, 1.0, rng)
            for scale in SCALES:
                # A working block is the top half of a stacked iterate.
                x = (scale * rng.standard_normal((2 * m, d)))[:m]
                expected = np.einsum("ijk,ik->ij", problem.quads, x) + problem.linears
                assert _sampled_gradients(problem, x, None, np.empty((m, d))).tobytes() == expected.tobytes(), (m, d, scale)
                assert exact_gradients(problem, x).tobytes() == expected.tobytes(), (m, d, scale)
