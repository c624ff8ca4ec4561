"""Decentralized gradient-tracking iterations and their step-size schedules.

Three iteration families share this module, one state type
(:class:`SsState`), and two step functions:

* ``dsgt``: plain stochastic gradient tracking (:func:`dsgt_step`). Every
  agent refreshes its gradient every iteration and a tracker variable follows
  the network-average gradient through mixing. In state terms it re-takes its
  snapshot at every iterate: the snapshot point is the iterate itself and the
  stored gradients are the ones last sampled there.
* ``ssdsgt``: snapshot gradient tracking (:func:`ssdsgt_step`). Fresh
  gradients are paired with a cached snapshot gradient as a control variate
  every iteration, while the tracker itself is refreshed only when a shared
  Bernoulli coin fires. The cached snapshot realization is authoritative: it
  is stored once when the coin fires and never re-sampled.
* ``assdsgt``: the same snapshot step run through the momentum-augmented
  mixing operator on duplicated state blocks, which accelerates consensus on
  poorly connected graphs. :func:`assdsgt_step` is :func:`ssdsgt_step`.

Both steps mix only through the operator's ``apply(x, out)``: a dense
mixing matrix, one random-gossip edge, or the augmented operator (see
:mod:`netgrad.topology`). States are row-stacked: ``blocks`` stacked
``(m, d)`` blocks, one for a plain operator and two for the augmented one,
and the iterate and the tracker are stored as one ``(2, blocks * m, d)``
array, so each step mixes both with one batched ``apply``.

A run keeps its states in one :class:`StateBuffer`: ``K + 1`` slots of
stacked states and gradient rows, each slot an :class:`SsState` built once
with views into the buffer. A step writes the new state into its state's
successor slot, with ``out=`` on every product and sum, and sets only
references and scalars on the slot's object; it allocates nothing, and a
snapshot stays where the step that took it found or wrote it. The step's
temporaries (the mixing input and the correction) are allocated once per
run. A momentum run's mixing input is the input of the augmented
operator's workspace, which also holds the products (the operator carries
one of them to the next step) and the scaled addends of the result, each
view built once. The run, not the state, holds each step's step size. A
state that is not in a buffer gets a freshly allocated successor from the
same kernel. Observation reduces the buffer's slices as they are:
:func:`state_means` the stacked states and :func:`audit_identities` the
gradient rows.

Randomness comes exclusively from a
:class:`~netgrad.streams.StreamBundle`, which serves the coin uniforms and the
noise rows from blocks, the noise rows already scaled and contiguous, so a
noisy step adds them to its gradient rows with one same-shape add;
noiseless runs draw nothing from the gradient streams and are bit-identical
to exact-gradient runs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# The function ``np.einsum`` forwards to when ``optimize`` is off, called
# without the wrapper's argument handling.
from numpy._core.multiarray import c_einsum

from .errors import ConfigError

# ``stochastic_gradients`` is the per-call reference oracle; the iterations
# use block-served noise instead, but perfbench's layer probe still looks the
# oracle up under this module's name.
from .objectives import QuadraticProblem, stochastic_gradients  # noqa: F401
from .streams import StreamBundle
from .topology import AugmentedMixing, AugmentedWorkspace, EdgeGossip, MixingMatrix

__all__ = [
    "ALGORITHMS",
    "SNAPSHOT_CONSTANT_DIVISOR",
    "MOMENTUM_CONSTANT_DIVISOR",
    "SNAPSHOT_DECAY_DIVISOR",
    "MOMENTUM_DECAY_DIVISOR",
    "Schedule",
    "theory_schedule",
    "step_size",
    "SsState",
    "StateBuffer",
    "init_state",
    "ssdsgt_step",
    "assdsgt_step",
    "dsgt_step",
    "state_means",
    "audit_identities",
]

#: Valid algorithm tags, in the order the command line tool lists them.
ALGORITHMS: tuple[str, ...] = ("dsgt", "ssdsgt", "assdsgt")

#: Constant-step divisor for the snapshot family: ``eta = theta / (192 L)``.
SNAPSHOT_CONSTANT_DIVISOR = 192.0
#: Constant-step divisor for the momentum family: ``eta = theta_tilde / (768 L)``.
MOMENTUM_CONSTANT_DIVISOR = 768.0
#: Decaying-step divisor for the snapshot family: ``beta = theta / 1152``.
SNAPSHOT_DECAY_DIVISOR = 1152.0
#: Decaying-step divisor for the momentum family: ``beta = theta_tilde / 4608``.
MOMENTUM_DECAY_DIVISOR = 4608.0


@dataclass(frozen=True)
class Schedule:
    """Step-size and snapshot-probability schedule for one run.

    Attributes:
        algo: Iteration family the schedule drives (one of :data:`ALGORITHMS`).
        mode: ``constant`` holds ``eta0`` forever; ``decaying`` uses
            ``eta_t = 6 beta / (L + beta * mu * t)``.
        p: Per-iteration probability of refreshing the snapshot (unused by
            ``dsgt``, which re-takes its snapshot at every iterate).
        L: Smoothness constant of the objective.
        mu: Strong convexity modulus.
        theta: Contraction parameter the schedule was derived from, in
            ``(0, 1]``; kept for diagnostics.
        eta0: Constant step size (``constant`` mode only).
        beta: Decay scale (``decaying`` mode only).
    """

    algo: str
    mode: str
    p: float
    L: float
    mu: float
    theta: float
    eta0: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm tag '{self.algo}'")
        if not (0.0 < self.mu <= self.L < np.inf):
            raise ValueError(f"need 0 < mu <= L < inf, got mu={self.mu}, L={self.L}")
        if self.mode not in ("constant", "decaying"):
            raise ValueError(f"unknown schedule mode '{self.mode}'")
        name = "eta0" if self.mode == "constant" else "beta"
        value = getattr(self, name)
        if value is None or not (0.0 < value < np.inf):
            raise ValueError(f"{self.mode} schedule needs a finite positive {name}, got {value}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"snapshot probability must lie in [0, 1], got {self.p}")
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"contraction parameter must lie in (0, 1], got {self.theta}")


def theory_schedule(
    algo: str,
    mode: str,
    theta: float,
    L: float,
    mu: float,
    multiplier: float = 1.0,
) -> Schedule:
    """Build the conservative theory-style schedule for an algorithm.

    The snapshot family uses ``theta / 192 L`` (constant) or
    ``beta = theta / 1152`` (decaying) with snapshot probability ``theta``.
    The momentum family uses the same template with divisors 768 and 4608 and
    the fitted augmented contraction in place of ``theta``. The plain
    tracking baseline has no snapshot mechanism and pays for consensus error
    in both its descent and tracking recursions, so its matched template
    substitutes ``theta**2``; pass a ``multiplier`` to scale any template.

    Args:
        algo: One of :data:`ALGORITHMS`.
        mode: ``constant`` or ``decaying``.
        theta: Contraction parameter of the mixing operator the run will use
            (the fitted augmented value for ``assdsgt``).
        L: Smoothness constant.
        mu: Strong convexity modulus.
        multiplier: Optional scale on the template step size.

    Returns:
        The assembled :class:`Schedule`.

    Raises:
        ConfigError: On field ``step_multiplier`` when the template's step
            (``eta0``) or decay scale (``beta``) is not in ``(0, inf)``: the
            multiplier is zero, negative or NaN, or the template underflows
            to 0 or overflows to infinity.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"contraction parameter must lie in (0, 1], got {theta}")
    if algo == "ssdsgt":
        scale, p = theta, theta
        divisors = (SNAPSHOT_CONSTANT_DIVISOR, SNAPSHOT_DECAY_DIVISOR)
    elif algo == "assdsgt":
        scale, p = theta, theta
        divisors = (MOMENTUM_CONSTANT_DIVISOR, MOMENTUM_DECAY_DIVISOR)
    elif algo == "dsgt":
        scale, p = theta * theta, 0.0
        divisors = (SNAPSHOT_CONSTANT_DIVISOR, SNAPSHOT_DECAY_DIVISOR)
    else:
        raise ValueError(f"unknown algorithm tag '{algo}'")
    if mode == "constant":
        step = {"eta0": multiplier * scale / (divisors[0] * L)}
    else:
        step = {"beta": multiplier * scale / divisors[1]}
    ((name, value),) = step.items()
    if not (0.0 < value < np.inf):
        raise ConfigError(
            f"the template {name} is {value:g}, outside (0, inf) (multiplier {multiplier:g}, L={L:g})",
            "step_multiplier",
        )
    return Schedule(algo=algo, mode=mode, p=p, L=L, mu=mu, theta=theta, **step)


def step_size(sched: Schedule, t: int) -> float:
    """Step size at iteration ``t``.

    Constant mode returns ``eta0``. Decaying mode returns
    ``6 beta / (L + beta * mu * t)``, which starts at ``6 beta / L`` and
    decays like ``6 / (mu t)``.
    """
    if t < 0:
        raise ValueError(f"iteration index must be nonnegative, got {t}")
    if sched.mode == "constant":
        assert sched.eta0 is not None
        return sched.eta0
    assert sched.beta is not None
    return 6.0 * sched.beta / (sched.L + sched.beta * sched.mu * t)


@dataclass(slots=True)
class SsState:
    """Tracking state of all three iterations, one slot of a run's buffer.

    ``xs`` stores the iterate and the tracker as one ``(2, blocks * m, d)``
    array, so one batched ``apply`` mixes both; ``x`` (``xs[0]``) and ``s``
    (``xs[1]``) are views of it. Each stacks ``blocks`` (set from the
    shapes) copies of the ``(m, d)`` agent block: one for the plain
    operator, two for the augmented operator (the working block on top of
    the trailing block). The working iterate is ``x[:m]``. ``q`` is the
    snapshot point and ``g_snap`` the stored gradient realization taken at
    ``q`` when the snapshot was last retaken. ``grads`` holds the ``(m, d)``
    gradient rows the step that made the state sampled: the fresh rows of a
    snapshot step, the new snapshot rows of a ``dsgt`` step, and the
    snapshot rows at a run's start. ``g_snap`` is ``grads`` itself exactly
    when the step that made the state retook the snapshot: every ``dsgt``
    step (``q`` is then its own ``x``) and a snapshot step whose coin fired
    (``q`` is then the working block of the state it stepped from).
    ``last_zeta`` is the step's coin; its step size is the caller's, which
    passed it to the step.

    A state is a slot of a buffer (see :class:`StateBuffer`): its ``xs`` and
    ``grads`` are views fixed when the slot is built, and ``successor`` is
    the next slot, which a step from this state writes into. A step sets
    only references and scalars on the successor, so ``q`` and ``g_snap``
    are views of the slots where the snapshot was taken, until
    :meth:`StateBuffer.restart` moves the live snapshot out of the slots
    that the next chunk overwrites. A state without a successor (from
    :func:`init_state`, or one a step returned for it) gets a freshly
    allocated one: a chunk of one, stepped by the same kernel. A step never
    writes to an array of the state it starts from. ``scratch`` holds the
    step's temporaries (see :class:`_Scratch`), the augmented operator's
    workspace among them, shared by a buffer's slots and by a chain of
    freshly allocated successors.
    """

    xs: np.ndarray
    q: np.ndarray
    g_snap: np.ndarray
    t: int
    last_zeta: int = 0
    grads: np.ndarray | None = field(default=None, repr=False)
    successor: SsState | None = field(default=None, repr=False)
    scratch: _Scratch | None = field(default=None, repr=False)
    x: np.ndarray = field(init=False, repr=False)
    s: np.ndarray = field(init=False, repr=False)
    blocks: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.x = self.xs[0]
        self.s = self.xs[1]
        self.blocks = len(self.x) // len(self.g_snap)
        if self.grads is None:
            self.grads = self.g_snap

    @property
    def x_aug(self) -> np.ndarray:
        """Read-only alias of ``x``, the stacked momentum iterate."""
        return self.x

    @property
    def s_aug(self) -> np.ndarray:
        """Read-only alias of ``s``, the stacked momentum tracker."""
        return self.s


class _Scratch:
    """A step's temporaries: the mixing input, the correction and the operator's workspace.

    ``mixing`` is the ``(2, blocks * m, d)`` input of the step's ``apply``
    (the descent argument over the tracker) and ``correction`` the ``(m, d)``
    gradient correction. A two-block state mixes through the augmented
    operator the scratch was built for: ``workspace`` is that operator's
    :class:`~netgrad.topology.AugmentedWorkspace`, whose ``input`` is
    ``mixing`` and whose products the operator carries from one call to
    the next. ``carried`` is the ``xs`` array of the state whose next step
    continues the operator's chain: the step that made it added no
    correction to the tracker (its coin did not fire), so the new trailing
    tracker block ``s[m:]`` is, bit for bit, the top block of that step's
    last mixed slice, as ``apply`` with ``reuse`` requires. Every state has
    its own ``xs`` array, and holding the array rather than the state keeps
    the scratch out of a reference cycle with the states that hold it, so
    a run's buffer is freed when the run ends.
    """

    __slots__ = ("mixing", "descent", "tracker", "correction", "workspace", "carried")

    def __init__(self, shape: tuple[int, ...], m: int, op: Operator | None) -> None:
        if shape[-2] > m:
            self.workspace = AugmentedWorkspace(op, shape)
            self.mixing = self.workspace.input
        else:
            self.workspace = None
            self.mixing = np.empty(shape)
        self.descent, self.tracker = self.mixing
        self.correction = np.empty((m, shape[-1]))
        self.carried: np.ndarray | None = None


def _slot(xs: np.ndarray, grads: np.ndarray, scratch: _Scratch) -> SsState:
    """A blank state whose ``xs`` and ``grads`` are the given arrays."""
    return SsState(xs=xs, q=xs[0], g_snap=grads, t=0, grads=grads, scratch=scratch)


def _successor(state: SsState, op: Operator) -> SsState:
    """A freshly allocated slot for a step from ``state`` through ``op``; ``state`` has no successor."""
    scratch = state.scratch
    if scratch is None:
        scratch = _Scratch(state.xs.shape, len(state.g_snap), op)
    return _slot(np.empty(state.xs.shape), np.empty(state.g_snap.shape), scratch)


class StateBuffer:
    """One run's chunk buffer: ``steps + 1`` state slots that the steps write into.

    ``xs`` is ``(steps + 1, 2, blocks * m, d)`` and ``grads`` is
    ``(steps + 1, m, d)``; ``states[k]`` is the :class:`SsState` of slot
    ``k``, with views of ``xs[k]`` and ``grads[k]`` and slot ``k + 1`` as
    its successor. Slot 0 holds the state a chunk starts from, with its
    snapshot rows in ``grads[0]`` and its snapshot point in ``q``, the
    run's one ``(m, d)`` array for it: ``start`` at first, and then, moved
    there by :meth:`restart`, the last state of the chunk before. The steps
    of a chunk fill slots 1 and on. So the states of a chunk and the one
    before it are consecutive slices of the two arrays, which observation
    reduces as they are, and every snapshot point is a buffer row or
    ``q``. The buffer holds one rule for every algorithm: a state retook
    its snapshot when its ``g_snap`` is its own ``grads``. ``op`` is the
    augmented operator a two-block run mixes through, whose workspace the
    slots share; a one-block run passes ``None`` or its matrix.
    """

    def __init__(self, start: SsState, steps: int, op: Operator | None) -> None:
        m = len(start.g_snap)
        self.xs = np.zeros((steps + 1, *start.xs.shape))
        self.grads = np.zeros((steps + 1, *start.g_snap.shape))
        self.q = np.zeros(start.g_snap.shape)
        scratch = _Scratch(start.xs.shape, m, op)
        self.states = [_slot(xs, grads, scratch) for xs, grads in zip(self.xs, self.grads)]
        for state, successor in zip(self.states, self.states[1:]):
            state.successor = successor
        self.restart(start)

    def restart(self, state: SsState) -> SsState:
        """Copy ``state`` into slot 0, its snapshot point into ``q``, and return slot 0."""
        first = self.states[0]
        if state is first:
            return first
        # The point can be a view of slot 0, so it is copied first.
        self.q[...] = state.q
        self.xs[0] = state.xs
        self.grads[0] = state.g_snap
        first.q, first.g_snap = self.q, first.grads
        first.t, first.last_zeta = state.t, state.last_zeta
        scratch = first.scratch
        if scratch.carried is state.xs:
            scratch.carried = first.xs
        return first

    def snapshot_slots(self, count: int) -> np.ndarray:
        """For each of slots ``0..count``, the slot whose ``grads`` row holds its snapshot rows.

        That is the last slot up to it whose step retook the snapshot, or
        slot 0, whose rows are the snapshot the chunk started from.
        """
        taken = [k if state.g_snap is state.grads else 0 for k, state in enumerate(self.states[: count + 1])]
        return np.maximum.accumulate(taken)


#: A mixing operator: anything whose ``apply(x, out)`` mixes row-stacked states.
Operator = MixingMatrix | EdgeGossip | AugmentedMixing


def _start_rows(problem: QuadraticProblem, x0: np.ndarray) -> np.ndarray:
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (problem.d,):
        raise ValueError(f"start point must have shape ({problem.d},), got {x0.shape}")
    return np.tile(x0, (problem.m, 1))


def _sampled_gradients(
    problem: QuadraticProblem, x: np.ndarray, streams: StreamBundle | None, out: np.ndarray
) -> np.ndarray:
    """Row-stacked noisy gradients with noise rows served by the bundle.

    Equals :func:`~netgrad.objectives.stochastic_gradients` on the bundle's
    agent streams bit for bit: the bundle serves the noise rows already
    scaled, and ``scale * z`` rounds once wherever it is taken.
    The exact rows are :func:`~netgrad.objectives.exact_gradients` without
    its argument checks (``x`` is always an ``(m, d)`` float array here),
    through the ``c_einsum`` that ``np.einsum`` forwards to, so the bits
    are the same. The rows are written to ``out``, an ``(m, d)`` array, and
    returned. Noiseless problems leave the streams untouched.
    """
    grads = c_einsum("ijk,ik->ij", problem.quads, x, out=out)
    grads += problem.linears
    if problem.sigma_bar == 0.0:
        return grads
    assert streams is not None
    # A bundle for fewer agents would broadcast its rows.
    if streams.m != problem.m:
        raise ValueError(f"need {problem.m} agent streams, got {streams.m}")
    grads += streams.noise_rows(problem.d, problem.noise.scale(problem.d))
    return grads


def init_state(
    problem: QuadraticProblem,
    x0: np.ndarray,
    algo: str,
    streams: StreamBundle | None = None,
) -> SsState:
    """Build the iteration state at a shared start point.

    Every agent starts at ``x0``, which is also the snapshot point. Trackers
    and snapshot caches start from one stochastic gradient draw per agent at
    the start point (no draws happen when the problem is noiseless). The
    momentum iteration stacks two copies of the iterate and tracker blocks.

    Args:
        problem: Objective suite.
        x0: Shared start point of shape ``(d,)``.
        algo: One of :data:`ALGORITHMS`.
        streams: Random streams; required when the problem has gradient noise.

    Returns:
        The :class:`SsState` with ``t = 0``, without a successor.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm tag '{algo}'")
    if problem.sigma_bar > 0.0 and streams is None:
        raise ValueError("noisy problems need a stream bundle")
    x = _start_rows(problem, x0)
    g0 = _sampled_gradients(problem, x, streams, np.empty(x.shape))
    blocks = 2 if algo == "assdsgt" else 1
    return SsState(xs=np.tile(np.stack([x, g0]), (1, blocks, 1)), q=x, g_snap=g0, t=0)


def _add_to_blocks(stack: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Write ``stack`` plus the ``(m, d)`` array ``rows``, added to every block, to ``out``.

    Each block is one same-shape add, the cheapest call numpy has: for two
    blocks, two of them cost about half of one ``(blocks, m, d)`` broadcast.
    Every sum is rounded once, as block-by-block additions round it.
    """
    m = len(rows)
    if len(stack) == m:
        np.add(stack, rows, out)
    else:
        np.add(stack[:m], rows, out[:m])
        np.add(stack[m:], rows, out[m:])


def ssdsgt_step(
    state: SsState,
    problem: QuadraticProblem,
    op: Operator,
    sched: Schedule,
    streams: StreamBundle,
    eta: float | None = None,
) -> SsState:
    """Advance the snapshot tracking iteration by one step, for any block count.

    Order of operations: draw the shared coin, sample fresh gradients at the
    working block ``x[:m]``, mix the corrected tracked descent argument and
    the tracker in one ``op.apply`` call, then refresh the tracker (and, when
    the coin fired, move the snapshot to the pre-step working iterate and
    its gradient realization, both left where the step found or wrote them:
    ``q`` is a view of ``state`` and ``g_snap`` the new state's own
    ``grads``, and nothing is copied). The ``(m, d)`` gradient correction is
    added to every block of the stacked state. With one block and a mixing
    matrix or gossip edge this is the snapshot iteration; with two blocks
    and the augmented operator it is the momentum iteration, and a zero
    momentum weight reproduces the one-block iteration bit for bit on the
    working block. A momentum step whose state was made by a step of the
    same scratch whose coin did not fire continues the augmented operator's
    chain (see :class:`_Scratch`): the operator reuses its product of the
    tracker's working block as the trailing block's, so the step makes three
    base-matrix products instead of four. The new state is written into
    ``state``'s successor slot (see :class:`SsState`) and returned.
    ``eta`` is ``step_size(sched, state.t)``, computed here when not given.
    """
    if eta is None:
        eta = step_size(sched, state.t)
    new = state.successor
    if new is None:
        new = _successor(state, op)
    scratch = new.scratch
    m = problem.m
    zeta = 1 if streams.coin_uniform() < sched.p else 0
    x, s = state.x, state.s
    top = x if state.blocks == 1 else x[:m]
    g_x = _sampled_gradients(problem, top, streams, new.grads)
    correction = np.subtract(g_x, state.g_snap, scratch.correction)
    # The descent argument over a copy of the tracker, so one apply mixes
    # both into the new state.
    descent = scratch.descent
    _add_to_blocks(s, correction, descent)
    descent *= eta
    np.subtract(x, descent, descent)
    scratch.tracker[...] = s
    if state.blocks == 1:
        op.apply(scratch.mixing, new.xs)
    else:
        # The chain of applies holds unless the step that made ``state``
        # added a correction to the tracker.
        op.apply(scratch.mixing, new.xs, scratch.workspace, scratch.carried is state.xs)
        scratch.carried = new.xs
    if zeta:
        _add_to_blocks(new.s, correction, new.s)
        new.q = top
        new.g_snap = g_x
        scratch.carried = None
    else:
        new.q = state.q
        new.g_snap = state.g_snap
    new.t = state.t + 1
    new.last_zeta = zeta
    return new


#: The momentum-augmented iteration is the snapshot step driven through an
#: :class:`~netgrad.topology.AugmentedMixing` on a two-block state.
assdsgt_step = ssdsgt_step


def dsgt_step(
    state: SsState,
    problem: QuadraticProblem,
    op: MixingMatrix | EdgeGossip,
    sched: Schedule,
    streams: StreamBundle,
    eta: float | None = None,
) -> SsState:
    """Advance the plain tracking iteration by one step.

    The iterate descends along the tracker and is mixed together with the
    tracker in one ``op.apply`` call, fresh gradients are sampled at the new
    iterate, and the tracker absorbs the increment over the stored
    gradients. The snapshot then moves to the new iterate with the gradients
    just sampled. With one agent and the identity matrix this is plain
    stochastic gradient descent. The new state is written into ``state``'s
    successor slot (see :class:`SsState`) and returned.
    """
    if eta is None:
        eta = step_size(sched, state.t)
    new = state.successor
    if new is None:
        new = _successor(state, op)
    scratch = new.scratch
    descent = scratch.descent
    np.multiply(state.s, eta, descent)
    np.subtract(state.x, descent, descent)
    scratch.tracker[...] = state.s
    op.apply(scratch.mixing, new.xs)
    g_new = _sampled_gradients(problem, new.x, streams, new.grads)
    new.s += np.subtract(g_new, state.g_snap, scratch.correction)
    new.q = new.x
    new.g_snap = g_new
    new.t = state.t + 1
    new.last_zeta = 0
    return new


def _rows_first(stack: np.ndarray) -> np.ndarray:
    """The ``(rows, count, d)`` layout of a contiguous ``(count, rows, d)`` stack.

    Reducing the result over axis 0 gives the column sums of every
    ``(rows, d)`` slice as ``np.add.reduce(slice, axis=0)`` takes them, bit
    for bit, and fast. numpy sums contiguous rows pairwise and strided rows one after
    another. With ``d = 1`` the rows are contiguous, so the result is a
    transposed view, whose rows numpy still sums pairwise. With ``d > 1``
    the rows are copied outermost, each row's ``d`` doubles moved as one
    item, so the reduction makes one long add per row instead of one
    ``d``-long add per row of every slice.
    """
    count, rows, d = stack.shape
    if d == 1:
        return stack.transpose(1, 0, 2)
    items = stack.view(np.dtype((np.void, 8 * d))).reshape(count, rows)
    return np.ascontiguousarray(items.T).view(np.float64).reshape(rows, count, d)


def state_means(xs: np.ndarray, m: int) -> np.ndarray:
    """Column means of a stack of states, from one row layout.

    ``xs`` is a C-contiguous ``(K, 2, blocks * m, d)`` stack of ``K``
    states' ``xs`` arrays, such as a slice of a :class:`StateBuffer`; the
    result has shape ``(K, rows, d)``, row block ``k`` for state ``k``.
    Rows 0 and 1 are the full-stack means of ``x`` and ``s``. A stacked
    state adds rows 2 to 5, the block means of ``x[:m]``, ``x[m:]``,
    ``s[:m]`` and ``s[m:]``, from a second reduction over the block halves
    of the same layout. Every row equals ``np.add.reduce(a, axis=0) /
    float(rows)`` of its ``(rows, d)`` slice ``a`` bit for bit: the sum and
    division ``a.mean(axis=0)`` makes, without its argument handling.
    Either way the last ``2 * blocks`` rows are the block means, x blocks
    before s blocks, and row ``-2 * blocks`` is the mean of the working
    iterate ``x[:m]``.
    """
    count, _, stacked, d = xs.shape
    blocks = stacked // m
    rows = _rows_first(xs.reshape(2 * count, stacked, d)).reshape(stacked, count, 2, d)
    if blocks == 1:
        means = np.add.reduce(rows, axis=0)
        means /= float(m)
        return means
    means = np.empty((count, 2 + 2 * blocks, d))
    full, block = means[:, :2], means[:, 2:]
    np.add.reduce(rows, axis=0, out=full)
    # Block b of stack j lands in row j * blocks + b of the block means.
    np.add.reduce(
        rows.reshape(blocks, m, count, 2, d),
        axis=1,
        out=block.reshape(count, 2, blocks, d).transpose(2, 0, 1, 3),
    )
    # Float divisors: the quotient is ``mean``'s, and numpy's path for a
    # Python float is cheaper than its path for a Python int.
    full /= float(blocks * m)
    block /= float(m)
    return means


def _python_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``max(a, b)`` as Python's ``max`` picks it.

    ``b`` wins only where it compares greater, so a NaN in ``a`` is kept and
    a NaN in ``b`` is passed over, unlike both ``np.maximum`` and ``np.fmax``.
    """
    return np.where(b > a, b, a)


#: The identities :func:`audit_identities` checks, in the order of its columns.
_AUDITED = ("mean_dynamics", "block_sum_x", "block_sum_s", "tracker_mean")


def audit_identities(
    means: np.ndarray,
    grads: np.ndarray,
    etas: Sequence[float],
    moved: slice | np.ndarray,
    snaps: np.ndarray,
    start: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw self-check residuals for the tracking identities of a chunk of states.

    The chunk is slots ``0..n`` of a :class:`StateBuffer`: ``means`` is
    :func:`state_means` of them, ``(n + 1, rows, d)``; ``grads`` is the
    buffer's gradient rows that the indices below point into; ``etas`` are
    the step sizes of the steps into slots ``1..n``; ``moved[j]`` is the
    index of the rows whose mean moved the iterate mean in the step into
    slot ``j + 1``, and ``snaps[k]`` the index of the snapshot rows of slot
    ``k`` (see :meth:`StateBuffer.snapshot_slots`). Slot 0 is the state
    before the chunk's first step, whose mean is the mean before it; it is
    audited itself only at a run's ``start``, which has no step.

    The result is a pair of ``(K, 4)`` arrays, ``errors`` and ``scales``,
    for the audited slots (``K = n + 1`` at a start, ``n`` otherwise), with
    one column per identity in :data:`_AUDITED` order: ``error`` is the
    Euclidean size of the violated identity and ``scale`` the magnitude it
    should be compared against, and both are zero where an identity does
    not apply. Callers normalize against a running maximum of the scale so
    that late-run ratios stay meaningful after the quantities have
    converged toward zero.

    Checked identities:
        * mean dynamics (for every stepped state): the full-stack iterate
          mean moved by exactly ``-eta`` times the column mean of the step's
          gradient rows from the mean of the slot before;
        * stacked state (more than one block): the working block and the
          trailing block of the iterate and of the tracker keep equal column
          sums;
        * tracking: column mean of the tracker (over the full stack) equals
          the column mean of the stored snapshot gradients (for ``dsgt``, the
          last sampled ones).

    Every gradient mean comes from one reduction over ``grads``, each
    snapshot's once, and every norm from one ``sqrt(vecdot)``; each equals
    ``np.add.reduce(a, axis=0) / float(rows)`` of its own ``(rows, d)``
    slice ``a`` and ``math.sqrt(v.dot(v))`` of its own vector ``v`` (the
    route of ``np.linalg.norm``) bit for bit. Each scale is the Python
    ``max`` of its norms, NaN handling included.
    """
    lo = 0 if start else 1
    count, k, d = len(means) - lo, means.shape[1], means.shape[2]
    stacked = k > 2
    # Rows of each state: the means; the full-stack means x and s should
    # have (x moved by the step from the mean before it, s at the snapshot
    # gradient mean); the residuals of the two; the step's gradient mean and
    # the mean before the step; and, for a stacked state, the
    # top-minus-bottom block residuals of x and s.
    rows = np.zeros((count, k + (8 if stacked else 6), d))
    rows[:, :k] = means[lo:]
    # The float divisor is state_means'.
    grad_means = np.add.reduce(_rows_first(grads), axis=0)
    grad_means /= float(grads.shape[1])
    rows[:, k + 1] = grad_means[snaps[lo:]]
    etas = np.array(etas)
    stepped = rows[1 - lo :]
    stepped[:, k + 5] = means[:-1, 0]
    step_means = stepped[:, k + 4]
    step_means[:] = grad_means[moved]
    moved_to = stepped[:, k]
    np.multiply(step_means, etas[:, None], out=moved_to)
    np.subtract(stepped[:, k + 5], moved_to, out=moved_to)
    np.subtract(rows[:, :2], rows[:, k : k + 2], out=rows[:, k + 2 : k + 4])
    if stacked:
        np.subtract(rows[:, 2:k:2], rows[:, 3:k:2], out=rows[:, k + 6 :])
    norms = np.sqrt(np.vecdot(rows, rows))
    errors = np.zeros((count, 4))
    scales = np.zeros((count, 4))
    step_norms = norms[1 - lo :]
    errors[1 - lo :, 0] = step_norms[:, k + 2]
    scales[1 - lo :, 0] = _python_max(
        _python_max(step_norms[:, 0], step_norms[:, k + 5]), etas * step_norms[:, k + 4]
    )
    if stacked:
        errors[:, 1:3] = norms[:, k + 6 :]
        scales[:, 1] = _python_max(norms[:, 2], norms[:, 3])
        scales[:, 2] = _python_max(norms[:, 4], norms[:, 5])
    errors[:, 3] = norms[:, k + 3]
    scales[:, 3] = _python_max(norms[:, 1], norms[:, k + 1])
    return errors, scales
