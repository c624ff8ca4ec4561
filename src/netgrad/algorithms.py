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

Both steps mix only through the operator's ``apply(x)``: a dense mixing
matrix, one random-gossip edge, or the augmented operator (see
:mod:`netgrad.topology`). States are row-stacked: ``blocks`` stacked
``(m, d)`` blocks, one for a plain operator and two for the augmented one,
and the iterate and the tracker are stored as one ``(2, blocks * m, d)``
array, so each step mixes both with one batched ``apply``.
Randomness comes exclusively from a
:class:`~netgrad.streams.StreamBundle`, which serves the coin uniforms and the
noise rows from blocks; noiseless runs draw nothing from the gradient streams
and are bit-identical to exact-gradient runs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# The function ``np.einsum`` forwards to when ``optimize`` is off, called
# without the wrapper's argument handling.
from numpy._core.multiarray import c_einsum

# ``stochastic_gradients`` is the per-call reference oracle; the iterations
# use block-served noise instead, but perfbench's layer probe still looks the
# oracle up under this module's name.
from .objectives import QuadraticProblem, stochastic_gradients  # noqa: F401
from .streams import StreamBundle
from .topology import AugmentedMixing, EdgeGossip, MixingMatrix

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
    "init_state",
    "ssdsgt_step",
    "assdsgt_step",
    "dsgt_step",
    "state_means",
    "audit_identities",
    "column_mean",
    "vector_norm",
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
        theta: Contraction parameter the schedule was derived from; kept for
            diagnostics.
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
        if self.mode == "constant":
            if self.eta0 is None or self.eta0 <= 0.0:
                raise ValueError("constant schedule needs a positive eta0")
        elif self.mode == "decaying":
            if self.beta is None or self.beta <= 0.0:
                raise ValueError("decaying schedule needs a positive beta")
            if self.mu <= 0.0:
                raise ValueError("decaying schedule needs mu > 0")
        else:
            raise ValueError(f"unknown schedule mode '{self.mode}'")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"snapshot probability must lie in [0, 1], got {self.p}")


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
    """
    if multiplier <= 0.0:
        raise ValueError(f"step multiplier must be positive, got {multiplier}")
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
        return Schedule(
            algo=algo,
            mode=mode,
            p=p,
            L=L,
            mu=mu,
            theta=theta,
            eta0=multiplier * scale / (divisors[0] * L),
        )
    return Schedule(
        algo=algo,
        mode=mode,
        p=p,
        L=L,
        mu=mu,
        theta=theta,
        beta=multiplier * scale / divisors[1],
    )


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
    """Tracking state of all three iterations.

    ``xs`` stores the iterate and the tracker as one ``(2, blocks * m, d)``
    array, so one batched ``apply`` mixes both; ``x`` (``xs[0]``) and ``s``
    (``xs[1]``) are views of it. Each stacks ``blocks`` (set from the
    shapes) copies of the ``(m, d)`` agent block: one for the plain
    operator, two for the augmented operator (the working block on top of
    the trailing block). The working iterate is ``x[:m]``. ``q`` is the
    snapshot point and ``g_snap`` the stored gradient realization taken at
    ``q`` when the coin last fired (iteration ``tau``). ``dsgt`` re-takes
    its snapshot at every iterate: it passes ``q=None``, which makes ``q``
    the view ``x`` itself, ``g_snap`` holds the gradients sampled there and
    ``tau == t``. The ``last_*`` fields describe the most recent transition
    for diagnostics: ``last_grads`` holds the ``(m, d)`` gradient rows whose
    column mean moved the iterate mean (the fresh rows of a snapshot step,
    the previous snapshot rows of a ``dsgt`` step; ``None`` at the start).
    A step computes no means: :func:`audit_identities` takes them for a
    whole chunk of states at once.

    ``trailing_product`` is the unscaled base product ``W @ s[m:]`` of a
    stacked state, when the step that made it already holds those bits, and
    ``None`` otherwise: at ``t = 0``, for one-block states, and after a step
    whose coin fired. When the coin does not fire, the step adds no
    correction to the tracker, so the augmented operator leaves the new
    trailing block ``s[m:]`` equal, bit for bit, to the previous working
    block ``s[:m]``, whose product the step has just computed; the next
    ``apply`` reuses it instead of multiplying that block again.
    """

    xs: np.ndarray
    q: np.ndarray | None
    g_snap: np.ndarray
    tau: int
    t: int
    last_eta: float = 0.0
    last_zeta: int = 0
    last_grads: np.ndarray | None = None
    trailing_product: np.ndarray | None = None
    x: np.ndarray = field(init=False, repr=False)
    s: np.ndarray = field(init=False, repr=False)
    blocks: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.x = self.xs[0]
        self.s = self.xs[1]
        self.blocks = len(self.x) // len(self.g_snap)
        if self.q is None:
            self.q = self.x

    @property
    def x_aug(self) -> np.ndarray:
        """Read-only alias of ``x``, the stacked momentum iterate."""
        return self.x

    @property
    def s_aug(self) -> np.ndarray:
        """Read-only alias of ``s``, the stacked momentum tracker."""
        return self.s


#: A mixing operator: anything whose ``apply(x)`` mixes row-stacked states.
Operator = MixingMatrix | EdgeGossip | AugmentedMixing


def _start_rows(problem: QuadraticProblem, x0: np.ndarray) -> np.ndarray:
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (problem.d,):
        raise ValueError(f"start point must have shape ({problem.d},), got {x0.shape}")
    return np.tile(x0, (problem.m, 1))


def _sampled_gradients(
    problem: QuadraticProblem, x: np.ndarray, streams: StreamBundle | None
) -> np.ndarray:
    """Row-stacked noisy gradients with noise rows served by the bundle.

    Equals :func:`~netgrad.objectives.stochastic_gradients` on the bundle's
    agent streams bit for bit: the noise is scaled elementwise either way.
    The exact rows are :func:`~netgrad.objectives.exact_gradients` without
    its argument checks (``x`` is always an ``(m, d)`` float array here),
    through the ``c_einsum`` that ``np.einsum`` forwards to, so the bits
    are the same. Noiseless problems leave the streams untouched.
    """
    grads = c_einsum("ijk,ik->ij", problem.quads, x)
    grads += problem.linears
    if problem.sigma_bar == 0.0:
        return grads
    assert streams is not None
    if len(streams.agents) != problem.m:
        raise ValueError(f"need {problem.m} agent streams, got {len(streams.agents)}")
    grads += problem.noise.scale(problem.d) * streams.noise_rows(problem.d)
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
        The :class:`SsState` with ``t = 0``.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm tag '{algo}'")
    if problem.sigma_bar > 0.0 and streams is None:
        raise ValueError("noisy problems need a stream bundle")
    x = _start_rows(problem, x0)
    g0 = _sampled_gradients(problem, x, streams)
    blocks = 2 if algo == "assdsgt" else 1
    return SsState(xs=np.tile(np.stack([x, g0]), (1, blocks, 1)), q=x, g_snap=g0, tau=0, t=0)


def _add_to_blocks(stack: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Write ``stack`` plus the ``(m, d)`` array ``rows``, added to every block, to ``out``.

    Each block is one same-shape add, the cheapest call numpy has: for two
    blocks, two of them cost about half of one ``(blocks, m, d)`` broadcast.
    Every sum is rounded once, as block-by-block additions round it.
    """
    m = len(rows)
    if len(stack) == m:
        np.add(stack, rows, out=out)
    else:
        np.add(stack[:m], rows, out=out[:m])
        np.add(stack[m:], rows, out=out[m:])


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
    store its gradient realization). The ``(m, d)`` gradient correction is
    added to every block of the stacked state. With one block and a mixing
    matrix or gossip edge this is the snapshot iteration; with two blocks
    and the augmented operator it is the momentum iteration, and a zero
    momentum weight reproduces the one-block iteration bit for bit on the
    working block. The momentum step passes the state's
    ``trailing_product`` to ``apply`` and carries the new one (see
    :class:`SsState`), so a step whose predecessor's coin did not fire
    makes three base-matrix products instead of four.
    ``eta`` is ``step_size(sched, state.t)``, computed here when not given.
    """
    if eta is None:
        eta = step_size(sched, state.t)
    m = problem.m
    zeta = 1 if streams.coin_uniform() < sched.p else 0
    x = state.x
    g_x = _sampled_gradients(problem, x[:m], streams)
    correction = g_x - state.g_snap
    # The descent argument replaces the iterate in a copy of the stacked
    # state, so one apply mixes it and the tracker.
    mixing = state.xs.copy()
    descent = mixing[0]
    _add_to_blocks(mixing[1], correction, descent)
    descent *= eta
    np.subtract(x, descent, out=descent)
    if state.blocks == 1:
        xs_new, kept = op.apply(mixing), None
    else:
        # The augmented apply reuses the carried product of the trailing
        # tracker block and leaves every unscaled product in ``products``;
        # the tracker's working-block product is the next one to carry.
        products = np.empty(mixing.shape)
        xs_new = op.apply(mixing, state.trailing_product, products)
        kept = products[1, :m]
    if zeta:
        s_new = xs_new[1]
        _add_to_blocks(s_new, correction, s_new)
        q_new = x[:m].copy()
        g_snap_new = g_x
        tau_new = state.t
        # The correction now sits in both tracker blocks, so the trailing
        # block no longer has the bits of the product just computed.
        kept = None
    else:
        q_new = state.q
        g_snap_new = state.g_snap
        tau_new = state.tau
    return SsState(
        xs=xs_new,
        q=q_new,
        g_snap=g_snap_new,
        tau=tau_new,
        t=state.t + 1,
        last_eta=eta,
        last_zeta=zeta,
        last_grads=g_x,
        trailing_product=kept,
    )


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
    stochastic gradient descent.
    """
    if eta is None:
        eta = step_size(sched, state.t)
    mixing = state.xs.copy()
    descent = mixing[0]
    descent -= eta * state.s
    xs_new = op.apply(mixing)
    x_new, s_new = xs_new[0], xs_new[1]
    g_new = _sampled_gradients(problem, x_new, streams)
    s_new += g_new - state.g_snap
    return SsState(
        xs=xs_new,
        q=None,
        g_snap=g_new,
        tau=state.t + 1,
        t=state.t + 1,
        last_eta=eta,
        last_zeta=0,
        last_grads=state.g_snap,
    )


def column_mean(a: np.ndarray) -> np.ndarray:
    """Column mean of a 2-D array, ``np.add.reduce(a, axis=0) / rows``.

    This is the sum and division ``a.mean(axis=0)`` performs, so the bits are
    the same, without the overhead of ``mean``'s argument handling. The row
    count is passed as a float: the quotient is the same, and numpy's path
    for a Python float is cheaper than its path for a Python int.
    """
    return np.add.reduce(a, axis=0) / float(len(a))


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector.

    Equal bit for bit to ``np.linalg.norm(v)``, which also takes the square
    root of ``v . v``, at a fraction of its call overhead.
    """
    return math.sqrt(float(v.dot(v)))


def _rows_first(stack: np.ndarray) -> np.ndarray:
    """The ``(rows, count, d)`` layout of a contiguous ``(count, rows, d)`` stack.

    Reducing the result over axis 0 gives the column sums of every
    ``(rows, d)`` slice as :func:`column_mean` takes them, bit for bit, and
    fast. numpy sums contiguous rows pairwise and strided rows one after
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


def state_means(states: SsState | Sequence[SsState]) -> np.ndarray:
    """Column means of a chunk of stacked states, from one row layout.

    ``states`` is a chunk of ``K`` states of one run, so of one shape; the
    result has shape ``(K, rows, d)``, row block ``k`` for ``states[k]``. A
    single state is a chunk of one and gets its ``(rows, d)`` block. Rows 0
    and 1 are the full-stack means of ``x`` and ``s``. A stacked state adds
    rows 2 to 5, the block means of ``x[:m]``, ``x[m:]``, ``s[:m]`` and
    ``s[m:]``, from a second reduction over the block halves of the same
    layout. Every row equals :func:`column_mean` of its slice bit for bit.
    Either way the last ``2 * blocks`` rows are the block means, x blocks
    before s blocks, and row ``-2 * blocks`` is the mean of the working
    iterate ``x[:m]``.
    """
    if isinstance(states, SsState):
        return state_means((states,))[0]
    count = len(states)
    blocks = states[0].blocks
    m, d = states[0].g_snap.shape
    # One concatenation stacks the chunk; np.stack costs about three times as much.
    xs = np.concatenate([state.xs for state in states]).reshape(2 * count, blocks * m, d)
    rows = _rows_first(xs).reshape(blocks * m, count, 2, d)
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
    # Float divisors, as in column_mean.
    full /= float(blocks * m)
    block /= float(m)
    return means


def _python_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``max(a, b)`` as Python's ``max`` picks it.

    ``b`` wins only where it compares greater, so a NaN in ``a`` is kept and
    a NaN in ``b`` is passed over, unlike both ``np.maximum`` and ``np.fmax``.
    """
    return np.where(b > a, b, a)


def audit_identities(
    states: SsState | Sequence[SsState],
    means: np.ndarray | None = None,
    mean_before: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw self-check residuals for the tracking identities of a chunk of states.

    ``states`` is a chunk of ``K`` consecutive states of one run. The result
    is a pair of ``(K, 4)`` arrays, ``errors`` and ``scales``, with one
    column per identity in the order ``mean_dynamics``, ``block_sum_x``,
    ``block_sum_s``, ``tracker_mean``: ``error`` is the Euclidean size of
    the violated identity and ``scale`` the magnitude it should be compared
    against, and both are zero where an identity does not apply. Callers
    normalize against a running maximum of the scale so that late-run
    ratios stay meaningful after the quantities have converged toward zero.
    A single state is a chunk of one and gets two ``(4,)`` arrays.

    Checked identities:
        * mean dynamics (for every state but a first one without
          ``mean_before``): the full-stack iterate mean moved by exactly
          ``-last_eta`` times the column mean of ``last_grads`` from the
          mean before the step. That is ``mean_before`` for the chunk's
          first state, the full-stack iterate mean before the chunk
          (``None`` at a run's start, which has no step), and the previous
          state's mean for every later one;
        * stacked state (more than one block): the working block and the
          trailing block of the iterate and of the tracker keep equal column
          sums;
        * tracking: column mean of the tracker (over the full stack) equals
          the column mean of the stored snapshot gradients (for ``dsgt``, the
          last sampled ones).

    ``means`` is :func:`state_means` of the chunk when the caller already
    has it. The gradient means and the snapshot means of the whole chunk
    come from one stacked reduction, and every norm from one
    ``sqrt(vecdot)``; each equals :func:`column_mean` and
    :func:`vector_norm` of its own slice bit for bit. Each scale is the
    Python ``max`` of its norms, NaN handling included.
    """
    if isinstance(states, SsState):
        errors, scales = audit_identities((states,), None if means is None else means[None], mean_before)
        return errors[0], scales[0]
    if means is None:
        means = state_means(states)
    count, k, d = means.shape
    m = len(states[0].g_snap)
    stacked = k > 2
    first = 0 if mean_before is not None else 1
    stepped = states[first:]
    steps = len(stepped)
    # Rows of each state: the means; the full-stack means x and s should
    # have (x moved by the step from the mean before it, s at the snapshot
    # gradient mean); the residuals of the two; the step's gradient mean and
    # the mean before the step; and, for a stacked state, the
    # top-minus-bottom block residuals of x and s.
    rows = np.zeros((count, k + (8 if stacked else 6), d))
    rows[:, :k] = means
    # The gradient rows of every step and the snapshot rows of every state,
    # reduced together; the float divisor is column_mean's.
    grads = np.concatenate([state.last_grads for state in stepped] + [state.g_snap for state in states])
    grad_means = np.add.reduce(_rows_first(grads.reshape(steps + count, m, d)), axis=0)
    grad_means /= float(m)
    rows[:, k + 1] = grad_means[steps:]
    etas = np.array([state.last_eta for state in stepped])
    before = rows[first:, k + 5]
    before[1 - first :] = means[:-1, 0]
    if mean_before is not None:
        before[0] = mean_before
    rows[first:, k + 4] = grad_means[:steps]
    moved = rows[first:, k]
    np.multiply(grad_means[:steps], etas[:, None], out=moved)
    np.subtract(before, moved, out=moved)
    np.subtract(means[:, :2], rows[:, k : k + 2], out=rows[:, k + 2 : k + 4])
    if stacked:
        np.subtract(means[:, 2::2], means[:, 3::2], out=rows[:, k + 6 :])
    norms = np.sqrt(np.vecdot(rows, rows))
    errors = np.zeros((count, 4))
    scales = np.zeros((count, 4))
    step_norms = norms[first:]
    errors[first:, 0] = step_norms[:, k + 2]
    scales[first:, 0] = _python_max(
        _python_max(step_norms[:, 0], step_norms[:, k + 5]), etas * step_norms[:, k + 4]
    )
    if stacked:
        errors[:, 1:3] = norms[:, k + 6 :]
        scales[:, 1] = _python_max(norms[:, 2], norms[:, 3])
        scales[:, 2] = _python_max(norms[:, 4], norms[:, 5])
    errors[:, 3] = norms[:, k + 3]
    scales[:, 3] = _python_max(norms[:, 1], norms[:, k + 1])
    return errors, scales
