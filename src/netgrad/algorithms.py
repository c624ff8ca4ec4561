"""Decentralized gradient-tracking iterations and their step-size schedules.

Three iteration families share this module, and two step functions:

* ``dsgt``: plain stochastic gradient tracking (:func:`dsgt_step`). Every
  agent refreshes its gradient every iteration and a tracker variable follows
  the network-average gradient through mixing.
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
:mod:`netgrad.topology`). States are row-stacked: ``(m, d)`` for ``dsgt``,
and ``blocks`` stacked ``(m, d)`` blocks for the snapshot state (one for the
plain operator, two for the augmented one). Randomness comes exclusively from a
:class:`~netgrad.streams.StreamBundle`, which serves the coin uniforms and the
noise rows from blocks; noiseless runs draw nothing from the gradient streams
and are bit-identical to exact-gradient runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ``stochastic_gradients`` is the per-call reference oracle; the iterations
# use block-served noise instead, but perfbench's layer probe still looks the
# oracle up under this module's name.
from .objectives import QuadraticProblem, exact_gradients, stochastic_gradients  # noqa: F401
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
    "DsgtState",
    "init_state",
    "ssdsgt_step",
    "assdsgt_step",
    "dsgt_step",
    "audit_identities",
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
            ``dsgt``, which keeps no snapshot).
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


@dataclass
class SsState:
    """Snapshot tracking state, plain or momentum-augmented.

    ``x`` and ``s`` are the row-stacked iterates and trackers. They stack
    ``blocks`` copies of the ``(m, d)`` agent block: one for the plain
    operator, two for the augmented operator (the working block on top of the
    trailing block). The working iterate is ``x[:m]``. ``q`` is the snapshot
    point and ``g_snap`` the stored gradient realization taken at ``q`` when
    the coin last fired (iteration ``tau``), with column mean ``g_snap_mean``
    (computed from ``g_snap`` when not given). The ``last_*`` fields
    describe the most recent transition for diagnostics.
    """

    x: np.ndarray
    s: np.ndarray
    q: np.ndarray
    g_snap: np.ndarray
    tau: int
    t: int
    last_eta: float = 0.0
    last_zeta: int = 0
    last_grad_mean: np.ndarray | None = None
    g_snap_mean: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.g_snap_mean is None:
            self.g_snap_mean = self.g_snap.mean(axis=0)

    @property
    def blocks(self) -> int:
        """Number of stacked ``(m, d)`` blocks in ``x`` and ``s``."""
        return self.x.shape[0] // self.q.shape[0]

    @property
    def x_aug(self) -> np.ndarray:
        """Read-only alias of ``x``, the stacked momentum iterate."""
        return self.x

    @property
    def s_aug(self) -> np.ndarray:
        """Read-only alias of ``s``, the stacked momentum tracker."""
        return self.s


@dataclass
class DsgtState:
    """Plain gradient-tracking state with the last sampled gradients.

    Kept apart from :class:`SsState` because its recursion samples gradients
    at the new iterate and keeps no snapshot. ``g_prev_mean`` is the column
    mean of ``g_prev`` (computed from it when not given).
    """

    x: np.ndarray
    s: np.ndarray
    g_prev: np.ndarray
    t: int
    last_eta: float = 0.0
    last_zeta: int = 0
    last_grad_mean: np.ndarray | None = None
    g_prev_mean: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.g_prev_mean is None:
            self.g_prev_mean = self.g_prev.mean(axis=0)


AnyState = SsState | DsgtState

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
    Noiseless problems leave the streams untouched.
    """
    grads = exact_gradients(problem, x)
    if problem.sigma_bar == 0.0:
        return grads
    assert streams is not None
    if len(streams.agents) != problem.m:
        raise ValueError(f"need {problem.m} agent streams, got {len(streams.agents)}")
    return grads + problem.noise.scale(problem.d) * streams.noise_rows(problem.d)


def init_state(
    problem: QuadraticProblem,
    x0: np.ndarray,
    algo: str,
    streams: StreamBundle | None = None,
) -> AnyState:
    """Build the iteration state at a shared start point.

    Every agent starts at ``x0``. Trackers and snapshot caches start from one
    stochastic gradient draw per agent at the start point (no draws happen
    when the problem is noiseless).

    Args:
        problem: Objective suite.
        x0: Shared start point of shape ``(d,)``.
        algo: One of :data:`ALGORITHMS`.
        streams: Random streams; required when the problem has gradient noise.

    Returns:
        The matching state object with ``t = 0``.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm tag '{algo}'")
    if problem.sigma_bar > 0.0 and streams is None:
        raise ValueError("noisy problems need a stream bundle")
    x = _start_rows(problem, x0)
    g0 = _sampled_gradients(problem, x, streams)
    if algo == "dsgt":
        return DsgtState(x=x, s=g0.copy(), g_prev=g0.copy(), t=0)
    reps = (2, 1) if algo == "assdsgt" else (1, 1)
    return SsState(
        x=np.tile(x, reps), s=np.tile(g0, reps), q=x.copy(), g_snap=g0.copy(), tau=0, t=0
    )


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
    working block ``x[:m]``, take the corrected tracked descent step through
    ``op.apply``, then refresh the tracker (and, when the coin fired, move
    the snapshot to the pre-step working iterate and store its gradient
    realization). The ``(m, d)`` gradient correction is added to every block
    of the stacked state. With one block and a mixing matrix or gossip edge
    this is the snapshot iteration; with two blocks and the augmented
    operator it is the momentum iteration, and a zero momentum weight
    reproduces the one-block iteration bit for bit on the working block.
    ``eta`` is ``step_size(sched, state.t)``, computed here when not given.
    """
    if eta is None:
        eta = step_size(sched, state.t)
    m = problem.m
    zeta = 1 if streams.coin_uniform() < sched.p else 0
    x, s = state.x, state.s
    stacked = (-1, m, problem.d)
    g_x = _sampled_gradients(problem, x[:m], streams)
    grad_mean = g_x.mean(axis=0)
    correction = g_x - state.g_snap
    descent = x.reshape(stacked) - eta * (s.reshape(stacked) + correction)
    x_new = op.apply(descent.reshape(x.shape))
    mixed_s = op.apply(s)
    if zeta:
        s_new = (mixed_s.reshape(stacked) + correction).reshape(x.shape)
        q_new = x[:m].copy()
        g_snap_new, g_snap_mean_new = g_x, grad_mean
        tau_new = state.t
    else:
        s_new = mixed_s
        q_new = state.q
        g_snap_new, g_snap_mean_new = state.g_snap, state.g_snap_mean
        tau_new = state.tau
    return SsState(
        x=x_new,
        s=s_new,
        q=q_new,
        g_snap=g_snap_new,
        tau=tau_new,
        t=state.t + 1,
        last_eta=eta,
        last_zeta=zeta,
        last_grad_mean=grad_mean,
        g_snap_mean=g_snap_mean_new,
    )


#: The momentum-augmented iteration is the snapshot step driven through an
#: :class:`~netgrad.topology.AugmentedMixing` on a two-block state.
assdsgt_step = ssdsgt_step


def dsgt_step(
    state: DsgtState,
    problem: QuadraticProblem,
    op: MixingMatrix | EdgeGossip,
    sched: Schedule,
    streams: StreamBundle,
    eta: float | None = None,
) -> DsgtState:
    """Advance the plain tracking iteration by one step.

    The iterate descends along the tracker through ``op.apply``, fresh
    gradients are sampled at the new iterate, and the tracker absorbs the
    gradient increment. With one agent and the identity matrix this is plain
    stochastic gradient descent.
    """
    if eta is None:
        eta = step_size(sched, state.t)
    x_new = op.apply(state.x - eta * state.s)
    g_new = _sampled_gradients(problem, x_new, streams)
    s_new = op.apply(state.s) + (g_new - state.g_prev)
    return DsgtState(
        x=x_new,
        s=s_new,
        g_prev=g_new,
        t=state.t + 1,
        last_eta=eta,
        last_zeta=0,
        last_grad_mean=state.g_prev_mean,
        g_prev_mean=g_new.mean(axis=0),
    )


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector.

    Equal bit for bit to ``np.linalg.norm(v)``, which also takes the square
    root of ``v . v``, at a fraction of its call overhead.
    """
    return math.sqrt(float(v.dot(v)))


def _mean_check(name: str, a: np.ndarray, b: np.ndarray) -> tuple[str, float, float]:
    """``(name, |a - b|, max(|a|, |b|))`` for two column means."""
    return name, vector_norm(a - b), max(vector_norm(a), vector_norm(b))


def audit_identities(state: AnyState) -> list[tuple[str, float, float]]:
    """Raw self-check residuals for the tracking identities.

    Returns ``(name, error, scale)`` triples where ``error`` is the Euclidean
    size of the violated identity and ``scale`` the magnitude it should be
    compared against. Callers normalize against a running maximum of the
    scale so that late-run ratios stay meaningful after the quantities have
    converged toward zero.

    Checked identities:
        * snapshot tracking: column mean of the tracker equals the column
          mean of the stored snapshot gradients;
        * plain tracking: column mean of the tracker equals the column mean
          of the last sampled gradients;
        * stacked snapshot state (more than one block): additionally, the
          working block and the trailing block of the iterate and of the
          tracker keep equal column sums; the tracker mean is taken over the
          full stack.
    """
    if isinstance(state, DsgtState):
        return [_mean_check("tracker_mean", state.s.mean(axis=0), state.g_prev_mean)]
    m = state.q.shape[0]
    stacks = (("block_sum_x", state.x), ("block_sum_s", state.s)) if state.blocks > 1 else ()
    checks = [
        _mean_check(name, stack[:m].mean(axis=0), stack[m:].mean(axis=0)) for name, stack in stacks
    ]
    checks.append(_mean_check("tracker_mean", state.s.mean(axis=0), state.g_snap_mean))
    return checks
