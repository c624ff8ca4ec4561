"""Per-iteration diagnostics: consensus errors, Lyapunov values, averages.

The quantities recorded here are the ones the convergence analysis of the
iterations is written in: squared consensus errors of the iterate and the
tracker, the squared distance between snapshot gradients and the gradients at
the minimizer, a weighted Lyapunov combination of the three, and the
suboptimality of the network-average iterate. Records carry everything needed
to audit a run offline from its trace file.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algorithms import SsState, column_mean
# global_suboptimality is not called here, but perfbench's layer probe wraps this name.
from .objectives import QuadraticProblem, global_suboptimality  # noqa: F401
from .topology import MOMENTUM_ENVELOPE

__all__ = [
    "CSV_COLUMNS",
    "IterRecord",
    "WeightedAverager",
    "consensus_error",
    "snapshot_gradient_distance",
    "lyapunov_psi",
    "lyapunov_psi_tilde",
    "record_iteration",
]

#: Fixed column order of trace files.
CSV_COLUMNS: tuple[str, ...] = (
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


@dataclass(frozen=True)
class IterRecord:
    """Snapshot of one recorded iteration.

    Every field is finite. All ``*_x``/``*_s``/``*_dist``/``psi`` fields are
    squared quantities and therefore nonnegative; ``subopt`` may carry a tiny
    negative floating point residue bounded by ``1e-12``. ``wavg_subopt`` is
    the running weighted-average suboptimality for noisy runs (not part of
    the trace CSV columns).
    """

    t: int
    eta: float
    zeta: int
    consensus_x: float
    consensus_s: float
    snap_grad_dist: float
    psi: float
    mean_dist: float
    subopt: float
    wavg_subopt: float | None = None

    def __post_init__(self) -> None:
        for name in ("consensus_x", "consensus_s", "snap_grad_dist", "psi", "mean_dist"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # NaN fails the comparison too
                raise ValueError(f"{name} is a finite squared quantity but is {value}")
        if not math.isfinite(self.eta):
            raise ValueError(f"step size {self.eta} is not finite")
        if not math.isfinite(self.subopt) or self.subopt < -1e-12:
            raise ValueError(f"suboptimality {self.subopt} is not finite or below the -1e-12 floor")
        if self.wavg_subopt is not None and not math.isfinite(self.wavg_subopt):
            raise ValueError(f"weighted-average suboptimality {self.wavg_subopt} is not finite")
        if self.zeta not in (0, 1):
            raise ValueError(f"zeta must be 0 or 1, got {self.zeta}")


def consensus_error(x: np.ndarray, blocks: int = 1) -> float:
    """Squared Frobenius distance of row-stacked states from their row mean.

    With ``blocks=2`` the input stacks two equally sized blocks and the
    deviation is measured blockwise: each block is centered on its own mean
    and the squared distances are summed.
    """
    x = np.asarray(x, dtype=np.float64)
    if blocks == 1:
        centered = x - column_mean(x)
        return float(np.sum(centered * centered))
    if blocks == 2:
        if x.shape[0] % 2 != 0:
            raise ValueError(f"two-block input needs an even row count, got {x.shape[0]}")
        half = x.shape[0] // 2
        return consensus_error(x[:half]) + consensus_error(x[half:])
    raise ValueError(f"blocks must be 1 or 2, got {blocks}")


def snapshot_gradient_distance(problem: QuadraticProblem, q: np.ndarray) -> float:
    """Squared distance between exact gradients at ``q`` and at the minimizer.

    Row ``i`` compares agent ``i`` at ``q[i]`` against agent ``i`` at the
    network minimizer; the linear terms cancel, leaving
    ``sum_i |Q_i (q_i - x*)|^2``.
    """
    q = np.asarray(q, dtype=np.float64)
    delta = q - problem.x_star
    rows = np.einsum("ijk,ik->ij", problem.quads, delta)
    return float(np.sum(rows * rows))


def lyapunov_psi(
    state: SsState,
    eta: float,
    theta: float,
    L: float,
    problem: QuadraticProblem,
) -> float:
    """Lyapunov combination for the snapshot iteration.

    ``|Px|^2 + (4 eta^2 / theta^2) |Ps|^2 +
    (2 eta / (L theta)) |grad at snapshot - grad at minimizer|^2``
    with exact gradients in the last term.
    """
    cx = consensus_error(state.x)
    cs = consensus_error(state.s)
    dist = snapshot_gradient_distance(problem, state.q)
    return _psi(cx, cs, dist, eta, theta, L)


def _psi(cx: float, cs: float, dist: float, eta: float, theta: float, L: float) -> float:
    """The :func:`lyapunov_psi` combination of its three squared terms."""
    return cx + (4.0 * eta * eta / (theta * theta)) * cs + (2.0 * eta / (L * theta)) * dist


def lyapunov_psi_tilde(
    state: SsState,
    eta: float,
    theta_tilde: float,
    L: float,
    alpha: float,
    problem: QuadraticProblem,
) -> float:
    """Lyapunov combination for the momentum-augmented (two-block) iteration.

    ``|P x|^2 + (12 alpha eta^2 / theta_tilde^2) |P s|^2 +
    (16 (1 + 8 alpha) eta^2 / theta_tilde^2) |grad at snapshot - grad at
    minimizer|^2`` where the projections act blockwise on the stacked state
    and ``alpha`` is the envelope constant of the augmented mixing chain.
    """
    cx = consensus_error(state.x, blocks=2)
    cs = consensus_error(state.s, blocks=2)
    dist = snapshot_gradient_distance(problem, state.q)
    return _psi_tilde(cx, cs, dist, eta, theta_tilde, alpha)


def _psi_tilde(
    cx: float, cs: float, dist: float, eta: float, theta_tilde: float, alpha: float
) -> float:
    """The :func:`lyapunov_psi_tilde` combination of its three squared terms."""
    tt2 = theta_tilde * theta_tilde
    return (
        cx
        + (12.0 * alpha * eta * eta / tt2) * cs
        + (16.0 * (1.0 + 8.0 * alpha) * eta * eta / tt2) * dist
    )


class WeightedAverager:
    """Streaming weighted average with exponentially growing weights.

    Iteration ``t`` with step size ``eta_t`` receives the weight
    ``w_t = (eta_t / eta_0) * exp((mu / 2) * sum_{i <= t} eta_i)``, pushed in
    iteration order. Both the weight total and the weighted value total are
    accumulated in log space relative to their running maximum term, so the
    average stays finite even after the raw weights overflow any float.

    Args:
        mu: Strong convexity modulus entering the weight growth.
    """

    def __init__(self, mu: float) -> None:
        if mu < 0.0:
            raise ValueError(f"mu must be nonnegative, got {mu}")
        self._mu = mu
        self._log_w = 0.0
        self._eta_prev: float | None = None
        self._count = 0
        self._wmax = -math.inf
        self._wsum = 0.0
        self._vmax = -math.inf
        self._vsum = 0.0

    def push(self, etas: Sequence[float], values: Sequence[float]) -> None:
        """Fold in a segment of iterations' step sizes and suboptimality values.

        The pairs ``(etas[i], values[i])`` are folded in order, each with
        the same ``math.log``/``math.exp`` arithmetic, so a segment gives
        the bits of its pairs pushed one at a time; a lone iteration is a
        segment of one. Values at or below zero (tiny negative floating
        point residues included) contribute zero mass to the weighted value
        total.
        """
        half_mu = 0.5 * self._mu
        log, exp, isinf = math.log, math.exp, math.isinf
        log_w, eta_prev, count = self._log_w, self._eta_prev, self._count
        wmax, wsum, vmax, vsum = self._wmax, self._wsum, self._vmax, self._vsum
        bad = None
        for eta, value in zip(etas, values):
            if eta <= 0.0:
                bad = eta
                break
            if eta_prev is None:
                log_w += half_mu * eta
            else:
                log_w += log(eta / eta_prev) + half_mu * eta
            eta_prev = eta
            count += 1
            # Each total is kept relative to its running maximum term.
            if log_w <= wmax:
                wsum += exp(log_w - wmax)
            elif isinf(wmax):
                wmax, wsum = log_w, 1.0
            else:
                wmax, wsum = log_w, wsum * exp(wmax - log_w) + 1.0
            if value > 0.0:
                term = log_w + log(value)
                if term <= vmax:
                    vsum += exp(term - vmax)
                elif isinf(vmax):
                    vmax, vsum = term, 1.0
                else:
                    vmax, vsum = term, vsum * exp(vmax - term) + 1.0
        # The pairs before a bad step size stay folded in.
        self._log_w, self._eta_prev, self._count = log_w, eta_prev, count
        self._wmax, self._wsum, self._vmax, self._vsum = wmax, wsum, vmax, vsum
        if bad is not None:
            raise ValueError(f"step size must be positive, got {bad}")

    @property
    def count(self) -> int:
        return self._count

    @property
    def average(self) -> float:
        """Current weighted average; zero when every pushed value was zero."""
        if self._count == 0:
            raise ValueError("no values pushed yet")
        if self._vsum == 0.0:
            return 0.0
        log_num = self._vmax + math.log(self._vsum)
        log_den = self._wmax + math.log(self._wsum)
        return math.exp(log_num - log_den)


def record_iteration(
    state: SsState,
    problem: QuadraticProblem,
    eta: float,
    theta: float,
    means: np.ndarray,
    subopt: float,
    wavg_subopt: float | None = None,
) -> IterRecord:
    """Assemble the diagnostic record for the current state.

    ``means`` is the row block of ``state`` in
    :func:`~netgrad.algorithms.state_means` of its chunk and ``subopt`` the
    suboptimality of its working-block mean, as the driving loop computed
    them. The snapshot distance is :func:`snapshot_gradient_distance` at
    ``state.q``. Consensus errors are taken blockwise, equal bit for bit to
    :func:`consensus_error` of ``state.x`` and ``state.s``, and a stacked
    state gets the momentum Lyapunov value ``psi_tilde``, with the envelope
    constant :data:`~netgrad.topology.MOMENTUM_ENVELOPE`, in place of
    ``psi``.
    """
    blocks = state.blocks
    dist = snapshot_gradient_distance(problem, state.q)
    # One centred reduction over the (2 * blocks, m, d) layout of the stacked
    # state gives every block's consensus error, as consensus_error would.
    parts = state.xs.reshape(2 * blocks, problem.m, problem.d)
    centered = parts - means[-2 * blocks :, None, :]
    centered *= centered
    squares = np.add.reduce(centered.reshape(2 * blocks, -1), axis=1).tolist()
    if blocks == 1:
        cx, cs = squares
        psi = _psi(cx, cs, dist, eta, theta, problem.L)
    else:
        cx = squares[0] + squares[1]
        cs = squares[2] + squares[3]
        psi = _psi_tilde(cx, cs, dist, eta, theta, MOMENTUM_ENVELOPE)
    delta = means[-2 * blocks] - problem.x_star
    return IterRecord(
        t=state.t,
        eta=eta,
        zeta=state.last_zeta,
        consensus_x=cx,
        consensus_s=cs,
        snap_grad_dist=dist,
        psi=psi,
        mean_dist=float(delta @ delta),
        subopt=subopt,
        wavg_subopt=wavg_subopt,
    )
