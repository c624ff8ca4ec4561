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
from dataclasses import dataclass, fields

import numpy as np

# The function ``np.einsum`` forwards to when ``optimize`` is off.
from numpy._core.multiarray import c_einsum

from .algorithms import SsState
# global_suboptimality is not called here, but perfbench's layer probe wraps this name.
from .objectives import QuadraticProblem, global_suboptimality  # noqa: F401
from .topology import MOMENTUM_ENVELOPE

__all__ = [
    "CSV_COLUMNS",
    "IterRecord",
    "WeightedAverager",
    "snapshot_gradient_distance",
    "record_iteration",
]

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


#: Fixed column order of trace files: the fields of :class:`IterRecord` but ``wavg_subopt``.
CSV_COLUMNS: tuple[str, ...] = tuple(f.name for f in fields(IterRecord) if f.name != "wavg_subopt")


def snapshot_gradient_distance(problem: QuadraticProblem, q: np.ndarray) -> float:
    """Squared distance between exact gradients at ``q`` and at the minimizer.

    Row ``i`` compares agent ``i`` at ``q[i]`` against agent ``i`` at the
    network minimizer; the linear terms cancel, leaving
    ``sum_i |Q_i (q_i - x*)|^2``. The rows come from the ``c_einsum`` that
    ``np.einsum`` forwards to, and their squares are summed by one
    ``np.add.reduce`` over the flattened rows, the pairwise sum
    ``np.sum`` takes of the contiguous ``(m, d)`` array, so the bits are
    those of ``np.sum(rows * rows)``.
    """
    q = np.asarray(q, dtype=np.float64)
    delta = q - problem.x_star
    rows = c_einsum("ijk,ik->ij", problem.quads, delta)
    rows *= rows
    return float(np.add.reduce(rows.reshape(-1)))


def _psi(cx: float, cs: float, dist: float, eta: float, theta: float, L: float) -> float:
    """Lyapunov combination for the snapshot iteration, from its three squared terms.

    ``|Px|^2 + (4 eta^2 / theta^2) |Ps|^2 +
    (2 eta / (L theta)) |grad at snapshot - grad at minimizer|^2``
    with exact gradients in the last term: ``cx``, ``cs`` and ``dist``.
    """
    return cx + (4.0 * eta * eta / (theta * theta)) * cs + (2.0 * eta / (L * theta)) * dist


def _psi_tilde(cx: float, cs: float, dist: float, eta: float, theta_tilde: float) -> float:
    """Lyapunov combination for the momentum-augmented (two-block) iteration.

    ``|P x|^2 + (12 alpha eta^2 / theta_tilde^2) |P s|^2 +
    (16 (1 + 8 alpha) eta^2 / theta_tilde^2) |grad at snapshot - grad at
    minimizer|^2``, from the three squared terms ``cx``, ``cs`` and
    ``dist``, where the projections act blockwise on the stacked state and
    ``alpha`` is :data:`~netgrad.topology.MOMENTUM_ENVELOPE`, the envelope
    constant of the augmented mixing chain.
    """
    tt2 = theta_tilde * theta_tilde
    return (
        cx
        + (12.0 * MOMENTUM_ENVELOPE * eta * eta / tt2) * cs
        + (16.0 * (1.0 + 8.0 * MOMENTUM_ENVELOPE) * eta * eta / tt2) * dist
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
        log_w, eta_prev = self._log_w, self._eta_prev
        wmax, wsum, vmax, vsum = self._wmax, self._wsum, self._vmax, self._vsum
        bad = None
        for eta, value in zip(etas, values):
            if eta <= 0.0:
                bad = eta
                break
            # An unchanged finite step adds log(eta / eta_prev), exactly 0.0,
            # to a nonnegative term, which leaves it as it is.
            if eta_prev is None or eta == eta_prev < math.inf:
                log_w += half_mu * eta
            else:
                log_w += log(eta / eta_prev) + half_mu * eta
            eta_prev = eta
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
        self._log_w, self._eta_prev = log_w, eta_prev
        self._wmax, self._wsum, self._vmax, self._vsum = wmax, wsum, vmax, vsum
        if bad is not None:
            raise ValueError(f"step size must be positive, got {bad}")

    @property
    def average(self) -> float:
        """Current weighted average; zero when every pushed value was zero."""
        if self._eta_prev is None:  # set by every folded pair
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
    wavg_subopt: float | None,
) -> IterRecord:
    """Assemble the diagnostic record for the current state.

    ``means`` is the row block of ``state`` in
    :func:`~netgrad.algorithms.state_means` of its chunk and ``subopt`` the
    suboptimality of its working-block mean, as the driving loop computed
    them, and ``wavg_subopt`` the running weighted average the record
    carries (``None`` for none). The snapshot distance is
    :func:`snapshot_gradient_distance` at ``state.q``. Consensus errors are
    taken blockwise: the squared Frobenius distance of each ``(m, d)`` block
    of ``state.x`` and ``state.s`` from its column mean in ``means``, summed
    over the blocks of each. A stacked state gets the momentum Lyapunov
    value ``psi_tilde``, with the envelope constant
    :data:`~netgrad.topology.MOMENTUM_ENVELOPE`, in place of ``psi``.
    """
    blocks = state.blocks
    dist = snapshot_gradient_distance(problem, state.q)
    # One centred reduction over the (2 * blocks, m, d) layout of the stacked
    # state gives every block's consensus error.
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
        psi = _psi_tilde(cx, cs, dist, eta, theta)
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
