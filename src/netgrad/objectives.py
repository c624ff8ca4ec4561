"""Synthetic strongly convex quadratic objectives with gradient noise.

Each agent ``i`` owns ``f_i(x) = 0.5 * x^T Q_i x + c_i^T x`` with eigenvalues
of ``Q_i`` confined to ``[mu, L]``. The network objective is the average of
the agent objectives, so its curvature matrix is the average ``Q`` and the
minimizer solves ``mean(Q) x* = -mean(c)``.

Construction draws, in a fixed order from a single stream: eigenvalue slots,
one random rotation per agent, the shared linear term, and the mean-zero
heterogeneity shifts. The first pooled eigenvalue slot is pinned to ``mu``
and the last to ``L`` (when at least two slots exist) so the extreme
curvatures are attained exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseModel",
    "QuadraticProblem",
    "make_quadratic_suite",
    "exact_gradient",
    "exact_gradients",
    "stochastic_gradient",
    "stochastic_gradients",
    "global_suboptimality",
]

#: Tolerance on the curvature bounds ``[mu, L]``, relative to ``max(1, L)``:
#: an eigenvalue of a ``(d, d)`` curvature is only ever computed to about
#: ``d * 2**-52 * L``.
_EIG_TOL = 1e-9


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic Gaussian gradient noise with a fixed total second moment.

    Each sampled vector has independent ``N(0, sigma_bar**2 / d)`` coordinates
    so that ``E[|noise|^2] = sigma_bar**2`` exactly, independent of the
    dimension.
    """

    sigma_bar: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.sigma_bar < math.inf):
            raise ValueError(f"noise level must be finite and nonnegative, got {self.sigma_bar}")

    def scale(self, d: int) -> float:
        """Coordinate standard deviation ``sigma_bar / sqrt(d)``.

        ``math.sqrt`` and ``np.sqrt`` both round the square root correctly,
        so the quotient has the same bits either way; ``math.sqrt`` skips
        numpy's scalar path, which costs about ten times as much.
        """
        return self.sigma_bar / math.sqrt(d)

    def sample(self, rng: np.random.Generator, d: int) -> np.ndarray:
        """Draw one noise vector of dimension ``d``."""
        return self.scale(d) * rng.standard_normal(d)


@dataclass(frozen=True)
class QuadraticProblem:
    """A suite of per-agent quadratics plus the network-level quantities they fix.

    A problem is built from its inputs alone: ``quads``, ``linears``, ``mu``,
    ``L`` and ``sigma_bar``. Everything else is derived from them once, at
    construction, and cannot be set.

    Attributes:
        quads: Stacked curvature matrices, shape ``(m, d, d)``; finite,
            symmetric and with eigenvalues in ``[mu, L]``, each up to a
            ``1e-9 * max(1, L)`` tolerance.
        linears: Stacked linear terms, shape ``(m, d)``; finite.
        mu: Strong convexity modulus, positive.
        L: Smoothness constant, finite and at least ``mu``.
        sigma_bar: Gradient noise level, finite and nonnegative (see
            :class:`NoiseModel`).
        m: Number of agents, from the shape of ``quads``.
        d: Decision dimension, from the shape of ``quads``.
        noise: The noise model of ``sigma_bar``, sampling gradient perturbations.
        qbar: Average curvature matrix ``mean(quads)``.
        cbar: Average linear term ``mean(linears)``.
        x_star: Network minimizer, solving ``qbar @ x_star = -cbar``.
    """

    quads: np.ndarray
    linears: np.ndarray
    mu: float
    L: float
    sigma_bar: float
    m: int = field(init=False)
    d: int = field(init=False)
    noise: NoiseModel = field(init=False)
    qbar: np.ndarray = field(init=False)
    cbar: np.ndarray = field(init=False)
    x_star: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        quads = np.asarray(self.quads, dtype=np.float64)
        linears = np.asarray(self.linears, dtype=np.float64)
        if quads.ndim != 3 or quads.shape[1] != quads.shape[2]:
            raise ValueError(f"curvature stack has shape {quads.shape}")
        m, d = quads.shape[:2]
        if m < 1 or d < 1:
            raise ValueError(f"need m >= 1 and d >= 1, got m={m}, d={d}")
        if linears.shape != (m, d):
            raise ValueError(f"linear stack has shape {linears.shape}")
        if not (0.0 < self.mu <= self.L < math.inf):
            raise ValueError(f"need 0 < mu <= L < inf, got mu={self.mu}, L={self.L}")
        if not (np.isfinite(quads).all() and np.isfinite(linears).all()):
            raise ValueError("curvature and linear stacks need finite entries")
        tol = _EIG_TOL * max(1.0, self.L)
        skew = np.abs(quads - quads.transpose(0, 2, 1)).max(axis=(1, 2))
        if (skew > tol).any():
            i = int(np.argmax(skew > tol))
            raise ValueError(f"agent {i} curvature is asymmetric by {skew[i]:.3g}, past {tol:.3g}")
        evals = np.linalg.eigvalsh(quads)
        escaped = (evals[:, 0] < self.mu - tol) | (evals[:, -1] > self.L + tol)
        if escaped.any():
            i = int(np.argmax(escaped))
            raise ValueError(
                f"agent {i} eigenvalues [{evals[i, 0]:.12g}, {evals[i, -1]:.12g}] "
                f"escape [{self.mu}, {self.L}]"
            )
        qbar = quads.mean(axis=0)
        cbar = linears.mean(axis=0)
        x_star = np.linalg.solve(qbar, -cbar)
        for arr in (quads, linears, qbar, cbar, x_star):
            arr.setflags(write=False)
        derived = dict(m=m, d=d, noise=NoiseModel(self.sigma_bar), qbar=qbar, cbar=cbar, x_star=x_star)
        for name, value in dict(derived, quads=quads, linears=linears).items():
            object.__setattr__(self, name, value)


def make_quadratic_suite(
    m: int,
    d: int,
    mu: float,
    L: float,
    heterogeneity: float,
    rng: np.random.Generator,
    sigma_bar: float = 0.0,
) -> QuadraticProblem:
    """Generate a random suite of agent quadratics.

    Args:
        m: Number of agents, at least one.
        d: Decision dimension, at least one.
        mu: Strong convexity modulus; must satisfy ``0 < mu <= L``.
        L: Smoothness constant.
        heterogeneity: Scale of the mean-zero per-agent shifts added to the
            shared linear term. Zero makes every agent's linear term equal.
            The network minimizer does not depend on this knob because the
            shifts are mean-subtracted.
        rng: Source of randomness for the construction.
        sigma_bar: Gradient noise level stored on the problem.

    Returns:
        The assembled :class:`QuadraticProblem`.
    """
    if m < 1 or d < 1:
        raise ValueError(f"need m >= 1 and d >= 1, got m={m}, d={d}")
    if not (0.0 < mu <= L):
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if heterogeneity < 0.0:
        raise ValueError(f"heterogeneity must be nonnegative, got {heterogeneity}")

    slots = rng.uniform(mu, L, size=(m, d))
    slots[0, 0] = mu
    if m * d >= 2:
        slots[m - 1, d - 1] = L

    # One Haar-ish rotation per agent, column signs fixed by the diagonal of
    # R. The (m, d, d) draw takes the stream's values in agent order, as m
    # separate (d, d) draws would.
    rot, r = np.linalg.qr(rng.standard_normal((m, d, d)))
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0.0] = 1.0
    rot = rot * signs[:, None, :]
    quads = (rot * slots[:, None, :]) @ rot.swapaxes(1, 2)
    quads = 0.5 * (quads + quads.swapaxes(1, 2))

    base_linear = rng.standard_normal(d)
    shifts = rng.standard_normal((m, d))
    shifts -= shifts.mean(axis=0)
    linears = base_linear + heterogeneity * shifts

    return QuadraticProblem(
        quads=quads, linears=linears, mu=float(mu), L=float(L), sigma_bar=float(sigma_bar)
    )


def exact_gradient(problem: QuadraticProblem, agent: int, x: np.ndarray) -> np.ndarray:
    """Gradient of agent ``agent`` at the point ``x``.

    Raises:
        IndexError: When the agent index is out of range.
    """
    if not (0 <= agent < problem.m):
        raise IndexError(f"agent index {agent} out of range for m={problem.m}")
    x = np.asarray(x, dtype=np.float64)
    return problem.quads[agent] @ x + problem.linears[agent]


def exact_gradients(problem: QuadraticProblem, x: np.ndarray) -> np.ndarray:
    """Row-stacked exact gradients: row ``i`` is agent ``i`` at ``x[i]``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.m, problem.d):
        raise ValueError(f"state must have shape ({problem.m}, {problem.d}), got {x.shape}")
    return np.einsum("ijk,ik->ij", problem.quads, x) + problem.linears


def stochastic_gradient(
    problem: QuadraticProblem,
    agent: int,
    x: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One noisy gradient sample for a single agent.

    With ``sigma_bar == 0`` this returns the exact gradient without touching
    the stream, so noiseless runs are bit-identical to exact-gradient runs.
    """
    grad = exact_gradient(problem, agent, x)
    if problem.sigma_bar == 0.0:
        return grad
    return grad + problem.noise.sample(rng, problem.d)


def stochastic_gradients(
    problem: QuadraticProblem,
    x: np.ndarray,
    agent_rngs: tuple[np.random.Generator, ...] | list[np.random.Generator],
) -> np.ndarray:
    """Row-stacked noisy gradients, one draw per agent in index order.

    Agents consume their own streams, which keeps traces reproducible no
    matter how the surrounding code is scheduled.
    """
    grads = exact_gradients(problem, x)
    if problem.sigma_bar == 0.0:
        return grads
    if len(agent_rngs) != problem.m:
        raise ValueError(f"need {problem.m} agent streams, got {len(agent_rngs)}")
    noise = np.empty_like(grads)
    for i in range(problem.m):
        noise[i] = problem.noise.sample(agent_rngs[i], problem.d)
    return grads + noise


def global_suboptimality(problem: QuadraticProblem, v: np.ndarray) -> float | list[float]:
    """Gap ``f(v) - f(x*)`` computed through the cancellation-free route.

    Uses the identity ``f(v) - f(x*) = 0.5 * (v - x*)^T qbar (v - x*)``,
    which stays accurate near the minimizer where the two objective values
    would cancel. ``v`` is one point ``(d,)``, which gives a float, or a
    stack of points ``(K, d)``, which gives a list of ``K`` floats. Both go
    through the same two batched products, each row's equal bit for bit to
    ``delta @ qbar @ delta`` of that row alone.
    """
    delta = np.asarray(v, dtype=np.float64) - problem.x_star
    quad = np.matmul(np.matmul(delta[..., None, :], problem.qbar), delta[..., :, None])
    return (0.5 * quad[..., 0, 0]).tolist()
