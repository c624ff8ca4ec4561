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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseModel",
    "QuadraticProblem",
    "make_quadratic_suite",
    "exact_gradient",
    "exact_gradients",
    "stochastic_gradient",
    "stochastic_gradients",
    "global_value",
    "global_suboptimality",
]

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
        if self.sigma_bar < 0.0:
            raise ValueError(f"noise level must be nonnegative, got {self.sigma_bar}")

    def scale(self, d: int) -> float:
        """Coordinate standard deviation ``sigma_bar / sqrt(d)``."""
        return self.sigma_bar / np.sqrt(d)

    def sample(self, rng: np.random.Generator, d: int) -> np.ndarray:
        """Draw one noise vector of dimension ``d``."""
        return self.scale(d) * rng.standard_normal(d)


@dataclass(frozen=True)
class QuadraticProblem:
    """A suite of per-agent quadratics plus cached network-level quantities.

    Attributes:
        m: Number of agents.
        d: Decision dimension.
        quads: Stacked curvature matrices, shape ``(m, d, d)``; symmetric with
            eigenvalues in ``[mu, L]`` up to a ``1e-9`` tolerance.
        linears: Stacked linear terms, shape ``(m, d)``.
        mu: Strong convexity modulus, positive.
        L: Smoothness constant, at least ``mu``.
        sigma_bar: Gradient noise level (see :class:`NoiseModel`).
        heterogeneity: Spread knob used when the linear terms were drawn.
        noise: The noise model sampling gradient perturbations.
        qbar: Average curvature matrix ``mean(quads)``.
        cbar: Average linear term ``mean(linears)``.
        x_star: Network minimizer, solving ``qbar @ x_star = -cbar``.
        f_star: Network objective value at ``x_star``.
    """

    m: int
    d: int
    quads: np.ndarray
    linears: np.ndarray
    mu: float
    L: float
    sigma_bar: float
    heterogeneity: float
    noise: NoiseModel
    qbar: np.ndarray
    cbar: np.ndarray
    x_star: np.ndarray
    f_star: float

    def __post_init__(self) -> None:
        for name in ("quads", "linears", "qbar", "cbar", "x_star"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)
        if self.m < 1 or self.d < 1:
            raise ValueError(f"need m >= 1 and d >= 1, got m={self.m}, d={self.d}")
        if not (0.0 < self.mu <= self.L):
            raise ValueError(f"need 0 < mu <= L, got mu={self.mu}, L={self.L}")
        if self.quads.shape != (self.m, self.d, self.d):
            raise ValueError(f"curvature stack has shape {self.quads.shape}")
        if self.linears.shape != (self.m, self.d):
            raise ValueError(f"linear stack has shape {self.linears.shape}")
        for i in range(self.m):
            evals = np.linalg.eigvalsh(self.quads[i])
            if evals[0] < self.mu - _EIG_TOL or evals[-1] > self.L + _EIG_TOL:
                raise ValueError(
                    f"agent {i} eigenvalues [{evals[0]:.12g}, {evals[-1]:.12g}] "
                    f"escape [{self.mu}, {self.L}]"
                )


def _random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix with a deterministic sign convention."""
    gauss = rng.standard_normal((d, d))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


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

    quads = np.empty((m, d, d))
    for i in range(m):
        rotation = _random_rotation(rng, d)
        quads[i] = (rotation * slots[i]) @ rotation.T
        quads[i] = 0.5 * (quads[i] + quads[i].T)

    base_linear = rng.standard_normal(d)
    shifts = rng.standard_normal((m, d))
    shifts -= shifts.mean(axis=0)
    linears = base_linear + heterogeneity * shifts

    qbar = quads.mean(axis=0)
    cbar = linears.mean(axis=0)
    x_star = np.linalg.solve(qbar, -cbar)

    f_star = 0.5 * float(x_star @ qbar @ x_star) + float(cbar @ x_star)
    return QuadraticProblem(
        m=m,
        d=d,
        quads=quads,
        linears=linears,
        mu=float(mu),
        L=float(L),
        sigma_bar=float(sigma_bar),
        heterogeneity=float(heterogeneity),
        noise=NoiseModel(sigma_bar=float(sigma_bar)),
        qbar=qbar,
        cbar=cbar,
        x_star=x_star,
        f_star=f_star,
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


def global_value(problem: QuadraticProblem, v: np.ndarray) -> float:
    """Network objective at the shared point ``v``: the agent average."""
    v = np.asarray(v, dtype=np.float64)
    quad_terms = 0.5 * np.einsum("j,ijk,k->i", v, problem.quads, v)
    linear_terms = problem.linears @ v
    return float(np.mean(quad_terms + linear_terms))


def global_suboptimality(problem: QuadraticProblem, v: np.ndarray) -> float:
    """Gap ``f(v) - f(x*)`` computed through the cancellation-free route.

    Uses the identity ``f(v) - f(x*) = 0.5 * (v - x*)^T qbar (v - x*)``,
    which stays accurate near the minimizer where the two objective values
    would cancel.
    """
    v = np.asarray(v, dtype=np.float64)
    delta = v - problem.x_star
    return 0.5 * float(delta @ problem.qbar @ delta)
